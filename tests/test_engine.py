"""Event-loop semantics: injections, recovery timelines, sampling, statistics."""

import dataclasses
import json
import statistics
from pathlib import Path

import numpy as np
import pytest
from bench_inputs import storm_scenario
from test_acceptance import random_cluster_doc, random_injections

import hasim.cli
import hasim.engine
from hasim.cluster import (
    PhysicalHost,
    PowerState,
    VirtualMachine,
    VmLifecycle,
    check_state_invariants,
    host_load,
    pending_load,
)
from hasim.config import ClusterConfig, Scenario, load_scenario, parse_cluster_config
from hasim.controller import REBOOT, REINSTALL, RESTART, Action, HostView, Phase
from hasim.engine import (
    DESTRUCTIVE_CRASH,
    LOAD_SPIKE,
    NON_DESTRUCTIVE_CRASH,
    PHYSICAL_HOST_FAILURE,
    POWER_GLITCH,
    ConfigError,
    Episode,
    FailureInjection,
    SimReport,
    Simulation,
    sample_duration,
    summarize,
)
from hasim.presets import PRESETS
from hasim.provisioning import DEFAULT_PROFILE
from hasim.streams import PCG64Stream, seeded
from hasim.telemetry import UP

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def check_coherence(sim: Simulation) -> None:
    """Assert the load totals, the host table and the monitor's trains and
    coverage match the state.

    Each host's load totals equal `host_load` and `pending_load`. A table
    entry not marked stale equals a fresh view, but for a silent host's
    verdict, which is as of the last tick. The beat trains are exactly the
    responsive machines, the registered machines exactly the hosts and the
    bound VMs, and the silent set the rest of the registered machines.
    """
    state, monitor = sim.state, sim.monitor
    for host_id in state.hosts:
        assert sim._load(host_id) == host_load(state, host_id), f"host {host_id}: load"
        assert sim._boot_load[host_id] == pending_load(state, host_id), \
            f"host {host_id}: pending load"
    for host_id, view in sim._table.items():
        if host_id not in sim._stale:
            host = state.hosts[host_id]
            fresh = HostView(host_id, host.power_state is PowerState.ON, view.monitor_up,
                             host_load(state, host_id) + pending_load(state, host_id),
                             len(host.hosted_vms), host.load_threshold)
            assert view == fresh, f"host {host_id}: table entry {view} is stale ({fresh})"
            assert view.monitor_up or host_id in monitor.silent, \
                f"host {host_id} beats but is Down in the table"
    hosts, vms = state.hosts, state.vms.values()
    responsive = {h for h, host in hosts.items() if host.power_state is PowerState.ON} \
        | {vm.vm_id for vm in vms if vm.lifecycle is VmLifecycle.RUNNING}
    monitored = hosts.keys() | {vm.vm_id for vm in vms if vm.bound_host is not None}
    for name, actual, expected in (
            ("beat trains", monitor._train.keys(), responsive),
            ("registered machines", monitor._active, monitored),
            ("silent set", monitor.silent, monitored - responsive)):
        assert actual == expected, \
            f"{name} differ from the state: {sorted(actual ^ expected)}"


class EventCheckedSimulation(Simulation):
    """The engine with the full-graph check and `check_coherence` after
    every event: it overrides each `_on_*` handler `run` dispatches to.
    Slow, for focused tests."""

    def _check_event(self):
        check_state_invariants(self.state)
        check_coherence(self)

    def _on_inject(self, *args):
        super()._on_inject(*args)
        self._check_event()

    def _on_scan(self):
        super()._on_scan()
        self._check_event()

    def _on_boot_complete(self, *args):
        super()._on_boot_complete(*args)
        self._check_event()

    def _on_spike_end(self, *args):
        super()._on_spike_end(*args)
        self._check_event()


def test_event_checks_cover_every_event_kind():
    # A new event kind must get a checked handler too.
    assert {name for name in vars(EventCheckedSimulation) if name.startswith("_on_")} \
        == {name for name in dir(Simulation) if name.startswith("_on_")}


def one_host_config(**blocks):
    doc = {
        "hosts": [{"host_id": "node01", "cpu_count": 4, "ram_mb": 8192}],
        "vms": [{"vm_id": "svc01", "mac": "52:54:00:00:00:01",
                 "bound_host": "node01", "boot_profile": "default"}],
        "profiles": {"default": {}},
        "timing": {"boot_jitter_s": 0, "reinstall_jitter_s": 0},
    }
    doc.update(blocks)
    return parse_cluster_config(doc)


def two_host_config():
    return parse_cluster_config({
        "hosts": [{"host_id": "node01", "cpu_count": 4, "ram_mb": 8192},
                  {"host_id": "node02", "cpu_count": 4, "ram_mb": 8192}],
        "vms": [{"vm_id": "svc01", "mac": "52:54:00:00:00:01",
                 "bound_host": "node01", "boot_profile": "default"},
                {"vm_id": "svc02", "mac": "52:54:00:00:00:02",
                 "bound_host": "node01", "boot_profile": "default"}],
        "profiles": {"default": {}},
        "timing": {"boot_jitter_s": 0, "reinstall_jitter_s": 0},
    })


# -- sample_duration ------------------------------------------------------


def test_sample_duration_zero_jitter():
    rng = np.random.default_rng(0)
    assert sample_duration(80, 0, rng) == 80


def test_sample_duration_within_bounds():
    rng = np.random.default_rng(1)
    for _ in range(500):
        assert 70 <= sample_duration(80, 10, rng) <= 90


def test_sample_duration_statistics_oracle():
    rng = np.random.default_rng(2)
    draws = [sample_duration(442, 17, rng) for _ in range(100_000)]
    assert min(draws) == 425
    assert max(draws) == 459
    assert abs(statistics.mean(draws) - 442) < 0.5


def rng_state(rng) -> tuple:
    """A numpy Generator's or a PCG64Stream's whole state."""
    if isinstance(rng, PCG64Stream):
        return rng.state, rng.inc, rng.has_uint32, rng.uinteger
    s = rng.bit_generator.state
    return s["state"]["state"], s["state"]["inc"], s["has_uint32"], s["uinteger"]


def test_sample_duration_consumes_exactly_one_draw():
    # One draw for a jitter above zero; none for a zero jitter, whose range
    # holds one value. A numpy Generator and a PCG64Stream alike.
    for make in (np.random.default_rng, seeded):
        a, b = make(5), make(5)
        sample_duration(80, 10, a)
        b.integers(70, 91)
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)
        before = rng_state(a)
        assert sample_duration(80, 0, a) == 80
        assert rng_state(a) == before
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)


# -- single-failure timelines (hand-derived from the scan/staleness rules) --


def test_non_destructive_crash_timeline():
    # Crash at 130; staleness reaches 70 at 200; first scan >= 200 is 240.
    # Reboot at 240 completes 80 s later with zero jitter.
    report = Simulation(one_host_config(),
                        [FailureInjection(130, NON_DESTRUCTIVE_CRASH, "svc01")],
                        600, seed=1).run()
    ep = report.episodes[0]
    assert ep.failure_at == 130
    assert ep.detected_at == 240
    assert [(t, a.kind) for t, a in ep.actions] == [(240, REBOOT)]
    assert ep.recovered_at == 320
    assert ep.recovery_s == 190
    assert ep.recovered_on == "node01"


def test_destructive_crash_timeline():
    # Full escalation: reboot at 240, restart at 240+180, reinstall at +360,
    # installation takes 442 s with zero jitter.
    report = Simulation(one_host_config(),
                        [FailureInjection(130, DESTRUCTIVE_CRASH, "svc01")],
                        1200, seed=1).run()
    ep = report.episodes[0]
    assert [(t, a.kind) for t, a in ep.actions] == [
        (240, REBOOT), (420, RESTART), (600, REINSTALL)]
    assert ep.detected_at == 240
    assert ep.recovered_at == 600 + 442
    assert ep.recovery_s == 912


def test_reinstall_repairs_the_system_for_later_crashes():
    # After the reinstall completes at 1042, a soft crash needs one reboot.
    report = Simulation(one_host_config(),
                        [FailureInjection(130, DESTRUCTIVE_CRASH, "svc01"),
                         FailureInjection(1100, NON_DESTRUCTIVE_CRASH, "svc01")],
                        1500, seed=1).run()
    assert report.episodes[0].recovered_at == 1042
    ep = report.episodes[1]
    assert [(t, a.kind) for t, a in ep.actions] == [(1200, REBOOT)]
    assert ep.recovered_at == 1200 + 80


def test_non_destructive_episode_has_no_reinstall():
    report = Simulation(one_host_config(),
                        [FailureInjection(130, NON_DESTRUCTIVE_CRASH, "svc01")],
                        600, seed=3).run()
    kinds = [a.kind for _, a in report.episodes[0].actions]
    assert REINSTALL not in kinds


def test_destructive_episode_has_exactly_one_reinstall():
    report = Simulation(one_host_config(),
                        [FailureInjection(130, DESTRUCTIVE_CRASH, "svc01")],
                        1200, seed=3).run()
    kinds = [a.kind for _, a in report.episodes[0].actions]
    assert kinds.count(REINSTALL) == 1


def test_zero_injections_everything_stays_up():
    sim = Simulation(one_host_config(), [], 600, seed=1)
    report = sim.run()
    assert report.episodes == []
    snap = sim.monitor.snapshot(600)
    assert all(e.verdict == UP for e in snap.entries.values())


def test_detection_window_causality():
    # detected - failed must lie in [latency, latency + heartbeat + scan].
    config = one_host_config()
    for seed, crash_at in enumerate(range(120, 180)):
        report = Simulation(
            config, [FailureInjection(crash_at, NON_DESTRUCTIVE_CRASH, "svc01")],
            600, seed=seed).run()
        ep = report.episodes[0]
        assert 70 <= ep.detection_s <= 70 + 10 + 60


def test_physical_host_failure_moves_vms():
    config = two_host_config()
    report = Simulation(config,
                        [FailureInjection(130, PHYSICAL_HOST_FAILURE, host_id="node01")],
                        900, seed=1, collect_trace=True).run()
    assert len(report.episodes) == 2
    for ep in report.episodes:
        assert ep.kind == PHYSICAL_HOST_FAILURE
        # No reboot attempt for VMs on a dead host.
        kinds = [a.kind for _, a in ep.actions]
        assert kinds[0] == RESTART
        assert ep.recovered_on == "node02"
        assert ep.recovered_at is not None


def test_power_glitch_host_comes_back_but_vms_need_recovery():
    config = two_host_config()
    sim = Simulation(config,
                     [FailureInjection(130, POWER_GLITCH, hosts=("node01",))],
                     900, seed=1)
    report = sim.run()
    # Host boots itself back (80 s at zero jitter) and beats again.
    snap = sim.monitor.snapshot(900)
    assert snap.entries["node01"].verdict == UP
    assert len(report.episodes) == 2
    assert all(ep.recovered_at is not None for ep in report.episodes)


def test_host_failure_while_glitched_host_boots_back_keeps_it_off():
    # node01 would be back at 180; the failure at 120 cancels that boot, so
    # the first scan that sees node01 Down restarts both VMs on node02.
    glitch = FailureInjection(100, POWER_GLITCH, hosts=("node01",))
    failure = FailureInjection(120, PHYSICAL_HOST_FAILURE, host_id="node01")
    sim = Simulation(two_host_config(), [glitch, failure], 900, seed=1,
                     collect_trace=True)
    report = sim.run()
    assert sim.state.hosts["node01"].power_state is PowerState.OFF
    assert not any("node01 up" in line for line in report.trace)
    assert [(ep.vm_id, ep.recovered_on, [(t, str(a)) for t, a in ep.actions])
            for ep in report.episodes] == [
        ("svc01", "node02", [(180, "restart svc01 node02")]),
        ("svc02", "node02", [(180, "restart svc02 node02")])]

    # A second glitch on a host that is booting back changes nothing.
    sim = Simulation(two_host_config(), [glitch, dataclasses.replace(glitch, at=120)],
                     900, seed=1, collect_trace=True)
    sim.run()
    assert sim.state.hosts["node01"].power_state is PowerState.ON
    assert "120 inject_skipped power_glitch node01" in sim.trace


def test_load_spike_defers_restart_until_it_ends():
    # Destructive crash on a host pinned over threshold: the restart due at
    # t=420 is deferred; the spike ends at 520 and the next scan (540)
    # places the restart; reinstall follows one t2 later.
    config = one_host_config()
    injections = [
        FailureInjection(0, LOAD_SPIKE, host_id="node01", extra_load=6000,
                         duration_s=520),
        FailureInjection(130, DESTRUCTIVE_CRASH, "svc01"),
    ]
    report = Simulation(config, injections, 1400, seed=1).run()
    ep = report.episodes[0]
    assert [(t, a.kind) for t, a in ep.actions] == [
        (240, REBOOT), (420, "defer"), (540, RESTART), (720, REINSTALL)]
    assert ep.recovered_at == 720 + 442


def test_waiting_vm_is_parked_out_of_monitoring():
    config = one_host_config()
    injections = [
        FailureInjection(0, LOAD_SPIKE, host_id="node01", extra_load=6000,
                         duration_s=3000),
        FailureInjection(130, DESTRUCTIVE_CRASH, "svc01"),
    ]
    sim = Simulation(config, injections, 900, seed=1)
    report = sim.run()
    snap = sim.monitor.snapshot(900)
    assert "svc01" not in snap.entries
    assert report.episodes[0].recovered_at is None  # counted separately


def test_injection_unknown_target_rejected():
    with pytest.raises(ConfigError):
        Simulation(one_host_config(),
                   [FailureInjection(10, NON_DESTRUCTIVE_CRASH, "ghost")], 100).run()


def test_simulation_reports_every_injection_problem():
    injections = [
        FailureInjection(10, NON_DESTRUCTIVE_CRASH, "ghost"),
        FailureInjection(-1, PHYSICAL_HOST_FAILURE, host_id="node01"),
        FailureInjection(10, LOAD_SPIKE, host_id="node01", extra_load=1000),
        FailureInjection(10, "meteor_strike"),
        FailureInjection(700, POWER_GLITCH, hosts=("node01", "nope")),
    ]
    with pytest.raises(ConfigError) as exc:
        Simulation(one_host_config(), injections, 600)
    assert str(exc.value) == "; ".join(exc.value.problems)
    assert exc.value.problems == [
        "injections[0]: unknown vm 'ghost'",
        "injections[1].at: must be >= 0",
        "injections[2].duration_s: must be >= 1",
        "injections[3].kind: expected one of non_destructive_crash, "
        "destructive_crash, physical_host_failure, power_glitch, load_spike",
        "injections[4]: unknown host 'nope'",
        "injections[4]: at=700 exceeds horizon_s",
    ]


def test_loads_in_units_are_rejected():
    # Loads and thresholds are int milli-units; 0.5 once ran as 0.0005.
    spike = FailureInjection(0, LOAD_SPIKE, host_id="node01", extra_load=0.5,
                             duration_s=100)
    with pytest.raises(ConfigError, match=r"^injections\[0\]\.extra_load: expected an int"):
        Simulation(one_host_config(), [spike], 600)
    config = one_host_config()
    config.vms[0].load_contribution = 1.0
    with pytest.raises(ConfigError, match="^vm 'svc01': load_contribution is not an int"):
        Simulation(config, [], 600)
    config = one_host_config()
    config.hosts[0].load_threshold = 4.0
    with pytest.raises(ConfigError, match="^host 'node01': load_threshold is not an int"):
        Simulation(config, [], 600)


def test_negative_load_spikes_are_rejected():
    # A spike of -5.0 once took 5 units off the host's load for placement.
    config = parse_cluster_config(PRESETS["nondestructive"].cluster_doc)
    spike = FailureInjection(10, LOAD_SPIKE, host_id="node01", extra_load=-5000,
                             duration_s=100)
    with pytest.raises(ConfigError) as exc:
        Simulation(config, [spike], 600)
    assert str(exc.value) == "injections[0].extra_load: must be >= 0.0"


@pytest.mark.parametrize("field, problem", [
    ("bound_host", "vm 'svc01': unknown bound_host 'nope'"),
    ("boot_profile", "vm 'svc01': unknown profile 'nope'"),
], ids=["bound_host", "boot_profile"])
def test_python_built_config_naming_an_unknown_machine_or_profile(field, problem):
    # One problem line each, not a KeyError from set-up or from the boot.
    config = parse_cluster_config(PRESETS["nondestructive"].cluster_doc)
    setattr(config.vms[0], field, "nope")
    with pytest.raises(ConfigError) as exc:
        Simulation(config, [FailureInjection(100, NON_DESTRUCTIVE_CRASH, "svc01")], 600).run()
    assert str(exc.value) == problem


@pytest.mark.parametrize("vm_changes, host_power, problem", [
    ({"bound_host": None}, PowerState.ON, "vm 'svc01': running without a bound_host"),
    ({"bound_host": None, "lifecycle": VmLifecycle.BOOTING}, PowerState.ON,
     "vm 'svc01': booting without a bound_host"),
    ({"lifecycle": VmLifecycle.WAITING_FOR_CAPACITY}, PowerState.ON,
     "vm 'svc01': waiting_for_capacity while bound to 'node01'"),
    ({}, PowerState.OFF, "vm 'svc01': running on powered-off host 'node01'"),
    ({"lifecycle": VmLifecycle.UNRESPONSIVE}, PowerState.OFF,
     "vm 'svc01': unresponsive on powered-off host 'node01'"),
], ids=["unbound_running", "unbound_booting", "bound_waiting", "running_on_off_host",
        "unresponsive_on_off_host"])
def test_python_built_config_breaking_a_binding_rule(vm_changes, host_power, problem,
                                                     capsys, monkeypatch):
    # One problem line, not a bare AssertionError at the end of the run (an
    # unbound running VM) or a silent run with no episode (a bound VM that
    # waits for capacity); `hasim run` reports it.
    config = parse_cluster_config(PRESETS["nondestructive"].cluster_doc)
    for field, value in vm_changes.items():
        setattr(config.vms[0], field, value)
    config.hosts[0].power_state = host_power
    crash = [FailureInjection(100, NON_DESTRUCTIVE_CRASH, "svc01")]
    with pytest.raises(ConfigError) as exc:
        Simulation(config, crash, 600).run()
    assert exc.value.problems == [problem]
    monkeypatch.setattr(hasim.cli, "load_scenario",
                        lambda *args, **kwargs: Scenario(config, crash, 600))
    assert hasim.cli.main(["run", str(SCENARIOS / "power_glitch.json")]) == 1
    assert capsys.readouterr() == (problem + "\n", "")


@pytest.mark.parametrize("block, field, value", [
    ("telemetry", "detection_latency_s", 5),
    ("timing", "controller_phase_s", 60),
    ("controller", "scan_period_s", 0),
], ids=["detection_latency_s", "controller_phase_s", "scan_period_s"])
def test_python_built_config_breaking_a_scan_rule(block, field, value, capsys, monkeypatch):
    # The reader's one problem line, not a silent run (latency 5 s against
    # beats every 10 s) or a bare AssertionError; `hasim run` reports it.
    doc = PRESETS["nondestructive"].cluster_doc
    with pytest.raises(ConfigError) as read:
        parse_cluster_config({**doc, block: {**doc.get(block, {}), field: value}})
    [problem] = read.value.problems
    config = parse_cluster_config(doc)
    setattr(getattr(config, block), field, value)
    crash = [FailureInjection(100, NON_DESTRUCTIVE_CRASH, "svc01")]
    with pytest.raises(ConfigError) as exc:
        Simulation(config, crash, 600).run()
    assert exc.value.problems == [problem]
    monkeypatch.setattr(hasim.cli, "load_scenario",
                        lambda *args, **kwargs: Scenario(config, crash, 600))
    assert hasim.cli.main(["run", str(SCENARIOS / "power_glitch.json")]) == 1
    assert capsys.readouterr() == (problem + "\n", "")


def test_injection_on_non_running_vm_skipped():
    config = one_host_config()
    injections = [
        FailureInjection(130, NON_DESTRUCTIVE_CRASH, "svc01"),
        FailureInjection(140, DESTRUCTIVE_CRASH, "svc01"),
    ]
    report = Simulation(config, injections, 600, seed=1, collect_trace=True).run()
    assert len(report.episodes) == 1
    assert any("inject_skipped" in line for line in report.trace)


def test_determinism_same_seed_identical_everything():
    config = two_host_config()
    injections = [FailureInjection(130, POWER_GLITCH, hosts=("node01",))]
    runs = [Simulation(config, injections, 900, seed=99, collect_trace=True,
                       emit_monitor_log=True).run() for _ in range(2)]
    assert runs[0].trace == runs[1].trace
    assert runs[0].monitor_log == runs[1].monitor_log
    assert runs[0].episodes == runs[1].episodes


def test_different_seeds_differ():
    config = one_host_config(timing={"boot_jitter_s": 10, "reinstall_jitter_s": 17})
    injections = [FailureInjection(130, NON_DESTRUCTIVE_CRASH, "svc01")]
    a = Simulation(config, injections, 600, seed=1).run()
    b = Simulation(config, injections, 600, seed=2).run()
    assert a.episodes[0].recovered_at != b.episodes[0].recovered_at


def test_unseeded_simulation_uses_seed_zero():
    config = one_host_config(timing={"boot_jitter_s": 10, "reinstall_jitter_s": 17})
    injections = [FailureInjection(130, DESTRUCTIVE_CRASH, "svc01")]
    unseeded = Simulation(config, injections, 1500, collect_trace=True).run()
    assert unseeded.trace == Simulation(config, injections, 1500, seed=0,
                                        collect_trace=True).run().trace


def test_numpy_integer_seed_runs_as_the_int():
    # A numpy integer is a seed, not a generator: it starts the stream an int
    # starts, which is the stream of np.random.default_rng(seed).
    scenario = load_scenario((SCENARIOS / "power_glitch.json").read_text(),
                             base_dir=SCENARIOS)
    runs = [Simulation(scenario.config, scenario.injections, scenario.horizon_s,
                       seed=seed, collect_trace=True, emit_monitor_log=True).run()
            for seed in (5, np.int64(5), np.random.default_rng(5))]
    assert runs[0].episodes and runs[0] == runs[1] == runs[2]
    other = Simulation(scenario.config, scenario.injections, scenario.horizon_s, seed=6).run()
    assert other.episodes != runs[0].episodes


def test_trace_contains_pxe_bind_records():
    report = Simulation(one_host_config(),
                        [FailureInjection(130, DESTRUCTIVE_CRASH, "svc01")],
                        1200, seed=1, collect_trace=True).run()
    assert "600 pxe_bind 52:54:00:00:00:01 install:default" in report.trace
    assert "1042 pxe_bind 52:54:00:00:00:01 local" in report.trace


def test_untraced_runs_format_no_trace_text(monkeypatch):
    # An untraced run builds no trace line, so it never renders an action or
    # a spike's load as text; a traced run renders each once, for its line.
    scenario = storm_scenario(1)
    rendered = []
    action_text, load_text = Action.__str__, hasim.engine.load_text
    monkeypatch.setattr(Action, "__str__", lambda a: rendered.append(a) or action_text(a))
    monkeypatch.setattr(hasim.engine, "load_text", lambda x: rendered.append(x) or load_text(x))

    def run(traced):
        rendered.clear()
        return Simulation(scenario.config, scenario.injections, scenario.horizon_s,
                          seed=scenario.seed, collect_trace=traced).run()

    untraced = run(False)
    assert rendered == []
    traced = run(True)
    actions = sum(1 for line in traced.trace if line.split()[1] == "action")
    spikes = sum(1 for inj in scenario.injections if inj.kind == LOAD_SPIKE)
    assert len(rendered) == actions + spikes and actions > 100 and spikes > 0
    assert traced.episodes == untraced.episodes


def test_monitor_log_emitted_per_scan():
    report = Simulation(one_host_config(), [], 300, seed=1,
                        emit_monitor_log=True).run()
    # Scans at 0, 60, ..., 300.
    assert len(report.monitor_log) == 6
    assert all(line.startswith("<CLUSTER TAKEN_AT=") for line in report.monitor_log)


# h1 fails for good at 100 s. Its VM v fits nowhere else and waits for
# capacity from the scan at 180 s on, when nothing can change any more.
WAITING_SCENARIO = {
    "cluster": {
        "hosts": [{"host_id": "h1", "cpu_count": 4, "ram_mb": 4096, "load_threshold": 4},
                  {"host_id": "h2", "cpu_count": 4, "ram_mb": 4096, "load_threshold": 1}],
        "vms": [{"vm_id": "v", "mac": "52:54:00:00:00:01", "bound_host": "h1",
                 "boot_profile": "p", "load_contribution": 2}],
        "profiles": {"p": {}},
    },
    "horizon_s": 7200,
    "injections": [{"at": 100, "kind": "physical_host_failure", "host": "h1"}],
}


def test_untraced_run_ends_early_with_the_same_outcome():
    # Monitor log off, a scan schedules the next scan that can act or follow
    # an event, or none: the run ends on an empty heap, or when that one
    # scan, and any other event left, lies past the horizon. A traced run
    # ends at the same instant, with the `scan` lines of the instants it
    # jumped over. A logged run walks every scan to the horizon. The first
    # two runs end on an empty heap while a VM keeps its record: v waits for capacity, or requires a human from 1080 s on,
    # after its host failed during the third reinstall (installs take
    # longer than the reinstall patience, so each is cut off by a restart).
    waiting = load_scenario(json.dumps(WAITING_SCENARIO))
    cases = [(waiting.config, waiting.injections, waiting.horizon_s, 1)]
    human = one_host_config(profiles={"default": {"install_s": 600}},
                            controller={"reinstall_patience_s": 60})
    cases.append((human, [FailureInjection(100, DESTRUCTIVE_CRASH, "svc01"),
                          FailureInjection(1050, PHYSICAL_HOST_FAILURE, host_id="node01")],
                  7200, 1))
    for name in ("power_glitch.json", "power_glitch_noreboot.json"):
        scenario = load_scenario((SCENARIOS / name).read_text(), base_dir=SCENARIOS)
        cases.append((scenario.config, scenario.injections, scenario.horizon_s,
                      scenario.seed))
    # The first 500 scenarios of acceptance criterion 5, same generator and seeds.
    rng = np.random.default_rng(20260809)
    for i in range(500):
        doc = random_cluster_doc(rng)
        cases.append((parse_cluster_config(doc), random_injections(rng, doc), 720,
                      1_000_000 + i))
    ended_early, emptied, records = [], [], []
    for config, injections, horizon_s, seed in cases:
        logged = Simulation(config, injections, horizon_s, seed=seed, collect_trace=True,
                            emit_monitor_log=True)
        expected = logged.run()
        assert logged.now > horizon_s - config.controller.scan_period_s
        quiet = Simulation(config, injections, horizon_s, seed=seed)
        traced = Simulation(config, injections, horizon_s, seed=seed, collect_trace=True)
        assert quiet.run().episodes == traced.run().episodes == expected.episodes
        assert traced.trace == expected.trace
        assert quiet.now == traced.now
        for sim in (quiet, traced):
            assert sim.records == logged.records
            assert sim.state == logged.state
            if sim.now < logged.now:
                assert all(at > horizon_s for at, _, _, _ in sim._heap)
                assert [kind for _, _, kind, _ in sim._heap].count("scan") <= 1
        ended_early.append(quiet.now < logged.now)
        emptied.append(quiet._heap == [])
        records.append(quiet.records)
    assert ended_early[:2] == emptied[:2] == [True, True]
    assert [rec.phase for r in records[:2] for rec in r.values()] == [
        Phase.AWAITING_CAPACITY, Phase.REQUIRES_HUMAN]
    assert sum(ended_early) > 2  # the comparison covers runs that ended early


# -- summarize -------------------------------------------------------------


def make_report(recoveries, kind="non_destructive_crash"):
    episodes = [
        Episode(vm_id=f"v{i}", kind=kind, failure_at=0, detected_at=100,
                recovered_at=r)
        for i, r in enumerate(recoveries)
    ]
    return SimReport(episodes=episodes, horizon_s=1000)


def test_summarize_trivial_pair():
    stats = summarize(make_report([180, 180]))
    assert len(stats) == 1
    assert stats[0].count == 2
    assert stats[0].mean_s == 180.0
    assert stats[0].stddev_s == 0.0


def test_summarize_empty_report():
    assert summarize(SimReport(episodes=[], horizon_s=10)) == []


def test_summarize_matches_naive_reference():
    rng = np.random.default_rng(31)
    recoveries = [int(rng.integers(100, 700)) for _ in range(1000)]
    stats = summarize(make_report(recoveries), bin_width_s=25)[0]
    assert stats.count == len(recoveries)
    assert stats.mean_s == pytest.approx(statistics.fmean(recoveries))
    assert stats.stddev_s == pytest.approx(statistics.pstdev(recoveries))
    assert stats.min_s == min(recoveries)
    assert stats.max_s == max(recoveries)
    # Histogram: independent bin counting.
    expected_bins = {}
    for r in recoveries:
        expected_bins[r // 25 * 25] = expected_bins.get(r // 25 * 25, 0) + 1
    assert sum(c for _, c in stats.histogram) == len(recoveries)
    for bin_start, count in stats.histogram:
        assert count == expected_bins.get(bin_start, 0)


def test_summarize_excludes_unrecovered():
    report = make_report([200, 300])
    report.episodes.append(Episode("vx", "non_destructive_crash", 0))
    stats = summarize(report)
    assert stats[0].count == 2
    assert len(report.unrecovered()) == 1


# -- cross-cutting checks ----------------------------------------------------


def test_pxe_bindings_change_only_through_bind_and_revert():
    # Exhaustive trace inspection: every install binding appears with the
    # reinstall action that set it, every revert with a completed install.
    report = Simulation(one_host_config(),
                        [FailureInjection(130, DESTRUCTIVE_CRASH, "svc01")],
                        1200, seed=1, collect_trace=True).run()
    binds = [line for line in report.trace if " pxe_bind " in line]
    reinstall_times = {line.split()[0] for line in report.trace
                       if " action reinstall " in line}
    complete_times = {line.split()[0] for line in report.trace
                      if " install_complete " in line}
    assert binds, "no binding records in trace"
    for line in binds:
        t, _, _, mode = line.split()
        if mode.startswith("install:"):
            assert t in reinstall_times, line
        else:
            assert mode == "local" and t in complete_times, line


def test_random_scenarios_with_per_event_invariants():
    # Full graph invariants after every single event, on a smaller batch.
    rng = np.random.default_rng(555)
    for i in range(200):
        n_hosts = int(rng.integers(1, 5))
        doc = {
            "hosts": [{"host_id": f"h{k}", "cpu_count": int(rng.integers(1, 9)),
                       "ram_mb": 4096} for k in range(n_hosts)],
            "vms": [{"vm_id": f"v{j}", "mac": f"52:54:00:00:01:{j:02x}",
                     "bound_host": f"h{int(rng.integers(0, n_hosts))}",
                     "boot_profile": "p",
                     "load_contribution": int(rng.integers(1, 9)) * 0.25,
                     "reinstall_allowed": bool(rng.random() < 0.8)}
                    for j in range(int(rng.integers(1, 9)))],
            "profiles": {"p": {}},
        }
        config = parse_cluster_config(doc)
        vms = [v["vm_id"] for v in doc["vms"]]
        hosts = [h["host_id"] for h in doc["hosts"]]
        injections = [FailureInjection(
            int(rng.integers(60, 121)),
            [NON_DESTRUCTIVE_CRASH, DESTRUCTIVE_CRASH, PHYSICAL_HOST_FAILURE,
             POWER_GLITCH][int(rng.integers(0, 4))],
            vm_id=vms[int(rng.integers(0, len(vms)))],
            host_id=hosts[int(rng.integers(0, len(hosts)))],
            hosts=(hosts[0],),
        )]
        # Normalize fields the chosen kind does not use.
        inj = injections[0]
        if inj.kind in (NON_DESTRUCTIVE_CRASH, DESTRUCTIVE_CRASH):
            injections = [FailureInjection(inj.at, inj.kind, vm_id=inj.vm_id)]
        elif inj.kind == PHYSICAL_HOST_FAILURE:
            injections = [FailureInjection(inj.at, inj.kind, host_id=inj.host_id)]
        else:
            injections = [FailureInjection(inj.at, inj.kind, hosts=inj.hosts)]
        EventCheckedSimulation(config, injections, 720, seed=i).run()


# -- transitions ---------------------------------------------------------


def test_each_transition_keeps_caches_and_monitor_coherent_by_itself():
    # Every host's table entry is refreshed before each transition, which
    # must then leave the table, the beat trains and the coverage matching
    # the state.
    sim = Simulation(two_host_config(), [], 900, seed=1)
    vm, host = sim.state.vms["svc01"], sim.state.hosts["node02"]
    steps = [
        lambda: sim._set_lifecycle(vm, VmLifecycle.UNRESPONSIVE),
        lambda: sim._set_lifecycle(vm, VmLifecycle.BOOTING),
        lambda: sim._move(vm, "node02"),
        lambda: sim._move(vm, None),
        lambda: sim._set_lifecycle(vm, VmLifecycle.WAITING_FOR_CAPACITY),
        lambda: sim._move(vm, "node02"),
        lambda: sim._set_lifecycle(vm, VmLifecycle.INSTALLING),
        lambda: sim._set_lifecycle(vm, VmLifecycle.RUNNING),
        lambda: sim._add_extra_load("node02", 500),
        lambda: sim._set_power(host, PowerState.OFF),
        lambda: sim._set_lifecycle(vm, VmLifecycle.HALTED),
        lambda: sim._add_extra_load("node02", -500),
        lambda: sim._set_power(host, PowerState.ON),
    ]
    for step in steps:
        sim._stale.update(sim.state.hosts)
        sim._refresh_table(sim.monitor.snapshot(sim.now))
        step()
        check_coherence(sim)


def test_load_totals_equal_fresh_host_and_pending_loads():
    # The engine keeps each host's running and booting load as int totals
    # that the transitions move by deltas. Under random transitions they must
    # equal a fresh `host_load` and `pending_load`, on loads in tenths and in
    # whole units, and zero loads.
    rng = np.random.default_rng(20261019)
    bound = [VmLifecycle.RUNNING, VmLifecycle.UNRESPONSIVE, VmLifecycle.HALTED,
             VmLifecycle.BOOTING, VmLifecycle.INSTALLING]

    def pick(options):
        return options[int(rng.integers(0, len(options)))]

    for _ in range(200):
        hosts = [PhysicalHost(f"h{i}", 4, 8192, 100_000) for i in range(3)]
        vms = [VirtualMachine(f"v{j:02d}", f"52:54:00:00:00:{j:02x}",
                              pick(hosts).host_id, "default", pick(bound),
                              load_contribution=pick([int(rng.integers(1, 20)) * 100,
                                                      int(rng.integers(0, 5)) * 1000, 0]))
               for j in range(int(rng.integers(1, 13)))]
        sim = Simulation(ClusterConfig(hosts, vms, profiles={"default": DEFAULT_PROFILE}),
                         [], 10**6)
        state = sim.state
        for step in range(40):
            sim.now += 1
            vm, host = pick(list(state.vms.values())), pick(list(state.hosts.values()))
            kind = int(rng.integers(0, 5))
            if kind < 2 and vm.lifecycle is VmLifecycle.RUNNING:
                sim._set_lifecycle(vm, VmLifecycle.HALTED)  # the engine moves no running VM
            if vm.bound_host is None:
                sim._move(vm, host.host_id)
                sim._set_lifecycle(vm, pick(bound))
            elif kind == 0:
                sim._move(vm, None)
                sim._set_lifecycle(vm, VmLifecycle.WAITING_FOR_CAPACITY)
            elif kind == 1:
                sim._move(vm, host.host_id)
            elif kind == 2:
                sim._set_power(host, PowerState.OFF if host.power_state is PowerState.ON
                               else PowerState.ON)
            elif kind == 3:  # a spike starts, or every spike on the host ends
                extra = state.extra_load.get(host.host_id, 0)
                sim._add_extra_load(host.host_id, pick([int(rng.integers(1, 20)) * 100, -extra]))
            else:
                sim._set_lifecycle(vm, pick(bound))
            for host_id in state.hosts:
                assert sim._load(host_id) == host_load(state, host_id)
                assert sim._boot_load[host_id] == pending_load(state, host_id)
            assert all(state.extra_load.values()), "an ended spike leaves no 0 entry"


def test_power_transition_cancels_a_pending_host_boot():
    sim = Simulation(two_host_config(), [], 900, seed=1, collect_trace=True)
    sim.now = 100
    sim._on_inject(FailureInjection(100, POWER_GLITCH, hosts=("node01",)))
    (at, _, _, (_, ticket)), = [e for e in sim._heap if e[2] == "boot_complete"]
    # Power comes back before the scheduled boot completes.
    sim._set_power(sim.state.hosts["node01"], PowerState.ON)
    sim.now = at
    sim._on_boot_complete("node01", ticket)
    assert not any("boot_complete node01" in line for line in sim.trace)


def test_restart_on_its_own_host_keeps_the_vm_list():
    config = parse_cluster_config({
        "hosts": [{"host_id": "node01", "cpu_count": 4, "ram_mb": 8192}],
        "vms": [{"vm_id": f"svc0{i}", "mac": f"52:54:00:00:00:0{i}",
                 "bound_host": "node01", "boot_profile": "default"}
                for i in (1, 2)],
        "profiles": {"default": {}},
        "controller": {"reboot_step_enabled": False},
    })
    sim = Simulation(config, [FailureInjection(130, NON_DESTRUCTIVE_CRASH, "svc01")],
                     600, seed=1)
    report = sim.run()
    assert [str(a) for _, a in report.episodes[0].actions] == ["restart svc01 node01"]
    assert report.episodes[0].recovered_at is not None
    assert sim.state.hosts["node01"].hosted_vms == ["svc01", "svc02"]


# -- exact loads -----------------------------------------------------------


def test_no_placement_brings_a_host_to_its_threshold():
    # Host a sits at 4.4 under a threshold of 6.4, and w's 2.0 would take it
    # to exactly 6.4: w must wait. The float sum 1.1 + 1.2 + 1.9 + 0.2 + 2.0
    # is 6.3999999999999995, which once let the restart through.
    doc = {"hosts": [{"host_id": "a", "cpu_count": 8, "ram_mb": 1024, "load_threshold": 6.4},
                     {"host_id": "b", "cpu_count": 4, "ram_mb": 1024}],
           "vms": [{"vm_id": f"v{i}", "mac": f"52:54:00:00:00:0{i}", "bound_host": "a",
                    "boot_profile": "p", "load_contribution": load}
                   for i, load in enumerate([1.1, 1.2, 1.9, 0.2])]
           + [{"vm_id": "w", "mac": "52:54:00:00:00:09", "bound_host": "b",
               "boot_profile": "p", "load_contribution": 2.0}],
           "profiles": {"p": {}}}
    sim = Simulation(parse_cluster_config(doc),
                     [FailureInjection(100, PHYSICAL_HOST_FAILURE, host_id="b")], 600)
    report = sim.run()
    assert [str(a) for _, a in report.episodes[0].actions] == ["defer w"]
    assert host_load(sim.state, "a") == 4400


def test_a_spike_that_ends_leaves_the_exact_load():
    # Spikes of 0.2 and 0.4 overlap on a host running 1.0; once the 0.2 one
    # ends, the float sum 1.0 + (0.2 + 0.4 - 0.2) logged 1.4000000000000001.
    config = one_host_config()
    injections = [FailureInjection(0, LOAD_SPIKE, host_id="node01", extra_load=200,
                                   duration_s=100),
                  FailureInjection(50, LOAD_SPIKE, host_id="node01", extra_load=400,
                                   duration_s=200)]
    sim = Simulation(config, injections, 300, collect_trace=True, emit_monitor_log=True)
    report = sim.run()
    assert "0 inject load_spike node01 0.2 100" in report.trace
    assert "50 inject load_spike node01 0.4 200" in report.trace
    loads = [line.split('NAME="node01"')[1].split('"')[3] for line in report.monitor_log]
    assert loads == ["1.0", "1.6", "1.4", "1.4", "1.4", "1.0"]
    assert sim.state.extra_load == {}
