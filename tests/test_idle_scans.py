"""Skipped scans against the full scans they stand for.

A scan that cannot decide anything skips the snapshot, the view and `tick`,
and a run does not even schedule the scans before the next one that could
tick or that follows an event; a traced run writes their `scan` lines when
it jumps over them. At every scan the engine skips, and at every grid
instant up to the horizon that a run jumps over or leaves out by ending
early, SkipCheckedSimulation runs the full scan it replaces: a snapshot of
every registered machine, a view of every host and `tick` over every VM.
That scan must return exactly `records`, no action and no new detection. No
event runs before a jumped-over instant, so its full scan runs with the
state as it is when the next scan is scheduled. A skipped scan must not
tick, and every other scan must. With per-event checks it also holds the
cluster state equal to a deep copy across every skipped scan, and at every
scan after which no transition or action happened since the previous scan.
Every host and VM that no transition touched since the previous scan, which
the scan's invariant check leaves out, must equal its copy as well.
"""

import copy
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import random_cluster_doc, random_injections
from test_engine import EventCheckedSimulation, two_host_config
from test_scan_oracle import full_view, overlapping_scenario

import hasim.engine
import hasim.presets
from hasim.cluster import PowerState, VmLifecycle
from hasim.config import load_scenario, parse_cluster_config
from hasim.controller import REBOOT, Action, VmInfo, tick
from hasim.engine import (
    DESTRUCTIVE_CRASH,
    NON_DESTRUCTIVE_CRASH,
    PHYSICAL_HOST_FAILURE,
    POWER_GLITCH,
    FailureInjection,
    Simulation,
)
from hasim.presets import PRESETS, replicate_experiment
from hasim.telemetry import DOWN

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class SkipCheckedSimulation(EventCheckedSimulation):
    """Checks each skipped or jumped-over scan against `tick`, that a
    skipped scan never ticks and every other scan does, and each unchanged
    state and untouched machine against its copy at the previous scan; runs
    with per-event checks."""

    def __init__(self, *args, **kwargs):
        self.skipped = self.jumped = self.unchanged = self.ticks = 0
        self.changes = 0  # transitions and actions so far
        self._copy = None
        self._scanned = -1  # the change count at the end of the previous scan
        super().__init__(*args, **kwargs)

    def _touch(self, *machine_ids):
        self.changes += 1
        super()._touch(*machine_ids)

    def _apply(self, action):
        self.changes += 1
        super()._apply(action)

    def _tick(self):
        self.ticks += 1
        super()._tick()

    def _assert_decides_nothing(self, at, what):
        snapshot = self.monitor.snapshot(at)
        infos = [VmInfo(vm.vm_id, vm.bound_host, vm.load_contribution,
                        vm.reinstall_allowed)
                 for _, vm in sorted(self.state.vms.items())]
        records, actions = tick(self.records, snapshot, full_view(self.state, snapshot),
                                at, self.params, infos)
        assert records == self.records and actions == [], \
            f"the scan at {at} was {what} but decides {actions}"
        for vm_id, ep in self._open.items():
            entry = snapshot.entries.get(vm_id)
            assert ep.detected_at is not None or entry is None or entry.verdict != DOWN, \
                f"the scan at {at} was {what} but detects {vm_id}"

    def _check_jumped(self, until):
        """Check the grid instants after now and before `until` (and up to
        the horizon) that no scan will visit."""
        period = self.params.scan_period_s
        for jumped in range(self.now + period, min(until, self.horizon_s + 1), period):
            self.jumped += 1
            self._assert_decides_nothing(jumped, "jumped over")

    def _schedule(self, at, kind, args):
        if kind == "scan":
            self._check_jumped(at)
        super()._schedule(at, kind, args)

    def _on_scan(self):
        if self.changes == self._scanned:
            self.unchanged += 1
            assert self.state == self._copy, \
                f"the state changed by {self.now} with no transition or action counted"
        if self._copy is not None:
            state, old = self.state, self._copy
            for machine_id, machine in [*state.hosts.items(), *state.vms.items()]:
                same = (machine == old.hosts.get(machine_id, old.vms.get(machine_id))
                        and (state.extra_load.get(machine_id)
                             == old.extra_load.get(machine_id)))
                assert same or machine_id in self._touched, \
                    f"{machine_id} changed by {self.now} but no transition touched it"
        skip = self.now < self._idle_until()
        if skip:
            self.skipped += 1
            self._assert_decides_nothing(self.now, "skipped")
        ticks, before = self.ticks, copy.deepcopy(self.state)
        super()._on_scan()
        if skip:
            assert self.ticks == ticks, f"the skipped scan at {self.now} ticked"
            assert self.state == before, f"the skipped scan at {self.now} changed the state"
        else:
            assert self.ticks == ticks + 1, f"the scan at {self.now} did not tick"
        if not self._heap:  # no scan follows: the run ends
            self._check_jumped(math.inf)
        self._copy = copy.deepcopy(self.state)
        self._scanned = self.changes


def run_checked(config, injections, horizon_s, seed, **kwargs):
    sim = SkipCheckedSimulation(config, injections, horizon_s, seed=seed, **kwargs)
    report = sim.run()
    expected = Simulation(config, injections, horizon_s, seed=seed, **kwargs).run()
    assert report.episodes == expected.episodes
    assert report.trace == expected.trace
    return sim


def test_glitch_scenarios_skip_only_scans_without_decisions():
    for name in ("power_glitch.json", "power_glitch_noreboot.json"):
        scenario = load_scenario((SCENARIOS / name).read_text(), base_dir=SCENARIOS)
        sim = run_checked(scenario.config, scenario.injections, scenario.horizon_s,
                          scenario.seed, collect_trace=True)
        assert sim.skipped and sim.jumped


@pytest.mark.slow
@pytest.mark.parametrize("collect_trace", [False, True])
def test_property_suite_scenarios_skip_only_scans_without_decisions(collect_trace):
    # The first 1000 scenarios of acceptance criterion 5, same generator and seeds.
    rng = np.random.default_rng(20260809)
    skipped = jumped = unchanged = 0
    for i in range(1000):
        doc = random_cluster_doc(rng)
        sim = run_checked(parse_cluster_config(doc), random_injections(rng, doc), 720,
                          1_000_000 + i, collect_trace=collect_trace)
        skipped += sim.skipped
        jumped += sim.jumped
        unchanged += sim.unchanged
    assert skipped > 1000 and unchanged > 1000
    assert jumped > 1000


@pytest.mark.slow
def test_overlapping_scenarios_skip_only_scans_without_decisions():
    rng = np.random.default_rng(20261019)
    skipped = 0
    for i in range(200):
        config, injections = overlapping_scenario(rng)
        skipped += run_checked(config, injections, 900, i, collect_trace=True).skipped
    assert skipped > 200


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_replicate_presets_skip_only_scans_without_decisions(preset, monkeypatch):
    seeds = (1, 42, 7_000)
    expected = [replicate_experiment(preset, 40, seed).episodes for seed in seeds]
    sims = []

    class Recorded(SkipCheckedSimulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(hasim.presets, "Simulation", Recorded)
    assert [replicate_experiment(preset, 40, seed).episodes for seed in seeds] == expected
    assert len(sims) == 120 and all(sim.skipped and sim.jumped for sim in sims)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_replicate_episodes_tick_twice_in_four_scans(preset, monkeypatch):
    # An episode scans at the phase, after the crash, at its detection (a
    # tick that acts) and after the recovery (a tick that drops the record),
    # and then ends. Traced, it still traces one `scan` line per period up
    # to the horizon, in as many scans and ticks.
    sims = []

    class Counted(Simulation):
        def __init__(self, *args, traced, **kwargs):
            super().__init__(*args, collect_trace=traced, **kwargs)
            self.ticks = self.scans = 0
            sims.append(self)

        def _tick(self):
            self.ticks += 1
            super()._tick()

        def _on_scan(self):
            self.scans += 1
            super()._on_scan()

    horizon_s = PRESETS[preset].horizon_s
    for traced in (False, True):
        monkeypatch.setattr(hasim.presets, "Simulation",
                            functools.partial(Counted, traced=traced))
        for seed in (1, 42, 7_000):
            sims.clear()
            report = replicate_experiment(preset, 200, seed)
            assert len(sims) == len(report.recovered()) == 200
            assert {sim.ticks for sim in sims} == {2}
            assert {sim.scans for sim in sims} == {4}
            if not traced:
                continue
            for sim in sims:
                period = sim.params.scan_period_s
                grid = range(sim.timing.controller_phase_s, horizon_s + 1, period)
                assert [line for line in sim.trace if line.endswith(" scan")] == \
                    [f"{at} scan" for at in grid]


def test_scans_that_only_wait_skip_the_tick(monkeypatch):
    # A soft crash at 130 s turns its VM Down at 200 s. Scans at 0 to 120 s
    # have nothing to visit. The crash sets the wake instant to 200 s, so the
    # scan at 180 s skips and the one at 240 s ticks, detects and reboots.
    # The scans at 300 and 360 s skip: nothing waits for capacity, and the
    # reboot's deadline is 420 s. The scan at 420 s ticks at that deadline
    # and restarts the VM, whose boot (due at 430 to 450 s) it cancels; the
    # one at 600 s ticks at the restart's deadline and reinstalls.
    ticks = []

    def counting_tick(*args):
        ticks.append(args[3])
        return tick(*args)

    monkeypatch.setattr(hasim.engine, "tick", counting_tick)
    config = parse_cluster_config({
        "hosts": [{"host_id": "node01", "cpu_count": 4, "ram_mb": 8192}],
        "vms": [{"vm_id": "svc01", "mac": "52:54:00:00:00:01",
                 "bound_host": "node01", "boot_profile": "default"}],
        "profiles": {"default": {"boot_s": 200}},
    })
    crash = [FailureInjection(130, NON_DESTRUCTIVE_CRASH, "svc01")]
    report = Simulation(config, crash, 900, seed=1, collect_trace=True).run()
    assert report.episodes[0].detected_at == 240
    assert ticks == [240, 420, 600]
    assert [line for line in report.trace if line.endswith(" scan")][:8] == \
        [f"{60 * i} scan" for i in range(8)]


def test_a_host_turning_down_wakes_no_scan():
    # v crashes destructively at 100 s and is Down at 170 s: the scan at
    # 180 s reboots it in vain. u crashes softly at 160 s and is Down at
    # 230 s: the scan at 240 s reboots it, and it runs again at 320 s. h2,
    # with no VM, fails at 200 s and turns Down at 270 s, which decides
    # nothing. The scan at 360 s restarts v (its reboot's deadline) and
    # drops u's record; the one at 540 s reinstalls v, which is still
    # installing at the horizon. A logged run ticks at every scan.
    config = parse_cluster_config({
        "hosts": [{"host_id": "h1", "cpu_count": 4, "ram_mb": 8192},
                  {"host_id": "h2", "cpu_count": 4, "ram_mb": 8192}],
        "vms": [{"vm_id": "u", "mac": "52:54:00:00:00:01",
                 "bound_host": "h1", "boot_profile": "default"},
                {"vm_id": "v", "mac": "52:54:00:00:00:02",
                 "bound_host": "h1", "boot_profile": "default"}],
        "profiles": {"default": {}},
        "timing": {"boot_jitter_s": 0, "reinstall_jitter_s": 0},
    })
    injections = [FailureInjection(100, DESTRUCTIVE_CRASH, "v"),
                  FailureInjection(160, NON_DESTRUCTIVE_CRASH, "u"),
                  FailureInjection(200, PHYSICAL_HOST_FAILURE, host_id="h2")]

    class Ticks(Simulation):
        def __init__(self, *args, **kwargs):
            self.ticks = []
            super().__init__(*args, **kwargs)

        def _tick(self):
            self.ticks.append(self.now)
            super()._tick()

    runs = {}
    for name, outputs in (("quiet", {}), ("traced", {"collect_trace": True}),
                          ("logged", {"emit_monitor_log": True})):
        sim = Ticks(config, injections, 900, seed=1, **outputs)
        runs[name] = sim.run().episodes, sim.ticks
    assert runs["quiet"][1] == runs["traced"][1] == [180, 240, 360, 540]
    assert runs["logged"][1] == list(range(0, 901, 60))
    assert runs["quiet"][0] == runs["traced"][0] == runs["logged"][0]
    assert [(ep.vm_id, ep.recovered_at) for ep in runs["quiet"][0]] == \
        [("v", None), ("u", 320)]


def test_an_episode_on_an_already_silent_vm_is_detected_at_the_next_scan():
    # svc02 is declared halted, so it is silent from 0 s and Down from 70 s.
    # The scan at 120 s reboots it in vain, and the one at 300 s restarts it
    # on node02. A glitch of node02 at 320 s halts it while it boots and
    # opens its first episode. Its Down instant (70 s) is past, so the scan
    # at 360 s detects it, not the restart's deadline at 480 s.
    config = parse_cluster_config({
        "hosts": [{"host_id": "node01", "cpu_count": 4, "ram_mb": 8192},
                  {"host_id": "node02", "cpu_count": 4, "ram_mb": 8192}],
        "vms": [{"vm_id": "svc01", "mac": "52:54:00:00:00:01",
                 "bound_host": "node01", "boot_profile": "default"},
                {"vm_id": "svc02", "mac": "52:54:00:00:00:02",
                 "bound_host": "node01", "boot_profile": "default",
                 "lifecycle": "halted"}],
        "profiles": {"default": {}},
        "timing": {"boot_jitter_s": 0, "reinstall_jitter_s": 0},
    })
    glitch = [FailureInjection(320, POWER_GLITCH, hosts=("node02",))]
    for outputs in ({}, {"collect_trace": True}, {"emit_monitor_log": True}):
        sim = Simulation(config, glitch, 900, seed=1, **outputs)
        [episode] = sim.run().episodes
        assert (episode.kind, episode.failure_at, episode.detected_at) == \
            (POWER_GLITCH, 320, 360)
        assert episode.actions[0][0] == 480


def test_every_transition_and_action_wakes_a_waiting_vm():
    # While the last tick left a VM waiting for capacity, a placement may
    # succeed after any change, so the next scan must tick.
    sim = Simulation(two_host_config(), [], 900, seed=1)
    sim.now = 300
    vm, host = sim.state.vms["svc01"], sim.state.hosts["node02"]
    steps = [
        lambda: sim._set_lifecycle(vm, VmLifecycle.HALTED),
        lambda: sim._move(vm, "node02"),
        lambda: sim._add_extra_load("node02", 500),
        lambda: sim._set_power(host, PowerState.OFF),
        lambda: sim._apply(Action(REBOOT, "svc01")),  # halted: changes nothing
    ]
    for step in steps:
        sim._waiting, sim._wake = True, math.inf
        step()
        assert sim._wake == sim.now
    sim._waiting, sim._wake = False, math.inf
    sim._add_extra_load("node02", -500)
    assert sim._wake == math.inf


# -- the scan's invariant check ---------------------------------------------


class CorruptMove(Simulation):
    """A move that also lists the VM twice on its new host."""

    def _move(self, vm, target):
        super()._move(vm, target)
        if target is not None:
            self.state.hosts[target].hosted_vms.append(vm.vm_id)
            self.corrupted_at = self.now


class CorruptHalt(Simulation):
    """A halt that also drops the VM from its host's list."""

    def _set_lifecycle(self, vm, lifecycle):
        super()._set_lifecycle(vm, lifecycle)
        if lifecycle is VmLifecycle.HALTED:
            self.state.hosts[vm.bound_host].hosted_vms.remove(vm.vm_id)
            self.corrupted_at = self.now


def run_corrupted(sim_class):
    scenario = load_scenario((SCENARIOS / "power_glitch.json").read_text(),
                             base_dir=SCENARIOS)
    sim = sim_class(scenario.config, scenario.injections, scenario.horizon_s,
                    seed=scenario.seed)
    with pytest.raises(AssertionError, match="hosted_vms|absent"):
        sim.run()
    return sim


@pytest.mark.parametrize("sim_class", [CorruptMove, CorruptHalt])
def test_a_corrupting_transition_fails_the_next_scan_check(sim_class):
    # The glitch scenario halts a VM at 291 s, between two scans, and
    # restarts VMs on other hosts at scans. The check must run at the first
    # scan after the corruption.
    sim = run_corrupted(sim_class)
    period = sim.params.scan_period_s
    assert sim.now == period * -(-sim.corrupted_at // period)


@pytest.mark.parametrize("corrupt", [CorruptMove, CorruptHalt])
def test_a_corrupting_transition_fails_its_own_event_check(corrupt):
    # Per-event checks fail at the corrupting event, the halt at 291 s too.
    sim = run_corrupted(type(corrupt.__name__, (corrupt, EventCheckedSimulation), {}))
    assert sim.now == sim.corrupted_at
