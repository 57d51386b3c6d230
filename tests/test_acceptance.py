"""Acceptance suite: the seven shipping criteria, one test and verdict line each.

Criteria (all tolerances pinned here, nothing deferred):

  1. nondestructive batch (n=1000): mean recovery in [170, 190] s, support
     within [140, 220] s, >= 90% of samples in [150, 210] s, < 10 s wall.
  2. destructive batch (n=1000): mean in [535, 550] s, support within
     [495, 589] s, < 10 s wall.
     Both batches also pass a chi-square test (p >= 0.01) against the exact
     pmf of recovery: detection uniform over 70..129 s plus the boot or
     install duration.
  3. detection: mean of detected - failed in [95, 105] s, support within
     [70, 130] s over 1000 episodes.
  4. power-glitch replay: gridce recovers onto alfa04, < 480 s with the
     reboot step enabled and < 240 s without it; placement exactly alfa04.
  5. controller properties over >= 10,000 randomized scenarios: escalation
     order, reinstall suppression, threshold safety, deadline respect, VM
     conservation - zero violations; and over 2,000 more with loads and
     thresholds in tenths.
  6. placement oracle equivalence: choose_host on 10,000 random views,
     tick's batch placement on 1,000 random host failures, against an exact
     oracle on the drawn decimals.
  7. determinism: identical seeds give byte-identical trace, report and
     monitor-log files.
"""

import dataclasses
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from hasim.cli import main
from hasim.cluster import PowerState, host_load, pending_load, to_milli
from hasim.config import load_scenario, parse_cluster_config
from hasim.controller import (
    DEFER,
    REBOOT,
    REINSTALL,
    RESTART,
    Action,
    HostView,
    VmInfo,
    choose_host,
    tick,
)
from hasim.engine import (
    DESTRUCTIVE_CRASH,
    INJECTION_KINDS,
    LOAD_SPIKE,
    NON_DESTRUCTIVE_CRASH,
    PHYSICAL_HOST_FAILURE,
    POWER_GLITCH,
    FailureInjection,
    Simulation,
)
from hasim.reporting import parse_episodes_csv
from hasim.telemetry import DOWN, MonitorSnapshot, SnapshotEntry

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def _replicate_via_cli(experiment: str, out_dir: Path) -> tuple[list, float]:
    t0 = time.perf_counter()
    rc = main(["replicate", experiment, "--n", "1000", "--seed", "42",
               "--out", str(out_dir)])
    wall = time.perf_counter() - t0
    assert rc == 0
    episodes = parse_episodes_csv((out_dir / "episodes.csv").read_text())
    return episodes, wall


@pytest.fixture(scope="module")
def nondestructive_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("nondestructive")
    return _replicate_via_cli("nondestructive", out)


def test_criterion_1_nondestructive_distribution(nondestructive_run):
    episodes, wall = nondestructive_run
    rec = np.array([e.recovered_at - e.failure_at for e in episodes
                    if e.recovered_at is not None])
    ok = (
        len(rec) == 1000
        and 170 <= rec.mean() <= 190
        and rec.min() >= 140 and rec.max() <= 220
        and np.mean((rec >= 150) & (rec <= 210)) >= 0.90
        and wall < 10.0
    )
    _verdict("criterion 1 (nondestructive recovery)", ok,
             f"n={len(rec)} mean={rec.mean():.1f}s support=[{rec.min()},{rec.max()}]s "
             f"share[150,210]={np.mean((rec >= 150) & (rec <= 210)):.3f} "
             f"wall={wall:.1f}s")


@pytest.fixture(scope="module")
def destructive_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("destructive")
    return _replicate_via_cli("destructive", out)


def test_criterion_2_destructive_distribution(destructive_run):
    episodes, wall = destructive_run
    rec = np.array([e.recovered_at - e.failure_at for e in episodes
                    if e.recovered_at is not None])
    ok = (
        len(rec) == 1000
        and 535 <= rec.mean() <= 550
        and rec.min() >= 495 and rec.max() <= 589
        and wall < 10.0
    )
    _verdict("criterion 2 (destructive recovery)", ok,
             f"n={len(rec)} mean={rec.mean():.1f}s support=[{rec.min()},{rec.max()}]s "
             f"wall={wall:.1f}s")


def recovery_pmf(duration_lo: int, duration_hi: int) -> tuple[int, np.ndarray]:
    """Exact pmf of recovery under a preset, and the value of its first point.

    Detection minus failure is uniform over {70..129}: the crash instant is
    uniform over one 60 s scan period and detection is the first scan at
    least 70 s after it. Recovery adds the boot or install duration, uniform
    over {duration_lo..duration_hi}.
    """
    detection = np.full(60, 1 / 60)
    duration = np.full(duration_hi - duration_lo + 1, 1 / (duration_hi - duration_lo + 1))
    return 70 + duration_lo, np.convolve(detection, duration)


def merge_sparse_bins(observed, expected, min_expected=5.0):
    """Merge adjacent bins, left to right, until each expects min_expected."""
    merged_o, merged_e, o, e = [], [], 0.0, 0.0
    for oi, ei in zip(observed, expected):
        o, e = o + oi, e + ei
        if e >= min_expected:
            merged_o.append(o)
            merged_e.append(e)
            o, e = 0.0, 0.0
    merged_o[-1] += o
    merged_e[-1] += e
    return np.array(merged_o), np.array(merged_e)


@pytest.mark.parametrize("run,duration", [
    ("nondestructive_run", (70, 90)),     # boot 80 +/- 10
    ("destructive_run", (425, 459))])     # install 442 +/- 17
def test_criteria_1_2_recovery_goodness_of_fit(run, duration, request):
    episodes, _ = request.getfixturevalue(run)
    rec = np.array([e.recovered_at - e.failure_at for e in episodes
                    if e.recovered_at is not None])
    first, pmf = recovery_pmf(*duration)
    assert len(rec) == 1000 and first <= rec.min() and rec.max() < first + len(pmf)
    observed = np.bincount(rec - first, minlength=len(pmf))
    merged_o, merged_e = merge_sparse_bins(observed, pmf * len(rec))
    p_value = stats.chisquare(merged_o, merged_e).pvalue
    _verdict(f"criteria 1-2 ({run[:-4]} goodness of fit)", p_value >= 0.01,
             f"chi-square over {len(merged_o)} bins, p={p_value:.3f}")


def test_criterion_3_detection_model(nondestructive_run):
    episodes, _ = nondestructive_run
    det = np.array([e.detected_at - e.failure_at for e in episodes
                    if e.detected_at is not None])
    ok = (
        len(det) == 1000
        and 95 <= det.mean() <= 105
        and det.min() >= 70 and det.max() <= 130
    )
    _verdict("criterion 3 (detection model)", ok,
             f"n={len(det)} mean={det.mean():.1f}s support=[{det.min()},{det.max()}]s")


def test_criterion_4_power_glitch_replay(tmp_path):
    results = {}
    for name, budget in (("power_glitch.json", 480),
                         ("power_glitch_noreboot.json", 240)):
        scenario = load_scenario((SCENARIOS / name).read_text(),
                                 base_dir=SCENARIOS)
        sim = Simulation(scenario.config, scenario.injections, scenario.horizon_s,
                         seed=scenario.seed)
        report = sim.run()
        ep = next(e for e in report.episodes if e.vm_id == "gridce")
        restarts = [a for _, a in ep.actions if a.kind == RESTART]
        results[name] = (ep, restarts, budget)

        # Same scenario through the CLI surface.
        out = tmp_path / name.replace(".json", "")
        rc = main(["run", str(SCENARIOS / name), "--out", str(out)])
        assert rc == 0
        rows = parse_episodes_csv((out / "episodes.csv").read_text())
        cli_ep = next(r for r in rows if r.vm_id == "gridce")
        assert cli_ep.recovered_on == ep.recovered_on
        assert cli_ep.recovered_at == ep.recovered_at

    with_reboot, restarts_w, budget_w = results["power_glitch.json"]
    without, restarts_wo, budget_wo = results["power_glitch_noreboot.json"]
    reboot_attempted = any(a.kind == REBOOT for _, a in with_reboot.actions)
    ok = (
        with_reboot.recovered_on == "alfa04"
        and without.recovered_on == "alfa04"
        and restarts_w and restarts_w[0].target_host == "alfa04"
        and restarts_wo and restarts_wo[0].target_host == "alfa04"
        and reboot_attempted
        and with_reboot.recovery_s is not None and with_reboot.recovery_s < budget_w
        and without.recovery_s is not None and without.recovery_s < budget_wo
    )
    _verdict("criterion 4 (power-glitch replay)", ok,
             f"with reboot: {with_reboot.recovery_s}s on {with_reboot.recovered_on}; "
             f"without: {without.recovery_s}s on {without.recovered_on}")


# -- criterion 5: randomized controller properties ---------------------------


class CheckedSimulation(Simulation):
    """Asserts threshold safety independently at every placement instant."""

    def _apply(self, action: Action) -> None:
        if action.kind in (RESTART, REINSTALL):
            host = self.state.hosts[action.target_host]
            vm = self.state.vms[action.vm_id]
            committed = (host_load(self.state, host.host_id)
                         + pending_load(self.state, host.host_id))
            assert host.power_state is PowerState.ON, \
                f"placement of {vm.vm_id} onto powered-off {host.host_id}"
            assert committed + vm.load_contribution < host.load_threshold, \
                f"threshold breach placing {vm.vm_id} onto {host.host_id}"
        super()._apply(action)


def random_cluster_doc(rng):
    # Loads are quarter-unit steps, which binary floats hold exactly;
    # tenths_scenario covers loads they cannot hold.
    n_hosts = int(rng.integers(1, 7))
    hosts = [{"host_id": f"h{i:02d}", "cpu_count": int(rng.integers(1, 9)),
              "ram_mb": 4096} for i in range(n_hosts)]
    n_vms = int(rng.integers(1, 21))
    vms = [{"vm_id": f"v{j:02d}", "mac": f"52:54:00:00:00:{j:02x}",
            "bound_host": f"h{int(rng.integers(0, n_hosts)):02d}",
            "boot_profile": "p",
            "load_contribution": int(rng.integers(1, 9)) * 0.25,
            "reinstall_allowed": bool(rng.random() < 0.8)}
           for j in range(n_vms)]
    return {"hosts": hosts, "vms": vms, "profiles": {"p": {}}}


def random_injections(rng, doc):
    hosts = [h["host_id"] for h in doc["hosts"]]
    vms = [v["vm_id"] for v in doc["vms"]]
    injections, crashed, hit = [], set(), set()
    for _ in range(int(rng.integers(1, 4))):
        kind = INJECTION_KINDS[int(rng.integers(0, len(INJECTION_KINDS)))]
        at = int(rng.integers(60, 121))
        if kind in (NON_DESTRUCTIVE_CRASH, DESTRUCTIVE_CRASH):
            cands = [v for v in vms if v not in crashed]
            if not cands:
                continue
            vm_id = cands[int(rng.integers(0, len(cands)))]
            crashed.add(vm_id)
            injections.append(FailureInjection(at, kind, vm_id=vm_id))
        elif kind == PHYSICAL_HOST_FAILURE:
            cands = [h for h in hosts if h not in hit]
            if not cands:
                continue
            host_id = cands[int(rng.integers(0, len(cands)))]
            hit.add(host_id)
            injections.append(FailureInjection(at, kind, host_id=host_id))
        elif kind == POWER_GLITCH:
            cands = [h for h in hosts if h not in hit]
            if not cands:
                continue
            n = min(len(cands), int(rng.integers(1, 3)))
            chosen = sorted(cands[i] for i in
                            rng.choice(len(cands), size=n, replace=False))
            hit.update(chosen)
            injections.append(FailureInjection(at, kind, hosts=tuple(chosen)))
        else:
            injections.append(FailureInjection(
                at, kind, host_id=hosts[int(rng.integers(0, len(hosts)))],
                extra_load=int(rng.integers(2, 25)) * 250,
                duration_s=int(rng.integers(60, 400))))
    return injections


LEVEL = {REBOOT: 1, RESTART: 2, REINSTALL: 3}


def check_episode(ep, reinstall_allowed, params):
    kinds = [a.kind for _, a in ep.actions]
    levels = [LEVEL[k] for k in kinds if k in LEVEL]
    # Causality: actions happen at scan instants; detection happens within
    # latency + heartbeat period + scan period of the failure.
    assert all(t % params.scan_period_s == 0 for t, _ in ep.actions)
    if ep.detected_at is not None:
        assert 70 <= ep.detected_at - ep.failure_at <= 70 + 10 + 60, \
            f"{ep.vm_id}: detection {ep.detected_at - ep.failure_at}s after failure"
    # Escalation order: intervention level never decreases, and a reinstall
    # is attempted only after a restart was tried in the same episode.
    assert all(a <= b for a, b in zip(levels, levels[1:])), \
        f"{ep.vm_id}: escalation went backwards: {kinds}"
    if REINSTALL in kinds:
        assert RESTART in kinds[:kinds.index(REINSTALL)], \
            f"{ep.vm_id}: reinstall without a prior restart: {kinds}"
    # Reinstall suppression for opted-out VMs.
    if not reinstall_allowed[ep.vm_id]:
        assert REINSTALL not in kinds, f"{ep.vm_id}: reinstall despite opt-out"
    # Deadline respect (scan-quantized time).
    reboots = [t for t, a in ep.actions if a.kind == REBOOT]
    restarts = [t for t, a in ep.actions if a.kind == RESTART]
    reinstalls = [t for t, a in ep.actions if a.kind == REINSTALL]
    if reboots and restarts:
        assert restarts[0] - reboots[0] >= params.t1_s, \
            f"{ep.vm_id}: restart {restarts[0] - reboots[0]}s after reboot"
    for t in reinstalls:
        prior = [r for r in restarts if r < t]
        assert prior and t - prior[-1] >= params.t2_s, \
            f"{ep.vm_id}: reinstall too soon after restart"
    for a, b in zip(restarts, restarts[1:]):
        assert b - a >= params.t2_s, f"{ep.vm_id}: restarts {b - a}s apart"
    # Failure-kind consequences.
    if ep.kind == NON_DESTRUCTIVE_CRASH:
        assert REINSTALL not in kinds, f"{ep.vm_id}: reinstall on soft crash"
    if ep.kind == DESTRUCTIVE_CRASH and ep.recovered_at is not None:
        assert kinds.count(REINSTALL) == 1, \
            f"{ep.vm_id}: {kinds.count(REINSTALL)} reinstalls on a corrupted VM"


def quarters_scenario(rng):
    doc = random_cluster_doc(rng)
    return doc, random_injections(rng, doc)


def tenths_scenario(rng):
    """A criterion-5 scenario with VM loads, thresholds and spikes in tenths,
    which binary floats cannot hold exactly. Thresholds of 1.0 to 5.9 leave
    a few VMs of 0.1 to 1.9 close to a host's threshold."""
    doc = random_cluster_doc(rng)
    for vm in doc["vms"]:
        vm["load_contribution"] = int(rng.integers(1, 20)) / 10
    for host in doc["hosts"]:
        host["load_threshold"] = int(rng.integers(10, 60)) / 10
    injections = [dataclasses.replace(inj, extra_load=int(rng.integers(1, 30)) * 100)
                  if inj.kind == LOAD_SPIKE else inj
                  for inj in random_injections(rng, doc)]
    return doc, injections


def run_property_suite(rng, n, scenario):
    """Run n scenarios from `scenario(rng)` under every criterion-5 check;
    the number of episodes checked."""
    episodes_checked = 0
    for i in range(n):
        doc, injections = scenario(rng)
        config = parse_cluster_config(doc)
        sim = CheckedSimulation(config, injections, 720, seed=1_000_000 + i)
        report = sim.run()
        reinstall_allowed = {v["vm_id"]: v["reinstall_allowed"]
                             for v in doc["vms"]}
        for ep in report.episodes:
            check_episode(ep, reinstall_allowed, config.controller)
        episodes_checked += len(report.episodes)
        # VM conservation: nothing lost, nothing duplicated, bindings sane.
        assert set(sim.state.vms) == {v["vm_id"] for v in doc["vms"]}
        bound = [vm_id for h in sim.state.hosts.values() for vm_id in h.hosted_vms]
        assert len(bound) == len(set(bound))
    return episodes_checked


N_PROPERTY_SCENARIOS = 10_000
N_TENTHS_SCENARIOS = 2_000


@pytest.mark.slow
def test_criterion_5_randomized_fsm_properties():
    rng = np.random.default_rng(20260809)
    episodes_checked = run_property_suite(rng, N_PROPERTY_SCENARIOS, quarters_scenario)
    _verdict("criterion 5 (FSM property suite)", True,
             f"{N_PROPERTY_SCENARIOS} scenarios, {episodes_checked} episodes, "
             f"0 violations")


@pytest.mark.slow
def test_criterion_5_tenths_loads():
    episodes_checked = run_property_suite(np.random.default_rng(20261019),
                                          N_TENTHS_SCENARIOS, tenths_scenario)
    _verdict("criterion 5 (tenths loads)", True,
             f"{N_TENTHS_SCENARIOS} scenarios, {episodes_checked} episodes, "
             f"0 violations")


# -- criterion 6: placement oracle equivalence -------------------------------


def oracle_choose(view, vm):
    eligible = [h for h in view
                if h.power_on and h.monitor_up
                and h.load + vm.load_contribution < h.load_threshold]
    if not eligible:
        return None
    return sorted(eligible, key=lambda h: (h.load, h.vm_count, h.host_id))[0].host_id


def exact(x):
    """The decimal a drawn float was rounded to, as a Fraction: 0.1 is 1/10."""
    return Fraction(repr(x))


def random_view(rng, n):
    """Host views on drawn tenths: in milli-units, and exactly."""
    hosts = [(f"h{i}", bool(rng.random() < 0.8), bool(rng.random() < 0.8),
              round(float(rng.uniform(0, 6)), 1), int(rng.integers(0, 8)),
              round(float(rng.uniform(0.5, 6)), 1)) for i in range(n)]
    return ([HostView(h, on, up, to_milli(load), count, to_milli(threshold))
             for h, on, up, load, count, threshold in hosts],
            [HostView(h, on, up, exact(load), count, exact(threshold))
             for h, on, up, load, count, threshold in hosts])


def random_vm(vm_id, bound_host, load):
    """A VM of a drawn load: in milli-units, and exactly."""
    return (VmInfo(vm_id, bound_host, to_milli(load), True),
            VmInfo(vm_id, bound_host, exact(load), True))


def failover_by_tick(vms, view, params, now=240):
    """The engine's path for a host failure: the first scan after host 'dead'
    failed sees it powered off and Down, with its VMs Down and no records."""
    dead = HostView("dead", power_on=False, monitor_up=False, load=0,
                    vm_count=len(vms), load_threshold=1000)
    down = SnapshotEntry(last_heartbeat_at=0, reported_load=0, verdict=DOWN)
    entries = {mid: down for mid in ["dead"] + [vm.vm_id for vm in vms]}
    hosts = {h.host_id: h for h in view + [dead]}
    _, actions = tick({}, MonitorSnapshot(taken_at=now, entries=entries),
                      hosts, now, params, vms)
    return actions


def test_criterion_6_placement_oracle_equivalence():
    # choose_host and tick work in milli-units; the oracle works on the
    # decimals drawn, as Fractions, so it sees any rounding error.
    rng = np.random.default_rng(424242)
    for _ in range(10_000):
        view, exact_view = random_view(rng, int(rng.integers(0, 7)))
        vm, exact_vm = random_vm("v", None, round(float(rng.uniform(0.1, 2.5)), 1))
        assert choose_host(view, vm) == oracle_choose(exact_view, exact_vm)

    params = parse_cluster_config(
        {"hosts": [{"host_id": "h", "cpu_count": 1, "ram_mb": 1}],
         "vms": [], "profiles": {}}).controller
    for _ in range(1_000):
        view, exact_view = random_view(rng, int(rng.integers(1, 6)))
        vms, exact_vms = zip(*[random_vm(f"vm{j}", "dead",
                                         round(float(rng.uniform(0.2, 2.0)), 1))
                               for j in range(int(rng.integers(1, 7)))])
        actions = failover_by_tick(list(vms), view, params)
        # Incremental-greedy oracle.
        working = {h.host_id: h for h in exact_view}
        expected = []
        for vm in sorted(exact_vms, key=lambda v: v.vm_id):
            target = oracle_choose(list(working.values()), vm)
            if target is None:
                expected.append(Action(DEFER, vm.vm_id))
            else:
                expected.append(Action(RESTART, vm.vm_id, target))
                working[target].load += vm.load_contribution
                working[target].vm_count += 1
        assert actions == expected
    _verdict("criterion 6 (placement oracles)", True,
             "choose_host 10000/10000, tick failover 1000/1000")


def test_criterion_7_determinism(tmp_path):
    outputs = []
    for label in ("first", "second"):
        out = tmp_path / label
        rc = main(["run", str(SCENARIOS / "power_glitch.json"), "--out", str(out),
                   "--emit-monitor-log"])
        assert rc == 0
        outputs.append({
            name: (out / name).read_bytes()
            for name in ("trace.txt", "report.csv", "episodes.csv",
                         "summary.txt", "monitor_log.xml",
                         "histogram_power_glitch.csv")
        })
    ok = outputs[0] == outputs[1]
    _verdict("criterion 7 (determinism)", ok,
             "byte-identical trace, report, episodes, summary and monitor log")
