"""The benchmark's own checks: each accepts the program's real outputs and
rejects a deliberately corrupted copy, so none can pass vacuously.

Run with the rest of the suite: PYTHONPATH=src python -m pytest -q bench
"""

import copy
import dataclasses
import json
from pathlib import Path

import pytest

import checks
import workloads
from hasim.cluster import ClusterState, PhysicalHost, PowerState, VirtualMachine, VmLifecycle
from hasim.config import load_scenario
from hasim.controller import Action
from hasim.engine import Episode, SimReport, Simulation, summarize
from hasim.presets import replicate_experiment
from hasim.reporting import format_episodes_csv, format_report_csv
from hasim.telemetry import MonitorSnapshot, SnapshotEntry, serialize_snapshot
from tracer import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
# Large enough that 5 standard errors of the mean (about 6 s) are less than
# the 10 s a boot can be late without leaving its window.
N = 200


def indices(problems):
    return {i for i, _ in problems}


@pytest.fixture(scope="module")
def campaigns():
    return {name: replicate_experiment(name, N, 7).episodes
            for name in ("nondestructive", "destructive")}


def test_detection_identity():
    assert checks.detection_scan(170) == 240
    assert checks.detection_scan(171) == 300
    assert checks.detection_scan(110) == 180


def test_replicate_accepts_real_campaigns(campaigns):
    for name, episodes in campaigns.items():
        assert checks.check_replicate_campaign(name, N, episodes) == []


@pytest.mark.parametrize("corrupt", [
    lambda ep: setattr(ep, "detected_at", ep.detected_at + 60),
    lambda ep: setattr(ep, "detected_at", ep.detected_at - 60),
    lambda ep: setattr(ep, "recovered_at", ep.detected_at + 500),
    lambda ep: setattr(ep, "recovered_at", None),
    lambda ep: setattr(ep, "failure_at", 119),
    lambda ep: ep.actions.append((ep.detected_at + 180, Action("restart", "svc01", "node01"))),
    lambda ep: setattr(ep, "actions", [(ep.detected_at, Action("restart", "svc01", "node01"))]),
], ids=["detected+1scan", "detected-1scan", "slow", "unrecovered", "early-crash",
        "extra-action", "wrong-action"])
def test_replicate_rejects_corrupt_episode(campaigns, corrupt):
    for name, episodes in campaigns.items():
        bad = copy.deepcopy(episodes)
        corrupt(bad[3])
        assert 3 in indices(checks.check_replicate_campaign(name, N, bad))


def test_replicate_rejects_shifted_mean_and_missing_episodes(campaigns):
    # Every boot at the top of its window keeps each episode in bounds but
    # moves the mean about 10 s.
    slow = copy.deepcopy(campaigns["nondestructive"])
    for ep in slow:
        ep.recovered_at = ep.detected_at + 90
    assert indices(checks.check_replicate_campaign("nondestructive", N, slow)) == {None}
    short = campaigns["destructive"][:-1]
    assert None in indices(checks.check_replicate_campaign("destructive", N, short))


def test_report_csv_must_agree_with_episodes(campaigns):
    episodes = campaigns["nondestructive"]
    text = format_report_csv(summarize(SimReport(episodes, 0)))
    assert checks.check_report_csv(text, episodes) == []
    # A report rendered from one episode fewer: its mean disagrees.
    fewer = format_report_csv(summarize(SimReport(episodes[1:], 0)))
    assert checks.check_report_csv(fewer, episodes)
    off_by_one = text.replace(f",{min(e.recovery_s for e in episodes)},",
                              f",{min(e.recovery_s for e in episodes) - 1},")
    assert checks.check_report_csv(off_by_one, episodes)


def test_episodes_csv_must_hold_every_episode(campaigns):
    episodes = campaigns["destructive"]
    text = format_episodes_csv(episodes)
    assert checks.check_episodes_csv(text, episodes) == []
    rows = text.split("\n")
    rows[5] = rows[5].replace(f",{episodes[4].detected_at},", f",{episodes[4].detected_at + 60},")
    assert indices(checks.check_episodes_csv("\n".join(rows), episodes)) == {4}
    assert indices(checks.check_episodes_csv(text, episodes[:-1])) == {None}


def _steady_run():
    doc = {
        "cluster": {"hosts": [{"host_id": f"h{i}", "cpu_count": 8, "ram_mb": 1024}
                              for i in range(3)],
                    "vms": [{"vm_id": f"v{j}", "mac": f"52:54:00:00:00:{j:02x}",
                             "bound_host": f"h{j % 3}", "boot_profile": "p",
                             "load_contribution": 0.5} for j in range(9)],
                    "profiles": {"p": {}}},
        "injections": [{"at": 100, "kind": "non_destructive_crash", "vm": "v1"},
                       {"at": 171, "kind": "non_destructive_crash", "vm": "v4"},
                       {"at": 400, "kind": "non_destructive_crash", "vm": "v8"}],
        "horizon_s": 900, "seed": 3}
    scenario = load_scenario(json.dumps(doc))
    sim = Simulation(scenario.config, scenario.injections, scenario.horizon_s, seed=3)
    report = sim.run()
    crashes = {inj["vm"]: inj["at"] for inj in doc["injections"]}
    initial = {v["vm_id"]: v["bound_host"] for v in doc["cluster"]["vms"]}
    return report.episodes, crashes, initial, sim.state


def test_steady_accepts_and_rejects():
    episodes, crashes, initial, state = _steady_run()
    assert checks.check_steady(episodes, crashes, initial, state) == []

    shifted = copy.deepcopy(episodes)
    shifted[1].detected_at += 60
    assert indices(checks.check_steady(shifted, crashes, initial, state)) == {1}

    assert None in indices(checks.check_steady(episodes[:-1], crashes, initial, state))

    moved = copy.deepcopy(state)
    moved.hosts["h0"].hosted_vms.remove("v0")
    moved.hosts["h1"].hosted_vms.append("v0")
    moved.vms["v0"].bound_host = "h1"
    assert None in indices(checks.check_steady(episodes, crashes, initial, moved))

    elsewhere = copy.deepcopy(episodes)
    elsewhere[0].recovered_on = "h2"
    assert 0 in indices(checks.check_steady(elsewhere, crashes, initial, state))


def _episode(kind, actions, recovered=True):
    # Failure at 100: detected at the scan at 180.
    return Episode(vm_id="v", kind=kind, failure_at=100, detected_at=180,
                   actions=[(t, Action(k, "v", None if k == "reboot" else "h"))
                            for t, k in actions],
                   recovered_at=1200 if recovered else None)


GOOD_HARD = [(180, "reboot"), (360, "restart"), (540, "reinstall")]


def test_storm_episode_properties():
    assert checks.check_storm_episode(_episode(checks.HARD, GOOD_HARD), True) == []
    assert checks.check_storm_episode(
        _episode(checks.HARD, [(180, "reboot"), (360, "restart"), (540, "restart")],
                 recovered=False), False) == []
    assert checks.check_storm_episode(
        _episode("power_glitch", [(180, "defer"), (240, "restart")]), True) == []


@pytest.mark.parametrize("kind,actions,allowed,recovered", [
    (checks.HARD, GOOD_HARD, False, True),                                  # opted out
    (checks.SOFT, GOOD_HARD, True, True),                                   # soft crash
    (checks.HARD, [(180, "reboot"), (300, "restart"), (540, "reinstall")], True, True),  # T1
    (checks.HARD, [(180, "reboot"), (360, "restart"), (480, "reinstall")], True, True),  # T2
    (checks.HARD, [(180, "reboot"), (360, "restart"), (420, "restart")], False, False),
    (checks.HARD, [(180, "reboot"), (540, "reinstall")], True, True),       # no restart
    (checks.HARD, [(180, "restart"), (360, "reboot")], True, False),        # backwards
    (checks.HARD, GOOD_HARD + [(1140, "reinstall")], True, True),           # two reinstalls
    (checks.HARD, [(180, "reboot"), (361, "restart")], True, False),        # off the grid
    (checks.HARD, [(240, "reboot")], True, False),                          # not at detection
])
def test_storm_episode_rejects(kind, actions, allowed, recovered):
    assert checks.check_storm_episode(_episode(kind, actions, recovered), allowed)


def test_storm_episode_rejects_shifted_detection():
    ep = _episode(checks.SOFT, [(240, "reboot")])
    ep.detected_at = 240
    assert checks.check_storm_episode(ep, True)


def _state():
    hosts = {"a": PhysicalHost("a", 4, 1024, 2.0, hosted_vms=["x", "y"]),
             "b": PhysicalHost("b", 4, 1024, 4.0, PowerState.OFF)}
    vms = {"x": VirtualMachine("x", "52:54:00:00:00:01", "a", "p", load_contribution=1.0),
           "y": VirtualMachine("y", "52:54:00:00:00:02", "a", "p", VmLifecycle.BOOTING,
                               load_contribution=0.5),
           "z": VirtualMachine("z", "52:54:00:00:00:03", None, "p",
                               VmLifecycle.WAITING_FOR_CAPACITY, load_contribution=0.25)}
    return ClusterState(hosts=hosts, vms=vms)


def _snapshot(verdict="up"):
    return MonitorSnapshot(600, {"a": SnapshotEntry(600, 1.0, verdict),
                                 "b": SnapshotEntry(0, 0.0, "down")})


def test_placement_threshold_safety():
    state = _state()
    assert checks.committed_load(state, "a") == 1.5
    assert checks.placement_problem(state, _snapshot(), 600,
                                    Action("restart", "z", "a")) is None
    # Load 0.5 takes host a exactly to its threshold: not strictly below.
    state.vms["z"].load_contribution = 0.5
    assert checks.placement_problem(state, _snapshot(), 600, Action("restart", "z", "a"))
    state.vms["z"].load_contribution = 0.25
    state.extra_load["a"] = 0.25
    assert checks.placement_problem(state, _snapshot(), 600, Action("reinstall", "z", "a"))


def test_placement_needs_a_powered_and_up_host():
    state = _state()
    assert checks.placement_problem(state, _snapshot(), 600, Action("restart", "z", "b"))
    assert checks.placement_problem(state, _snapshot("down"), 600,
                                    Action("restart", "z", "a"))
    assert checks.placement_problem(state, _snapshot(), 660, Action("restart", "z", "a"))


def test_conservation():
    state = _state()
    assert checks.check_conservation(state) == []
    state.hosts["b"].hosted_vms.append("x")
    assert checks.check_conservation(state)
    state = _state()
    state.vms["z"].bound_host = "a"
    assert checks.check_conservation(state)


def test_monitor_log_lines():
    lines = [serialize_snapshot(MonitorSnapshot(60 * i, {})) for i in range(4)]
    assert checks.check_monitor_log("\n".join(lines) + "\n", 180) == []
    assert checks.check_monitor_log("\n".join(lines) + "\n", 240)
    assert checks.check_monitor_log("\n".join(lines[:3] + ["<CLUSTER>"]) + "\n", 180)
    assert checks.check_monitor_log("\n".join([lines[1], lines[0]] + lines[2:]), 180)


def test_trace_actions_must_equal_episode_actions():
    ep = _episode(checks.HARD, GOOD_HARD)
    trace = "0 replication 0 seed 1\n180 scan\n180 action reboot v\n" \
            "360 action restart v h\n400 boot_complete v silent\n540 action reinstall v h\n"
    assert checks.check_trace_actions(trace, [ep]) == []
    assert checks.check_trace_actions(trace.replace("360 action", "420 action"), [ep])
    assert checks.check_trace_actions(trace + "600 action defer v\n", [ep])


def test_inputs_repeat_per_seed_and_use_quarter_units():
    for make in (workloads.steady_scenario, workloads.storm_scenario):
        assert make(5) == make(5)
        assert make(5) != make(6)
        doc = make(-3)
        loads = [v["load_contribution"] for v in doc["cluster"]["vms"]]
        loads += [h.get("load_threshold", 0) for h in doc["cluster"]["hosts"]]
        loads += [i.get("extra_load", 0) for i in doc["injections"]]
        assert all(float(4 * x).is_integer() for x in loads)
    assert workloads.replicate_inputs(5) == workloads.replicate_inputs(5)


def test_tracing_leaves_outputs_unchanged_and_uninstalls():
    import hasim.engine
    scenario = load_scenario((ROOT / "scenarios" / "power_glitch.json").read_text(),
                             base_dir=ROOT / "scenarios")

    def run():
        sim = Simulation(scenario.config, scenario.injections, scenario.horizon_s,
                         seed=scenario.seed, collect_trace=True, emit_monitor_log=True)
        report = sim.run()
        return report.trace, report.monitor_log, [dataclasses.astuple(e) for e in report.episodes]

    tick = hasim.engine.tick
    plain = run()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert hasim.engine.tick is tick
    layers = tracer.metrics()
    assert layers["engine.events"] > 0 and layers["controller.tick.calls"] == 16
    assert layers["controller.actions.restart"] >= 1
    assert layers["engine.self_s"] > 0
    assert set(layers) | {"telemetry.detection_p50_s", "trace.overhead_s"} == set(PER_LAYER)


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == {"replicate", "steady", "storm"}
