"""Monitor snapshots and their XML against the code they replaced.

The oracle is the snapshot and serializer as they were before SnapshotEntry
became a NamedTuple: frozen dataclass entries, a test of every machine id
against the registered set, and every attribute of an element formatted per
entry. At every scan that calls `tick`, the monitor's full snapshot must hold
the oracle's entries, and with the monitor log on the logged line must be
the oracle's rendering byte for byte.
"""

import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import quoteattr

import numpy as np
from test_acceptance import random_cluster_doc, random_injections

from hasim.config import load_scenario, parse_cluster_config
from hasim.engine import Simulation
from hasim.telemetry import (
    DOWN,
    UP,
    Monitor,
    MonitorSnapshot,
    _last_train_beat,
    serialize_snapshot,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


@dataclass(frozen=True)
class OracleEntry:
    last_heartbeat_at: int
    reported_load: float
    verdict: str


def oracle_snapshot_of(monitor, now, machine_ids):
    latency = monitor.params.detection_latency_s
    entries = {}
    for machine_id in machine_ids:
        if machine_id not in monitor._active:
            continue
        last, load = monitor._last_beat[machine_id], monitor._load[machine_id]
        train = monitor._train.get(machine_id)
        if train is not None:
            beat = _last_train_beat(train[0], now)
            if beat > last:
                last, load = beat, train[1]
        assert now >= last, f"snapshot at t={now} predates heartbeat of {machine_id}"
        verdict = DOWN if now - last >= latency else UP
        entries[machine_id] = OracleEntry(last, load, verdict)
    return MonitorSnapshot(taken_at=now, entries=entries)


def oracle_serialize(snapshot):
    parts = [f'<CLUSTER TAKEN_AT="{snapshot.taken_at}">']
    for name in sorted(snapshot.entries):
        e = snapshot.entries[name]
        parts.append(
            f"<HOST NAME={quoteattr(name)}"
            f' LAST_HEARTBEAT="{e.last_heartbeat_at}"'
            f' LOAD="{e.reported_load!r}"'
            f' VERDICT="{e.verdict.upper()}"/>'
        )
    parts.append("</CLUSTER>")
    return "".join(parts)


def assert_same_as_oracle(monitor, now):
    expected = oracle_snapshot_of(monitor, now, monitor._active)
    snapshot = monitor.snapshot(now)
    assert {name: (e.last_heartbeat_at, e.reported_load, e.verdict)
            for name, e in expected.entries.items()} == \
        {name: tuple(e) for name, e in snapshot.entries.items()}
    line = serialize_snapshot(snapshot)
    assert line == oracle_serialize(expected)
    return line


class OracleLogSimulation(Simulation):
    """Checks the snapshot and, when logged, the log line of every tick."""

    def __init__(self, *args, **kwargs):
        self.logged = 0
        super().__init__(*args, **kwargs)

    def _tick(self):
        expected = assert_same_as_oracle(self.monitor, self.now)
        super()._tick()
        if self.monitor_log is not None:
            assert self.monitor_log[-1] == expected
            self.logged += 1


def run_against_oracle(config, injections, horizon_s, seed):
    sim = OracleLogSimulation(config, injections, horizon_s, seed=seed,
                              emit_monitor_log=True)
    sim.run()
    return sim.logged


def test_glitch_scenarios_log_as_the_oracle():
    for name in ("power_glitch.json", "power_glitch_noreboot.json"):
        scenario = load_scenario((SCENARIOS / name).read_text(), base_dir=SCENARIOS)
        assert run_against_oracle(scenario.config, scenario.injections,
                                  scenario.horizon_s, scenario.seed)


def test_property_suite_scenarios_log_as_the_oracle():
    # The first 2000 scenarios of acceptance criterion 5, same generator and seeds.
    rng = np.random.default_rng(20260809)
    logged = 0
    for i in range(2000):
        doc = random_cluster_doc(rng)
        logged += run_against_oracle(parse_cluster_config(doc), random_injections(rng, doc),
                                     720, 1_000_000 + i)
    assert logged == 2000 * 13


def test_storm_benchmark_inputs_log_as_the_oracle():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in (1, 2, 3):
        scenario = load_scenario(json.dumps(workloads.storm_scenario(seed)))
        assert run_against_oracle(scenario.config, scenario.injections,
                                  scenario.horizon_s, scenario.seed) == 121


def test_int_signed_zero_and_escaped_names_serialize_as_the_oracle():
    monitor = Monitor()
    names = ['a&b', '<vm>', 'q"uote', "apos'", 'tab\tnl\n', 'plain']
    loads = [1, -0.0, 0.0, 1.0, 0.1 + 0.2, 3]
    for name, load in zip(names, loads):
        monitor.register(name, 0, load)
    monitor.start_beats('plain', 5, 2)
    for now in (5, 69, 70, 200):
        line = assert_same_as_oracle(monitor, now)
    assert 'NAME="a&amp;b" LAST_HEARTBEAT="0" LOAD="1" VERDICT="DOWN"' in line
    assert 'LOAD="-0.0"' in line and 'LOAD="0.0"' in line
    assert 'NAME="plain" LAST_HEARTBEAT="195" LOAD="2" VERDICT="UP"' in line
