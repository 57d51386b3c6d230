"""Monitor snapshots and their XML against the code they replaced.

The oracle is the snapshot and serializer as they were before SnapshotEntry
became a NamedTuple: frozen dataclass entries, a test of every machine id
against the registered set, a train's last beat from `_last_train_beat`, and
every attribute of an element formatted per entry. At every scan that calls
`tick`, the monitor's full snapshot must hold the oracle's entries in name
order, and with the monitor log on the logged line must be the oracle's
rendering byte for byte.
"""

import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import quoteattr

import numpy as np
import pytest
from test_acceptance import random_cluster_doc, random_injections

from hasim.config import load_scenario, parse_cluster_config
import hasim.engine
import hasim.telemetry
from hasim.engine import Simulation
from hasim.telemetry import (
    DOWN,
    UP,
    Monitor,
    MonitorSnapshot,
    SnapshotEntry,
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
    assert list(snapshot.entries) == sorted(expected.entries)
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


def storm_scenario(seed):
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return load_scenario(json.dumps(workloads.storm_scenario(seed)))


def test_storm_benchmark_inputs_log_as_the_oracle():
    for seed in (1, 2, 3):
        scenario = storm_scenario(seed)
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


LOADS = (1, 1.0, 0.0, -0.0, 0.25, 3)


def fresh_load(rng):
    """One of LOADS, or a new float object of an equal value."""
    load = LOADS[int(rng.integers(len(LOADS)))]
    return float(repr(float(load))) if rng.random() < 0.3 else load


def test_random_registration_sequences_snapshot_and_log_as_the_oracle():
    # A VM parked out of monitoring is unregistered and later registered
    # again with its heartbeat history; every other call in any order.
    rng = np.random.default_rng(20261018)
    names = ["vm3", "h1", "vm10", "a&b", "h0", "vm2", "<x>"]
    for _ in range(300):
        monitor, now, parked = Monitor(), 0, set()
        for _ in range(60):
            now += int(rng.integers(0, 25))
            name = names[int(rng.integers(len(names)))]
            op = int(rng.integers(7))
            if op == 0:
                monitor.register(name, now, fresh_load(rng))
            elif op == 1 and name in monitor._active:
                monitor.unregister(name)
                parked.add(name)
            elif op == 2 and parked:
                monitor.register(sorted(parked)[int(rng.integers(len(parked)))], now)
            elif op == 3 and name in monitor._active and name not in monitor._train:
                monitor.start_beats(name, now, fresh_load(rng))
            elif op == 4 and name in monitor._train:
                monitor.stop_beats(name, now)
            elif op == 5:
                monitor.load_changed(name, now, fresh_load(rng))
            elif op == 6 and name not in monitor._train:
                monitor.record_heartbeat(name, now, fresh_load(rng))
            parked &= set(names) - monitor._active
            assert_same_as_oracle(monitor, now)


def test_cached_pieces_never_serve_stale_loads_or_verdicts():
    rng = np.random.default_rng(7)
    monitor, now = Monitor(), 0
    monitor.register("vm", now, 1)
    for _ in range(400):
        now += 100
        monitor.record_heartbeat("vm", now, fresh_load(rng))
        # Down at 70 s or more since the beat, Up before.
        assert_same_as_oracle(monitor, now + int(rng.choice([0, 69, 70, 99])))
    for load in (1, 1.0, 1, 0.0, -0.0, 0.0, float("1"), 1):
        for verdict in (UP, DOWN, UP):
            snapshot = MonitorSnapshot(5, {"vm": SnapshotEntry(3, load, verdict)})
            assert serialize_snapshot(snapshot) == oracle_serialize(snapshot)


def test_two_monitors_with_the_same_names_log_their_own_loads():
    names = ["h0", "h1", "vm0"]
    first, second = Monitor(), Monitor()
    for name in names:
        first.register(name, 0, 1)
        second.register(name, 0, 1.0)
    second.start_beats("h1", 0, -0.0)
    for now in range(0, 200, 7):
        for monitor in (first, second, first):
            assert_same_as_oracle(monitor, now)
    assert 'LOAD="1.0"' in serialize_snapshot(second.snapshot(5))
    assert 'LOAD="1.0"' not in serialize_snapshot(first.snapshot(5))


def test_piece_cache_stays_bounded(monkeypatch):
    monkeypatch.setattr(hasim.telemetry, "_PIECES", {})
    monkeypatch.setattr(hasim.telemetry, "_PIECES_MAX", 4)
    monitor = Monitor()
    for i in range(10):
        monitor.register(f"vm{i}", 0, i)
    for now in (0, 80):
        assert_same_as_oracle(monitor, now)
        assert len(hasim.telemetry._PIECES) == 4


class ContractSimulation(Simulation):
    """Records what every logged scan calls and what its snapshot holds."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scans, self.snapshots = [], []
        take = self.monitor.snapshot

        def snapshot(now):
            taken = take(now)
            self.snapshots.append((now, set(taken.entries), set(self.monitor._active)))
            return taken

        self.monitor.snapshot = snapshot

    def _on_scan(self):
        self.scans.append(self.now)
        super()._on_scan()


@pytest.mark.parametrize("scenario", ["power_glitch", "storm"])
def test_logged_scans_take_the_full_snapshot_and_tick(scenario, monkeypatch):
    # The benchmark's storm checks read host verdicts from every
    # `monitor.snapshot` and its tracer counts `tick` and
    # `serialize_snapshot` calls: a logged scan must make all three.
    if scenario == "storm":
        loaded = storm_scenario(1)
    else:
        loaded = load_scenario((SCENARIOS / "power_glitch.json").read_text(),
                               base_dir=SCENARIOS)
    ticks, serialized = [], []
    real_tick, real_serialize = hasim.engine.tick, hasim.engine.serialize_snapshot

    def tick(records, snapshot, view, now, *args):
        ticks.append(now)
        return real_tick(records, snapshot, view, now, *args)

    def serialize(snapshot):
        serialized.append(snapshot.taken_at)
        return real_serialize(snapshot)

    monkeypatch.setattr(hasim.engine, "tick", tick)
    monkeypatch.setattr(hasim.engine, "serialize_snapshot", serialize)
    sim = ContractSimulation(loaded.config, loaded.injections, loaded.horizon_s,
                             seed=loaded.seed, emit_monitor_log=True)
    report = sim.run()
    period = sim.params.scan_period_s
    assert sim.scans[-1] + period > loaded.horizon_s
    assert sim.scans == ticks == serialized == [now for now, _, _ in sim.snapshots]
    assert len(report.monitor_log) == len(sim.scans)
    hosts = set(sim.state.hosts)
    for _, covered, registered in sim.snapshots:
        assert covered == registered and hosts <= covered
