"""Monitor snapshots and their XML against the code they replaced.

The oracle is the snapshot and serializer as they were before SnapshotEntry
became a NamedTuple: frozen dataclass entries, a test of every machine id
against the registered set, a train's last beat from its own copy of the
train-beat formula, and every attribute of an element formatted per entry.
It reads the monitor's recorded beats and trains, never its beat classes.
At every scan that calls `tick`, the monitor's full snapshot must hold the
oracle's entries in name order, and with the monitor log on the logged line
must be the oracle's rendering byte for byte.
"""

import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import quoteattr

import numpy as np
import pytest
from test_acceptance import random_cluster_doc, random_injections
from test_scan_oracle import overlapping_scenario

from hasim.config import load_scenario, parse_cluster_config
import hasim.engine
from hasim.engine import LOAD_SPIKE, FailureInjection, Simulation
from hasim.telemetry import (
    DOWN,
    HEARTBEAT_PERIOD_S,
    UP,
    Monitor,
    MonitorSnapshot,
    SnapshotEntry,
    serialize_snapshot,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


@dataclass(frozen=True)
class OracleEntry:
    last_heartbeat_at: int
    reported_load: int  # milli-units
    verdict: str


def oracle_last_beat(start, now):
    """Last beat before second `now` of a train started at `start`."""
    return start + HEARTBEAT_PERIOD_S * ((now - 1 - start) // HEARTBEAT_PERIOD_S)


def oracle_snapshot_of(monitor, now, machine_ids):
    latency = monitor.params.detection_latency_s
    entries = {}
    for machine_id in machine_ids:
        if machine_id not in monitor._active:
            continue
        last, load = monitor._last_beat[machine_id], monitor._load[machine_id]
        train = monitor._train.get(machine_id)
        if train is not None:
            beat = oracle_last_beat(train[0], now)
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
            f' LOAD="{e.reported_load / 1000!r}"'
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


@pytest.mark.slow
def test_property_suite_scenarios_log_as_the_oracle():
    # The first 2000 scenarios of acceptance criterion 5, same generator and seeds.
    rng = np.random.default_rng(20260809)
    logged = 0
    for i in range(2000):
        doc = random_cluster_doc(rng)
        logged += run_against_oracle(parse_cluster_config(doc), random_injections(rng, doc),
                                     720, 1_000_000 + i)
    assert logged == 2000 * 13
    # Tenths loads under overlapping spikes, glitches and failures: the
    # trains report many distinct loads.
    rng = np.random.default_rng(20261020)
    for i in range(500):
        config, injections = overlapping_scenario(rng)
        assert run_against_oracle(config, injections, 900, i)


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


def test_escaped_names_and_tenths_serialize_as_the_oracle():
    monitor = Monitor()
    names = ['a&b', '<vm>', 'q"uote', "apos'", 'tab\tnl\n', 'plain']
    loads = [1000, 0, 0, 1000, 300, 3000]
    for name, load in zip(names, loads):
        monitor.register(name, 0, load)
    monitor.start_beats('plain', 5, 2100)
    for now in (5, 69, 70, 200):
        line = assert_same_as_oracle(monitor, now)
    assert 'NAME="a&amp;b" LAST_HEARTBEAT="0" LOAD="1.0" VERDICT="DOWN"' in line
    assert 'LOAD="0.0"' in line and 'LOAD="0.3"' in line
    assert 'NAME="plain" LAST_HEARTBEAT="195" LOAD="2.1" VERDICT="UP"' in line


LOADS = (1000, 0, 250, 3000)


def fresh_load(rng):
    """One of LOADS."""
    return LOADS[int(rng.integers(len(LOADS)))]


def assert_classes_in_use(monitor):
    """After a full snapshot every train has a class, and the class table
    holds exactly the classes that trains are in, with their member counts."""
    assert monitor._class_of.keys() == monitor._train.keys()
    members = list(monitor._class_of.values())
    assert set(monitor._classes.values()) == set(members)
    assert all(c.members == members.count(c) for c in members)


def equal_loads():
    """Loads of two values, each several times."""
    return [1000, 1000, 0, 0, 1000, 0, 0]


def test_random_registration_sequences_snapshot_and_log_as_the_oracle():
    # A VM parked out of monitoring is unregistered and later registered
    # again with its heartbeat history; every other call in any order. Some
    # steps only let time pass, some start trains at one instant with equal
    # loads, some change a load at the instant of
    # a snapshot, and some take a snapshot earlier than the previous one or
    # change a load or stop a train at an instant before the previous one.
    rng = np.random.default_rng(20261018)
    names = ["vm3", "h1", "vm10", "a&b", "h0", "vm2", "<x>"]
    earlier = 0
    for _ in range(300):
        monitor, now, parked = Monitor(), 0, set()
        for _ in range(60):
            previous = now
            now += int(rng.integers(0, 25))
            name = names[int(rng.integers(len(names)))]
            op = int(rng.integers(12))
            if op == 7:
                idle = [m for m in names if m in monitor._active and m not in monitor._train]
                loads = equal_loads()
                for machine_id, i in zip(idle, rng.permutation(len(loads))):
                    monitor.start_beats(machine_id, now, loads[i])
            elif op == 8 and name in monitor._train:
                assert_same_as_oracle(monitor, now)
                monitor.load_changed(name, now, fresh_load(rng))
            elif op == 9:
                latest = max((monitor._last_beat[m] for m in monitor._active), default=0)
                if latest < previous:
                    assert_same_as_oracle(monitor, int(rng.integers(latest, previous)))
                    earlier += 1
            elif op == 10 and name in monitor._train:
                at = previous - int(rng.integers(0, 20))
                if rng.random() < 0.5:
                    monitor.load_changed(name, at, fresh_load(rng))
                else:
                    monitor.stop_beats(name, at)
            elif op == 0:
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
            assert_classes_in_use(monitor)
    assert earlier > 1000


def test_cached_pieces_never_serve_stale_loads_or_verdicts():
    rng = np.random.default_rng(7)
    monitor, now = Monitor(), 0
    monitor.register("vm", now, 1000)
    for _ in range(400):
        now += 100
        monitor.record_heartbeat("vm", now, fresh_load(rng))
        # Down at 70 s or more since the beat, Up before.
        assert_same_as_oracle(monitor, now + int(rng.choice([0, 69, 70, 99])))
    for load in (1000, 0, 1000, 250, 0, 1000):
        for verdict in (UP, DOWN, UP):
            snapshot = MonitorSnapshot(5, {"vm": SnapshotEntry(3, load, verdict)})
            assert serialize_snapshot(snapshot) == oracle_serialize(snapshot)


def test_two_monitors_with_the_same_names_log_their_own_loads():
    names = ["h0", "h1", "vm0"]
    first, second = Monitor(), Monitor()
    for name in names:
        first.register(name, 0, 1000)
        second.register(name, 0, 2000)
    second.start_beats("h1", 0, 0)
    for now in range(0, 200, 7):
        for monitor in (first, second, first):
            assert_same_as_oracle(monitor, now)
    assert 'LOAD="2.0"' in serialize_snapshot(second.snapshot(5))
    assert 'LOAD="2.0"' not in serialize_snapshot(first.snapshot(5))


def test_beat_class_table_stays_within_its_bound():
    # A long logged run in which host loads keep changing: spikes of ever new
    # sizes come and go. Every load a host reports starts a beat class, yet
    # after each full snapshot the table holds only the classes in use, never
    # more classes than trains.
    doc = {"hosts": [{"host_id": f"h{i}", "cpu_count": 8, "ram_mb": 4096}
                     for i in range(3)],
           "vms": [{"vm_id": f"v{j}", "mac": f"52:54:00:00:00:{j:02x}",
                    "bound_host": f"h{j % 3}", "boot_profile": "p",
                    "load_contribution": (j + 1) / 10} for j in range(6)],
           "profiles": {"p": {}}}
    injections = [FailureInjection(60 * i, LOAD_SPIKE, host_id=f"h{i % 3}",
                                   extra_load=10 * i, duration_s=90)
                  for i in range(1, 480)]
    seen, largest = set(), 0

    class CheckedSimulation(OracleLogSimulation):
        def _tick(self):
            super()._tick()
            assert_classes_in_use(self.monitor)
            seen.update(self.monitor._classes)
            nonlocal largest
            largest = max(largest, len(self.monitor._classes))

    sim = CheckedSimulation(parse_cluster_config(doc), injections, 8 * 3600,
                            emit_monitor_log=True)
    sim.run()
    assert sim.logged == 8 * 60 + 1
    assert largest <= len(sim.monitor._train) == 9
    assert len(seen) > 10 * largest


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
