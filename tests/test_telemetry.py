"""Monitor staleness rules and snapshot serialization."""

import math

import numpy as np
import pytest

from hasim.cluster import to_milli
from hasim.telemetry import (
    DOWN,
    HEARTBEAT_PERIOD_S,
    UP,
    HeartbeatOrderError,
    Monitor,
    MonitorSnapshot,
    SnapshotEntry,
    TelemetryParams,
    parse_snapshot,
    serialize_snapshot,
)


def test_up_below_latency():
    m = Monitor()
    m.register("alfa01", 0, 500)
    assert m.snapshot(60).entries["alfa01"].verdict == UP


def test_down_at_latency_boundary():
    # Closed boundary: staleness == 70 is already Down.
    m = Monitor()
    m.register("gridce", 0, 1000)
    assert m.snapshot(69).entries["gridce"].verdict == UP
    assert m.snapshot(70).entries["gridce"].verdict == DOWN


def test_verdicts_match_history_replay_oracle():
    # Oracle: recompute staleness from the full heartbeat log directly.
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = Monitor()
        history = {}
        machines = [f"m{i}" for i in range(int(rng.integers(1, 6)))]
        t = 0
        for mid in machines:
            m.register(mid, 0, 0.0)
            history[mid] = [0]
        for _ in range(int(rng.integers(0, 40))):
            t += int(rng.integers(1, 15))
            mid = machines[int(rng.integers(0, len(machines)))]
            m.record_heartbeat(mid, t, float(rng.uniform(0, 4)))
            history[mid].append(t)
        now = t + int(rng.integers(0, 150))
        snap = m.snapshot(now)
        for mid in machines:
            expected = DOWN if now - max(history[mid]) >= 70 else UP
            assert snap.entries[mid].verdict == expected


def test_out_of_order_heartbeat_rejected():
    m = Monitor()
    m.register("a", 50, 0.0)
    with pytest.raises(HeartbeatOrderError):
        m.record_heartbeat("a", 40, 0.0)


def test_equal_timestamp_heartbeat_allowed():
    m = Monitor()
    m.register("a", 50, 0.0)
    m.record_heartbeat("a", 50, 1000)
    assert m.snapshot(50).entries["a"].reported_load == 1000


def test_empty_monitor_snapshot():
    assert Monitor().snapshot(100).entries == {}


def test_staleness_monotonicity():
    m = Monitor()
    m.register("a", 0, 0.0)
    first_down = None
    for t in range(0, 300):
        verdict = m.snapshot(t).entries["a"].verdict
        if verdict == DOWN and first_down is None:
            first_down = t
        if first_down is not None:
            assert verdict == DOWN
    assert first_down == 70


def test_detection_latency_exactness():
    # First Down at the smallest sampled time >= last beat + latency.
    m = Monitor(TelemetryParams(detection_latency_s=45))
    m.register("a", 0, 0.0)
    m.record_heartbeat("a", 33, 0.0)
    samples = [40, 44, 60, 77, 78, 90]
    down_times = [t for t in samples if m.snapshot(t).entries["a"].verdict == DOWN]
    assert down_times == [t for t in samples if t >= 33 + 45]


def test_next_down_at_is_the_first_later_down_instant():
    # Closed boundary: at staleness == latency the machine is already Down,
    # so from that instant on it has no later Down instant.
    m = Monitor(TelemetryParams(detection_latency_s=45))
    m.register("a", 0)
    m.register("b", 20)
    ids = {"a", "b"}
    assert m.next_down_at(0, ids) == 45
    assert m.next_down_at(44, ids) == 45
    assert m.next_down_at(45, ids) == 65
    assert m.next_down_at(64, ids) == 65
    assert m.next_down_at(65, ids) == math.inf

    def verdicts(at):
        return {name: e.verdict for name, e in m.snapshot(at).entries.items()}

    for t in (20, 44, 45, 64):
        down_at = m.next_down_at(t, ids)
        assert all(verdicts(s) == verdicts(t) for s in range(t, down_at))
        assert verdicts(down_at) != verdicts(t)


def test_next_down_at_ignores_beat_trains_and_unregistered_machines():
    m = Monitor(TelemetryParams(detection_latency_s=45))
    m.register("beating", 0)
    m.start_beats("beating", 0, 1000)
    m.register("parked", 10)
    m.unregister("parked")
    ids = {"beating", "parked", "silent"}
    assert m.next_down_at(0, ids) == math.inf
    m.register("silent", 30)
    assert m.next_down_at(0, ids) == 75
    m.stop_beats("beating", 100)  # last beat at 90
    assert m.next_down_at(100, ids) == 135
    m.start_beats("silent", 100, 1000)
    m.register("parked", 100)  # its staleness clock still dates from 10
    assert m.next_down_at(100, ids) == 135
    assert m.next_down_at(40, ids) == 55


def test_next_down_at_is_inf_with_nothing_silent():
    assert Monitor().next_down_at(0, {"a"}) == math.inf
    m = Monitor()
    m.register("a", 0)
    m.start_beats("a", 0, 1000)
    assert m.next_down_at(10**9, {"a"}) == math.inf


def test_next_down_at_ignores_silent_machines_outside_the_given_ids():
    m = Monitor(TelemetryParams(detection_latency_s=45))
    m.register("host", 0)
    m.register("vm", 20)
    assert m.next_down_at(0, {"vm"}) == 65
    assert m.next_down_at(0, {"host", "vm"}) == 45
    assert m.next_down_at(0, {"other"}) == math.inf
    assert m.next_down_at(0, ()) == math.inf


def test_unregistered_machines_keep_history():
    m = Monitor()
    m.register("a", 0, 0.0)
    m.unregister("a")
    assert "a" not in m.snapshot(10).entries
    m.register("a", 200)
    # History survived: the staleness clock still dates from t=0.
    assert m.snapshot(200).entries["a"].verdict == DOWN


def test_beat_train_is_seen_up_to_the_second_before():
    # A periodic beat at t counts after every other event at t.
    m = Monitor()
    m.register("a", 0)
    m.start_beats("a", 5, 1000)
    assert m.snapshot(15).entries["a"].last_heartbeat_at == 5
    assert m.snapshot(16).entries["a"].last_heartbeat_at == 15
    m.load_changed("a", 25, 2.0)  # precedes the beat at 25, which reports 2.0
    assert m.snapshot(25).entries["a"] == SnapshotEntry(15, 1000, UP)
    assert m.snapshot(34).entries["a"] == SnapshotEntry(25, 2.0, UP)
    m.stop_beats("a", 45)  # the beat at 45 is never sent
    assert m.snapshot(114).entries["a"] == SnapshotEntry(35, 2.0, DOWN)


def test_beat_trains_match_beat_by_beat_replay():
    # Random starts, stops (with or without a final beat), load changes and
    # snapshots on a few machines. The replay logs every beat as it is sent:
    # operations at second t in order, then each running train's beat at t.
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = Monitor(TelemetryParams(detection_latency_s=int(rng.integers(11, 40))))
        machines = [f"m{i}" for i in range(int(rng.integers(1, 4)))]
        history, train, snapshots = [], {}, 0
        for mid in machines:
            m.register(mid, 0, 500)
            history.append((0, mid, 500))
        for t in range(0, 400):
            for _ in range(int(rng.poisson(0.15))):
                mid = machines[int(rng.integers(0, len(machines)))]
                op = int(rng.integers(0, 3))
                load = int(rng.integers(0, 16)) * 250
                if op == 0 and mid not in train:
                    m.start_beats(mid, t, load)
                    history.append((t, mid, load))
                    train[mid] = [t, load]
                elif op == 0:
                    m.stop_beats(mid, t)
                    del train[mid]
                    if rng.random() < 0.5:  # a final beat, as at a crash
                        m.record_heartbeat(mid, t, load)
                        history.append((t, mid, load))
                elif op == 1:
                    m.load_changed(mid, t, load)
                    if mid in train:
                        train[mid][1] = load
                else:
                    snap = m.snapshot(t)
                    snapshots += 1
                    replayed = {name: (beat, sent) for beat, name, sent in history}
                    for name, (beat, sent) in replayed.items():
                        verdict = DOWN if t - beat >= m.params.detection_latency_s else UP
                        assert snap.entries[name] == SnapshotEntry(beat, sent, verdict)
            for mid, (start, load) in train.items():
                if t > start and (t - start) % HEARTBEAT_PERIOD_S == 0:
                    history.append((t, mid, load))
        assert snapshots > 0


def random_snapshot(rng) -> MonitorSnapshot:
    entries = {}
    for i in range(int(rng.integers(0, 8))):
        entries[f"machine{i}"] = SnapshotEntry(
            last_heartbeat_at=int(rng.integers(0, 10_000)),
            reported_load=to_milli(round(float(rng.uniform(0, 16)), 3)),
            verdict=UP if rng.random() < 0.5 else DOWN,
        )
    return MonitorSnapshot(taken_at=int(rng.integers(0, 10_000)), entries=entries)


def test_serialization_round_trip_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        snap = random_snapshot(rng)
        assert parse_snapshot(serialize_snapshot(snap)) == snap


def test_serialization_deterministic():
    snap = MonitorSnapshot(5, {"b": SnapshotEntry(1, 500, UP),
                               "a": SnapshotEntry(2, 1500, DOWN)})
    same = MonitorSnapshot(5, {"a": SnapshotEntry(2, 1500, DOWN),
                               "b": SnapshotEntry(1, 500, UP)})
    assert serialize_snapshot(snap) == serialize_snapshot(same)
    assert '<HOST NAME="a"' in serialize_snapshot(snap)


def test_serialization_injective_on_random_pairs():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a, b = random_snapshot(rng), random_snapshot(rng)
        if a != b:
            assert serialize_snapshot(a) != serialize_snapshot(b)


def test_single_up_host_element_shape():
    snap = MonitorSnapshot(120, {"alfa01": SnapshotEntry(110, 2500, UP)})
    text = serialize_snapshot(snap)
    assert text == ('<CLUSTER TAKEN_AT="120">'
                    '<HOST NAME="alfa01" LAST_HEARTBEAT="110" LOAD="2.5"'
                    ' VERDICT="UP"/></CLUSTER>')
