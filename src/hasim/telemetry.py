"""Heartbeat monitor with staleness-based liveness verdicts.

Every machine in the cluster (physical hosts and bound virtual machines)
reports heartbeats to a central monitor, every HEARTBEAT_PERIOD_S seconds
while it is healthy. A machine is judged Down in a snapshot once the time
since its last heartbeat reaches the configured detection latency.
Snapshots serialize to a deterministic XML log format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Container, Iterable, NamedTuple
from xml.etree import ElementTree
from xml.sax.saxutils import quoteattr

UP = "up"
DOWN = "down"

HEARTBEAT_PERIOD_S = 10


@dataclass
class TelemetryParams:
    """Monitor configuration.

    detection_latency_s: staleness (seconds since last heartbeat) at which a
        machine is declared Down. The boundary is closed: staleness equal to
        the latency is already Down. It must exceed the heartbeat period, so
        that a machine beating on schedule is never Down between two beats.
    """

    detection_latency_s: int = 70


class SnapshotEntry(NamedTuple):
    last_heartbeat_at: int
    reported_load: float
    verdict: str  # UP or DOWN


@dataclass(frozen=True)
class MonitorSnapshot:
    taken_at: int
    entries: dict[str, SnapshotEntry] = field(default_factory=dict)


class HeartbeatOrderError(ValueError):
    """A heartbeat arrived with a timestamp older than the previous one."""


class Monitor:
    """Tracks last-heartbeat times and loads for registered machines.

    `start_beats` at t records a beat at t and starts a train of one beat
    every HEARTBEAT_PERIOD_S until `stop_beats`; `snapshot` computes the
    train's last beat instead of storing each. A periodic beat at second t
    comes after every other event at t: a snapshot, stop or load change at t
    sees train beats up to t - 1. A beat reports the load in force when sent:
    `load_changed` records the last beat before the change with the old load.

    Registration controls snapshot membership only; heartbeat history is kept
    for unregistered machines so that a machine parked out of monitoring (a
    VM waiting for capacity) resumes with its original staleness clock when
    it is registered again.

    `silent` holds the registered machines without a train. A machine with a
    train is never Down, since the latency exceeds the heartbeat period, so
    only silent machines can be Down in a snapshot.

    `snapshot` walks the registered ids in name order, from a list kept until
    a new id is registered or a registered one unregistered.
    """

    def __init__(self, params: TelemetryParams | None = None):
        self.params = params or TelemetryParams()
        self._active: set[str] = set()
        self._order: list[str] | None = []
        self._last_beat: dict[str, int] = {}
        self._load: dict[str, float] = {}
        self._train: dict[str, tuple[int, float]] = {}  # machine -> (start, load)
        self.silent: set[str] = set()

    def register(self, machine_id: str, at: int, load: float = 0.0) -> None:
        """Add a machine to snapshot coverage.

        A machine seen for the first time gets an initial heartbeat at `at`;
        a re-registered machine keeps its existing heartbeat history.
        """
        if machine_id not in self._active:
            self._active.add(machine_id)
            self._order = None
        if machine_id not in self._train:
            self.silent.add(machine_id)
        if machine_id not in self._last_beat:
            self.record_heartbeat(machine_id, at, load)

    def unregister(self, machine_id: str) -> None:
        if machine_id in self._active:
            self._active.remove(machine_id)
            self._order = None
        self.silent.discard(machine_id)

    def record_heartbeat(self, machine_id: str, at: int, load: float) -> None:
        prev = self._last_beat.get(machine_id)
        if prev is not None and at < prev:
            raise HeartbeatOrderError(
                f"heartbeat for {machine_id} at t={at} precedes previous t={prev}"
            )
        self._last_beat[machine_id] = at
        self._load[machine_id] = load

    def start_beats(self, machine_id: str, at: int, load: float) -> None:
        self.record_heartbeat(machine_id, at, load)
        self._train[machine_id] = (at, load)
        self.silent.discard(machine_id)

    def stop_beats(self, machine_id: str, at: int) -> None:
        """End the train, recording its last beat before `at` explicitly."""
        self._record_train_beat(machine_id, at)
        self._train.pop(machine_id, None)
        if machine_id in self._active:
            self.silent.add(machine_id)

    def load_changed(self, machine_id: str, at: int, load: float) -> None:
        """Beats of a running train from second `at` on report `load`."""
        train = self._train.get(machine_id)
        if train is not None:
            self._record_train_beat(machine_id, at)
            self._train[machine_id] = (train[0], load)

    def _record_train_beat(self, machine_id: str, before: int) -> None:
        train = self._train.get(machine_id)
        if train is not None:
            beat = _last_train_beat(train[0], before)
            if beat > self._last_beat[machine_id]:
                self.record_heartbeat(machine_id, beat, train[1])

    def check_coverage(self, responsive: set[str], monitored: set[str]) -> None:
        """Assert that the trains are exactly `responsive`, the registered
        machines exactly `monitored`, and `silent` the rest of `monitored`."""
        for name, actual, expected in (
                ("beat trains", self._train.keys(), responsive),
                ("registered machines", self._active, monitored),
                ("silent set", self.silent, monitored - responsive)):
            assert actual == expected, \
                f"{name} differ from the state: {sorted(actual ^ expected)}"

    def down_at(self, machine_id: str) -> int:
        """The instant a machine that stays silent turns Down."""
        return self._last_beat[machine_id] + self.params.detection_latency_s

    def next_down_at(self, now: int, machine_ids: Container[str]) -> float:
        """First instant after `now` at which a silent machine among
        `machine_ids` turns Down, or inf. Only silent machines can be Down;
        the answer holds until the next call that records a beat or changes
        the silent set. Costs O(silent machines)."""
        downs = (self.down_at(m) for m in self.silent if m in machine_ids)
        return min((down for down in downs if down > now), default=math.inf)

    def snapshot(self, now: int) -> MonitorSnapshot:
        """Liveness view of all registered machines at time `now`, in name order."""
        if self._order is None:
            self._order = sorted(self._active)
        return self._snapshot(now, self._order)

    def snapshot_of(self, now: int, machine_ids: Iterable[str]) -> MonitorSnapshot:
        """Liveness view at time `now` of the registered machines among `machine_ids`."""
        active = self._active
        return self._snapshot(now, [m for m in machine_ids if m in active])

    def _snapshot(self, now: int, machine_ids: Iterable[str]) -> MonitorSnapshot:
        """Liveness view at time `now` of `machine_ids`, all registered. A
        train's last beat is `_last_train_beat(start, now)`, written inline."""
        latency = self.params.detection_latency_s
        last_beat, loads, trains = self._last_beat, self._load, self._train
        before = now - 1
        new = tuple.__new__
        entries = {}
        for machine_id in machine_ids:
            last = last_beat[machine_id]
            train = trains.get(machine_id)
            if train is not None:
                beat = before - (before - train[0]) % HEARTBEAT_PERIOD_S
                if beat > last:
                    entries[machine_id] = new(SnapshotEntry, (
                        beat, train[1], DOWN if now - beat >= latency else UP))
                    continue
            assert now >= last, f"snapshot at t={now} predates heartbeat of {machine_id}"
            entries[machine_id] = new(SnapshotEntry, (
                last, loads[machine_id], DOWN if now - last >= latency else UP))
        return MonitorSnapshot(taken_at=now, entries=entries)


def _last_train_beat(start: int, before: int) -> int:
    """Last beat before second `before` of a train started at `start`, which
    counts as a beat; earlier than `start` when `before` is not after it."""
    return start + HEARTBEAT_PERIOD_S * ((before - 1 - start) // HEARTBEAT_PERIOD_S)


# name -> (element head, load, verdict, element tail). The head is
# `<HOST NAME="…" LAST_HEARTBEAT="`, the tail `" LOAD="…" VERDICT="…"/>` of
# that load object and verdict. A tail is reused only for the same object, so
# `1`, `1.0` and `-0.0` keep their bytes; holding the load keeps its id from
# being reused. Bounded at 65 536 names, the oldest dropped first.
_PIECES: dict[str, tuple[str, object, str, str]] = {}
_PIECES_MAX = 1 << 16


def _pieces(name: str, load: float, verdict: str) -> tuple[str, object, str, str]:
    old = _PIECES.get(name)
    if old is None and len(_PIECES) >= _PIECES_MAX:
        del _PIECES[next(iter(_PIECES))]
    head = f'<HOST NAME={quoteattr(name)} LAST_HEARTBEAT="' if old is None else old[0]
    pieces = _PIECES[name] = (head, load, verdict,
                              f'" LOAD="{load!r}" VERDICT="{verdict.upper()}"/>')
    return pieces


def serialize_snapshot(snapshot: MonitorSnapshot) -> str:
    """Render a snapshot as a single-line XML document.

    Entries are sorted by machine name so equal snapshots serialize to
    identical bytes. LOAD is the repr of the reported load, so an int load
    prints as `1` and a float one as `1.0` or `-0.0`.
    """
    parts = [f'<CLUSTER TAKEN_AT="{snapshot.taken_at}">']
    append, cached = parts.append, _PIECES.get
    for name, (last, load, verdict) in sorted(snapshot.entries.items()):
        pieces = cached(name)
        if pieces is None or pieces[1] is not load or pieces[2] != verdict:
            pieces = _pieces(name, load, verdict)
        append(pieces[0])
        append(str(last))
        append(pieces[3])
    parts.append("</CLUSTER>")
    return "".join(parts)


def parse_snapshot(text: str) -> MonitorSnapshot:
    """Inverse of serialize_snapshot."""
    root = ElementTree.fromstring(text)
    if root.tag != "CLUSTER":
        raise ValueError(f"expected CLUSTER root element, got {root.tag}")
    entries = {}
    for child in root:
        entries[child.attrib["NAME"]] = SnapshotEntry(
            last_heartbeat_at=int(child.attrib["LAST_HEARTBEAT"]),
            reported_load=float(child.attrib["LOAD"]),
            verdict=child.attrib["VERDICT"].lower(),
        )
    return MonitorSnapshot(taken_at=int(root.attrib["TAKEN_AT"]), entries=entries)
