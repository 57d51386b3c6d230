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
from itertools import chain, repeat
from typing import Container, Iterable, Mapping, NamedTuple
from xml.sax.saxutils import quoteattr

from .cluster import load_text

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
    reported_load: int
    verdict: str  # UP or DOWN


@dataclass(frozen=True)
class MonitorSnapshot:
    """Entries by machine name at `taken_at`.

    line: the snapshot's XML line when the monitor rendered it together with
        the entries (`Monitor.snapshot`), else None. It takes no part in
        equality. The entries of such a snapshot are a read-only mapping in
        name order, so they always match the line.
    """

    taken_at: int
    entries: Mapping[str, SnapshotEntry] = field(default_factory=dict)
    line: str | None = field(default=None, compare=False, repr=False)


class HeartbeatOrderError(ValueError):
    """A heartbeat arrived with a timestamp older than the previous one."""


class _BeatClass:
    """The trains whose entry is the same at every instant: of one beat phase
    (train start modulo HEARTBEAT_PERIOD_S) and one load, whose `text` is kept.
    `tail` is their element tail at the last full snapshot, `members` their number."""

    __slots__ = ("key", "text", "members", "tail")

    def __init__(self, key: tuple[int, int] | None):
        self.key, self.members, self.tail = key, 0, None
        self.text = None if key is None else load_text(key[1])


_SILENT = _BeatClass(None)  # the class place of a machine without a train


class _Entries(Mapping):
    """A full snapshot's entries in name order, frozen at its instant: a
    machine's own entry (a silent or rechecked one), else its phase's entry
    with its class's load. It shares the monitor's name order and index, which
    a new layout replaces and never changes, and copies each place's class."""

    __slots__ = ("_own", "_order", "_index", "_classes", "_phases")

    def __init__(self, own, order, index, classes, phases):
        self._own, self._order, self._index = own, order, index
        self._classes, self._phases = classes, phases

    def __getitem__(self, machine_id):
        if machine_id in self._own:
            return self._own[machine_id]
        phase, load = self._classes[self._index[machine_id]].key
        beat, _, verdict = self._phases[phase]
        return tuple.__new__(SnapshotEntry, (beat, load, verdict))

    def get(self, machine_id, default=None):
        return self._own.get(machine_id) or (
            self[machine_id] if machine_id in self._index else default)

    def __iter__(self):
        return iter(self._order)

    def __len__(self):
        return len(self._order)


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

    The full `snapshot` renders its XML line with read-only entries, at a cost
    per machine of a few C-level passes. A train's entry at `now` depends only
    on its beat class: its phase (start modulo HEARTBEAT_PERIOD_S) and load.
    So Python work is done once per phase and once per class, and per machine
    only for the individual machines: the silent ones, and those whose last
    recorded beat is not older than their class's beat (a train start or load
    change in the last period), which reuse the tail of an unchanged entry.
    The classes are kept from one full snapshot to the next by one rule: a
    recorded beat or train change marks its machine for a recheck, and after
    `register_started` or at a snapshot earlier than the previous one every
    train is rechecked. The marks are a set, at most one per machine. A class
    holds at least one train, so there are never more classes than trains.
    The registered ids, their element heads and their classes are kept in
    name order until a new id is registered or a registered one unregistered.
    """

    def __init__(self, params: TelemetryParams | None = None):
        self.params = params or TelemetryParams()
        self._active: set[str] = set()
        self._order: list[str] | None = None
        self._last_beat: dict[str, int] = {}
        self._load: dict[str, int] = {}
        self._train: dict[str, tuple[int, int]] = {}  # machine -> (start, load)
        self.silent: set[str] = set()
        self._classes: dict[tuple[int, int], _BeatClass] = {}
        self._class_of: dict[str, _BeatClass] = {}
        self._recheck: set[str] = set()
        self._classified_at = -math.inf
        self._heads: dict[str, str] = {}
        self._tails: dict[SnapshotEntry, str] = {}  # individual entries' tails

    def register(self, machine_id: str, at: int, load: int = 0) -> None:
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

    def register_started(self, at: int, beating: dict[str, int],
                         silent: dict[str, int]) -> None:
        """Register machines seen for the first time, all at `at`, as
        `register` and `start_beats` at `at` would: each machine of `beating`
        starts a train, each of `silent` records one beat; both map a machine
        to its load. A simulation registers its whole t=0 cluster this way."""
        self._active.update(beating, silent)
        self._last_beat.update(dict.fromkeys(chain(beating, silent), at))
        self._load.update(beating)
        self._load.update(silent)
        self._train.update(zip(beating, zip(repeat(at), beating.values())))
        self.silent.update(silent)
        self._order, self._classified_at = None, math.inf

    def unregister(self, machine_id: str) -> None:
        if machine_id in self._active:
            self._active.remove(machine_id)
            self._order = None
        self.silent.discard(machine_id)

    def record_heartbeat(self, machine_id: str, at: int, load: int) -> None:
        prev = self._last_beat.get(machine_id)
        if prev is not None and at < prev:
            raise HeartbeatOrderError(
                f"heartbeat for {machine_id} at t={at} precedes previous t={prev}"
            )
        self._last_beat[machine_id] = at
        self._load[machine_id] = load
        self._recheck.add(machine_id)

    def start_beats(self, machine_id: str, at: int, load: int) -> None:
        self.record_heartbeat(machine_id, at, load)
        self._train[machine_id] = (at, load)
        self.silent.discard(machine_id)

    def stop_beats(self, machine_id: str, at: int) -> None:
        """End the train, recording its last beat before `at` explicitly."""
        self._record_train_beat(machine_id, at)
        self._train.pop(machine_id, None)
        self._recheck.add(machine_id)
        if machine_id in self._active:
            self.silent.add(machine_id)

    def load_changed(self, machine_id: str, at: int, load: int) -> None:
        """Beats of a running train from second `at` on report `load`."""
        train = self._train.get(machine_id)
        if train is not None:
            self._record_train_beat(machine_id, at)
            self._train[machine_id] = (train[0], load)
            self._recheck.add(machine_id)

    def _record_train_beat(self, machine_id: str, before: int) -> None:
        train = self._train.get(machine_id)
        if train is not None:
            beat = _last_train_beat(train[0], before)
            if beat > self._last_beat[machine_id]:
                self.record_heartbeat(machine_id, beat, train[1])

    def down_at(self, machine_id: str) -> int:
        """The instant a machine that stays silent turns Down."""
        return self._last_beat[machine_id] + self.params.detection_latency_s

    def next_down_at(self, now: int, machine_ids: Container[str]) -> float:
        """First instant after `now` at which a silent machine among
        `machine_ids` turns Down, or inf. Only silent machines can be Down;
        the answer holds until the next call that records a beat or changes
        the silent set. Costs O(silent machines)."""
        first = math.inf
        for machine_id in self.silent:
            if machine_id in machine_ids:
                down = self.down_at(machine_id)
                if now < down < first:
                    first = down
        return first

    def snapshot(self, now: int) -> MonitorSnapshot:
        """Liveness view of all registered machines at time `now`, in name
        order, carrying its XML line."""
        if self._order is None:
            self._sort()
        if now < self._classified_at:
            self._recheck.update(self._train)
        self._classified_at = now
        for machine_id in self._recheck:
            self._reclassify(machine_id)
        phases = [self._entry(_last_train_beat(p, now), 0, now) for p in range(HEARTBEAT_PERIOD_S)]
        pieces = list(map(_tail, phases))
        for beat_class in self._classes.values():
            beat_class.tail = beat_class.text.join(pieces[beat_class.key[0]])
        self._recheck = {m for m in self._recheck if m in self._class_of
                         and phases[self._class_of[m].key[0]][0] <= self._last_beat[m]}
        classes, parts, index = self._order_classes, self._parts, self._index
        parts[1::2] = [c.tail for c in classes]
        own, kept, self._tails = {}, self._tails, {}
        for machine_id in self.silent.union(index.keys() & self._recheck):
            entry = own[machine_id] = self._recorded_entry(machine_id, now)
            parts[2 * index[machine_id] + 1] = self._tails[entry] = \
                kept.get(entry) or load_text(entry[1]).join(_tail(entry))
        entries = _Entries(own, self._order, index, classes.copy(), phases)
        return MonitorSnapshot(now, entries, _cluster(now, "".join(parts)))

    def snapshot_of(self, now: int, machine_ids: Iterable[str]) -> MonitorSnapshot:
        """Liveness view at time `now` of the registered machines among `machine_ids`."""
        active, last_beat, trains = self._active, self._last_beat, self._train
        entries = {}
        for machine_id in machine_ids:
            if machine_id in active:
                train = trains.get(machine_id)
                if train is not None:
                    beat = _last_train_beat(train[0], now)
                    if beat > last_beat[machine_id]:
                        entries[machine_id] = self._entry(beat, train[1], now)
                        continue
                entries[machine_id] = self._recorded_entry(machine_id, now)
        return MonitorSnapshot(taken_at=now, entries=entries)

    def _entry(self, beat: int, load: int, now: int) -> SnapshotEntry:
        verdict = DOWN if now - beat >= self.params.detection_latency_s else UP
        return tuple.__new__(SnapshotEntry, (beat, load, verdict))

    def _recorded_entry(self, machine_id: str, now: int) -> SnapshotEntry:
        """The entry of a machine's last recorded beat."""
        last = self._last_beat[machine_id]
        assert now >= last, f"snapshot at t={now} predates heartbeat of {machine_id}"
        return self._entry(last, self._load[machine_id], now)

    def _sort(self) -> None:
        """Lay out the registered ids in name order: the element heads at the
        even places of `_parts`, and each id's place in `_index`."""
        order = self._order = sorted(self._active)
        self._index = dict(zip(order, range(len(order))))
        heads = self._heads
        self._parts = [None] * (2 * len(order))
        self._parts[::2] = [heads.get(m) or heads.setdefault(m, _head(m)) for m in order]
        self._order_classes = [self._class_of.get(m, _SILENT) for m in order]

    def _reclassify(self, machine_id: str) -> None:
        """Move a machine to the beat class of its train, or out of every
        class when it has none."""
        train = self._train.get(machine_id)
        key = None if train is None else (train[0] % HEARTBEAT_PERIOD_S, train[1])
        old = self._class_of.get(machine_id, _SILENT)
        if old.key == key:
            return
        if old is not _SILENT:
            old.members -= 1
            if not old.members:
                del self._classes[old.key]
        if train is None:
            new = _SILENT
            del self._class_of[machine_id]
        else:
            new = self._classes.get(key)
            if new is None:
                new = self._classes[key] = _BeatClass(key)
            new.members += 1
            self._class_of[machine_id] = new
        if machine_id in self._index:
            self._order_classes[self._index[machine_id]] = new


def _last_train_beat(start: int, before: int) -> int:
    """Last beat before second `before` of a train started at `start`, which
    counts as a beat; earlier than `start` when `before` is not after it. It
    depends on `start` only modulo HEARTBEAT_PERIOD_S."""
    return start + HEARTBEAT_PERIOD_S * ((before - 1 - start) // HEARTBEAT_PERIOD_S)


def _head(name: str) -> str:
    return f'<HOST NAME={quoteattr(name)} LAST_HEARTBEAT="'


def _tail(entry: SnapshotEntry) -> tuple[str, str]:
    """The element after `LAST_HEARTBEAT="`, before and after its load text."""
    return f'{entry[0]}" LOAD="', f'" VERDICT="{entry[2].upper()}"/>'


def _cluster(taken_at: int, hosts: str) -> str:
    return f'<CLUSTER TAKEN_AT="{taken_at}">{hosts}</CLUSTER>'


def serialize_snapshot(snapshot: MonitorSnapshot) -> str:
    """Render a snapshot as a single-line XML document.

    A snapshot that carries its line (`Monitor.snapshot`) returns it; any
    other is rendered entry by entry. Entries are sorted by machine name so
    equal snapshots serialize to identical bytes. LOAD is the reported load
    as `load_text` writes it: a load of 6.4 units prints as `6.4`, and no
    load as `0.0`.
    """
    if snapshot.line is not None:
        return snapshot.line
    return _cluster(snapshot.taken_at, "".join(
        _head(name) + load_text(entry[1]).join(_tail(entry))
        for name, entry in sorted(snapshot.entries.items())))
