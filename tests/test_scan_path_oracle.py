"""The scan path's one-pass helpers against the expressions they replaced.

`OracleScanSimulation` checks every tick of these runs against the scan as
it was written before: the visit as a sorted union of two sets, the
unlogged snapshot over the silent machines and the visit, the wake
instant as a `min` over a list and `_waiting` as an `any`, each with its
own pass over the records, and `_silence` stopping the train before its
final beat. Each tick must also detect exactly the open episodes whose VM
is Down. Every `tick` call is also made on `test_tick_oracle.old_tick`,
with the host table it reads checked against fresh `host_load` and
`pending_load` sums. Each run walks the criterion-5 generator, the
overlapping family and the `storm` input, as `tests/test_tick_purity.py`
does.
"""

from dataclasses import astuple

import numpy as np
import pytest
from bench_inputs import storm_scenario
from test_acceptance import quarters_scenario
from test_scan_oracle import overlapping_scenario
from test_tick_oracle import old_tick

import hasim.engine
from hasim.cluster import PowerState, VmLifecycle, host_load, pending_load
from hasim.config import parse_cluster_config
from hasim.controller import HostView, Phase
from hasim.engine import Simulation
from hasim.telemetry import DOWN, _last_train_beat


def old_visit(sim: Simulation) -> list[str]:
    vms, running = sim.state.vms, VmLifecycle.RUNNING
    return sorted({m for m in sim.monitor.silent if m in vms}
                  | {m for m in sim.records if vms[m].lifecycle is not running})


def old_wake(sim: Simulation) -> float:
    return min([sim.monitor.next_down_at(sim.now, sim.state.vms)]
               + [rec.deadline for rec in sim.records.values() if rec.deadline is not None])


def old_waiting(sim: Simulation) -> bool:
    return any(rec.phase is Phase.AWAITING_CAPACITY for rec in sim.records.values())


def old_table(sim: Simulation, snapshot) -> dict[str, tuple]:
    """Every host's view as a fresh table holds it: the state's power and
    loads, and a silent host's verdict from `snapshot`."""
    state, silent = sim.state, sim.monitor.silent
    return {host_id: astuple(HostView(
        host_id, host.power_state is PowerState.ON,
        host_id not in silent or snapshot.entries[host_id].verdict != DOWN,
        host_load(state, host_id) + pending_load(state, host_id),
        len(host.hosted_vms), host.load_threshold))
        for host_id, host in state.hosts.items()}


def monitor_state(monitor) -> tuple:
    return (dict(monitor._last_beat), dict(monitor._load), dict(monitor._train),
            set(monitor.silent), set(monitor._recheck), set(monitor._active))


def old_silence(monitor, machine_id: str, now: int, load: int) -> tuple:
    """The monitor state the old `_silence` left: the train's last beat
    recorded by `stop_beats`, then the final beat at `now`."""
    last_beat, loads = dict(monitor._last_beat), dict(monitor._load)
    train, silent = dict(monitor._train), set(monitor.silent)
    recheck = set(monitor._recheck)
    start = train.pop(machine_id, None)
    if start is not None:
        beat = _last_train_beat(start[0], now)
        if beat > last_beat[machine_id]:
            last_beat[machine_id], loads[machine_id] = beat, start[1]
    recheck.add(machine_id)
    if machine_id in monitor._active:
        silent.add(machine_id)
    last_beat[machine_id], loads[machine_id] = now, load
    return last_beat, loads, train, silent, recheck, set(monitor._active)


class OracleScanSimulation(Simulation):
    """The engine, each tick checked against the replaced expressions."""

    def __init__(self, *args, **kwargs):
        self.ticks = self.detected = 0
        self._decided = True
        super().__init__(*args, **kwargs)

    def _silence(self, machine_id):
        expected = old_silence(self.monitor, machine_id, self.now,
                               self._reported_load(machine_id))
        super()._silence(machine_id)
        assert monitor_state(self.monitor) == expected, f"{self.now}: silence {machine_id}"

    def _tick(self):
        now, monitor = self.now, self.monitor
        visit = old_visit(self)
        assert self._visit() == visit, f"{now}: visit"
        undetected = [ep for ep in self._open.values() if ep.detected_at is None]
        down = set()
        if visit or self.monitor_log is not None:
            if self.monitor_log is None:
                old = monitor.snapshot_of(now, monitor.silent.union(visit))
                assert monitor.snapshot_of(now, monitor.silent) == old, f"{now}: snapshot"
            # A registered VM that is Down at `now` is Down in every snapshot.
            entries = monitor.snapshot_of(now, [ep.vm_id for ep in undetected]).entries
            down = {vm_id for vm_id, entry in entries.items() if entry.verdict == DOWN}
        self._decided = False
        super()._tick()
        if not self._decided:
            self._check_decision()
        assert {ep.vm_id for ep in undetected if ep.detected_at == now} == down, \
            f"{now}: detection"
        assert all(ep.detected_at in (None, now) for ep in undetected)
        self.ticks += 1
        self.detected += len(down)

    def _apply(self, action):
        if not self._decided:
            self._check_decision()
        super()._apply(action)

    def _check_decision(self):
        """The wake instant and `_waiting` as the tick left them, before the
        first action."""
        self._decided = True
        assert self._wake == old_wake(self), f"{self.now}: wake"
        assert self._waiting == old_waiting(self), f"{self.now}: waiting"


def run_checked(monkeypatch, sim: OracleScanSimulation) -> OracleScanSimulation:
    """Run `sim` with every `tick` call checked against the old table and
    `old_tick`."""
    tick = hasim.engine.tick

    def checked_tick(records, snapshot, view, now, params, vm_infos):
        assert {h: astuple(v) for h, v in view.items()} == old_table(sim, snapshot), \
            f"{now}: table"
        new = tick(records, snapshot, view, now, params, vm_infos)
        assert new == old_tick(records, snapshot, view, now, params, vm_infos), \
            f"{now}: tick"
        return new

    monkeypatch.setattr(hasim.engine, "tick", checked_tick)
    sim.run()
    monkeypatch.undo()
    return sim


@pytest.mark.slow
def test_criterion_5_scans_as_the_replaced_expressions(monkeypatch):
    # The first 1000 scenarios of criterion 5, same generator and seeds.
    rng, ticks, detected = np.random.default_rng(20260809), 0, 0
    for i in range(1000):
        doc, injections = quarters_scenario(rng)
        sim = run_checked(monkeypatch, OracleScanSimulation(
            parse_cluster_config(doc), injections, 720, seed=1_000_000 + i))
        ticks, detected = ticks + sim.ticks, detected + sim.detected
    assert ticks > 1000 and detected > 500


@pytest.mark.slow
@pytest.mark.parametrize("emit", [False, True], ids=["unlogged", "logged"])
def test_overlapping_scans_as_the_replaced_expressions(monkeypatch, emit):
    rng, ticks = np.random.default_rng(20261019), 0
    for i in range(600):
        config, injections = overlapping_scenario(rng)
        ticks += run_checked(monkeypatch, OracleScanSimulation(
            config, injections, 900, seed=i, emit_monitor_log=emit)).ticks
    assert ticks > 600


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("emit", [False, True], ids=["unlogged", "logged"])
def test_storm_scans_as_the_replaced_expressions(monkeypatch, seed, emit):
    scenario = storm_scenario(seed)
    sim = run_checked(monkeypatch, OracleScanSimulation(
        scenario.config, scenario.injections, scenario.horizon_s, seed=scenario.seed,
        emit_monitor_log=emit))
    assert sim.ticks > 10 and sim.detected > 10
