"""`tick` against the `tick` it replaced, on every step of the state walk and
every tick of the criterion-5 scenarios.

`old_tick`, `_commit` and `_entry_level` below are `hasim.controller` as it
was before each kind of step became one branch of `tick`: it tested the
deadline in each issued phase, and a placement's load and VM-count moves
were split between `place` and `_commit`. They are kept as they were, with
`tick` renamed `old_tick`, as the oracle. Every call of `tick` in these
runs is also made on `old_tick`, and the records and actions must be equal.
"""

from itertools import product
from typing import Sequence

import numpy as np
import pytest
import test_state_walk
from test_acceptance import drawn_parameters_scenario, quarters_scenario, tenths_scenario

import hasim.engine
from hasim.config import parse_cluster_config
from hasim.controller import (
    DEFER,
    MAX_ESCALATION_CYCLES,
    REBOOT,
    REINSTALL,
    RESTART,
    Action,
    ControllerParams,
    EscalationRecord,
    HostView,
    Phase,
    VmInfo,
    choose_host,
    tick,
)
from hasim.telemetry import DOWN, UP, MonitorSnapshot

_HEALTHY = EscalationRecord()


def _commit(edit, vm: VmInfo, target: str) -> None:
    """Record a placement in the tick's views (sequential fill).

    `edit` returns the tick's private copy of a host's view. The target
    absorbs the VM's load immediately; the hosted-VM count moves only when
    the VM actually changes hosts (a same-host restart is already counted in
    vm_count).
    """
    tv = edit(target)
    tv.load += vm.load_contribution
    if vm.bound_host != target:
        tv.vm_count += 1
        src = edit(vm.bound_host)
        if src is not None:
            src.vm_count -= 1


def _entry_level(params: ControllerParams, vm: VmInfo, host_down: bool) -> str:
    """First intervention for a failed VM; after an expired reboot, pass host_down."""
    if host_down or not params.reboot_step_enabled:
        if params.restart_step_enabled or not vm.reinstall_allowed:
            return RESTART
        return REINSTALL
    return REBOOT


def old_tick(records: dict[str, EscalationRecord], snapshot: MonitorSnapshot,
             view: dict[str, HostView], now: int, params: ControllerParams,
             vm_infos: Sequence[VmInfo]) -> tuple[dict[str, EscalationRecord], list[Action]]:
    """One controller scan: the open escalations of vm_infos plus the actions.

    A VM missing from `records` is HEALTHY, and the returned records hold
    only the VMs whose escalation stays open: a VM seen Up, or left HEALTHY,
    gets no record. Host liveness is the view's monitor_up. `view` maps host
    ids to HostViews. The tick never changes it, so a tick that places
    nothing and commits no reboot costs nothing per host.

    Pure function of its inputs; actions come out ordered by vm_id because
    VMs are processed in that order, which is also the sequential-fill order
    for placements.
    """
    assert snapshot.taken_at == now, "snapshot must be taken at the scan instant"
    # Placements and reboot commits within the tick change private copies,
    # made at a host's first change (sequential fill); `view` stays as it is.
    copies: dict[str, HostView] = {}
    out: dict[str, EscalationRecord] = {}
    actions: list[Action] = []

    def edit(host_id: str | None) -> HostView | None:
        h = copies.get(host_id)
        if h is None and host_id in view:
            v = view[host_id]
            h = copies[host_id] = HostView(v.host_id, v.power_on, v.monitor_up, v.load,
                                           v.vm_count, v.load_threshold)
        return h

    def place(rec: EscalationRecord, vm: VmInfo, kind: str) -> EscalationRecord:
        target = choose_host({**view, **copies}.values(), vm)
        if target is None:
            if rec.phase is not Phase.AWAITING_CAPACITY:
                actions.append(Action(DEFER, vm.vm_id))
                src = edit(vm.bound_host)
                if src is not None:
                    src.vm_count -= 1
            return rec._replace(phase=Phase.AWAITING_CAPACITY, deadline=None,
                           pending=kind)
        actions.append(Action(kind, vm.vm_id, target))
        _commit(edit, vm, target)
        if kind == RESTART:
            return rec._replace(phase=Phase.RESTART_ISSUED,
                           deadline=now + params.t2_s, pending=None)
        return rec._replace(phase=Phase.REINSTALL_ISSUED,
                       deadline=now + params.reinstall_patience_s, pending=None)

    for vm in sorted(vm_infos, key=lambda v: v.vm_id):
        entry = snapshot.entries.get(vm.vm_id)
        if entry is not None and entry.verdict == UP:
            continue  # seen Up: the episode is over
        rec = records.get(vm.vm_id, _HEALTHY)

        down = entry is not None and entry.verdict == DOWN
        if not down and rec.phase is not Phase.AWAITING_CAPACITY:
            # Not monitored (e.g. parked) and not waiting: nothing to decide.
            pass

        elif rec.phase is Phase.HEALTHY:
            src = view.get(vm.bound_host)  # the tick changes no monitor_up
            level = _entry_level(params, vm, src is not None and not src.monitor_up)
            if level == REBOOT:
                actions.append(Action(REBOOT, vm.vm_id))
                # The reboot commits the VM's load back to its host; later
                # placements in this tick must not claim that headroom.
                if src is not None:
                    edit(vm.bound_host).load += vm.load_contribution
                rec = rec._replace(phase=Phase.REBOOT_ISSUED,
                              deadline=now + params.t1_s)
            else:
                rec = place(rec, vm, level)

        elif rec.phase is Phase.REBOOT_ISSUED:
            if now >= rec.deadline:
                rec = place(rec, vm, _entry_level(params, vm, host_down=True))

        elif rec.phase is Phase.RESTART_ISSUED:
            if now >= rec.deadline:
                if vm.reinstall_allowed:
                    rec = place(rec, vm, REINSTALL)
                else:
                    # Reinstall opted out: keep retrying restarts.
                    rec = place(rec, vm, RESTART)

        elif rec.phase is Phase.REINSTALL_ISSUED:
            if now >= rec.deadline:
                cycles = rec.cycles + 1
                if cycles >= MAX_ESCALATION_CYCLES:
                    rec = rec._replace(phase=Phase.REQUIRES_HUMAN,
                                  deadline=None, cycles=cycles)
                else:
                    rec = place(rec._replace(cycles=cycles), vm, RESTART)

        elif rec.phase is Phase.AWAITING_CAPACITY:
            rec = place(rec, vm, rec.pending or RESTART)

        # REQUIRES_HUMAN: excluded until seen Up again.
        if rec.phase is not Phase.HEALTHY:
            out[vm.vm_id] = rec

    return out, actions


class Compared:
    """`tick`, checked against `old_tick` on every call."""

    def __init__(self):
        self.calls = 0

    def __call__(self, records, snapshot, view, now, params, vm_infos):
        new = tick(records, snapshot, view, now, params, vm_infos)
        old = old_tick(records, snapshot, view, now, params, vm_infos)
        assert new == old, (now, records, vm_infos, new, old)
        self.calls += 1
        return new


@pytest.mark.parametrize("times", [{}, {"t1_s": 120, "t2_s": 240, "reinstall_patience_s": 600}])
def test_every_walk_step_ticks_as_the_old_tick(monkeypatch, times):
    compared = Compared()
    monkeypatch.setattr(test_state_walk, "tick", compared)
    steps = 0
    for reboot, restart, allowed in product((True, False), repeat=3):
        params = ControllerParams(reboot_step_enabled=reboot, restart_step_enabled=restart,
                                  **times)
        steps += test_state_walk.walk(params, allowed)[1]
    assert compared.calls == steps > 0


@pytest.mark.slow
@pytest.mark.parametrize("scenario, seed, n", [
    (quarters_scenario, 20260809, 1_200),
    (tenths_scenario, 20261019, 800),
    (drawn_parameters_scenario, 20261020, 500)], ids=["quarters", "tenths", "drawn"])
def test_every_scenario_tick_ticks_as_the_old_tick(monkeypatch, scenario, seed, n):
    # The first n scenarios of the criterion-5 suite of the same generator.
    compared = Compared()
    monkeypatch.setattr(hasim.engine, "tick", compared)
    rng = np.random.default_rng(seed)
    for i in range(n):
        doc, injections = scenario(rng)
        hasim.engine.Simulation(parse_cluster_config(doc), injections, 720,
                                seed=1_000_000 + i).run()
    assert compared.calls > n
