"""The 3RC escalation step, checked on every single-VM record reachable from HEALTHY.

For each of the four reboot/restart step-flag combinations and both
reinstall opt-out values, a breadth-first walk feeds `tick` one VM. From
each record it tries every input: the VM's verdict (Up, Down or not
monitored), its host Up or Down, a host that fits the VM or none, and a
record deadline that is due or not. Every record `tick` returns joins the
walk, and every step must keep the per-step rules of the state machine. The
README's table of the state machine must hold exactly the steps of the walk.
"""

from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from hasim.controller import (
    DEFER,
    MAX_ESCALATION_CYCLES,
    REBOOT,
    REINSTALL,
    RESTART,
    ControllerParams,
    EscalationRecord,
    HostView,
    Phase,
    VmInfo,
    tick,
)
from hasim.telemetry import DOWN, UP, MonitorSnapshot, SnapshotEntry

NOW = 10_000
VM_LOAD = 1000


def view_for(host_up, fit):
    """The VM's host h and a spare host s. With a fit, h (when Up) or else s
    takes the VM below its threshold of 4000; without one, neither does."""
    h_load, s_load = (500, 1000) if fit else (3500, 3500)
    return {"h": HostView("h", host_up, host_up, h_load, 1, 4000),
            "s": HostView("s", True, True, s_load, 0, 4000)}


def step_inputs(rec):
    """Every (verdict, host_up, fit, due) for a record; due is None without a deadline."""
    dues = (True, False) if rec.deadline is not None else (None,)
    return product((UP, DOWN, None), (True, False), (True, False), dues)


def step(rec, verdict, host_up, fit, due, params, reinstall_allowed):
    """One tick from `rec`, whose deadline (a marker in the walk) is placed at
    NOW when due and one scan period later when not. Asserts the rules of the
    step and returns the record as placed, the actions and the VM's next
    record."""
    if rec.deadline is not None:
        rec = replace(rec, deadline=NOW if due else NOW + params.scan_period_s)
    entries = {} if verdict is None else {
        "v": SnapshotEntry(last_heartbeat_at=0, reported_load=VM_LOAD, verdict=verdict)}
    bound = None if rec.phase is Phase.AWAITING_CAPACITY else "h"
    view = view_for(host_up, fit)
    records, actions = tick({"v": rec}, MonitorSnapshot(taken_at=NOW, entries=entries),
                            view, NOW, params,
                            [VmInfo("v", bound, VM_LOAD, reinstall_allowed)])
    out = records.get("v", EscalationRecord())

    where = f"{rec} verdict={verdict} host_up={host_up} fit={fit}: {actions} -> {out}"
    assert len(actions) <= 1, where
    kinds = [a.kind for a in actions]
    if not reinstall_allowed:
        assert REINSTALL not in kinds, where
    if REBOOT in kinds:
        assert rec.phase is Phase.HEALTHY and params.reboot_step_enabled and host_up, where
    if due is False:
        assert actions == [], where
    if verdict == UP:
        assert records == {} and actions == [], where
    if rec.phase is Phase.REQUIRES_HUMAN and verdict != UP:
        assert out == rec and actions == [], where
    # One DEFER per wait: exactly when the VM starts waiting for capacity.
    starts_waiting = (out.phase is Phase.AWAITING_CAPACITY
                      and rec.phase is not Phase.AWAITING_CAPACITY)
    assert (DEFER in kinds) == starts_waiting, where
    for action in actions:
        if action.target_host is not None:
            target = view[action.target_host]
            assert target.power_on and target.monitor_up, where
            assert target.load + VM_LOAD < target.load_threshold, where
    if out.deadline is not None and out.deadline != rec.deadline:
        assert out.deadline >= NOW + params.scan_period_s, where
    return rec, actions, out


def walk(params, reinstall_allowed, visit=lambda *step: None):
    """The records reachable from HEALTHY, each deadline replaced by a marker
    0, and the number of steps taken. `visit` sees each step's inputs and
    what `step` returns."""
    start = EscalationRecord()
    seen, frontier, steps = {start}, [start], 0
    while frontier:
        nxt = []
        for rec in frontier:
            for inputs in step_inputs(rec):
                placed, actions, out = step(rec, *inputs, params, reinstall_allowed)
                visit(placed, inputs, actions, out)
                steps += 1
                if out.deadline is not None:
                    out = replace(out, deadline=0)
                if out not in seen:
                    seen.add(out)
                    nxt.append(out)
        frontier = nxt
    return seen, steps


@pytest.mark.parametrize("reboot, restart, reinstall_allowed",
                         list(product((True, False), repeat=3)))
def test_every_reachable_step_keeps_the_rules(reboot, restart, reinstall_allowed):
    params = ControllerParams(reboot_step_enabled=reboot, restart_step_enabled=restart)
    seen, steps = walk(params, reinstall_allowed)
    expected = {Phase.HEALTHY, Phase.RESTART_ISSUED, Phase.AWAITING_CAPACITY}
    if reboot:
        expected.add(Phase.REBOOT_ISSUED)
    if reinstall_allowed:
        expected |= {Phase.REINSTALL_ISSUED, Phase.REQUIRES_HUMAN}
    assert {rec.phase for rec in seen} == expected
    # An opted-out VM never waits for a reinstall.
    if not reinstall_allowed:
        assert all(rec.pending != REINSTALL for rec in seen)
    assert steps >= 12 * len(seen)


def event(rec, verdict, fit, params, reinstall_allowed, host_up, due):
    """The README table's event for a step from `rec`."""
    fits = "a host fits" if fit else "no host fits"
    later = RESTART if params.restart_step_enabled or not reinstall_allowed else REINSTALL
    if verdict == UP:
        return "no step due" if rec.phase is Phase.HEALTHY else "seen Up"
    if rec.phase is Phase.AWAITING_CAPACITY:
        return f"{rec.pending} pending, {fits}"
    if verdict is None or rec.phase is Phase.REQUIRES_HUMAN or due is False:
        return "no step due"
    if rec.phase is Phase.HEALTHY:
        if params.reboot_step_enabled and host_up:
            return "Down, reboot step on, host Up"
        return f"Down, {later} first, {fits}"
    if rec.phase is Phase.REINSTALL_ISSUED and rec.cycles + 1 >= MAX_ESCALATION_CYCLES:
        return "deadline due, last round"
    if rec.phase is Phase.REBOOT_ISSUED:
        nxt = later
    elif rec.phase is Phase.RESTART_ISSUED:
        nxt = REINSTALL if reinstall_allowed else RESTART
    else:
        nxt = RESTART
    return f"deadline due, {nxt} next, {fits}"


def readme_table():
    """The rows of the README's state machine table, by (phase, event)."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| phase | event | action | next phase | deadline |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        phase, event_, *outcome = [cell.strip(" `") for cell in line.strip("|").split("|")]
        assert (phase, event_) not in rows, line
        rows[phase, event_] = tuple(outcome)
    return rows


def test_readme_state_machine_table_is_the_walk():
    # t1_s, t2_s and reinstall_patience_s differ, so each deadline names one.
    table, used = readme_table(), set()

    def visit(placed, inputs, actions, out):
        verdict, host_up, fit, due = inputs
        key = (placed.phase.name, event(placed, verdict, fit, params, allowed, host_up, due))
        if key not in table:
            key = ("any", key[1])
        deadlines = {None: "—", NOW + params.t1_s: "now + t1_s", NOW + params.t2_s: "now + t2_s",
                     NOW + params.reinstall_patience_s: "now + reinstall_patience_s"}
        if (out.phase, out.deadline) == (placed.phase, placed.deadline):
            then = ("unchanged", "unchanged")
        else:
            then = (out.phase.name, deadlines[out.deadline])
        assert table.get(key) == (actions[0].kind if actions else "—", *then), \
            (key, placed, inputs, actions, out)
        used.add(key)

    for reboot, restart, allowed in product((True, False), repeat=3):
        params = ControllerParams(t1_s=120, t2_s=240, reinstall_patience_s=600,
                                  reboot_step_enabled=reboot, restart_step_enabled=restart)
        walk(params, allowed, visit)
    assert used == table.keys()
