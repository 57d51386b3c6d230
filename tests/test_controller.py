"""Escalation FSM transitions and placement choice.

The helpers take loads in units, as a document states them, and build views
in milli-units.
"""

import numpy as np

from hasim.cluster import to_milli
from hasim.controller import (
    DEFER,
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
from hasim.telemetry import DOWN, UP, MonitorSnapshot, SnapshotEntry


def snap(now, **verdicts):
    entries = {
        mid: SnapshotEntry(last_heartbeat_at=0, reported_load=0, verdict=v)
        for mid, v in verdicts.items()
    }
    return MonitorSnapshot(taken_at=now, entries=entries)


def hv(host_id, load=0.0, vm_count=0, threshold=4.0, power_on=True, up=True):
    return HostView(host_id=host_id, power_on=power_on, monitor_up=up,
                    load=to_milli(load), vm_count=vm_count,
                    load_threshold=to_milli(threshold))


def view_of(*views):
    """The view `tick` takes: each host's id mapped to its HostView."""
    return {h.host_id: h for h in views}


def vi(vm_id, bound_host="alfa01", contribution=1.0, reinstall=True):
    return VmInfo(vm_id, bound_host, to_milli(contribution), reinstall)


PARAMS = ControllerParams()


# -- choose_host --------------------------------------------------------


def test_choose_prefers_under_threshold_host():
    view = [hv("alfa01", load=5.0), hv("alfa04", load=1.0)]
    assert choose_host(view, vi("gridce")) == "alfa04"


def test_choose_empty_view():
    assert choose_host([], vi("gridce")) is None


def test_choose_threshold_is_strict():
    # load + contribution == threshold is not eligible.
    view = [hv("h1", load=3.0, threshold=4.0)]
    assert choose_host(view, vi("v", contribution=1.0)) is None
    view = [hv("h1", load=2.9, threshold=4.0)]
    assert choose_host(view, vi("v", contribution=1.0)) == "h1"


def test_choose_skips_off_and_down_hosts():
    view = [hv("h1", power_on=False), hv("h2", up=False), hv("h3", load=0.5)]
    assert choose_host(view, vi("v")) == "h3"


def test_choose_tie_break_by_vm_count_then_id():
    view = [hv("hb", load=1.0, vm_count=2), hv("ha", load=1.0, vm_count=2),
            hv("hc", load=1.0, vm_count=1)]
    assert choose_host(view, vi("v")) == "hc"
    view = [hv("hb", load=1.0, vm_count=2), hv("ha", load=1.0, vm_count=2)]
    assert choose_host(view, vi("v")) == "ha"


def oracle_choose(view, vm):
    eligible = [h for h in view
                if h.power_on and h.monitor_up
                and h.load + vm.load_contribution < h.load_threshold]
    if not eligible:
        return None
    return sorted(eligible, key=lambda h: (h.load, h.vm_count, h.host_id))[0].host_id


def test_choose_matches_oracle_randomized():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        view = [
            hv(f"h{i}",
               load=round(float(rng.uniform(0, 6)), 1),
               vm_count=int(rng.integers(0, 6)),
               threshold=round(float(rng.uniform(0.5, 6)), 1),
               power_on=bool(rng.random() < 0.8),
               up=bool(rng.random() < 0.8))
            for i in range(int(rng.integers(0, 7)))
        ]
        vm = vi("v", contribution=round(float(rng.uniform(0.1, 2.5)), 1))
        assert choose_host(view, vm) == oracle_choose(view, vm)


# -- host failover through tick ------------------------------------------


def failover(vms, view, params=PARAMS, now=240):
    """The first scan after host 'dead' failed: the host is powered off and
    Down, its VMs are Down, and none has an escalation record yet."""
    dead = hv("dead", power_on=False, up=False, vm_count=len(vms))
    verdicts = {"dead": DOWN, **{vm.vm_id: DOWN for vm in vms}}
    _, actions = tick({}, snap(now, **verdicts), view_of(*view, dead), now, params, vms)
    return actions


def test_failover_sequential_fill_on_one_backup():
    view = [hv("backup", load=0.0, threshold=4.0)]
    vms = [vi("vm2", "dead", 1.5), vi("vm1", "dead", 1.5)]
    actions = failover(vms, view)
    assert actions == [Action(RESTART, "vm1", "backup"),
                       Action(RESTART, "vm2", "backup")]


def test_failover_defers_when_no_backup():
    actions = failover([vi("a", "dead"), vi("b", "dead")], [])
    assert actions == [Action(DEFER, "a"), Action(DEFER, "b")]


def test_failover_overflow_defers_excess():
    # Backup takes two 1.5-load VMs (3.0 < 4.0) but not a third.
    view = [hv("backup", load=0.0, threshold=4.0)]
    vms = [vi(f"vm{i}", "dead", 1.5) for i in range(3)]
    actions = failover(vms, view)
    assert actions == [Action(RESTART, "vm0", "backup"),
                       Action(RESTART, "vm1", "backup"),
                       Action(DEFER, "vm2")]


def oracle_failover(failed_host, vms, view):
    working = {h.host_id: HostView(h.host_id, h.power_on, h.monitor_up, h.load,
                                   h.vm_count, h.load_threshold) for h in view}
    actions = []
    for vm in sorted(vms, key=lambda v: v.vm_id):
        target = oracle_choose(list(working.values()), vm)
        if target is None:
            actions.append(Action(DEFER, vm.vm_id))
        else:
            actions.append(Action(RESTART, vm.vm_id, target))
            working[target].load += vm.load_contribution
            working[target].vm_count += 1
    return actions


def test_failover_matches_greedy_oracle_randomized():
    rng = np.random.default_rng(23)
    for _ in range(500):
        backups = [
            hv(f"h{i}",
               load=round(float(rng.uniform(0, 4)), 1),
               vm_count=int(rng.integers(0, 5)),
               threshold=round(float(rng.uniform(1, 6)), 1),
               power_on=bool(rng.random() < 0.9),
               up=bool(rng.random() < 0.9))
            for i in range(int(rng.integers(1, 6)))
        ]
        vms = [vi(f"vm{j}", "dead", round(float(rng.uniform(0.2, 2.0)), 1))
               for j in range(int(rng.integers(1, 7)))]
        assert failover(vms, backups) == oracle_failover("dead", vms, backups)


# -- tick ----------------------------------------------------------------


def test_healthy_down_vm_gets_reboot():
    records, actions = tick({}, snap(240, alfa01=UP, gridce=DOWN),
                            view_of(hv("alfa01")), 240, PARAMS, [vi("gridce")])
    assert actions == [Action(REBOOT, "gridce")]
    rec = records["gridce"]
    assert rec.phase is Phase.REBOOT_ISSUED
    assert rec.deadline == 240 + 180


def test_expired_reboot_escalates_to_restart():
    records = {"gridce": EscalationRecord(Phase.REBOOT_ISSUED, deadline=420)}
    view = view_of(hv("alfa01", load=5.0), hv("alfa04", load=1.0))
    records, actions = tick(records, snap(420, alfa01=UP, alfa04=UP, gridce=DOWN),
                            view, 420, PARAMS, [vi("gridce")])
    assert actions == [Action(RESTART, "gridce", "alfa04")]
    assert records["gridce"].phase is Phase.RESTART_ISSUED
    assert records["gridce"].deadline == 420 + 180


def test_unexpired_reboot_waits():
    records = {"gridce": EscalationRecord(Phase.REBOOT_ISSUED, deadline=420)}
    records, actions = tick(records, snap(300, alfa01=UP, gridce=DOWN),
                            view_of(hv("alfa01")), 300, PARAMS, [vi("gridce")])
    assert actions == []
    assert records["gridce"].phase is Phase.REBOOT_ISSUED


def test_all_up_is_a_fixed_point():
    records, actions = tick({}, snap(60, alfa01=UP, a=UP, b=UP), view_of(hv("alfa01")),
                            60, PARAMS, [vi("a"), vi("b")])
    assert actions == []
    assert records == {}


def test_healthy_records_act_as_missing_and_are_not_returned():
    # An Up VM, an unmonitored VM and a Down VM, with and without explicit
    # HEALTHY records: same actions, and no HEALTHY record comes back.
    snapshot = snap(240, alfa01=UP, up=UP, down=DOWN)
    infos = [vi("up"), vi("down"), vi("parked", bound_host=None)]
    explicit = {vm.vm_id: EscalationRecord() for vm in infos}
    for records in ({}, explicit):
        records, actions = tick(records, snapshot, view_of(hv("alfa01")), 240, PARAMS, infos)
        assert actions == [Action(REBOOT, "down")]
        assert records == {"down": EscalationRecord(Phase.REBOOT_ISSUED, deadline=420)}


def test_up_resets_any_phase_to_healthy():
    records = {"v": EscalationRecord(Phase.RESTART_ISSUED, deadline=500)}
    records, actions = tick(records, snap(300, alfa01=UP, v=UP), view_of(hv("alfa01")),
                            300, PARAMS, [vi("v")])
    assert actions == []
    assert records == {}


def test_expired_restart_escalates_to_reinstall():
    records = {"v": EscalationRecord(Phase.RESTART_ISSUED, deadline=600)}
    records, actions = tick(records, snap(600, alfa01=UP, v=DOWN), view_of(hv("alfa01")),
                            600, PARAMS, [vi("v")])
    assert actions == [Action(REINSTALL, "v", "alfa01")]
    assert records["v"].phase is Phase.REINSTALL_ISSUED
    assert records["v"].deadline == 600 + PARAMS.reinstall_patience_s


def test_reinstall_suppressed_for_opted_out_vm():
    records = {"v": EscalationRecord(Phase.RESTART_ISSUED, deadline=600)}
    records, actions = tick(records, snap(600, alfa01=UP, v=DOWN), view_of(hv("alfa01")),
                            600, PARAMS, [vi("v", reinstall=False)])
    assert actions == [Action(RESTART, "v", "alfa01")]
    assert records["v"].phase is Phase.RESTART_ISSUED
    assert records["v"].deadline == 600 + 180


def test_reboot_step_disabled_goes_straight_to_restart():
    params = ControllerParams(reboot_step_enabled=False)
    records, actions = tick({}, snap(240, alfa01=UP, v=DOWN), view_of(hv("alfa01")),
                            240, params, [vi("v")])
    assert actions == [Action(RESTART, "v", "alfa01")]


def test_both_steps_disabled_goes_straight_to_reinstall():
    params = ControllerParams(reboot_step_enabled=False, restart_step_enabled=False)
    records, actions = tick({}, snap(240, alfa01=UP, v=DOWN), view_of(hv("alfa01")),
                            240, params, [vi("v")])
    assert actions == [Action(REINSTALL, "v", "alfa01")]
    assert records["v"].phase is Phase.REINSTALL_ISSUED


def test_down_host_vms_restart_without_reboot():
    view = view_of(hv("dead", power_on=False, up=False), hv("backup", load=0.0))
    records, actions = tick({}, snap(240, dead=DOWN, backup=UP, v1=DOWN, v2=DOWN),
                            view, 240, PARAMS,
                            [vi("v1", "dead"), vi("v2", "dead")])
    assert actions == [Action(RESTART, "v1", "backup"),
                       Action(RESTART, "v2", "backup")]


def test_defer_and_retry_when_capacity_returns():
    # No eligible host: the VM parks and is retried every tick.
    full = view_of(hv("h1", load=3.9, threshold=4.0))
    records, actions = tick({}, snap(240, h1=UP, v=DOWN), full, 240,
                            ControllerParams(reboot_step_enabled=False),
                            [vi("v", "h1")])
    assert actions == [Action(DEFER, "v")]
    assert records["v"].phase is Phase.AWAITING_CAPACITY
    assert records["v"].pending == RESTART

    # Still no capacity: silent retry, no repeated Defer.
    parked = vi("v", None)
    records, actions = tick(records, snap(300, h1=UP), full, 300,
                            ControllerParams(reboot_step_enabled=False), [parked])
    assert actions == []
    assert records["v"].phase is Phase.AWAITING_CAPACITY

    # Capacity returns: the waiting VM is restarted at the next tick.
    free = view_of(hv("h1", load=1.0, threshold=4.0))
    records, actions = tick(records, snap(360, h1=UP), free, 360,
                            ControllerParams(reboot_step_enabled=False), [parked])
    assert actions == [Action(RESTART, "v", "h1")]
    assert records["v"].phase is Phase.RESTART_ISSUED


def test_reinstall_cycles_cap_at_requires_human():
    params = ControllerParams()
    rec = EscalationRecord(Phase.REINSTALL_ISSUED, deadline=1000, cycles=0)
    records = {"v": rec}
    now = 1020
    kinds = []
    for _ in range(10):
        records, actions = tick(records, snap(now, alfa01=UP, v=DOWN),
                                view_of(hv("alfa01")), now, params, [vi("v")])
        kinds.extend(a.kind for a in actions)
        if records["v"].phase is Phase.REQUIRES_HUMAN:
            break
        # Fast-forward to the current deadline.
        now = max(records["v"].deadline, now + params.scan_period_s)
    assert records["v"].phase is Phase.REQUIRES_HUMAN
    # Cycle restarts at restart level, never reboot.
    assert REBOOT not in kinds
    assert kinds.count(RESTART) + kinds.count(REINSTALL) > 0

    # A VM needing human help gets no further actions.
    records, actions = tick(records, snap(now + 60, alfa01=UP, v=DOWN),
                            view_of(hv("alfa01")), now + 60, params, [vi("v")])
    assert actions == []
    assert records["v"].phase is Phase.REQUIRES_HUMAN


def test_batch_placements_fill_sequentially_within_tick():
    # Two VMs down on a live host, both need restarts after reboot expiry:
    # the second placement must see the first one's commitment.
    records = {
        "va": EscalationRecord(Phase.REBOOT_ISSUED, deadline=400),
        "vb": EscalationRecord(Phase.REBOOT_ISSUED, deadline=400),
    }
    view = view_of(hv("h1", load=2.0, threshold=4.0), hv("h2", load=2.5, threshold=4.0))
    records, actions = tick(records, snap(420, h1=UP, h2=UP, va=DOWN, vb=DOWN),
                            view, 420, PARAMS,
                            [vi("va", "h1", 1.5), vi("vb", "h1", 1.5)])
    # va goes to h1 (2.0+1.5 < 4); then h1 is at 3.5 so vb must go to... nowhere
    # (3.5+1.5 >= 4, 2.5+1.5 >= 4) and is deferred.
    assert actions == [Action(RESTART, "va", "h1"), Action(DEFER, "vb")]


def test_tick_is_pure_and_deterministic():
    records = {"v": EscalationRecord(Phase.REBOOT_ISSUED, deadline=420)}
    view = view_of(hv("alfa01", load=1.0))
    snapshot = snap(420, alfa01=UP, v=DOWN)
    infos = [vi("v")]
    out1 = tick(records, snapshot, view, 420, PARAMS, infos)
    out2 = tick(records, snapshot, view, 420, PARAMS, infos)
    assert out1 == out2
    # Inputs not mutated.
    assert records["v"].phase is Phase.REBOOT_ISSUED
    assert view["alfa01"].load == 1000


def test_actions_ordered_by_vm_id():
    records, actions = tick({}, snap(240, h=UP, vb=DOWN, va=DOWN, vc=DOWN),
                            view_of(hv("h")), 240, PARAMS,
                            [vi("vb", "h"), vi("va", "h"), vi("vc", "h")])
    assert [a.vm_id for a in actions] == ["va", "vb", "vc"]
