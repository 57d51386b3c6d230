"""Recovery controller: per-VM escalation state machine and host placement.

The controller runs once per scan period. For every virtual machine it
compares the monitor verdict against the VM's escalation record and emits at
most one action: reboot the guest, restart it on a chosen physical host,
reinstall it from scratch on a chosen host, or defer it until capacity
exists. A Down VM steps at once from HEALTHY, and from an issued phase at
its record's deadline: reboot, then restart once T1 has elapsed, then
reinstall once T2 has elapsed. A machine seen Up resets to healthy.

Placement picks the least-loaded powered-on host whose monitor verdict is Up
and which can absorb the VM's load without reaching its threshold, breaking
ties by hosted-VM count and then host id. When several placements happen in
one tick, each placement is visible to the next (sequential fill), so a
single backup host is not oversubscribed by a batch of failovers.

All functions here are pure: they never touch cluster state and return fresh
records. The simulation engine owns all mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from .cluster import VirtualMachine
from .telemetry import DOWN, UP, MonitorSnapshot

REBOOT = "reboot"
RESTART = "restart"
REINSTALL = "reinstall"
DEFER = "defer"

# Completed restart->reinstall rounds tolerated before giving up on a VM.
MAX_ESCALATION_CYCLES = 3


@dataclass
class ControllerParams:
    """Timing and policy knobs of the escalation loop.

    t1_s is the patience between reboot and restart, t2_s between restart and
    reinstall; both must be at least one scan period or their expiry could
    never be observed. reinstall_patience_s is the post-reinstall patience
    before the cycle restarts at the restart level; it must exceed the
    longest installation or in-flight installs would be cancelled.
    Disabling reboot_step_enabled starts escalation at restart; disabling
    restart_step_enabled as well starts it at reinstall (used when lower
    interventions are known to be futile).
    """

    scan_period_s: int = 60
    t1_s: int = 180
    t2_s: int = 180
    reboot_step_enabled: bool = True
    restart_step_enabled: bool = True
    reinstall_patience_s: int = 600


class Phase(Enum):
    HEALTHY = "healthy"
    REBOOT_ISSUED = "reboot_issued"
    RESTART_ISSUED = "restart_issued"
    REINSTALL_ISSUED = "reinstall_issued"
    AWAITING_CAPACITY = "awaiting_capacity"
    REQUIRES_HUMAN = "requires_human"


class EscalationRecord(NamedTuple):
    """Controller memory for one VM, held under its vm_id.

    A VM without a record is HEALTHY. deadline is the scan time at or after
    which the current phase escalates (absent for HEALTHY /
    AWAITING_CAPACITY / REQUIRES_HUMAN). pending names the intervention an
    AWAITING_CAPACITY VM will receive once placement succeeds. cycles counts
    completed reinstall rounds in this episode.
    """

    phase: Phase = Phase.HEALTHY
    deadline: int | None = None
    pending: str | None = None
    cycles: int = 0


_HEALTHY = EscalationRecord()

# The phases `tick` tests per VM, bound once: a member's lookup on its Enum
# class costs about 0.1 µs, several times a global's.
_HEALTHY_PHASE, _AWAITING = Phase.HEALTHY, Phase.AWAITING_CAPACITY
_REBOOT_ISSUED, _RESTART_ISSUED = Phase.REBOOT_ISSUED, Phase.RESTART_ISSUED
_REINSTALL_ISSUED, _REQUIRES_HUMAN = Phase.REINSTALL_ISSUED, Phase.REQUIRES_HUMAN


class Action(NamedTuple):
    kind: str  # REBOOT, RESTART, REINSTALL or DEFER
    vm_id: str
    target_host: str | None = None

    def __str__(self) -> str:
        if self.target_host is None:
            return f"{self.kind} {self.vm_id}"
        return f"{self.kind} {self.vm_id} {self.target_host}"


@dataclass
class HostView:
    """Placement facts for one candidate host, read-only to `tick`.

    load includes the committed contributions of VMs currently booting or
    installing on the host, so back-to-back placements against the same view
    cannot oversubscribe it. The engine's host table keeps one view per host
    for the whole run and updates it in place when the host changes.
    """

    host_id: str
    power_on: bool
    monitor_up: bool
    load: int
    vm_count: int
    load_threshold: int


class VmInfo(NamedTuple):
    """What `tick` reads of a VM, for callers without a `VirtualMachine`;
    the engine passes its VMs themselves."""

    vm_id: str
    bound_host: str | None
    load_contribution: int
    reinstall_allowed: bool


def choose_host(view: Iterable[HostView], vm) -> str | None:
    """Pick the host for a restart or reinstall, or None when nothing fits.

    Candidates must be powered on, Up in the monitor, and able to take the
    VM's load while staying strictly under their threshold. The winner is
    minimal by (load, vm_count, host_id).
    """
    best = None
    best_key = None
    for h in view:
        if not h.power_on or not h.monitor_up:
            continue
        if not h.load + vm.load_contribution < h.load_threshold:
            continue
        key = (h.load, h.vm_count, h.host_id)
        if best_key is None or key < best_key:
            best, best_key = h, key
    return best.host_id if best is not None else None


def _entry_level(params: ControllerParams, vm: VmInfo, host_down: bool) -> str:
    """First intervention for a failed VM; after an expired reboot, pass host_down."""
    if host_down or not params.reboot_step_enabled:
        if params.restart_step_enabled or not vm.reinstall_allowed:
            return RESTART
        return REINSTALL
    return REBOOT


# `fill` is one tick's sequential fill, the tuple (view, copies, hosts, actions)
# that `tick` makes: see its comments.
def _edit(fill: tuple, host_id: str | None) -> HostView | None:
    """A tick's private copy of a host's view, made at the host's first change
    and entered in `hosts` once that map is made; None for an unknown host."""
    view, copies, hosts, _ = fill
    h = copies.get(host_id)
    if h is None and host_id in view:
        v = view[host_id]
        h = copies[host_id] = HostView(v.host_id, v.power_on, v.monitor_up, v.load,
                                       v.vm_count, v.load_threshold)
        if hosts:
            hosts[host_id] = h
    return h


def _place(rec: EscalationRecord, vm: VmInfo, kind: str, now: int, params: ControllerParams,
           fill: tuple) -> EscalationRecord:
    """Place the VM for `kind` or defer it, appending the action. The views
    follow at once: the target takes its load, and the VM counts move when it
    leaves its host. `hosts`, `view` over `copies`, is made at the first
    placement of the tick."""
    view, copies, hosts, actions = fill
    if not hosts:
        hosts.update(view)
        hosts.update(copies)
    target = choose_host(hosts.values(), vm)
    leaves = (target != vm.bound_host if target is not None
              else rec.phase is not _AWAITING)
    if target is not None:
        actions.append(Action(kind, vm.vm_id, target))
        tv = _edit(fill, target)
        tv.load += vm.load_contribution
        if leaves:
            tv.vm_count += 1
    elif leaves:
        actions.append(Action(DEFER, vm.vm_id))
    src = _edit(fill, vm.bound_host) if leaves else None
    if src is not None:
        src.vm_count -= 1
    if target is None:
        return EscalationRecord(_AWAITING, None, kind, rec.cycles)
    if kind == RESTART:
        return EscalationRecord(_RESTART_ISSUED, now + params.t2_s, None, rec.cycles)
    return EscalationRecord(_REINSTALL_ISSUED, now + params.reinstall_patience_s,
                            None, rec.cycles)


_VM_ID = attrgetter("vm_id")


def tick(records: dict[str, EscalationRecord], snapshot: MonitorSnapshot,
         view: dict[str, HostView], now: int, params: ControllerParams,
         vm_infos: Sequence[VmInfo | VirtualMachine],
         ) -> tuple[dict[str, EscalationRecord], list[Action]]:
    """One controller scan: the open escalations of vm_infos plus the actions.

    A VM missing from `records` is HEALTHY, and the returned records hold
    only the VMs whose escalation stays open: a VM seen Up, or left HEALTHY,
    gets no record. A VM awaiting capacity tries its pending step at every
    scan, and a Down VM steps from HEALTHY at once. Any other record steps
    when its VM is Down and `now` has reached its deadline, which one test
    decides; REQUIRES_HUMAN, without a deadline, never steps. Host liveness
    is the view's monitor_up. `view` maps host ids to HostViews. A VM is
    read for its vm_id, bound_host, load_contribution and reinstall_allowed
    only, so the engine passes its table and its VMs as they are. The tick
    writes neither: it copies a host's view at the host's first change, and
    makes one map of `view` over the copies at its first placement, which
    later copies update. A tick that places nothing and commits no reboot
    costs nothing per host; `choose_host` ranks every host once per placement.

    Pure function of its inputs; actions come out ordered by vm_id because
    VMs are processed in that order, which is also the sequential-fill order
    for placements.
    """
    assert snapshot.taken_at == now, "snapshot must be taken at the scan instant"
    # Placements and reboot commits within the tick change private copies,
    # made at a host's first change (sequential fill); `view` stays as it is.
    # `hosts` is `view` over the copies, made at the first placement.
    copies: dict[str, HostView] = {}
    hosts: dict[str, HostView] = {}
    out: dict[str, EscalationRecord] = {}
    actions: list[Action] = []
    fill = (view, copies, hosts, actions)

    for vm in sorted(vm_infos, key=_VM_ID):
        entry = snapshot.entries.get(vm.vm_id)
        if entry is not None and entry.verdict == UP:
            continue  # seen Up: the episode is over
        rec = records.get(vm.vm_id, _HEALTHY)

        down = entry is not None and entry.verdict == DOWN
        if not down and rec.phase is not _AWAITING:
            pass  # not monitored (e.g. parked) and not waiting: nothing to decide

        elif rec.phase is _HEALTHY_PHASE:
            src = view.get(vm.bound_host)  # the tick changes no monitor_up
            level = _entry_level(params, vm, src is not None and not src.monitor_up)
            if level == REBOOT:
                actions.append(Action(REBOOT, vm.vm_id))
                # The reboot commits the VM's load back to its host; later
                # placements in this tick must not claim that headroom.
                if src is not None:
                    _edit(fill, vm.bound_host).load += vm.load_contribution
                rec = EscalationRecord(_REBOOT_ISSUED, now + params.t1_s,
                                       rec.pending, rec.cycles)
            else:
                rec = _place(rec, vm, level, now, params, fill)

        elif rec.phase is _AWAITING:
            rec = _place(rec, vm, rec.pending or RESTART, now, params, fill)

        elif rec.deadline is None or now < rec.deadline:
            pass  # REQUIRES_HUMAN, or an issued phase before its deadline

        elif rec.phase is _REBOOT_ISSUED:
            rec = _place(rec, vm, _entry_level(params, vm, host_down=True), now, params, fill)

        elif rec.phase is _RESTART_ISSUED:
            # A VM that opts out of reinstalls keeps retrying restarts.
            rec = _place(rec, vm, REINSTALL if vm.reinstall_allowed else RESTART, now, params,
                         fill)

        elif rec.cycles + 1 >= MAX_ESCALATION_CYCLES:  # REINSTALL_ISSUED
            rec = EscalationRecord(_REQUIRES_HUMAN, None, rec.pending, rec.cycles + 1)
        else:
            rec = _place(EscalationRecord(rec.phase, rec.deadline, rec.pending, rec.cycles + 1),
                         vm, RESTART, now, params, fill)

        if rec.phase is not _HEALTHY_PHASE:
            out[vm.vm_id] = rec

    return out, actions
