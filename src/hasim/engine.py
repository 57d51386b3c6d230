"""Deterministic discrete-event engine: failure injection and recovery replay.

The engine owns the event loop and all cluster mutation. Responsive machines
heartbeat every 10 simulated seconds, as analytic beat trains the monitor
evaluates at each snapshot; a periodic beat at second t is recorded after
every other event at t. The controller scans on its own grid,
and its actions are applied with durations sampled around the boot
profiles' nominal totals. Five failure kinds can be injected:

  non_destructive_crash  VM stops heartbeating but stays reachable; a plain
                         reboot recovers it.
  destructive_crash      VM stops heartbeating and its system is corrupted;
                         reboots and restarts complete but the machine never
                         comes back, only a reinstall recovers it.
  physical_host_failure  host powers off permanently; its VMs halt and must
                         be moved by the controller.
  power_glitch           hosts power off but boot themselves back; hosted
                         VMs still halt and need controller-driven recovery.
  load_spike             extra load on a host for a fixed duration; no crash,
                         but it steers placement decisions.

Time is integer seconds. Identical (config, injections, seed) produce
byte-identical traces, reports and monitor logs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Container

import numpy as np

from .cluster import (
    BOUND_LIFECYCLES,
    ClusterState,
    PhysicalHost,
    PowerState,
    VirtualMachine,
    VmLifecycle,
    check_state_invariants,
    check_touched_invariants,
    load_text,
)
# The engine keeps running load totals; it binds these names only for
# bench/tracer.py, which wraps `hasim.engine.host_load` and `pending_load`.
from .cluster import host_load, pending_load  # noqa: F401
from .controller import (
    DEFER,
    REBOOT,
    REINSTALL,
    RESTART,
    Action,
    EscalationRecord,
    HostView,
    Phase,
    VmInfo,
    tick,
)
from .provisioning import DEFAULT_PROFILE, INSTALL, Provisioner
from .telemetry import DOWN, Monitor, MonitorSnapshot, serialize_snapshot

if TYPE_CHECKING:
    from .config import ClusterConfig

NON_DESTRUCTIVE_CRASH = "non_destructive_crash"
DESTRUCTIVE_CRASH = "destructive_crash"
PHYSICAL_HOST_FAILURE = "physical_host_failure"
POWER_GLITCH = "power_glitch"
LOAD_SPIKE = "load_spike"

INJECTION_KINDS = (
    NON_DESTRUCTIVE_CRASH,
    DESTRUCTIVE_CRASH,
    PHYSICAL_HOST_FAILURE,
    POWER_GLITCH,
    LOAD_SPIKE,
)

class ScenarioError(ValueError):
    """A scenario references unknown machines or is otherwise unrunnable."""


@dataclass
class TimingParams:
    """Duration jitter and scheduling knobs of the engine.

    Sampled durations are uniform over [nominal - jitter, nominal + jitter].
    controller_phase_s offsets the controller scan grid within the scan
    period.
    """

    boot_jitter_s: int = 10
    reinstall_jitter_s: int = 17
    controller_phase_s: int = 0


@dataclass(frozen=True)
class FailureInjection:
    at: int
    kind: str
    vm_id: str | None = None
    host_id: str | None = None
    hosts: tuple[str, ...] = ()
    extra_load: int = 0
    duration_s: int = 0


@dataclass
class Episode:
    """Timing breakdown of one injected failure on one VM."""

    vm_id: str
    kind: str
    failure_at: int
    detected_at: int | None = None
    actions: list[tuple[int, Action]] = field(default_factory=list)
    recovered_at: int | None = None
    recovered_on: str | None = None

    @property
    def recovery_s(self) -> int | None:
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.failure_at

    @property
    def detection_s(self) -> int | None:
        if self.detected_at is None:
            return None
        return self.detected_at - self.failure_at


@dataclass
class SimReport:
    episodes: list[Episode]
    horizon_s: int | None  # None when unknown, as in `hasim report`
    trace: list[str] | None = None
    monitor_log: list[str] | None = None

    def recovered(self) -> list[Episode]:
        return [e for e in self.episodes if e.recovered_at is not None]

    def unrecovered(self) -> list[Episode]:
        return [e for e in self.episodes if e.recovered_at is None]


def injection_problems(injections: list[FailureInjection | None],
                       vm_ids: Container[str], host_ids: Container[str],
                       horizon_s: int | None) -> list[str]:
    """`injections[i]: ...` problems of injections against a cluster.

    vm_ids and host_ids are the cluster's machine ids. A None entry stands
    for an injection its parser already rejected; it keeps its index. A
    horizon of None skips the horizon test.
    """
    problems = []
    for i, inj in enumerate(injections):
        if inj is None:
            continue
        where = f"injections[{i}]"
        if inj.kind not in INJECTION_KINDS:
            problems.append(f"{where}.kind: expected one of "
                            f"{', '.join(INJECTION_KINDS)}")
            continue
        if inj.at < 0:
            problems.append(f"{where}.at: must be >= 0")
        if inj.kind in (NON_DESTRUCTIVE_CRASH, DESTRUCTIVE_CRASH):
            if inj.vm_id not in vm_ids:
                problems.append(f"{where}: unknown vm '{inj.vm_id}'")
        elif inj.kind == POWER_GLITCH:
            problems.extend(f"{where}: unknown host '{h}'"
                            for h in inj.hosts if h not in host_ids)
        elif inj.host_id not in host_ids:
            problems.append(f"{where}: unknown host '{inj.host_id}'")
        if inj.kind == LOAD_SPIKE and inj.duration_s < 1:
            problems.append(f"{where}.duration_s: must be >= 1")
        if inj.kind == LOAD_SPIKE and type(inj.extra_load) is not int:
            problems.append(f"{where}.extra_load: expected an int of milli-units")
        if horizon_s is not None and inj.at > horizon_s:
            problems.append(f"{where}: at={inj.at} exceeds horizon_s")
    return problems


def sample_duration(nominal_s: int, jitter_s: int, rng: np.random.Generator) -> int:
    """Uniform integer draw from [nominal - jitter, nominal + jitter].

    Consumes exactly one draw from the generator. Drawing the offset from
    the lower bound gives the same numbers as drawing the value, and keeps
    nominal durations beyond the int64 range usable.
    """
    assert 0 <= jitter_s < nominal_s, "jitter must be non-negative and below nominal"
    return nominal_s - jitter_s + int(rng.integers(0, 2 * jitter_s + 1))


class Simulation:
    """One scenario run over a private cluster state.

    A scan costs in proportion to what changed, not to the cluster. `tick`
    visits `_visit()`, the VMs the monitor holds silent (the only ones that
    can be Down) and the VMs with an open escalation. `records` holds those
    escalations as `tick` returns them; a VM without a record is HEALTHY.
    `_set_lifecycle`, `_set_power`, `_move` and `_add_extra_load` make every
    change of machine state and the bookkeeping that follows it, and note
    the machines they touch. `tick` reads the host table: each host's power,
    committed load, VM count and threshold as of the last tick, where a
    touched host's view is rebuilt at the next tick and a silent host takes
    its verdict from the snapshot (a host with a beat train is Up). `tick`
    copies a host's view only to place a VM on it or commit a reboot's load.

    Host loads are int running totals: `_run_load` of a host's RUNNING VMs
    and `_boot_load` of its BOOTING or INSTALLING ones, which `_count` moves
    as a VM leaves or enters a host or lifecycle.

    seed: an integer seed, or a generator used as it is.

    One rule decides whether a scan ticks and when the next one comes: a
    scan ticks when now >= `_idle_until()`, which is now with the monitor
    log on (the log needs every scan) and the wake instant otherwise. A
    scan that does not tick skips the snapshot, the table and `tick`, and
    only traces `scan`. A `tick` sets the wake instant to the earliest
    record deadline or VM Down instant (`Monitor.next_down_at`), inf when
    `_visit()` is empty. A new episode lowers it to its VM's Down instant,
    and a VM with a record that runs again lowers it to now. While the last
    tick left a VM waiting for capacity, every transition and every action
    lowers it to now (an action counts even when it changes no state: a
    reboot's load commit in `tick` never took place).

    Each scan checks the binding and power rules for the machines touched
    since the previous one (`check_touched_invariants`), and the run ends
    with the full-graph check; per-event checks belong to the tests.

    Every scan schedules the next one at the first grid instant after now
    at or after `_idle_until()` or the next event, and none when both are
    inf: the run ends on an empty heap. No event runs before the instants
    it jumps over, so a traced run writes their `scan` lines then, up to
    the horizon. The episodes, records, final state and trace are those of
    a run that scans every period to the horizon.
    """

    def __init__(self, config: "ClusterConfig", injections: list[FailureInjection],
                 horizon_s: int, *, seed: int | np.random.Generator = 0,
                 collect_trace: bool = False, emit_monitor_log: bool = False):
        problems, beating, silent = self._build_state(config)
        problems += injection_problems(injections, self.state.vms, self.state.hosts,
                                       horizon_s)
        if problems:
            raise ScenarioError("; ".join(problems))
        self.params = config.controller
        self.timing = config.timing
        self.horizon_s = horizon_s
        self.rng = np.random.default_rng(seed or 0)
        self.monitor = Monitor(config.telemetry)
        self.provisioner = Provisioner(config.profiles)
        self.records: dict[str, EscalationRecord] = {}
        # host -> its HostView as of the last tick; the hosts a transition
        # touched since are stale until the next tick refreshes them.
        self._table: dict[str, HostView] = {}
        self._stale: set[str] = set(self.state.hosts)
        self._totals = {VmLifecycle.RUNNING: self._run_load,
                        VmLifecycle.BOOTING: self._boot_load,
                        VmLifecycle.INSTALLING: self._boot_load}
        # Machines a transition touched since the last scan.
        self._touched: set[str] = set()
        self.episodes: list[Episode] = []
        self._open: dict[str, Episode] = {}
        # VMs whose system only a completed installation repairs
        self._corrupted: set[str] = set()
        self._heap: list[tuple[int, int, str, tuple]] = []
        self._seq = 0
        # A completion counts only if no transition bumped the ticket since.
        self._boot_ticket: dict[str, int] = {}
        self.now = 0
        # Whether the last tick left a VM waiting for capacity.
        self._waiting = False
        self.trace: list[str] | None = [] if collect_trace else None
        self.monitor_log: list[str] | None = [] if emit_monitor_log else None

        for inj in injections:
            self._schedule(inj.at, "inject", (inj,))
        phase = self.timing.controller_phase_s
        assert 0 <= phase < self.params.scan_period_s
        self._schedule(phase, "scan", ())
        self.monitor.register_started(self.now, beating, silent)
        # The wake instant: no `tick` before it can decide anything (see
        # `_idle_until`). Until the first tick, that is the first VM Down instant.
        self._wake = self.monitor.next_down_at(self.now, self.state.vms)

    def _build_state(self, config: "ClusterConfig") -> tuple[list[str], dict[str, int],
                                                            dict[str, int]]:
        """Set `state` and the hosts' load totals from the config's
        declarations in one pass over its VMs. Return the declarations'
        problems, and the machines that beat at t=0 and those that do not,
        each mapped to the load it reports.

        The state's hosts and VMs are new instances, so one config can seed
        many simulation runs. A VM of the wrong load type stays out of the
        totals, so that every problem is found.
        """
        hosts = {h.host_id: PhysicalHost(h.host_id, h.cpu_count, h.ram_mb,
                                         h.load_threshold, h.power_state, [])
                 for h in config.hosts}
        problems = [f"host {h}: load_threshold is not an int of milli-units"
                    for h, host in hosts.items() if type(host.load_threshold) is not int]
        # host -> load of its running VMs, and of its booting or installing ones
        run = self._run_load = dict.fromkeys(hosts, 0)
        boot = self._boot_load = dict.fromkeys(hosts, 0)
        beating, silent, vms = {}, {}, {}
        running, booting = VmLifecycle.RUNNING, (VmLifecycle.BOOTING, VmLifecycle.INSTALLING)
        for v in config.vms:
            vm_id, host_id, load = v.vm_id, v.bound_host, v.load_contribution
            vms[vm_id] = VirtualMachine(vm_id, v.mac, host_id, v.boot_profile, v.lifecycle,
                                        v.reinstall_allowed, load)
            if type(load) is not int:
                problems.append(f"vm {vm_id}: load_contribution is not an int of milli-units")
                load = 0
            if host_id is not None:
                host = hosts.get(host_id)
                if host is None:
                    problems.append(f"vm '{vm_id}': unknown bound_host '{host_id}'")
                elif v.lifecycle is running:
                    host.hosted_vms.append(vm_id)
                    run[host_id] += load
                    beating[vm_id] = load
                else:
                    host.hosted_vms.append(vm_id)
                    if v.lifecycle in booting:
                        boot[host_id] += load
                    silent[vm_id] = load
            if v.boot_profile not in config.profiles:
                problems.append(f"vm '{vm_id}': unknown profile '{v.boot_profile}'")
        # A host beats while powered on, reporting its load.
        for host_id, host in hosts.items():
            if host.power_state is PowerState.ON:
                beating[host_id] = run[host_id]
            else:
                silent[host_id] = 0
        self.state = ClusterState(hosts=hosts, vms=vms)
        return problems, beating, silent

    # -- scheduling ------------------------------------------------------

    def _schedule(self, at: int, kind: str, args: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, kind, args))

    def _trace(self, line: str) -> None:
        if self.trace is not None:
            self.trace.append(f"{self.now} {line}")

    # -- heartbeats ------------------------------------------------------

    def _load(self, host_id: str) -> int:
        """`host_load` from the host's running total."""
        if self.state.hosts[host_id].power_state is PowerState.OFF:
            return 0
        return self._run_load[host_id] + self.state.extra_load.get(host_id, 0)

    def _reported_load(self, machine_id: str) -> int:
        if machine_id in self.state.hosts:
            return self._load(machine_id)
        return self.state.vms[machine_id].load_contribution

    # A host beats while powered on, a VM while running; trains start and
    # stop exactly at those transitions.
    def _start_beats(self, machine_id: str) -> None:
        self.monitor.start_beats(machine_id, self.now, self._reported_load(machine_id))

    def _silence(self, machine_id: str) -> None:
        # The staleness clock runs from the last proof of life: a machine
        # healthy until the failure instant gets a final beat there.
        self.monitor.stop_beats(machine_id, self.now)
        self.monitor.record_heartbeat(machine_id, self.now,
                                      self._reported_load(machine_id))

    def _host_load_changed(self, host_id: str) -> None:
        self.monitor.load_changed(host_id, self.now, self._load(host_id))

    # -- transitions -----------------------------------------------------

    def _touch(self, *machine_ids: str | None) -> None:
        """Note the machines a transition changed: a host's table entry is
        refreshed at the next tick, and each machine is checked at the next
        scan. A VM the last tick left waiting may fit after any change."""
        if self._waiting:
            self._wake = self.now
        for machine_id in machine_ids:
            if machine_id is not None:
                self._touched.add(machine_id)
                if machine_id in self.state.hosts:
                    self._stale.add(machine_id)

    def _count(self, vm: VirtualMachine, sign: int) -> None:
        """Add the VM's load to its host's total for its lifecycle (sign 1),
        or take it away (sign -1)."""
        totals = self._totals.get(vm.lifecycle)
        if totals is not None and vm.bound_host is not None:
            totals[vm.bound_host] += sign * vm.load_contribution

    def _set_lifecycle(self, vm: VirtualMachine, lifecycle: VmLifecycle) -> None:
        was_running = vm.lifecycle is VmLifecycle.RUNNING
        if was_running:
            self._silence(vm.vm_id)
        self._count(vm, -1)
        vm.lifecycle = lifecycle
        self._count(vm, 1)
        self._touch(vm.vm_id, vm.bound_host)
        self._boot_ticket[vm.vm_id] = self._boot_ticket.get(vm.vm_id, 0) + 1
        if lifecycle is VmLifecycle.RUNNING:
            self._start_beats(vm.vm_id)
            if vm.vm_id in self.records:
                self._wake = self.now  # the next tick drops the record
            self._host_load_changed(vm.bound_host)
            self._close_episode(vm.vm_id)
        elif was_running:
            self._host_load_changed(vm.bound_host)

    def _set_power(self, host: PhysicalHost, power: PowerState) -> None:
        if power is PowerState.OFF:
            self._silence(host.host_id)
        host.power_state = power
        self._touch(host.host_id)
        self._boot_ticket[host.host_id] = self._boot_ticket.get(host.host_id, 0) + 1
        if power is PowerState.ON:
            self._start_beats(host.host_id)

    def _move(self, vm: VirtualMachine, target: str | None) -> None:
        """Bind the VM to `target`, or park it unbound and unmonitored for None."""
        source = vm.bound_host
        if source == target:  # a restart on its own host keeps its list place
            return
        self._touch(vm.vm_id, source, target)
        self._count(vm, -1)
        if source is None:
            # Heartbeat history survives parking, so the staleness clock
            # still dates from the original failure.
            self.monitor.register(vm.vm_id, self.now)
        else:
            self.state.hosts[source].hosted_vms.remove(vm.vm_id)
        vm.bound_host = target
        if target is None:
            self.monitor.unregister(vm.vm_id)
        else:
            self.state.hosts[target].hosted_vms.append(vm.vm_id)
        self._count(vm, 1)

    def _add_extra_load(self, host_id: str, delta: int) -> None:
        extra = self.state.extra_load.pop(host_id, 0) + delta
        if extra:  # else the last spike ended
            self.state.extra_load[host_id] = extra
        self._touch(host_id)
        self._host_load_changed(host_id)

    # -- episodes --------------------------------------------------------

    def _open_episode(self, vm_id: str, kind: str) -> None:
        if vm_id in self._open:
            return
        ep = Episode(vm_id=vm_id, kind=kind, failure_at=self.now)
        self._open[vm_id] = ep
        self.episodes.append(ep)
        # Detected at its Down instant, already past if the VM was silent.
        self._wake = min(self._wake, self.monitor.down_at(vm_id))

    def _close_episode(self, vm_id: str) -> None:
        ep = self._open.pop(vm_id, None)
        if ep is not None:
            ep.recovered_at = self.now
            ep.recovered_on = self.state.vms[vm_id].bound_host
            self._trace(f"recovered {vm_id} {ep.recovered_on}")

    # -- controller scan -------------------------------------------------

    def _host_view(self, host_id: str) -> HostView:
        """A host's view from the state and its load totals, with the host Up."""
        host = self.state.hosts[host_id]
        return HostView(host_id, host.power_state is PowerState.ON, True,
                        self._load(host_id) + self._boot_load[host_id],
                        len(host.hosted_vms), host.load_threshold)

    def _refresh_table(self, snapshot: MonitorSnapshot) -> None:
        """Bring the host table up to the state and `snapshot`: a stale host
        gets a fresh view, a silent host its verdict. A host with a beat
        train is Up."""
        table = self._table
        for host_id in self._stale:
            table[host_id] = self._host_view(host_id)
        self._stale.clear()
        for machine_id in self.monitor.silent:
            view = table.get(machine_id)
            if view is not None:
                view.monitor_up = snapshot.entries[machine_id].verdict != DOWN

    def _visit(self) -> list[str]:
        """The VMs a scan passes to `tick`, in vm_id order. Any other VM is Up,
        or unmonitored and HEALTHY: `tick` would neither act on it nor keep
        a record for it."""
        vms = self.state.vms
        return sorted({m for m in self.monitor.silent if m in vms}
                      | self.records.keys())

    def _idle_until(self) -> float:
        """No `tick` before this instant can decide anything, unless an event
        comes first. The monitor log needs every scan."""
        return self.now if self.monitor_log is not None else self._wake

    def _on_scan(self) -> None:
        self._trace("scan")
        if self.now >= self._idle_until():
            self._tick()
        self._check_scan()
        # The first grid instant that could tick or that follows the next
        # event; none if neither will come.
        period = self.params.scan_period_s
        due = min(self._idle_until(), self._heap[0][0] if self._heap else math.inf)
        at = math.inf
        if due < math.inf:
            at = self.now + period * max(1, -((self.now - due) // period))
        if self.trace is not None:  # no event runs before the instants jumped over
            self.trace.extend(f"{jumped} scan" for jumped in
                              range(self.now + period, min(at, self.horizon_s + 1), period))
        if at < math.inf:
            self._schedule(at, "scan", ())

    def _check_scan(self) -> None:
        """Check the machines touched since the last scan."""
        if self._touched:
            check_touched_invariants(self.state, self._touched)
            self._touched.clear()

    def _tick(self) -> None:
        vms = self.state.vms
        visit = self._visit()
        if self.monitor_log is not None:
            snapshot = self.monitor.snapshot(self.now)
            self.monitor_log.append(serialize_snapshot(snapshot))
        else:
            # Only silent machines can be Down: the silent hosts and the visit.
            snapshot = self.monitor.snapshot_of(self.now, self.monitor.silent.union(visit))
        for vm_id, ep in self._open.items():
            if ep.detected_at is None:
                entry = snapshot.entries.get(vm_id)
                if entry is not None and entry.verdict == DOWN:
                    ep.detected_at = self.now
        self._refresh_table(snapshot)
        infos = [VmInfo(vm_id, vms[vm_id].bound_host, vms[vm_id].load_contribution,
                        vms[vm_id].reinstall_allowed) for vm_id in visit]
        self.records, actions = tick(self.records, snapshot, self._table, self.now,
                                     self.params, infos)
        self._wake = min([self.monitor.next_down_at(self.now, vms)]
                         + [rec.deadline for rec in self.records.values()
                            if rec.deadline is not None])
        self._waiting = any(rec.phase is Phase.AWAITING_CAPACITY
                            for rec in self.records.values())
        for action in actions:
            self._apply(action)

    def _apply(self, action: Action) -> None:
        if self._waiting:
            # Even an action that changes no state: its load commit in `tick`
            # never took place.
            self._wake = self.now
        self._trace(f"action {action}")
        ep = self._open.get(action.vm_id)
        if ep is not None:
            ep.actions.append((self.now, action))
        vm = self.state.vms[action.vm_id]
        # A running VM is never Down (latency > heartbeat period): no train to stop.
        assert vm.lifecycle is not VmLifecycle.RUNNING, f"action on running {vm.vm_id}"
        if action.kind == REBOOT:
            if vm.lifecycle is VmLifecycle.UNRESPONSIVE:
                self._power_cycle(vm)
            else:
                # Halted or unreachable guests cannot execute a reboot.
                self._trace(f"reboot_unreachable {vm.vm_id}")
        elif action.kind in (RESTART, REINSTALL):
            if action.kind == REINSTALL:
                self.provisioner.bind_install(vm.mac)
                self._trace(f"pxe_bind {vm.mac} install:{vm.boot_profile}")
            self._move(vm, action.target_host)
            self._power_cycle(vm)
        elif action.kind == DEFER:
            self._move(vm, None)
            self._set_lifecycle(vm, VmLifecycle.WAITING_FOR_CAPACITY)

    def _power_cycle(self, vm: VirtualMachine) -> None:
        host = self.state.hosts[vm.bound_host]
        assert host.power_state is PowerState.ON, \
            f"boot scheduled for {vm.vm_id} on powered-off host {host.host_id}"
        mode, nominal_s = self.provisioner.boot_outcome(vm.mac, vm.boot_profile)
        if mode == INSTALL:
            lifecycle, jitter_s = VmLifecycle.INSTALLING, self.timing.reinstall_jitter_s
        else:
            lifecycle, jitter_s = VmLifecycle.BOOTING, self.timing.boot_jitter_s
        duration = sample_duration(nominal_s, jitter_s, self.rng)
        self._set_lifecycle(vm, lifecycle)
        self._schedule(self.now + duration, "boot_complete",
                       (vm.vm_id, self._boot_ticket.get(vm.vm_id, 0)))
        self._trace(f"boot_start {vm.vm_id} {mode} {duration}")

    # -- boot and install completion --------------------------------------

    def _on_boot_complete(self, machine_id: str, ticket: int) -> None:
        if ticket != self._boot_ticket.get(machine_id, 0):
            return
        host = self.state.hosts.get(machine_id)
        if host is not None:
            self._trace(f"boot_complete {machine_id} up")
            self._set_power(host, PowerState.ON)
            return
        vm = self.state.vms[machine_id]
        assert vm.lifecycle in (VmLifecycle.BOOTING, VmLifecycle.INSTALLING)
        if vm.lifecycle is VmLifecycle.INSTALLING:
            self.provisioner.complete_install(vm.mac)
            self._trace(f"pxe_bind {vm.mac} local")
            self._corrupted.discard(machine_id)
            self._trace(f"install_complete {machine_id}")
        elif machine_id in self._corrupted:
            # The boot completes but the corrupted system never comes up.
            self._trace(f"boot_complete {machine_id} silent")
            self._set_lifecycle(vm, VmLifecycle.UNRESPONSIVE)
            return
        else:
            self._trace(f"boot_complete {machine_id} running")
        self._set_lifecycle(vm, VmLifecycle.RUNNING)

    # -- failure injection -------------------------------------------------

    def _on_inject(self, inj: FailureInjection) -> None:
        if inj.kind in (NON_DESTRUCTIVE_CRASH, DESTRUCTIVE_CRASH):
            vm = self.state.vms[inj.vm_id]
            if vm.lifecycle is not VmLifecycle.RUNNING:
                self._trace(f"inject_skipped {inj.kind} {inj.vm_id}")
                return
            self._trace(f"inject {inj.kind} {inj.vm_id}")
            if inj.kind == DESTRUCTIVE_CRASH:
                self._corrupted.add(inj.vm_id)
            self._set_lifecycle(vm, VmLifecycle.UNRESPONSIVE)
            self._open_episode(inj.vm_id, inj.kind)
        elif inj.kind == PHYSICAL_HOST_FAILURE:
            self._trace(f"inject {inj.kind} {inj.host_id}")
            self._fail_host(inj.host_id, inj.kind)
        elif inj.kind == POWER_GLITCH:
            self._trace(f"inject {inj.kind} {','.join(inj.hosts)}")
            for host_id in sorted(inj.hosts):
                if self._fail_host(host_id, inj.kind):
                    # Power returns: the host boots itself back.
                    duration = sample_duration(DEFAULT_PROFILE.boot_total_s,
                                               self.timing.boot_jitter_s, self.rng)
                    self._schedule(self.now + duration, "boot_complete",
                                   (host_id, self._boot_ticket.get(host_id, 0)))
        elif inj.kind == LOAD_SPIKE:
            self._trace(f"inject {inj.kind} {inj.host_id} {load_text(inj.extra_load)} "
                        f"{inj.duration_s}")
            self._add_extra_load(inj.host_id, inj.extra_load)
            self._schedule(self.now + inj.duration_s, "spike_end",
                           (inj.host_id, inj.extra_load))

    def _fail_host(self, host_id: str, episode_kind: str) -> bool:
        host = self.state.hosts[host_id]
        if host.power_state is PowerState.OFF:
            if episode_kind == PHYSICAL_HOST_FAILURE:
                # A new ticket cancels a pending glitch boot: the host stays off.
                self._boot_ticket[host_id] = self._boot_ticket.get(host_id, 0) + 1
            else:
                self._trace(f"inject_skipped {episode_kind} {host_id}")
            return False
        self._set_power(host, PowerState.OFF)
        for vm_id in sorted(host.hosted_vms):
            vm = self.state.vms[vm_id]
            if vm.lifecycle in BOUND_LIFECYCLES:
                self._set_lifecycle(vm, VmLifecycle.HALTED)
                self._open_episode(vm_id, episode_kind)
        return True

    def _on_spike_end(self, host_id: str, extra_load: int) -> None:
        self._add_extra_load(host_id, -extra_load)
        self._trace(f"spike_end {host_id}")

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimReport:
        last = (-1, -1)
        while self._heap:
            at, seq, kind, args = heapq.heappop(self._heap)
            if at > self.horizon_s:
                break
            assert (at, seq) > last, "event order violated"
            last = (at, seq)
            self.now = at
            getattr(self, f"_on_{kind}")(*args)
        check_state_invariants(self.state)
        return SimReport(episodes=self.episodes, horizon_s=self.horizon_s,
                         trace=self.trace, monitor_log=self.monitor_log)


@dataclass(frozen=True)
class KindStats:
    """Aggregate recovery statistics for one failure kind."""

    kind: str
    count: int
    mean_s: float
    stddev_s: float
    min_s: int
    max_s: int
    histogram: list[tuple[int, int]]


def summarize(report: SimReport, bin_width_s: int = 10) -> list[KindStats]:
    """Per-kind recovery statistics with a fixed-width histogram.

    Only recovered episodes contribute; kinds are sorted for determinism.
    """
    if bin_width_s < 1:
        raise ValueError("bin_width_s must be >= 1")
    by_kind: dict[str, list[int]] = {}
    for ep in report.episodes:
        if ep.recovered_at is not None:
            by_kind.setdefault(ep.kind, []).append(ep.recovery_s)
    stats = []
    for kind in sorted(by_kind):
        times = np.asarray(by_kind[kind], dtype=float)
        lo_bin = int(times.min()) // bin_width_s
        hi_bin = int(times.max()) // bin_width_s
        counts = {b: 0 for b in range(lo_bin, hi_bin + 1)}
        for t in by_kind[kind]:
            counts[t // bin_width_s] += 1
        stats.append(KindStats(
            kind=kind,
            count=len(times),
            mean_s=float(times.mean()),
            stddev_s=float(times.std()),
            min_s=int(times.min()),
            max_s=int(times.max()),
            histogram=[(b * bin_width_s, counts[b]) for b in sorted(counts)],
        ))
    return stats
