"""Cluster domain model: physical hosts, virtual machines and derived load.

ClusterState is the single source of truth the controller and monitor read;
only the simulation engine mutates it. Host load is derived, never stored:
the sum of the load contributions of the host's running VMs plus any
scenario-injected extra load, and zero while the host is powered off.

Loads and thresholds are int counts of milli-units, so threshold decisions
are exact. `to_milli` reads a number of load units and `load_text` writes
one; no other module knows the unit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable


class PowerState(Enum):
    ON = "on"
    OFF = "off"


class VmLifecycle(Enum):
    RUNNING = "running"
    UNRESPONSIVE = "unresponsive"
    HALTED = "halted"
    BOOTING = "booting"
    INSTALLING = "installing"
    WAITING_FOR_CAPACITY = "waiting_for_capacity"


# Lifecycles that require the VM to be bound to a host.
BOUND_LIFECYCLES = {
    VmLifecycle.RUNNING,
    VmLifecycle.UNRESPONSIVE,
    VmLifecycle.BOOTING,
    VmLifecycle.INSTALLING,
}

MAC_RE = re.compile(r"^([0-9a-f]{2}:){5}[0-9a-f]{2}\Z")


@dataclass(slots=True)
class PhysicalHost:
    host_id: str
    cpu_count: int
    ram_mb: int
    load_threshold: int
    power_state: PowerState = PowerState.ON
    hosted_vms: list[str] = field(default_factory=list)


@dataclass(slots=True)
class VirtualMachine:
    vm_id: str
    mac: str
    bound_host: str | None
    boot_profile: str
    lifecycle: VmLifecycle = VmLifecycle.RUNNING
    reinstall_allowed: bool = True
    load_contribution: int = 1000


@dataclass
class ClusterState:
    hosts: dict[str, PhysicalHost]
    vms: dict[str, VirtualMachine]
    extra_load: dict[str, int] = field(default_factory=dict)


def to_milli(units: int | float) -> int:
    """The milli-units in a number of load units below 1e305. A float must
    hold a whole number of them: 0.1 gives 100, and 0.0001 a ValueError."""
    if not abs(units) < 1e305:  # so that 1000 times it is a finite float
        raise ValueError("expected a number below 1e305")
    milli = round(units * 1000)
    if isinstance(units, float) and milli / 1000 != units:
        raise ValueError("expected a multiple of 0.001")
    return milli


def load_text(milli: int) -> str:
    """A load as a number of units: the repr of the float nearest it."""
    return repr(milli / 1000)


def default_threshold(cpu_count: int) -> int:
    """Load threshold for a host that does not declare one explicitly."""
    if cpu_count < 1:
        raise ValueError("cpu_count must be >= 1")
    return to_milli(cpu_count)


def host_load(state: ClusterState, host_id: str) -> int:
    """Instantaneous derived load of a host.

    Sum of load contributions of its running VMs plus injected extra load;
    zero for a powered-off host.
    """
    host = state.hosts.get(host_id)
    if host is None:
        raise KeyError(f"unknown host '{host_id}'")
    if host.power_state is PowerState.OFF:
        return 0
    total = sum(
        state.vms[vm_id].load_contribution
        for vm_id in host.hosted_vms
        if state.vms[vm_id].lifecycle is VmLifecycle.RUNNING
    )
    return total + state.extra_load.get(host_id, 0)


def pending_load(state: ClusterState, host_id: str) -> int:
    """Committed-but-not-yet-running load: contributions of VMs booting or
    installing on the host. Used by placement so in-flight placements count
    against capacity."""
    host = state.hosts[host_id]
    return sum(
        state.vms[vm_id].load_contribution
        for vm_id in host.hosted_vms
        if state.vms[vm_id].lifecycle in (VmLifecycle.BOOTING, VmLifecycle.INSTALLING)
    )


def check_state_invariants(state: ClusterState) -> None:
    """Assert binding and lifecycle consistency of the whole cluster graph.

    A whole-graph pass detects a fault: the hosted_vms lists name known VMs,
    each once, and their vm -> host map equals the bound VMs' bound_host map;
    lifecycles agree with binding; off hosts hold only halted VMs. Then
    `check_touched_invariants` over every machine names it. The engine runs
    this at the end of every run; the tests also run it after every event.
    """
    hosts = state.hosts.values()
    hosted = {vm_id: host.host_id for host in hosts for vm_id in host.hosted_vms}
    holds = sum(len(host.hosted_vms) for host in hosts) == len(hosted)
    bound = {}
    waiting = VmLifecycle.WAITING_FOR_CAPACITY
    for vm in state.vms.values():
        if vm.bound_host is not None:
            if vm.lifecycle is waiting:
                holds = False
            bound[vm.vm_id] = vm.bound_host
        elif vm.lifecycle in BOUND_LIFECYCLES:
            holds = False
    if holds and hosted == bound:
        for host in hosts:
            if host.power_state is PowerState.OFF:
                for vm_id in host.hosted_vms:
                    if state.vms[vm_id].lifecycle is not VmLifecycle.HALTED:
                        holds = False
        if holds:
            return
    check_touched_invariants(state, state.hosts.keys() | state.vms.keys())
    raise AssertionError


def check_touched_invariants(state: ClusterState, machine_ids: Iterable[str]) -> None:
    """Assert the rules of `check_state_invariants` for the given machines.

    A host's list must name known VMs, each once, all bound to the host, and
    halted if the host is off. A bound VM must be listed on its known host,
    and halted if that host is off; only a bound VM may wait for capacity.
    If the whole graph held at the last check, and every machine whose state
    changed since is given, the graph holds exactly when these hold: a VM
    listed on two hosts or left on its old host's list is caught at the host
    it left, which a move touches. Machines are checked in id order, and the
    AssertionError names the first violation.
    """
    hosts, vms = state.hosts, state.vms
    off, halted = PowerState.OFF, VmLifecycle.HALTED
    for machine_id in sorted(machine_ids):
        host = hosts.get(machine_id)
        if host is not None:
            seen = set()
            for vm_id in host.hosted_vms:
                assert vm_id not in seen, \
                    f"host {machine_id}: duplicate entries in hosted_vms ({vm_id})"
                seen.add(vm_id)
                vm = vms.get(vm_id)
                assert vm is not None, f"host {machine_id} references unknown VM {vm_id}"
                assert vm.bound_host == machine_id, (
                    f"VM {vm_id} hosted by more than one host"
                    if vm.bound_host in hosts and vm_id in hosts[vm.bound_host].hosted_vms
                    else f"VM {vm_id} binding ({vm.bound_host}) disagrees with host {machine_id}")
                assert host.power_state is not off or vm.lifecycle is halted, \
                    f"VM {vm_id} is {vm.lifecycle.value} on powered-off host {machine_id}"
            continue
        vm = vms[machine_id]
        if vm.bound_host is None:
            assert vm.lifecycle not in BOUND_LIFECYCLES, \
                f"VM {machine_id} is {vm.lifecycle.value} but unbound"
            continue
        assert vm.lifecycle is not VmLifecycle.WAITING_FOR_CAPACITY, \
            f"VM {machine_id} is waiting for capacity but still bound"
        host = hosts.get(vm.bound_host)
        assert host is not None, f"VM {machine_id} bound to unknown host {vm.bound_host}"
        assert machine_id in host.hosted_vms, \
            f"VM {machine_id} bound to {vm.bound_host} but absent from its hosted_vms"
        assert host.power_state is not off or vm.lifecycle is halted, \
            f"VM {machine_id} is {vm.lifecycle.value} on powered-off host {host.host_id}"
