"""The t=0 cluster registered with the monitor in one call, against the
per-machine `start_beats` and `register` calls the engine once made.

`per_machine_monitor` registers a simulation's initial state the old way,
with each host's load summed afresh by `host_load`. A second simulation
runs with that monitor in place of its own, in lockstep with the first, and
the two monitors must give equal snapshots and Down instants at t=0 and
after each of the first events.
"""

import heapq

import numpy as np
from test_acceptance import random_cluster_doc, random_injections

from hasim.cluster import PowerState, VmLifecycle, host_load
from hasim.config import parse_cluster_config
from hasim.engine import Simulation
from hasim.telemetry import Monitor

HORIZON_S = 720


def per_machine_monitor(sim: Simulation) -> Monitor:
    """A monitor of the simulation's t=0 state, registered machine by
    machine: hosts, then VMs, each by id."""
    monitor = Monitor(sim.monitor.params)
    state = sim.state
    for host_id in sorted(state.hosts):
        if state.hosts[host_id].power_state is PowerState.ON:
            monitor.start_beats(host_id, 0, host_load(state, host_id))
        monitor.register(host_id, 0)
    for vm_id in sorted(state.vms):
        vm = state.vms[vm_id]
        if vm.bound_host is not None:
            if vm.lifecycle is VmLifecycle.RUNNING:
                monitor.start_beats(vm_id, 0, vm.load_contribution)
            monitor.register(vm_id, 0, vm.load_contribution)
    return monitor


def varied_config(rng):
    """A random cluster with powered-off hosts, halted VMs and, as only a
    Python caller can build, unbound VMs halted or waiting for capacity."""
    doc = random_cluster_doc(rng)
    off = {h["host_id"] for h in doc["hosts"] if rng.random() < 0.3}
    for host in doc["hosts"]:
        if host["host_id"] in off:
            host["power_state"] = "off"
    for vm in doc["vms"]:
        if vm["bound_host"] in off or rng.random() < 0.2:
            vm["lifecycle"] = "halted"
    config = parse_cluster_config(doc)
    for vm in config.vms:
        if rng.random() < 0.2:
            vm.bound_host = None
            vm.lifecycle = (VmLifecycle.HALTED, VmLifecycle.WAITING_FOR_CAPACITY)[
                int(rng.integers(0, 2))]
    return doc, config


def assert_same_monitors(bulk: Simulation, per_machine: Simulation) -> None:
    now, vms = bulk.now, bulk.state.vms
    a, b = bulk.monitor.snapshot(now), per_machine.monitor.snapshot(now)
    assert a == b and a.line == b.line
    assert bulk.monitor.silent == per_machine.monitor.silent
    assert bulk.monitor.next_down_at(now, vms) == per_machine.monitor.next_down_at(now, vms)


def step(sim: Simulation) -> bool:
    """Run the next event; False once none is left before the horizon."""
    if not sim._heap or sim._heap[0][0] > sim.horizon_s:
        return False
    at, _, kind, args = heapq.heappop(sim._heap)
    sim.now = at
    getattr(sim, f"_on_{kind}")(*args)
    return True


def test_bulk_registration_equals_per_machine_registration():
    rng = np.random.default_rng(20261019)
    kinds = {"off": 0, "halted": 0, "unbound": 0}
    for i in range(200):
        doc, config = varied_config(rng)
        injections = random_injections(rng, doc)
        bulk = Simulation(config, injections, HORIZON_S, seed=i)
        per_machine = Simulation(config, injections, HORIZON_S, seed=i)
        per_machine.monitor = per_machine_monitor(per_machine)
        assert bulk._wake == per_machine.monitor.next_down_at(0, per_machine.state.vms)
        assert_same_monitors(bulk, per_machine)
        for _ in range(12):
            if not step(bulk):
                break
            assert step(per_machine)
            assert_same_monitors(bulk, per_machine)
        kinds["off"] += any(h.power_state is PowerState.OFF for h in config.hosts)
        kinds["halted"] += any(v.lifecycle is VmLifecycle.HALTED and v.bound_host is not None
                               for v in config.vms)
        kinds["unbound"] += any(v.bound_host is None for v in config.vms)
    assert min(kinds.values()) > 20, kinds
