"""Domain model tests: load units, derived load, threshold defaults, state invariants."""

import dataclasses

import numpy as np
import pytest

from hasim.cluster import (
    BOUND_LIFECYCLES,
    ClusterState,
    PhysicalHost,
    PowerState,
    VirtualMachine,
    VmLifecycle,
    check_state_invariants,
    check_touched_invariants,
    default_threshold,
    host_load,
    load_text,
    pending_load,
    to_milli,
)


def make_state(power=PowerState.ON):
    host = PhysicalHost("h1", cpu_count=4, ram_mb=8192, load_threshold=4000,
                        power_state=power)
    vms = {
        "a": VirtualMachine("a", "52:54:00:00:00:0a", "h1", "p",
                            VmLifecycle.RUNNING, True, 800),
        "b": VirtualMachine("b", "52:54:00:00:00:0b", "h1", "p",
                            VmLifecycle.RUNNING, True, 1200),
        "c": VirtualMachine("c", "52:54:00:00:00:0c", "h1", "p",
                            VmLifecycle.UNRESPONSIVE, True, 2000),
    }
    host.hosted_vms = ["a", "b", "c"]
    return ClusterState(hosts={"h1": host}, vms=vms)


def brute_force_load(state, host_id):
    # Independent oracle: scan every VM in the cluster.
    total = 0
    for vm in state.vms.values():
        if vm.bound_host == host_id and vm.lifecycle is VmLifecycle.RUNNING:
            total += vm.load_contribution
    return total + state.extra_load.get(host_id, 0)


def test_host_load_sums_running_vms():
    state = make_state()
    state.vms["c"].lifecycle = VmLifecycle.RUNNING
    state.hosts["h1"].hosted_vms = ["a", "b"]
    state.vms["c"].bound_host = None
    state.vms["c"].lifecycle = VmLifecycle.WAITING_FOR_CAPACITY
    assert host_load(state, "h1") == 2000


def test_host_load_excludes_unresponsive():
    state = make_state()
    assert host_load(state, "h1") == 800 + 1200
    assert host_load(state, "h1") == brute_force_load(state, "h1")


def test_host_load_off_host_is_zero():
    state = make_state(power=PowerState.OFF)
    assert host_load(state, "h1") == 0


def test_host_load_includes_extra_load():
    state = make_state()
    state.extra_load["h1"] = 3500
    assert host_load(state, "h1") == 800 + 1200 + 3500


def test_host_load_unknown_host():
    state = make_state()
    with pytest.raises(KeyError):
        host_load(state, "nope")


def test_host_load_is_pure():
    state = make_state()
    assert host_load(state, "h1") == host_load(state, "h1")


def test_host_load_matches_brute_force_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n_hosts = int(rng.integers(1, 5))
        hosts = {
            f"h{i}": PhysicalHost(f"h{i}", 4, 1024, 4000)
            for i in range(n_hosts)
        }
        vms = {}
        for j in range(int(rng.integers(0, 12))):
            host_id = f"h{rng.integers(0, n_hosts)}"
            lifecycle = rng.choice([VmLifecycle.RUNNING, VmLifecycle.UNRESPONSIVE,
                                    VmLifecycle.BOOTING, VmLifecycle.HALTED])
            vm = VirtualMachine(f"v{j}", f"52:54:00:00:01:{j:02x}", host_id, "p",
                                lifecycle, True, int(rng.integers(100, 2001)))
            vms[vm.vm_id] = vm
            hosts[host_id].hosted_vms.append(vm.vm_id)
        state = ClusterState(hosts=hosts, vms=vms)
        if rng.random() < 0.5:
            state.extra_load["h0"] = int(rng.integers(0, 5001))
        for host_id in hosts:
            assert host_load(state, host_id) == brute_force_load(state, host_id)


def test_pending_load_counts_booting_and_installing():
    state = make_state()
    state.vms["a"].lifecycle = VmLifecycle.BOOTING
    state.vms["c"].lifecycle = VmLifecycle.INSTALLING
    assert pending_load(state, "h1") == 800 + 2000
    assert host_load(state, "h1") == 1200


def test_default_threshold():
    assert default_threshold(8) == 8000
    assert default_threshold(1) == 1000
    assert isinstance(default_threshold(4), int)


@pytest.mark.parametrize("units,milli", [
    (0, 0), (1, 1000), (2.5, 2500), (0.1, 100), (6.4, 6400), (0.001, 1), (-0.0, 0),
    (0.1 + 0.2, None), (0.0005, None), (1.0001, None), (1e308, None), (10**305, None)])
def test_to_milli_takes_whole_milli_units_only(units, milli):
    if milli is None:
        with pytest.raises(ValueError):
            to_milli(units)
    else:
        assert to_milli(units) == milli and type(to_milli(units)) is int


def test_load_text_is_the_repr_of_the_units():
    assert [load_text(m) for m in (0, 1, 100, 1000, 6400, 250, 10**20)] == \
        ["0.0", "0.001", "0.1", "1.0", "6.4", "0.25", "1e+17"]
    # A float sum of the same units prints what a fresh parse gives.
    for m in range(0, 20000, 7):
        assert float(load_text(m)) == m / 1000 and to_milli(float(load_text(m))) == m


def test_default_threshold_rejects_bad_input():
    with pytest.raises(ValueError):
        default_threshold(0)


def test_hosts_and_vms_are_slotted_dataclasses():
    # A set-up builds a host or VM per record twice: without slots, each
    # carries its own instance dict.
    state = make_state()
    for machine in (state.hosts["h1"], state.vms["a"]):
        assert not hasattr(machine, "__dict__")
        with pytest.raises(AttributeError):
            machine.extra = 1
    host, vm = state.hosts["h1"], state.vms["a"]
    assert dataclasses.astuple(host) == ("h1", 4, 8192, 4000, PowerState.ON, ["a", "b", "c"])
    assert dataclasses.astuple(vm) == ("a", "52:54:00:00:00:0a", "h1", "p",
                                       VmLifecycle.RUNNING, True, 800)
    moved = dataclasses.replace(vm, bound_host=None, lifecycle=VmLifecycle.HALTED)
    assert (moved.vm_id, moved.bound_host, moved.lifecycle) == ("a", None, VmLifecycle.HALTED)
    assert vm.bound_host == "h1"
    assert dataclasses.replace(host, power_state=PowerState.OFF).hosted_vms is host.hosted_vms


# -- oracle: a whole-graph check that words its own messages


def oracle_check_state_invariants(state: ClusterState) -> None:
    """Assert binding and lifecycle consistency of the whole cluster graph.

    Raises AssertionError naming the first violating VM or host. The
    hosted_vms lists must name known VMs, each once, and their vm -> host
    map must equal the bound VMs' bound_host map. Every VM on a powered-off
    host is halted. `check_state_invariants` must give the same verdict.
    """
    hosts = state.hosts.values()
    hosted = {vm_id: host.host_id for host in hosts for vm_id in host.hosted_vms}
    listed = sum(len(host.hosted_vms) for host in hosts)
    bound = {}
    waiting = VmLifecycle.WAITING_FOR_CAPACITY
    for vm in state.vms.values():
        if vm.bound_host is not None:
            assert vm.lifecycle is not waiting, \
                f"VM {vm.vm_id} is waiting for capacity but still bound"
            bound[vm.vm_id] = vm.bound_host
        else:
            assert vm.lifecycle not in BOUND_LIFECYCLES, \
                f"VM {vm.vm_id} is {vm.lifecycle.value} but unbound"
    if listed != len(hosted) or hosted != bound:
        _raise_binding_violation(state)
    for host in hosts:
        if host.power_state is PowerState.OFF:
            for vm_id in host.hosted_vms:
                lifecycle = state.vms[vm_id].lifecycle
                assert lifecycle is VmLifecycle.HALTED, \
                    f"VM {vm_id} is {lifecycle.value} on powered-off host {host.host_id}"


def _raise_binding_violation(state: ClusterState) -> None:
    """Name the first host entry or VM binding that breaks the vm -> host map."""
    seen: dict[str, str] = {}
    for host in state.hosts.values():
        for vm_id in host.hosted_vms:
            assert vm_id not in seen or seen[vm_id] != host.host_id, \
                f"host {host.host_id}: duplicate entries in hosted_vms ({vm_id})"
            assert vm_id not in seen, f"VM {vm_id} hosted by more than one host"
            vm = state.vms.get(vm_id)
            assert vm is not None, f"host {host.host_id} references unknown VM {vm_id}"
            assert vm.bound_host == host.host_id, \
                f"VM {vm_id} binding ({vm.bound_host}) disagrees with host {host.host_id}"
            seen[vm_id] = host.host_id
    for vm in state.vms.values():
        if vm.bound_host is not None:
            assert vm.bound_host in state.hosts, \
                f"VM {vm.vm_id} bound to unknown host {vm.bound_host}"
            assert vm.vm_id in seen, \
                f"VM {vm.vm_id} bound to {vm.bound_host} but absent from its hosted_vms"
    raise AssertionError("hosted_vms and bound_host disagree")


def verdict(check, state):
    """True when `check` passes on state, False when it raises AssertionError."""
    try:
        check(state)
    except AssertionError:
        return False
    return True


def assert_same_verdict(state):
    """The check and its oracle agree on state; returns their verdict."""
    held = verdict(oracle_check_state_invariants, state)
    assert verdict(check_state_invariants, state) == held
    return held


def test_invariants_pass_on_consistent_state():
    check_state_invariants(make_state())
    assert assert_same_verdict(make_state())


def test_invariants_catch_binding_mismatch():
    state = make_state()
    state.vms["a"].bound_host = "h2"
    with pytest.raises(AssertionError):
        check_state_invariants(state)
    assert not assert_same_verdict(state)
    state = two_host_state()
    state.vms["a"].bound_host = "h2"
    assert not assert_same_verdict(state)


def test_invariants_catch_unbound_running_vm():
    state = make_state()
    state.hosts["h1"].hosted_vms.remove("a")
    state.vms["a"].bound_host = None
    with pytest.raises(AssertionError):
        check_state_invariants(state)
    assert not assert_same_verdict(state)


def test_invariants_catch_bound_waiting_vm():
    state = make_state()
    state.vms["a"].lifecycle = VmLifecycle.WAITING_FOR_CAPACITY
    with pytest.raises(AssertionError):
        check_state_invariants(state)


def two_host_state():
    state = make_state()
    state.hosts["h2"] = PhysicalHost("h2", cpu_count=4, ram_mb=8192, load_threshold=4.0)
    return state


def test_invariants_catch_unknown_hosted_vm():
    state = make_state()
    state.hosts["h1"].hosted_vms.append("ghost")
    with pytest.raises(AssertionError, match="host h1 references unknown VM ghost"):
        check_state_invariants(state)


def test_invariants_catch_duplicate_hosted_entry():
    state = make_state()
    state.hosts["h1"].hosted_vms.append("b")
    with pytest.raises(AssertionError, match=r"host h1: duplicate entries in hosted_vms \(b\)"):
        check_state_invariants(state)


def test_invariants_catch_vm_hosted_twice():
    state = two_host_state()
    state.hosts["h2"].hosted_vms.append("a")
    with pytest.raises(AssertionError, match="VM a hosted by more than one host"):
        check_state_invariants(state)


def test_invariants_catch_binding_to_unknown_host():
    state = make_state()
    state.hosts["h1"].hosted_vms.remove("c")
    state.vms["c"].bound_host = "h9"
    with pytest.raises(AssertionError, match="VM c bound to unknown host h9"):
        check_state_invariants(state)


def test_invariants_catch_bound_vm_missing_from_hosted_vms():
    state = two_host_state()
    state.hosts["h1"].hosted_vms.remove("b")
    with pytest.raises(AssertionError,
                       match="VM b bound to h1 but absent from its hosted_vms"):
        check_state_invariants(state)


def test_invariants_catch_running_vm_on_powered_off_host():
    state = make_state(power=PowerState.OFF)
    for vm_id in ("b", "c"):
        state.vms[vm_id].lifecycle = VmLifecycle.HALTED
    with pytest.raises(AssertionError, match="VM a is running on powered-off host h1"):
        check_state_invariants(state)
    state.vms["a"].lifecycle = VmLifecycle.HALTED
    check_state_invariants(state)


def test_invariants_pass_with_unbound_waiting_vm_and_empty_host():
    state = two_host_state()
    state.hosts["h1"].hosted_vms.remove("c")
    state.vms["c"].bound_host = None
    state.vms["c"].lifecycle = VmLifecycle.WAITING_FOR_CAPACITY
    check_state_invariants(state)


def _vm_hosted_twice(state):
    state.hosts["h2"].hosted_vms.append("a")


def _off_with_running_vm(state):
    state.hosts["h1"].power_state = PowerState.OFF
    for vm_id in ("b", "c"):
        state.vms[vm_id].lifecycle = VmLifecycle.HALTED


@pytest.mark.parametrize("corrupt, touched, message", [
    (lambda s: s.hosts["h1"].hosted_vms.append("ghost"), {"h1"},
     "host h1 references unknown VM ghost"),
    (lambda s: s.hosts["h1"].hosted_vms.append("b"), {"h1", "b"},
     r"host h1: duplicate entries in hosted_vms \(b\)"),
    (_vm_hosted_twice, {"h2"}, "VM a hosted by more than one host"),
    (lambda s: setattr(s.vms["c"], "bound_host", "h9"), {"c"},
     "VM c bound to unknown host h9"),
    (lambda s: s.hosts["h1"].hosted_vms.remove("b"), {"b"},
     "VM b bound to h1 but absent from its hosted_vms"),
    (_off_with_running_vm, {"h1"}, "VM a is running on powered-off host h1"),
    (_off_with_running_vm, {"a"}, "VM a is running on powered-off host h1"),
    (lambda s: setattr(s.vms["a"], "lifecycle", VmLifecycle.WAITING_FOR_CAPACITY),
     {"a"}, "VM a is waiting for capacity but still bound"),
    (lambda s: setattr(s.vms["a"], "bound_host", None), {"a"},
     "VM a is running but unbound"),
])
def test_touched_check_names_a_violation_at_a_touched_machine(corrupt, touched, message):
    state = two_host_state()
    check_touched_invariants(state, {*state.hosts, *state.vms})
    assert assert_same_verdict(state)
    corrupt(state)
    with pytest.raises(AssertionError):
        check_state_invariants(state)
    assert not assert_same_verdict(state)
    with pytest.raises(AssertionError, match=message):
        check_touched_invariants(state, touched)


def test_a_fault_at_a_vm_and_a_host_is_named_at_the_vm():
    # c is bound to the unknown h9 but still listed on h1: the VM comes
    # first in id order.
    state = make_state()
    state.vms["c"].bound_host = "h9"
    with pytest.raises(AssertionError, match="VM c bound to unknown host h9"):
        check_state_invariants(state)


def random_state(rng):
    """A small cluster built consistent, then given zero to three random faults."""
    lifecycles = list(VmLifecycle)
    hosts = {f"h{i}": PhysicalHost(f"h{i}", 4, 1024, 4.0,
                                   PowerState.OFF if rng.random() < 0.3 else PowerState.ON)
             for i in range(int(rng.integers(1, 4)))}
    vms = {}
    for j in range(int(rng.integers(0, 6))):
        vm_id = f"v{j}"
        if rng.random() < 0.2:
            vm = VirtualMachine(vm_id, "m", None, "p", VmLifecycle.WAITING_FOR_CAPACITY)
        else:
            host = hosts[f"h{rng.integers(0, len(hosts))}"]
            lifecycle = (VmLifecycle.HALTED if host.power_state is PowerState.OFF
                         else lifecycles[int(rng.integers(0, 5))])
            vm = VirtualMachine(vm_id, "m", host.host_id, "p", lifecycle)
            host.hosted_vms.append(vm_id)
        vms[vm_id] = vm
    state = ClusterState(hosts=hosts, vms=vms)
    host_ids = sorted(hosts) + ["h9"]
    for _ in range(int(rng.integers(0, 4))):
        host = hosts[host_ids[int(rng.integers(0, len(hosts)))]]
        vm = vms.get(f"v{rng.integers(0, 6)}")
        fault = int(rng.integers(0, 6))
        if fault == 0:
            host.hosted_vms.append(vm.vm_id if vm is not None else "ghost")
        elif fault == 1 and host.hosted_vms:
            host.hosted_vms.pop(int(rng.integers(0, len(host.hosted_vms))))
        elif fault == 2 and vm is not None:
            vm.bound_host = [None, *host_ids][int(rng.integers(0, len(host_ids) + 1))]
        elif fault == 3 and vm is not None:
            vm.lifecycle = lifecycles[int(rng.integers(0, len(lifecycles)))]
        elif fault == 4:
            host.power_state = PowerState.OFF
        elif fault == 5:
            host.power_state = PowerState.ON
    return state


def test_check_and_oracle_agree_on_random_states():
    rng = np.random.default_rng(2026)
    held = 0
    for _ in range(3000):
        state = random_state(rng)
        if assert_same_verdict(state):
            held += 1
            continue
        # The fault is named as the touched check names it over every machine.
        with pytest.raises(AssertionError) as full:
            check_state_invariants(state)
        with pytest.raises(AssertionError) as touched:
            check_touched_invariants(state, {*state.hosts, *state.vms})
        assert str(full.value) == str(touched.value) != ""
    assert 300 < held < 2700
