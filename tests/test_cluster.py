"""Domain model tests: derived load, threshold defaults, state invariants."""

import numpy as np
import pytest

from hasim.cluster import (
    ClusterState,
    PhysicalHost,
    PowerState,
    VirtualMachine,
    VmLifecycle,
    check_state_invariants,
    check_touched_invariants,
    default_threshold,
    host_load,
    pending_load,
)


def make_state(power=PowerState.ON):
    host = PhysicalHost("h1", cpu_count=4, ram_mb=8192, load_threshold=4.0,
                        power_state=power)
    vms = {
        "a": VirtualMachine("a", "52:54:00:00:00:0a", "h1", "p",
                            VmLifecycle.RUNNING, True, 0.8),
        "b": VirtualMachine("b", "52:54:00:00:00:0b", "h1", "p",
                            VmLifecycle.RUNNING, True, 1.2),
        "c": VirtualMachine("c", "52:54:00:00:00:0c", "h1", "p",
                            VmLifecycle.UNRESPONSIVE, True, 2.0),
    }
    host.hosted_vms = ["a", "b", "c"]
    return ClusterState(hosts={"h1": host}, vms=vms)


def brute_force_load(state, host_id):
    # Independent oracle: scan every VM in the cluster.
    total = 0.0
    for vm in state.vms.values():
        if vm.bound_host == host_id and vm.lifecycle is VmLifecycle.RUNNING:
            total += vm.load_contribution
    return total + state.extra_load.get(host_id, 0.0)


def test_host_load_sums_running_vms():
    state = make_state()
    state.vms["c"].lifecycle = VmLifecycle.RUNNING
    state.hosts["h1"].hosted_vms = ["a", "b"]
    state.vms["c"].bound_host = None
    state.vms["c"].lifecycle = VmLifecycle.WAITING_FOR_CAPACITY
    assert host_load(state, "h1") == pytest.approx(2.0)


def test_host_load_excludes_unresponsive():
    state = make_state()
    assert host_load(state, "h1") == pytest.approx(0.8 + 1.2)
    assert host_load(state, "h1") == pytest.approx(brute_force_load(state, "h1"))


def test_host_load_off_host_is_zero():
    state = make_state(power=PowerState.OFF)
    assert host_load(state, "h1") == 0.0


def test_host_load_includes_extra_load():
    state = make_state()
    state.extra_load["h1"] = 3.5
    assert host_load(state, "h1") == pytest.approx(0.8 + 1.2 + 3.5)


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
            f"h{i}": PhysicalHost(f"h{i}", 4, 1024, 4.0)
            for i in range(n_hosts)
        }
        vms = {}
        for j in range(int(rng.integers(0, 12))):
            host_id = f"h{rng.integers(0, n_hosts)}"
            lifecycle = rng.choice([VmLifecycle.RUNNING, VmLifecycle.UNRESPONSIVE,
                                    VmLifecycle.BOOTING, VmLifecycle.HALTED])
            vm = VirtualMachine(f"v{j}", f"52:54:00:00:01:{j:02x}", host_id, "p",
                                lifecycle, True, float(rng.uniform(0.1, 2.0)))
            vms[vm.vm_id] = vm
            hosts[host_id].hosted_vms.append(vm.vm_id)
        state = ClusterState(hosts=hosts, vms=vms)
        if rng.random() < 0.5:
            state.extra_load["h0"] = float(rng.uniform(0, 5))
        for host_id in hosts:
            assert host_load(state, host_id) == pytest.approx(
                brute_force_load(state, host_id))


def test_pending_load_counts_booting_and_installing():
    state = make_state()
    state.vms["a"].lifecycle = VmLifecycle.BOOTING
    state.vms["c"].lifecycle = VmLifecycle.INSTALLING
    assert pending_load(state, "h1") == pytest.approx(0.8 + 2.0)
    assert host_load(state, "h1") == pytest.approx(1.2)


def test_default_threshold():
    assert default_threshold(8) == 8.0
    assert default_threshold(1) == 1.0
    assert isinstance(default_threshold(4), float)


def test_default_threshold_rejects_bad_input():
    with pytest.raises(ValueError):
        default_threshold(0)


def test_invariants_pass_on_consistent_state():
    check_state_invariants(make_state())


def test_invariants_catch_binding_mismatch():
    state = make_state()
    state.vms["a"].bound_host = "h2"
    with pytest.raises(AssertionError):
        check_state_invariants(state)


def test_invariants_catch_unbound_running_vm():
    state = make_state()
    state.hosts["h1"].hosted_vms.remove("a")
    state.vms["a"].bound_host = None
    with pytest.raises(AssertionError):
        check_state_invariants(state)


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
    (_vm_hosted_twice, {"h2"}, r"VM a binding \(h1\) disagrees with host h2"),
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
    corrupt(state)
    with pytest.raises(AssertionError):
        check_state_invariants(state)
    with pytest.raises(AssertionError, match=message):
        check_touched_invariants(state, touched)
