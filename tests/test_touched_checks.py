"""Touched-only scan checks against the full invariant check.

A scan checks only the machines that a transition touched since the
previous scan (`check_touched_invariants`). BothChecksSimulation
runs the full `check_state_invariants` beside it at every scan, and the two
must give the same verdict. On the oracle families both always hold. On
runs that corrupt one touched machine at a random transition, both must
fail at the first scan after the corruption.
"""

from pathlib import Path

import numpy as np
from test_acceptance import random_cluster_doc, random_injections
from test_beat_oracle import wide_scenario
from test_scan_oracle import overlapping_scenario

from hasim.cluster import PowerState, VmLifecycle, check_state_invariants
from hasim.config import load_scenario, parse_cluster_config
from hasim.engine import Simulation

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _failure(check):
    try:
        check()
    except AssertionError as exc:
        return exc
    return None


class BothChecksSimulation(Simulation):
    """Runs the full check beside the touched-only one at every scan."""

    def __init__(self, *args, **kwargs):
        self.touched_scans = 0
        self.failed_at = None
        super().__init__(*args, **kwargs)

    def _check_scan(self):
        self.touched_scans += bool(self._touched)
        touched = _failure(super()._check_scan)
        full = _failure(lambda: check_state_invariants(self.state))
        assert (touched is None) == (full is None), \
            f"at {self.now} the touched check gives {touched!r}, the full one {full!r}"
        if touched is not None:
            self.failed_at = self.now
            raise touched


def assert_checks_agree(config, injections, horizon_s, seed):
    sim = BothChecksSimulation(config, injections, horizon_s, seed=seed,
                               collect_trace=True)
    sim.run()
    return sim.touched_scans


def test_glitch_scenarios_give_equal_verdicts():
    for name in ("power_glitch.json", "power_glitch_noreboot.json"):
        scenario = load_scenario((SCENARIOS / name).read_text(), base_dir=SCENARIOS)
        assert assert_checks_agree(scenario.config, scenario.injections,
                                   scenario.horizon_s, scenario.seed)


def test_property_suite_scenarios_give_equal_verdicts():
    # The first 2000 scenarios of acceptance criterion 5, same generator and seeds.
    rng = np.random.default_rng(20260809)
    touched = 0
    for i in range(2000):
        doc = random_cluster_doc(rng)
        touched += assert_checks_agree(parse_cluster_config(doc),
                                       random_injections(rng, doc), 720, 1_000_000 + i)
    assert touched > 2000


def test_overlapping_scenarios_give_equal_verdicts():
    rng = np.random.default_rng(20261019)
    touched = 0
    for i in range(600):
        config, injections = overlapping_scenario(rng)
        touched += assert_checks_agree(config, injections, 900, i)
    assert touched > 600


def test_wide_scenarios_give_equal_verdicts():
    rng = np.random.default_rng(20261018)
    touched = 0
    for i in range(1000):
        config, injections = wide_scenario(rng)
        touched += assert_checks_agree(config, injections, 720, i)
    assert touched > 1000


# -- corrupting one touched machine ------------------------------------------

DUPLICATE, DROP, RUNNING_ON_OFF = "duplicate", "drop", "running_on_off"


class CorruptOneTouched(BothChecksSimulation):
    """Corrupts a machine the n-th transition touched, or a later one where
    that transition touched none the corruption applies to:

    duplicate       a touched VM, or the first VM of a touched host, is
                    listed on its host a second time;
    drop            a touched bound VM is dropped from its host's list;
    running_on_off  a touched VM on a powered-off host runs, or a touched
                    host with a running VM is off.
    """

    def __init__(self, *args, corrupt_at, kind, **kwargs):
        self._countdown, self._kind = corrupt_at, kind
        self.corrupted_at = None
        self.checks_after = 0
        super().__init__(*args, **kwargs)

    def _set_lifecycle(self, vm, lifecycle):
        super()._set_lifecycle(vm, lifecycle)
        self._corrupt(vm.vm_id, vm.bound_host)

    def _set_power(self, host, power):
        super()._set_power(host, power)
        self._corrupt(host.host_id)

    def _move(self, vm, target):
        source = vm.bound_host
        super()._move(vm, target)
        self._corrupt(vm.vm_id, source, target)

    def _add_extra_load(self, host_id, delta):
        super()._add_extra_load(host_id, delta)
        self._corrupt(host_id)

    def _corrupt(self, *machine_ids):
        if self.corrupted_at is not None:
            return
        if self._countdown:
            self._countdown -= 1
            return
        hosts, vms = self.state.hosts, self.state.vms
        for machine_id in machine_ids:
            host, vm = hosts.get(machine_id), vms.get(machine_id)
            if vm is not None and vm.bound_host is not None:
                on = hosts[vm.bound_host]
                if self._kind == DUPLICATE:
                    on.hosted_vms.append(vm.vm_id)
                elif self._kind == DROP:
                    on.hosted_vms.remove(vm.vm_id)
                elif on.power_state is PowerState.OFF:
                    vm.lifecycle = VmLifecycle.RUNNING
                else:
                    continue
            elif host is not None and self._kind == DUPLICATE and host.hosted_vms:
                host.hosted_vms.append(host.hosted_vms[0])
            elif (host is not None and self._kind == RUNNING_ON_OFF
                  and host.power_state is PowerState.ON
                  and any(vms[v].lifecycle is VmLifecycle.RUNNING
                          for v in host.hosted_vms)):
                host.power_state = PowerState.OFF
            else:
                continue
            self.corrupted_at = self.now
            return

    def _check_scan(self):
        self.checks_after += self.corrupted_at is not None
        super()._check_scan()


def test_a_corrupted_touched_machine_fails_both_checks_at_the_next_scan():
    # The engine may trip over the corruption before the next scan check
    # (a restart onto a host made off, a move of a dropped VM); such runs
    # are not counted, but no check may pass after the corruption.
    rng = np.random.default_rng(20261020)
    caught = {DUPLICATE: 0, DROP: 0, RUNNING_ON_OFF: 0}
    for i in range(300):
        config, injections = overlapping_scenario(rng)
        kind = (DUPLICATE, DROP, RUNNING_ON_OFF)[i % 3]
        sim = CorruptOneTouched(config, injections, 900, seed=i, collect_trace=True,
                                corrupt_at=int(rng.integers(0, 40)), kind=kind)
        try:
            sim.run()
        except (AssertionError, ValueError):
            assert sim.corrupted_at is not None
        else:
            assert sim.corrupted_at is None
            continue
        assert sim.checks_after == (sim.failed_at is not None), \
            f"scenario {i}: {kind} at {sim.corrupted_at} was not caught by the next scan"
        caught[kind] += sim.failed_at is not None
    assert min(caught.values()) > 30, caught
