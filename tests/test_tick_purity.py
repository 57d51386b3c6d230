"""`tick` reads the engine's VMs and host table in place and writes neither.

The engine passes `tick` its own `VirtualMachine`s and its host table, whose
`HostView`s it updates in place from tick to tick. Each `tick` call of these
runs is checked: every VM, every table view and the records passed in must be
as they were after the call, the VMs must be the engine's own, and the table
must hold the same view object per host for the whole run.
"""

from dataclasses import astuple

import numpy as np
import pytest
from bench_inputs import storm_scenario
from test_acceptance import quarters_scenario
from test_scan_oracle import overlapping_scenario

import hasim.engine
from hasim.config import parse_cluster_config
from hasim.engine import Simulation


def run_checked(monkeypatch, sim: Simulation) -> int:
    """Run `sim` with every `tick` call checked; the number of calls."""
    tick, views, calls = hasim.engine.tick, {}, []

    def checked_tick(records, snapshot, view, now, params, vm_infos):
        assert view is sim._table
        assert all(vm is sim.state.vms[vm.vm_id] for vm in vm_infos)
        for host_id, host_view in view.items():
            assert views.setdefault(host_id, host_view) is host_view, \
                f"{now}: a new view of {host_id}"
        before = (dict(records), [astuple(vm) for vm in vm_infos],
                  {host_id: astuple(v) for host_id, v in view.items()})
        result = tick(records, snapshot, view, now, params, vm_infos)
        after = (dict(records), [astuple(vm) for vm in vm_infos],
                 {host_id: astuple(v) for host_id, v in view.items()})
        assert after == before, f"the tick at {now} wrote its inputs"
        calls.append(now)
        return result

    monkeypatch.setattr(hasim.engine, "tick", checked_tick)
    sim.run()
    monkeypatch.undo()
    return len(calls)


@pytest.mark.slow
def test_criterion_5_ticks_write_no_input(monkeypatch):
    # The first 1000 scenarios of criterion 5, same generator and seeds.
    rng, calls = np.random.default_rng(20260809), 0
    for i in range(1000):
        doc, injections = quarters_scenario(rng)
        calls += run_checked(monkeypatch, Simulation(parse_cluster_config(doc), injections,
                                                     720, seed=1_000_000 + i))
    assert calls > 1000


@pytest.mark.slow
def test_overlapping_scenario_ticks_write_no_input(monkeypatch):
    rng, calls = np.random.default_rng(20261019), 0
    for i in range(600):
        config, injections = overlapping_scenario(rng)
        calls += run_checked(monkeypatch, Simulation(config, injections, 900, seed=i))
    assert calls > 600


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_storm_ticks_write_no_input(monkeypatch, seed):
    scenario = storm_scenario(seed)
    sim = Simulation(scenario.config, scenario.injections, scenario.horizon_s,
                     seed=scenario.seed, collect_trace=True, emit_monitor_log=True)
    assert run_checked(monkeypatch, sim) > 100
