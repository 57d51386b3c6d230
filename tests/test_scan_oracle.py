"""Sparse controller scans against the full scans they replace.

FullScanSimulation is the engine with the scan as it was before sparse
scans: a snapshot of every registered machine, a view of every host with
its load summed afresh, every VM passed to `tick`, and a next scan at every
scan. It also reports every host load it beats or logs from a fresh
`host_load`, not from the engine's load totals. Its trace, episodes, monitor
log and records must equal the engine's byte for byte, with the monitor log
on and off.
"""

from pathlib import Path

import numpy as np
import pytest
from test_acceptance import random_cluster_doc, random_injections
from test_engine import EventCheckedSimulation

from hasim.cluster import PowerState, host_load, pending_load
from hasim.config import load_scenario, parse_cluster_config
from hasim.controller import HostView, VmInfo, tick
from hasim.engine import (
    DESTRUCTIVE_CRASH,
    LOAD_SPIKE,
    NON_DESTRUCTIVE_CRASH,
    PHYSICAL_HOST_FAILURE,
    POWER_GLITCH,
    FailureInjection,
    Simulation,
)
from hasim.telemetry import DOWN, serialize_snapshot

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def full_view(state, snapshot):
    """A view of every host, its load summed afresh, as scans built it
    before the host table: each host id mapped to its HostView."""
    views = {}
    for host_id in sorted(state.hosts):
        host = state.hosts[host_id]
        entry = snapshot.entries.get(host_id)
        views[host_id] = HostView(
            host_id=host_id,
            power_on=host.power_state is PowerState.ON,
            monitor_up=entry is not None and entry.verdict != DOWN,
            load=host_load(state, host_id) + pending_load(state, host_id),
            vm_count=len(host.hosted_vms),
            load_threshold=host.load_threshold,
        )
    return views


class FullScanSimulation(Simulation):
    """Every scan covers every machine; every load is summed afresh."""

    def _load(self, host_id):
        # The heartbeat and load-change reports read this: the monitor log's
        # host LOADs then come from fresh sums.
        return host_load(self.state, host_id)

    def _on_scan(self):
        snapshot = self.monitor.snapshot(self.now)
        if self.monitor_log is not None:
            self.monitor_log.append(serialize_snapshot(snapshot))
        for vm_id, ep in self._open.items():
            if ep.detected_at is None:
                entry = snapshot.entries.get(vm_id)
                if entry is not None and entry.verdict == DOWN:
                    ep.detected_at = self.now
        view = full_view(self.state, snapshot)
        infos = [
            VmInfo(vm.vm_id, vm.bound_host, vm.load_contribution, vm.reinstall_allowed)
            for _, vm in sorted(self.state.vms.items())
        ]
        self.records, actions = tick(self.records, snapshot, view, self.now,
                                     self.params, infos)
        self._trace("scan")
        for action in actions:
            self._apply(action)
        self._schedule(self.now + self.params.scan_period_s, "scan", ())


def assert_same_as_full_scans(config, injections, horizon_s, seed):
    """The sparse engine, with per-event checks, against the full scans.

    In the full-scan engine the monitor log flag only adds the log, so one
    oracle run serves the sparse runs with the log on and off.
    """
    full = FullScanSimulation(config, injections, horizon_s, seed=seed,
                              collect_trace=True, emit_monitor_log=True)
    expected = full.run()
    for emit in (True, False):
        sparse = EventCheckedSimulation(config, injections, horizon_s, seed=seed,
                                        collect_trace=True, emit_monitor_log=emit)
        report = sparse.run()
        assert report.trace == expected.trace
        assert report.episodes == expected.episodes
        assert report.monitor_log == (expected.monitor_log if emit else None)
        assert sparse.records == full.records
    return expected


def test_glitch_scenarios_match_full_scans():
    for name in ("power_glitch.json", "power_glitch_noreboot.json"):
        scenario = load_scenario((SCENARIOS / name).read_text(), base_dir=SCENARIOS)
        report = assert_same_as_full_scans(scenario.config, scenario.injections,
                                           scenario.horizon_s, scenario.seed)
        assert report.monitor_log and report.episodes


@pytest.mark.slow
def test_property_suite_scenarios_match_full_scans():
    # The first 2000 scenarios of acceptance criterion 5, same generator and seeds.
    rng = np.random.default_rng(20260809)
    episodes = 0
    for i in range(2000):
        doc = random_cluster_doc(rng)
        injections = random_injections(rng, doc)
        report = assert_same_as_full_scans(parse_cluster_config(doc), injections,
                                           720, 1_000_000 + i)
        episodes += len(report.episodes)
    assert episodes > 2000


def overlapping_scenario(rng):
    """A property-suite cluster under overlapping spikes, glitches and failures.

    Scans every 5 to 60 s with latency 11 to 70 s; 2 to 7 injections at 0 to
    600 s, where spikes last 1 to 400 s and may hit the same host, a glitched
    host or a failed one, and a host may glitch, fail, or both. Boots of 20
    to 300 s and installs of 20 to 600 s against patiences down to one scan
    period move VMs that are still booting or installing. Loads are in
    tenths, which binary floats cannot hold exactly.
    """
    doc = random_cluster_doc(rng)
    for vm in doc["vms"]:
        vm["load_contribution"] = int(rng.integers(1, 20)) / 10
    period = int(rng.integers(5, 61))
    doc["profiles"] = {"p": {"boot_s": int(rng.integers(10, 291)),
                             "install_s": int(rng.integers(10, 591))}}
    doc["controller"] = {"scan_period_s": period,
                         **{k: int(rng.integers(period, 301))
                            for k in ("t1_s", "t2_s", "reinstall_patience_s")}}
    doc["telemetry"] = {"detection_latency_s": int(rng.integers(11, 71))}
    doc["timing"] = {"controller_phase_s": int(rng.integers(0, period))}
    hosts = [h["host_id"] for h in doc["hosts"]]
    vms = [v["vm_id"] for v in doc["vms"]]

    def pick(names):
        return names[int(rng.integers(0, len(names)))]

    injections = []
    for _ in range(int(rng.integers(2, 8))):
        at, kind = int(rng.integers(0, 601)), int(rng.integers(0, 5))
        if kind == 0:
            injections.append(FailureInjection(
                at, LOAD_SPIKE, host_id=pick(hosts),
                extra_load=int(rng.integers(1, 60)) * 100,
                duration_s=int(rng.integers(1, 401))))
        elif kind == 1:
            injections.append(FailureInjection(at, POWER_GLITCH, hosts=(pick(hosts),)))
        elif kind == 2:
            injections.append(FailureInjection(at, PHYSICAL_HOST_FAILURE,
                                               host_id=pick(hosts)))
        else:
            crash = NON_DESTRUCTIVE_CRASH if kind == 3 else DESTRUCTIVE_CRASH
            injections.append(FailureInjection(at, crash, vm_id=pick(vms)))
    return parse_cluster_config(doc), injections


@pytest.mark.slow
def test_overlapping_scenarios_match_full_scans():
    rng = np.random.default_rng(20261019)
    actions = 0
    for i in range(600):
        config, injections = overlapping_scenario(rng)
        report = assert_same_as_full_scans(config, injections, 900, i)
        actions += sum(len(ep.actions) for ep in report.episodes)
    assert actions > 600
