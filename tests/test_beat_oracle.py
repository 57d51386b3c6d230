"""Analytic beat trains against the event-driven heartbeats they replace.

EventBeatSimulation is the engine with one heap event per heartbeat, as it
was before beat trains. With beats_last its heap key is (at, is_heartbeat,
seq): a periodic beat at second t is recorded after every other event at t,
the rule the trains encode, so its trace, episodes and monitor log must equal
the engine's byte for byte. Without it the key is (at, seq), the old order,
in which a beat could precede other events of its second depending on when
each was scheduled. That moves LAST_HEARTBEAT and LOAD attributes of Up
machines only, so the decisions, the trace and the episodes must still equal.
"""

import dataclasses
import heapq
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import random_cluster_doc, random_injections

from hasim.cluster import PowerState, VmLifecycle
from hasim.config import load_scenario, parse_cluster_config
from hasim.engine import LOAD_SPIKE, Simulation
from hasim.telemetry import HEARTBEAT_PERIOD_S

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class EventBeatSimulation(Simulation):
    """Heartbeats as heap events; the monitor only ever sees explicit beats."""

    def __init__(self, *args, beats_last: bool = True, **kwargs):
        self._beats_last = beats_last
        self._beat_ticket: dict[str, int] = {}
        super().__init__(*args, **kwargs)
        # The engine registers the t=0 trains in bulk. Each becomes a first
        # beat event instead, scheduled after the scans and injections in the
        # order the engine once started them: hosts, then VMs, by id.
        state = self.state
        started = [h for h in sorted(state.hosts) if self._responsive(h)] + \
            [v for v in sorted(state.vms)
             if state.vms[v].bound_host is not None and self._responsive(v)]
        assert set(started) == self.monitor._train.keys()
        for machine_id in started:
            self.monitor.stop_beats(machine_id, self.now)
            self._start_beats(machine_id)
        assert not self.monitor._train
        self._wake = self.monitor.next_down_at(self.now, state.vms)

    def _schedule(self, at, kind, args):
        self._seq += 1
        order = (self._beats_last and kind == "heartbeat", self._seq)
        heapq.heappush(self._heap, (at, order, kind, args))

    def _start_beats(self, machine_id):
        ticket = self._beat_ticket.get(machine_id, 0) + 1
        self._beat_ticket[machine_id] = ticket
        self.monitor.record_heartbeat(machine_id, self.now,
                                      self._reported_load(machine_id))
        self._schedule(self.now + HEARTBEAT_PERIOD_S, "heartbeat", (machine_id, ticket))

    def _silence(self, machine_id):
        self.monitor.record_heartbeat(machine_id, self.now,
                                      self._reported_load(machine_id))
        self._beat_ticket[machine_id] = self._beat_ticket.get(machine_id, 0) + 1

    def _host_load_changed(self, host_id):
        pass  # each beat reads the load when it is sent

    def _responsive(self, machine_id):
        host = self.state.hosts.get(machine_id)
        if host is not None:
            return host.power_state is PowerState.ON
        return self.state.vms[machine_id].lifecycle is VmLifecycle.RUNNING

    def _on_heartbeat(self, machine_id, ticket):
        if ticket != self._beat_ticket.get(machine_id, 0):
            return
        if not self._responsive(machine_id):
            return
        self.monitor.record_heartbeat(machine_id, self.now,
                                      self._reported_load(machine_id))
        self._schedule(self.now + HEARTBEAT_PERIOD_S, "heartbeat", (machine_id, ticket))


def assert_same_as_event_beats(config, injections, horizon_s, seed):
    analytic = Simulation(config, injections, horizon_s, seed=seed,
                          collect_trace=True, emit_monitor_log=True).run()
    beats_last = EventBeatSimulation(config, injections, horizon_s, seed=seed,
                                     collect_trace=True, emit_monitor_log=True).run()
    assert analytic.monitor_log == beats_last.monitor_log
    assert analytic.trace == beats_last.trace
    assert analytic.episodes == beats_last.episodes
    old_order = EventBeatSimulation(config, injections, horizon_s, seed=seed,
                                    collect_trace=True, beats_last=False).run()
    assert analytic.trace == old_order.trace
    assert analytic.episodes == old_order.episodes
    return analytic


def test_glitch_scenarios_match_event_beats():
    for name in ("power_glitch.json", "power_glitch_noreboot.json"):
        scenario = load_scenario((SCENARIOS / name).read_text(), base_dir=SCENARIOS)
        report = assert_same_as_event_beats(scenario.config, scenario.injections,
                                            scenario.horizon_s, scenario.seed)
        assert report.monitor_log and report.episodes


@pytest.mark.slow
def test_property_suite_scenarios_match_event_beats():
    # The first 2000 scenarios of acceptance criterion 5, same generator and seeds.
    rng = np.random.default_rng(20260809)
    episodes = 0
    for i in range(2000):
        doc = random_cluster_doc(rng)
        injections = random_injections(rng, doc)
        report = assert_same_as_event_beats(parse_cluster_config(doc), injections,
                                            720, 1_000_000 + i)
        episodes += len(report.episodes)
    assert episodes > 2000


def wide_scenario(rng):
    """A property-suite scenario with short scan periods, boots and spikes.

    Scans every 5 to 60 s, 1-12 s PXE set-up and 1-24 s boots and spikes
    make same-second coincidences of beats with scans, boot completions,
    crashes and spike ends common.
    """
    doc = random_cluster_doc(rng)
    pxe, boot = int(rng.integers(1, 13)), int(rng.integers(1, 25))
    period = int(rng.choice([5, 10, 20, 60]))
    doc["profiles"] = {"p": {"pxe_setup_s": pxe, "boot_s": boot}}
    doc["controller"] = {"scan_period_s": period}
    doc["telemetry"] = {"detection_latency_s": int(rng.choice([11, 15, 70]))}
    doc["timing"] = {"boot_jitter_s": int(rng.integers(0, min(pxe + boot, 10))),
                     "controller_phase_s": int(rng.integers(0, period))}
    injections = [
        dataclasses.replace(inj, at=int(rng.integers(0, 400)),
                            duration_s=int(rng.integers(1, 25)))
        if inj.kind == LOAD_SPIKE else
        dataclasses.replace(inj, at=int(rng.integers(0, 400)))
        for inj in random_injections(rng, doc)
    ]
    return parse_cluster_config(doc), injections


@pytest.mark.slow
def test_wide_scenarios_match_event_beats():
    rng = np.random.default_rng(20261018)
    for i in range(1000):
        config, injections = wide_scenario(rng)
        assert_same_as_event_beats(config, injections, 720, i)
