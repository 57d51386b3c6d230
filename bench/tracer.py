"""Per-layer tracing from outside the program.

The engine binds names at import (`from .cluster import host_load`), so a
wrapper replaces the name in the module that calls it: `hasim.engine.host_load`,
`hasim.engine.tick`, `hasim.controller.choose_host`, and the methods on the
classes the engine instantiates. Every wrapped call records a span (name,
parent span, start, end) in flat arrays; spans stay in memory and are written
out once, when the run ends. Totals, call counts and self time (duration
minus the part covered by child spans) are accumulated as calls return.

A target that no longer exists is skipped, so its metric reads 0 and the run
goes on.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import statistics
from array import array
from pathlib import Path
from time import perf_counter

import hasim.controller
import hasim.engine
import hasim.presets
import hasim.provisioning
import hasim.reporting
import hasim.telemetry

ACTION_KINDS = ("reboot", "restart", "reinstall", "defer")

# Per-layer metrics, as BENCHMARK.json lists them. Each names the
# end-to-end metric it should move, and on which workload (see README.md).
PER_LAYER = {
    "config.load_s": "s",
    "engine.init_s": "s",
    "engine.events": "count",
    "engine.heap_peak": "count",
    "engine.self_s": "s",
    "engine.sample_duration.calls": "count",
    "engine.summarize_s": "s",
    "telemetry.record_heartbeat.calls": "count",
    "telemetry.record_heartbeat_s": "s",
    "telemetry.snapshot.calls": "count",
    "telemetry.snapshot_s": "s",
    "telemetry.snapshot.entries": "count",
    "telemetry.serialize_snapshot_s": "s",
    "telemetry.monitor_log_bytes": "bytes",
    "telemetry.detection_p50_s": "s",
    "controller.tick.calls": "count",
    "controller.tick_s": "s",
    "controller.tick.vms": "count",
    "controller.choose_host.calls": "count",
    "controller.choose_host_s": "s",
    "controller.placement_hit_ratio": "ratio",
    **{f"controller.actions.{k}": "count" for k in ACTION_KINDS},
    "cluster.host_load.calls": "count",
    "cluster.host_load_s": "s",
    "cluster.pending_load.calls": "count",
    "cluster.pending_load_s": "s",
    "cluster.check_state_invariants_s": "s",
    "provisioning.boot_outcome.calls": "count",
    "provisioning.boot_outcome_s": "s",
    "presets.replicate_s": "s",
    "reporting.render_s": "s",
    "reporting.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class _CountingHeap:
    """Stands in for `heapq` as the engine sees it: counts pops, tracks peak."""

    def __init__(self):
        self.pops = 0
        self.peak = 0

    def heappush(self, heap, item):
        heapq.heappush(heap, item)
        if len(heap) > self.peak:
            self.peak = len(heap)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


class Tracer:
    """Installs span-recording wrappers; one instance per traced round."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [[-1, 0.0]]      # [span index, time covered by children]
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.extra: dict[str, float] = {}
        self.heap = _CountingHeap()
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._ids[name]

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def _begin(self, nid: int):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame

    def _end(self, nid: int, frame, t0: float, t1: float) -> None:
        self._stack.pop()
        d = t1 - t0
        self.span_start[frame[0]] = t0
        self.span_end[frame[0]] = t1
        self._stack[-1][1] += d
        self.calls[nid] += 1
        self.total[nid] += d
        self.self_time[nid] += d - frame[1]

    def wrap(self, name: str, fn, on_result=None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            frame = self._begin(nid)
            t0 = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                self._end(nid, frame, t0, perf_counter())
            if on_result is not None:
                on_result(args, return_value)
            return return_value

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own call into a layer."""
        nid = self._id(name)
        frame = self._begin(nid)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._end(nid, frame, t0, perf_counter())

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def install(self) -> None:
        eng, ctl = hasim.engine, hasim.controller
        if hasattr(eng, "heapq"):
            self._undo.append((eng, "heapq", eng.heapq))
            eng.heapq = self.heap
        sim = getattr(eng, "Simulation", None)
        if sim is not None:
            self.patch(sim, "__init__", "engine.init")
            self.patch(sim, "run", "engine.run")
        self.patch(eng, "sample_duration", "engine.sample_duration")
        self.patch(eng, "summarize", "engine.summarize")
        monitor = getattr(hasim.telemetry, "Monitor", None)
        if monitor is not None:
            self.patch(monitor, "record_heartbeat", "telemetry.record_heartbeat")
            self.patch(monitor, "snapshot", "telemetry.snapshot",
                       lambda a, r: self.add("telemetry.snapshot.entries", len(r.entries)))
        self.patch(eng, "serialize_snapshot", "telemetry.serialize_snapshot",
                   lambda a, r: self.add("telemetry.monitor_log_bytes", len(r)))
        self.patch(eng, "tick", "controller.tick", self._on_tick)
        self.patch(ctl, "choose_host", "controller.choose_host",
                   lambda a, r: self.add("controller.choose_host.hits", r is not None))
        for fn in ("host_load", "pending_load", "check_state_invariants"):
            self.patch(eng, fn, f"cluster.{fn}")
        provisioner = getattr(hasim.provisioning, "Provisioner", None)
        if provisioner is not None:
            self.patch(provisioner, "boot_outcome", "provisioning.boot_outcome")
        self.patch(hasim.presets, "replicate_experiment", "presets.replicate")
        self.patch(hasim.presets, "parse_cluster_config", "config.load")
        for fn in ("format_report_csv", "format_histogram_csv", "format_episodes_csv",
                   "summary_text"):
            self.patch(hasim.reporting, fn, "reporting.render",
                       lambda a, r: self.add("reporting.output_bytes", len(r)))

    def _on_tick(self, args, result) -> None:
        if len(args) > 5:
            self.add("controller.tick.vms", len(args[5]))
        for action in result[1]:
            self.add(f"controller.actions.{action.kind}", 1)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _stat(self, name: str, which: str) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        return {"calls": self.calls, "total": self.total,
                "self": self.self_time}[which][nid]

    def metrics(self) -> dict[str, float]:
        """This round's per-layer figures, keyed as in PER_LAYER."""
        s, x = self._stat, self.extra
        choose_calls = s("controller.choose_host", "calls")
        out = {
            "config.load_s": s("config.load", "total"),
            "engine.init_s": s("engine.init", "total"),
            "engine.events": self.heap.pops,
            "engine.heap_peak": self.heap.peak,
            "engine.self_s": s("engine.run", "self"),
            "engine.sample_duration.calls": s("engine.sample_duration", "calls"),
            "engine.summarize_s": s("engine.summarize", "total"),
            "telemetry.snapshot.entries": x.get("telemetry.snapshot.entries", 0),
            "telemetry.monitor_log_bytes": x.get("telemetry.monitor_log_bytes", 0),
            "controller.tick.vms": x.get("controller.tick.vms", 0),
            "controller.placement_hit_ratio":
                x.get("controller.choose_host.hits", 0) / choose_calls if choose_calls else 0.0,
            "presets.replicate_s": s("presets.replicate", "total"),
            "reporting.render_s": s("reporting.render", "total"),
            "reporting.output_bytes": x.get("reporting.output_bytes", 0),
        }
        for name in ("telemetry.record_heartbeat", "telemetry.snapshot",
                     "controller.tick", "controller.choose_host",
                     "cluster.host_load", "cluster.pending_load",
                     "provisioning.boot_outcome"):
            out[f"{name}.calls"] = s(name, "calls")
            out[f"{name}_s"] = s(name, "total")
        out["telemetry.serialize_snapshot_s"] = s("telemetry.serialize_snapshot", "total")
        out["cluster.check_state_invariants_s"] = s("cluster.check_state_invariants", "total")
        for kind in ACTION_KINDS:
            out[f"controller.actions.{kind}"] = x.get(f"controller.actions.{kind}", 0)
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as a JSON name table plus four raw arrays in machine byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            header = json.dumps({
                "names": self.names, "count": len(self.span_start),
                "arrays": ["name:uint16", "parent:int32", "start:float64",
                           "end:float64"]}).encode()
            f.write(len(header).to_bytes(4, "little") + header)
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
