"""hasim benchmark: one workload, one seed, timed rounds and output checks.

    python3 bench/run.py --workload replicate|steady|storm --seed N \
        --seconds S --trace 0|1

Run from any directory; the program is imported from the `src/` tree next to
this directory, never from an installed copy. The inputs are made from --seed
(bench/workloads.py). The benchmark repeats whole rounds of the workload, and
starts one only if it should end within --seconds: a round sets the workload
up (loads its inputs through `hasim.config` and constructs its Simulation) and
then runs it (simulation, `summarize`, renditions). Times are scaled to a
reference machine speed (SpeedProbe). Every round of a seed must give
identical outputs. The first round's outputs are checked against the model
(bench/checks.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with --trace 1
untraced and traced rounds alternate and the metrics are the per-layer ones
(bench/tracer.py), including the tracing overhead. Details of the run go to
.bench_out/results/, and the spans of the last traced round to
.bench_out/spans/. The exit code is 0 only when no operation failed; an
operation is one failure episode together with its checks.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hasim
    except ImportError as exc:
        sys.exit(f"bench: cannot import hasim from {src}: {exc}")
    if Path(hasim.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: hasim was imported from {hasim.__file__}, not from {src}")


_import_program()

import hasim.cli  # noqa: E402
import hasim.config  # noqa: E402
import hasim.engine  # noqa: E402
import hasim.presets  # noqa: E402
import hasim.reporting  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer, median_metrics  # noqa: E402

# On a virtual machine shared with other tenants, the speed for the same work
# was seen to drift by up to 2.4x between stretches of a few seconds and by
# about a quarter between runs minutes apart. Times are therefore reported at
# a fixed reference speed, the one at which the calibration loop takes
# CALIBRATION_REFERENCE_S (see SpeedProbe). Raw wall times are kept in the
# results file.
CALIBRATION_LOOP = 20_000
CALIBRATION_REFERENCE_S = 0.025
PROBE_PERIOD_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "machine_hours_per_s": "machine-h/s",
    "peak_rss_mb": "MB",
    "episodes_recovered": "count",
    "recovery_p50_s": "s",
    "recovery_p90_s": "s",
}


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _render(report, stats) -> dict[str, str]:
    """The files `hasim run --out` and `hasim replicate --out` write."""
    rep = hasim.reporting
    files = {"report.csv": rep.format_report_csv(stats),
             "episodes.csv": rep.format_episodes_csv(report.episodes)}
    for s in stats:
        files[f"histogram_{s.kind}.csv"] = rep.format_histogram_csv(s)
    files["summary.txt"] = rep.summary_text(report, stats)
    return files


class Replicate:
    """`hasim replicate nondestructive` and `destructive`, n episodes each."""

    setup_repeats = 50

    def __init__(self, seed: int):
        self.inputs = workloads.replicate_inputs(seed)
        presets = hasim.presets.PRESETS
        self.expected_episodes = self.inputs["n"] * len(self.inputs["campaigns"])
        # Each episode is one host and one VM simulated to the preset horizon.
        self.machine_hours = sum(
            self.inputs["n"] * presets[name].horizon_s / 3600
            * (len(presets[name].cluster_doc["hosts"]) + len(presets[name].cluster_doc["vms"]))
            for name, _ in self.inputs["campaigns"])

    def setup(self, tracer):
        with _span(tracer, "config.load"):
            for name, _ in self.inputs["campaigns"]:
                hasim.config.parse_cluster_config(hasim.presets.PRESETS[name].cluster_doc)

    def run(self, _state, tracer):
        out = {}
        for name, seed in self.inputs["campaigns"]:
            report = hasim.presets.replicate_experiment(name, self.inputs["n"], seed)
            out[name] = (report, _render(report, hasim.engine.summarize(report)))
        return out

    @staticmethod
    def episodes(outputs):
        return [ep for report, _ in outputs.values() for ep in report.episodes]

    @staticmethod
    def files(outputs):
        return {f"{name}/{k}": v for name, (_, files) in outputs.items()
                for k, v in files.items()}

    def check(self, outputs):
        problems, base = [], 0
        for name, (report, files) in outputs.items():
            found = checks.check_replicate_campaign(name, self.inputs["n"], report.episodes)
            found += checks.check_report_csv(files["report.csv"], report.episodes)
            found += checks.check_episodes_csv(files["episodes.csv"], report.episodes)
            problems += [(None if i is None else base + i, m) for i, m in found]
            base += len(report.episodes)
        return problems


class _ScenarioWorkload:
    """A generated scenario file, loaded through hasim.config."""

    setup_repeats = 3

    def __init__(self, doc: dict):
        self.doc = doc
        self.text = json.dumps(doc)
        self.expected_episodes = sum(1 for inj in doc["injections"] if "vm" in inj)
        n_machines = len(doc["cluster"]["hosts"]) + len(doc["cluster"]["vms"])
        self.machine_hours = n_machines * doc["horizon_s"] / 3600

    @staticmethod
    def episodes(outputs):
        return outputs["report"].episodes

    @staticmethod
    def files(outputs):
        return outputs["files"]


class Steady(_ScenarioWorkload):
    """A large healthy cluster, one hour, soft crashes; no trace or monitor log."""

    def __init__(self, seed: int):
        super().__init__(workloads.steady_scenario(seed))

    def setup(self, tracer):
        with _span(tracer, "config.load"):
            scenario = hasim.config.load_scenario(self.text)
        return hasim.engine.Simulation(scenario.config, scenario.injections,
                                       scenario.horizon_s, seed=scenario.seed)

    def run(self, sim, tracer):
        report = sim.run()
        stats = hasim.engine.summarize(report)
        rep = hasim.reporting
        files = {"report.csv": rep.format_report_csv(stats),
                 "episodes.csv": rep.format_episodes_csv(report.episodes)}
        return {"sim": sim, "report": report, "files": files}

    def check(self, outputs):
        crashes = {inj["vm"]: inj["at"] for inj in self.doc["injections"]}
        initial = {v["vm_id"]: v["bound_host"] for v in self.doc["cluster"]["vms"]}
        episodes = outputs["report"].episodes
        return (checks.check_steady(episodes, crashes, initial, outputs["sim"].state)
                + checks.check_report_csv(outputs["files"]["report.csv"], episodes)
                + checks.check_episodes_csv(outputs["files"]["episodes.csv"], episodes))


class Storm(_ScenarioWorkload):
    """The `hasim run --out DIR --emit-monitor-log` path on a failure storm."""

    def __init__(self, seed: int):
        super().__init__(workloads.storm_scenario(seed))
        self.dir = OUT / "storm"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.path = self.dir / "scenario.json"
        self.path.write_text(self.text)

    def setup(self, tracer):
        with _span(tracer, "config.load"):
            scenario = hasim.config.load_scenario(self.path.read_text(),
                                                  base_dir=self.path.parent)
        return hasim.engine.Simulation(scenario.config, scenario.injections,
                                       scenario.horizon_s, seed=scenario.seed,
                                       collect_trace=True, emit_monitor_log=True)

    def run(self, sim, tracer):
        # As `hasim run` does for one replication: a header trace line, the
        # report CSV for stdout, then every output file.
        result = sim.run()
        report = hasim.engine.SimReport(
            episodes=result.episodes, horizon_s=result.horizon_s,
            trace=[f"0 replication 0 seed {self.doc['seed']}"] + result.trace,
            monitor_log=result.monitor_log)
        hasim.reporting.format_report_csv(hasim.engine.summarize(report))
        files = _render(report, hasim.engine.summarize(report))
        files["trace.txt"] = "\n".join(report.trace) + "\n"
        files["monitor_log.xml"] = "\n".join(report.monitor_log) + "\n"
        out_dir = self.dir / "timed"
        out_dir.mkdir(exist_ok=True)
        for name, text in files.items():
            (out_dir / name).write_text(text)
        return {"sim": sim, "report": report, "files": files}

    def check(self, outputs):
        episodes = outputs["report"].episodes
        allowed = {v["vm_id"]: v.get("reinstall_allowed", True)
                   for v in self.doc["cluster"]["vms"]}
        problems = [(i, f"{ep.vm_id} ({ep.kind} at {ep.failure_at}): {msg}")
                    for i, ep in enumerate(episodes)
                    for msg in checks.check_storm_episode(ep, allowed[ep.vm_id])]
        files = outputs["files"]
        problems += checks.check_conservation(outputs["sim"].state)
        problems += checks.check_report_csv(files["report.csv"], episodes)
        problems += checks.check_episodes_csv(files["episodes.csv"], episodes)
        problems += checks.check_monitor_log(files["monitor_log.xml"], self.doc["horizon_s"])
        problems += checks.check_trace_actions(files["trace.txt"], episodes)
        problems += self._check_cli_pass(outputs)
        return problems

    def _check_cli_pass(self, outputs):
        """Run `hasim run` itself, checking threshold safety at every placement.

        The pass is untimed. Its Simulation checks each restart and reinstall
        just before it applies, against the state as it is then; its output
        files must equal the timed round's byte for byte.
        """
        sims = []

        class CheckedSimulation(hasim.engine.Simulation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.placements, self.unsafe, self.last_snapshot = 0, [], None
                take = self.monitor.snapshot

                def snapshot(now):
                    self.last_snapshot = take(now)
                    return self.last_snapshot

                self.monitor.snapshot = snapshot
                sims.append(self)

            def _apply(self, action):
                if action.kind in (checks.RESTART, checks.REINSTALL):
                    self.placements += 1
                    problem = checks.placement_problem(self.state, self.last_snapshot,
                                                       self.now, action)
                    if problem:
                        self.unsafe.append((action.vm_id, self.now, problem))
                super()._apply(action)

        cli_dir = self.dir / "cli"
        original = hasim.cli.Simulation
        hasim.cli.Simulation = CheckedSimulation
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = hasim.cli.main(["run", str(self.path), "--out", str(cli_dir),
                                     "--emit-monitor-log"])
        finally:
            hasim.cli.Simulation = original
        if rc != 0 or len(sims) != 1:
            return [(None, f"hasim run exited {rc} after {len(sims)} simulations")]
        problems = []
        written = {p.name: p.read_text() for p in sorted(cli_dir.iterdir())}
        if written != outputs["files"]:
            differ = sorted(k for k in written.keys() | outputs["files"].keys()
                            if written.get(k) != outputs["files"].get(k))
            problems.append((None, f"hasim run output differs from the timed round: {differ}"))
        episodes = outputs["report"].episodes
        placed = sum(1 for ep in episodes for _, a in ep.actions
                     if a.kind in (checks.RESTART, checks.REINSTALL))
        if sims[0].placements != placed:
            problems.append((None, f"checked {sims[0].placements} placements, "
                                   f"the episodes hold {placed}"))
        for vm_id, t, msg in sims[0].unsafe:
            hits = [i for i, ep in enumerate(episodes) if ep.vm_id == vm_id
                    and ep.failure_at <= t <= (ep.recovered_at or t)]
            problems += [(i, msg) for i in hits] or [(None, msg)]
        return problems


WORKLOADS = {"replicate": Replicate, "steady": Steady, "storm": Storm}


def _simulated(episodes) -> dict:
    """Simulated metrics of one round; they repeat exactly for a seed."""
    times = sorted(ep.recovered_at - ep.failure_at for ep in episodes
                   if ep.recovered_at is not None)
    detection = [ep.detected_at - ep.failure_at for ep in episodes
                 if ep.detected_at is not None]
    actions = {}
    for ep in episodes:
        for _, a in ep.actions:
            actions[a.kind] = actions.get(a.kind, 0) + 1
    return {
        "episodes": len(episodes),
        "episodes_recovered": len(times),
        "recovery_p50_s": statistics.median(times) if times else 0.0,
        "recovery_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[-1]
                           if len(times) > 1 else 0.0),
        "detection_p50_s": statistics.median(detection) if detection else 0.0,
        "actions": dict(sorted(actions.items())),
    }


def _fingerprint(files: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()


def calibrate() -> float:
    """Seconds a fixed interpreter-bound loop takes: heap, dict and tuple work.

    The loop never touches hasim, so its time moves only with the speed the
    machine gives this process at that moment.
    """
    heap, seen = [], {}
    t0 = perf_counter()
    for i in range(CALIBRATION_LOOP):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        seen[i % 997] = seen.get(i % 997, 0) + 1
        if len(heap) > 500:
            heapq.heappop(heap)
    return perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed through a round, to scale the round's times.

    `probe()` runs the calibration loop and notes when it ran. While an
    untraced round runs, a wrapper on `hasim.engine.tick` probes again at the
    first controller scan after each PROBE_PERIOD_S of wall time, so that a
    long round is scaled stretch by stretch. Each stretch between two probes
    is scaled by CALIBRATION_REFERENCE_S over the mean of their calibration
    times; the probes' own time is left out.
    """

    def __init__(self):
        self.points: list[tuple[float, float, float]] = []  # start, end, seconds

    def probe(self) -> None:
        t0 = perf_counter()
        seconds = calibrate()
        self.points.append((t0, perf_counter(), seconds))

    def stretches(self, first: int, last: int) -> tuple[float, float]:
        """Wall time and scaled time from probe `first` to probe `last`."""
        wall = scaled = 0.0
        for (_, end, c0), (start, _, c1) in zip(self.points[first:last],
                                                self.points[first + 1:last + 1]):
            wall += start - end
            scaled += (start - end) * 2 * CALIBRATION_REFERENCE_S / (c0 + c1)
        return wall, scaled

    @contextlib.contextmanager
    def during_scans(self):
        tick = getattr(hasim.engine, "tick", None)
        if tick is None:
            yield
            return

        def probing_tick(*args, **kwargs):
            if perf_counter() - self.points[-1][1] >= PROBE_PERIOD_S:
                self.probe()
            return tick(*args, **kwargs)

        hasim.engine.tick = probing_tick
        try:
            yield
        finally:
            hasim.engine.tick = tick


def _round(workload, tracer):
    """One round: set up (several times when untraced), then run once.

    Set-up times are scaled by the probes around the set-up; the run by the
    probes from its start to its end, including those taken at scans when
    untraced. Traced rounds probe only at the ends, so that no probe falls
    inside a span.
    """
    repeats = 1 if tracer is not None else workload.setup_repeats
    setup = []
    probe = SpeedProbe()
    gc.collect()
    probe.probe()
    if tracer is not None:
        tracer.install()
    try:
        for _ in range(repeats):
            t0 = perf_counter()
            state = workload.setup(tracer)
            setup.append(perf_counter() - t0)
        probe.probe()
        with probe.during_scans() if tracer is None else contextlib.nullcontext():
            outputs = workload.run(state, tracer)
        probe.probe()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_scale = 2 * CALIBRATION_REFERENCE_S / (probe.points[0][2] + probe.points[1][2])
    wall_run_s, run_s = probe.stretches(1, len(probe.points) - 1)
    scale = run_s / wall_run_s
    episodes = workload.episodes(outputs)
    record = {"setup_s": [t * setup_scale for t in setup], "run_s": run_s,
              "wall_setup_s": setup, "wall_run_s": wall_run_s,
              "calibration_s": [c for _, _, c in probe.points],
              "traced": tracer is not None,
              "fingerprint": _fingerprint(workload.files(outputs)),
              **_simulated(episodes)}
    if tracer is not None:
        record["layers"] = {k: v * scale if k.endswith("_s") else v
                            for k, v in tracer.metrics().items()}
    return record, outputs


def _determinism_key(record: dict):
    keys = ("fingerprint", "episodes", "episodes_recovered", "recovery_p50_s",
            "recovery_p90_s", "actions")
    return tuple(json.dumps(record[k], sort_keys=True) for k in keys)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    rounds, reference, failure, last_tracer = [], None, None, None
    # A cycle is one round, or an untraced and a traced round with --trace 1.
    cycle = 2 if args.trace else 1
    started = cycle_started = perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        tracer = Tracer() if traced else None
        last_tracer = tracer or last_tracer
        try:
            record, outputs = _round(workload, tracer)
        except Exception:  # a simulation that raises fails all its episodes
            failure = traceback.format_exc()
            print(failure, file=sys.stderr)
            rounds.append({"raised": True, "traced": traced,
                           "episodes": (reference or {}).get("episodes")
                           or workload.expected_episodes})
            break
        rounds.append(record)
        if reference is None:
            reference, reference_outputs = record, outputs
        del outputs
        if len(rounds) % cycle == 0:
            now = perf_counter()
            # Start another cycle only if it should end within --seconds.
            if (now - started) + (now - cycle_started) > args.seconds:
                break
            cycle_started = now
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    if reference is not None:
        try:
            problems = workload.check(reference_outputs)
        except Exception:  # the checking pass runs the program too
            failure = traceback.format_exc()
            print(failure, file=sys.stderr)
            problems = [(None, "the checking pass raised")]
        del reference_outputs
    traced_rounds = [r for r in rounds if r.get("traced") and not r.get("raised")]
    draws = {r["layers"]["engine.sample_duration.calls"] for r in traced_rounds}
    if len(draws) > 1:
        problems.append((None, f"rng draws differ between repeats: {sorted(draws)}"))
    shared_fault = any(i is None for i, _ in problems)
    bad_episodes = {i for i, _ in problems if i is not None}
    attempted = failed = 0
    for n, r in enumerate(rounds):
        attempted += r["episodes"]
        if r.get("raised"):
            failed += r["episodes"]
        elif _determinism_key(r) != _determinism_key(reference):
            problems.append((None, f"round {n + 1} differs from round 1"))
            failed += r["episodes"]
        else:
            failed += r["episodes"] if shared_fault else len(bad_episodes)
    for _, msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    ok_rounds = [r for r in rounds if not r.get("raised")]
    untraced = [r for r in ok_rounds if not r["traced"]]
    metrics = {}
    if ok_rounds and not args.trace:
        run_s = statistics.median(r["run_s"] for r in untraced)
        values = {
            "setup_s": statistics.median(s for r in untraced for s in r["setup_s"]),
            "run_s": run_s,
            "machine_hours_per_s": workload.machine_hours / run_s,
            "peak_rss_mb": peak_rss_mb,
            "episodes_recovered": reference["episodes_recovered"],
            "recovery_p50_s": reference["recovery_p50_s"],
            "recovery_p90_s": reference["recovery_p90_s"],
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    elif traced_rounds and untraced:
        values = median_metrics([r["layers"] for r in traced_rounds])
        values["telemetry.detection_p50_s"] = reference["detection_p50_s"]
        values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced_rounds)
                                      - statistics.median(r["run_s"] for r in untraced))
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        last_tracer.write_spans(OUT / "spans" / f"{args.workload}.spans")

    result = {"correct": failed == 0 and not problems and failure is None,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.parent.mkdir(parents=True, exist_ok=True)
    detail.write_text(json.dumps({**result, "args": vars(args), "rounds": rounds,
                                  "problems": [m for _, m in problems],
                                  "error": failure}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
