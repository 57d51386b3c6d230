"""Command-line interface.

Subcommands:

  validate <config>                                 check a cluster config
  run <scenario> [--seed N] [--out DIR [--emit-monitor-log]]
  replicate <nondestructive|destructive> [--n N] [--seed N] [--out DIR]
  report <report-dir> [--bin-width S]

stdout carries only machine-parseable CSV (or diagnostics for validate);
human prose goes to stderr. Exit codes: 0 success, 1 validation error
(including an out-of-range option, or a `run --out` whose trace would hold
more than MAX_TRACE_SCANS `scan` lines), 2 I/O error (nothing goes to stdout,
and an unwritable --out is refused before the first simulation).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable

from .config import ConfigError, Scenario, load_cluster_config, load_scenario
from .engine import SimReport, Simulation, summarize
from .presets import PRESETS, check_replicate_args, replicate_experiment
from .reporting import (
    format_episodes_csv,
    format_histogram_csv,
    format_report_csv,
    parse_episodes_csv,
    summary_text,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

# The most `scan` lines `run --out` keeps in one trace.
MAX_TRACE_SCANS = 1_000_000


def _read_text(path: Path) -> str:
    """A UTF-8 input file; undecodable bytes are a parse error."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError([f"parse error: {exc}"]) from exc


def cmd_validate(args) -> int:
    try:
        load_cluster_config(_read_text(Path(args.config)))
    except OSError as exc:
        print(f"cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:
        for problem in exc.problems:
            print(problem)
        return EXIT_VALIDATION
    print("OK")
    return EXIT_OK


def _run_replicated(scenario: Scenario, seed: int, *, collect_trace: bool,
                    emit_monitor_log: bool) -> SimReport:
    episodes = []
    trace: list[str] = []
    monitor_log: list[str] = []
    for i in range(scenario.replications):
        rep_seed = seed + i
        trace.append(f"0 replication {i} seed {rep_seed}")
        sim = Simulation(scenario.config, scenario.injections, scenario.horizon_s,
                         seed=rep_seed, collect_trace=collect_trace,
                         emit_monitor_log=emit_monitor_log)
        report = sim.run()
        episodes.extend(report.episodes)
        if report.trace is not None:
            trace.extend(report.trace)
        if report.monitor_log is not None:
            monitor_log.extend(report.monitor_log)
    return SimReport(episodes=episodes, horizon_s=scenario.horizon_s,
                     trace=trace if collect_trace else None,
                     monitor_log=monitor_log if emit_monitor_log else None)


def _write(out_dir: Path, files: Iterable[tuple[str, str]]) -> int:
    """Create out_dir and write each (name, text) to it; an OSError is one
    line and EXIT_IO."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files:
            (out_dir / name).write_text(text)
    except OSError as exc:
        print(f"cannot write {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _emit(report: SimReport, out: str | None) -> int:
    """Given --out, every output file to that directory; then report.csv to stdout."""
    stats = summarize(report)
    report_csv = format_report_csv(stats)
    if out is None:
        sys.stdout.write(report_csv)
        return EXIT_OK

    def files():
        yield "report.csv", report_csv
        yield "episodes.csv", format_episodes_csv(report.episodes)
        for s in stats:
            yield f"histogram_{s.kind}.csv", format_histogram_csv(s)
        yield "summary.txt", summary_text(report, stats)
        if report.trace is not None:
            yield "trace.txt", "\n".join(report.trace) + "\n"
        if report.monitor_log is not None:
            yield "monitor_log.xml", "\n".join(report.monitor_log) + "\n"

    out_dir = Path(out)
    if _write(out_dir, files()):
        return EXIT_IO
    sys.stdout.write(report_csv)
    print(f"wrote {out_dir}", file=sys.stderr)
    return EXIT_OK


def cmd_run(args) -> int:
    if args.emit_monitor_log and args.out is None:
        print("hasim run: --emit-monitor-log needs --out", file=sys.stderr)
        return EXIT_VALIDATION
    path = Path(args.scenario)
    try:
        scenario = load_scenario(_read_text(path), base_dir=path.parent)
    except OSError as exc:
        print(f"cannot read {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:
        for problem in exc.problems:
            print(problem)
        return EXIT_VALIDATION
    seed = args.seed if args.seed is not None else scenario.seed
    if seed < 0:
        print("hasim run: seed must be >= 0", file=sys.stderr)
        return EXIT_VALIDATION
    if args.out is not None:
        scans = scenario.replications * (
            (scenario.horizon_s - scenario.config.timing.controller_phase_s)
            // scenario.config.controller.scan_period_s + 1)
        if scans > MAX_TRACE_SCANS:
            print(f"hasim run: the trace would hold {scans} scan lines, more than "
                  f"{MAX_TRACE_SCANS}; shorten horizon_s", file=sys.stderr)
            return EXIT_VALIDATION
    if args.out is not None and _write(Path(args.out), ()):
        return EXIT_IO  # refused before the first simulation
    report = _run_replicated(scenario, seed, collect_trace=args.out is not None,
                             emit_monitor_log=args.emit_monitor_log)
    if _emit(report, args.out):
        return EXIT_IO
    unrecovered = len(report.unrecovered())
    if unrecovered:
        print(f"{unrecovered} episode(s) not recovered within the horizon",
              file=sys.stderr)
    return EXIT_OK


def cmd_replicate(args) -> int:
    try:
        check_replicate_args(args.experiment, args.n, args.seed)
    except ValueError as exc:  # --n or --seed out of range
        print(f"hasim replicate: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.out is not None and _write(Path(args.out), ()):
        return EXIT_IO  # refused before the first simulation
    return _emit(replicate_experiment(args.experiment, args.n, args.seed), args.out)


def cmd_report(args) -> int:
    if args.bin_width < 1:
        print("hasim report: --bin-width must be >= 1", file=sys.stderr)
        return EXIT_VALIDATION
    report_dir = Path(args.report_dir)
    episodes_path = report_dir / "episodes.csv"
    try:
        episodes = parse_episodes_csv(episodes_path.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"cannot read {episodes_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # not an episodes.csv or a bad row, undecodable bytes too
        print(f"{episodes_path}: {exc}")
        return EXIT_VALIDATION
    report = SimReport(episodes=episodes, horizon_s=0)
    stats = summarize(report, args.bin_width)
    if _write(report_dir, ((f"histogram_{s.kind}.csv", format_histogram_csv(s))
                           for s in stats)):
        return EXIT_IO
    sys.stdout.write(format_report_csv(stats))
    print(summary_text(report, stats), file=sys.stderr, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hasim",
        description="Deterministic cluster recovery simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a cluster configuration file")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a scenario file")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's seed")
    p.add_argument("--out", default=None, help="directory for output files")
    p.add_argument("--emit-monitor-log", action="store_true",
                   help="write the XML monitor snapshot log (needs --out)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("replicate", help="run a batch crash experiment preset")
    p.add_argument("experiment", choices=sorted(PRESETS))
    p.add_argument("--n", type=int, default=1000, help="number of episodes")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None, help="directory for output files")
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("report", help="re-summarize a run's output directory")
    p.add_argument("report_dir")
    p.add_argument("--bin-width", type=int, default=10)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
