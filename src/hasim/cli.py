"""Command-line interface.

Subcommands:

  validate <config>                                 check a cluster config
  run <scenario> [--seed N] [--out DIR [--emit-monitor-log]]
  replicate <nondestructive|destructive> [--n N] [--seed N] [--out DIR]
  report <report-dir> [--bin-width S]

stdout carries only machine-parseable CSV (or diagnostics for validate);
human prose goes to stderr. Exit codes: 0 success, 1 validation error
(including an out-of-range option), 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, Scenario, load_cluster_config, load_scenario
from .engine import SimReport, Simulation, summarize
from .presets import PRESETS, replicate_experiment
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


def cmd_validate(args) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        load_cluster_config(text)
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


def _emit(report: SimReport, out: str | None) -> None:
    """report.csv to stdout and, given --out, every output file to that directory."""
    stats = summarize(report)
    report_csv = format_report_csv(stats)
    sys.stdout.write(report_csv)
    if out is None:
        return
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.csv").write_text(report_csv)
    (out_dir / "episodes.csv").write_text(format_episodes_csv(report.episodes))
    for s in stats:
        (out_dir / f"histogram_{s.kind}.csv").write_text(format_histogram_csv(s))
    (out_dir / "summary.txt").write_text(summary_text(report, stats))
    if report.trace is not None:
        (out_dir / "trace.txt").write_text("\n".join(report.trace) + "\n")
    if report.monitor_log is not None:
        (out_dir / "monitor_log.xml").write_text("\n".join(report.monitor_log) + "\n")
    print(f"wrote {out_dir}", file=sys.stderr)


def cmd_run(args) -> int:
    if args.emit_monitor_log and args.out is None:
        print("hasim run: --emit-monitor-log needs --out", file=sys.stderr)
        return EXIT_VALIDATION
    path = Path(args.scenario)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"cannot read {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        scenario = load_scenario(text, base_dir=path.parent)
    except ConfigError as exc:
        for problem in exc.problems:
            print(problem)
        return EXIT_VALIDATION
    seed = args.seed if args.seed is not None else scenario.seed
    if seed < 0:
        print("hasim run: seed must be >= 0", file=sys.stderr)
        return EXIT_VALIDATION
    report = _run_replicated(scenario, seed, collect_trace=args.out is not None,
                             emit_monitor_log=args.emit_monitor_log)
    _emit(report, args.out)
    unrecovered = len(report.unrecovered())
    if unrecovered:
        print(f"{unrecovered} episode(s) not recovered within the horizon",
              file=sys.stderr)
    return EXIT_OK


def cmd_replicate(args) -> int:
    try:
        report = replicate_experiment(args.experiment, args.n, args.seed)
    except ValueError as exc:  # --n or --seed out of range
        print(f"hasim replicate: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _emit(report, args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    episodes_path = Path(args.report_dir) / "episodes.csv"
    try:
        text = episodes_path.read_text()
    except OSError as exc:
        print(f"cannot read {episodes_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        episodes = parse_episodes_csv(text)
    except ValueError as exc:
        print(f"{episodes_path}: {exc}")
        return EXIT_VALIDATION
    report = SimReport(episodes=episodes, horizon_s=0)
    stats = summarize(report, args.bin_width)
    sys.stdout.write(format_report_csv(stats))
    for s in stats:
        out = Path(args.report_dir) / f"histogram_{s.kind}.csv"
        out.write_text(format_histogram_csv(s))
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
