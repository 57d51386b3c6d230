#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload, in alternating pairs.

Run: python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \
         --pairs N --seconds S [--first-seed K] [--json PATH]

Pair k runs `python3 bench/run.py --workload W --seed K+k --seconds S` once in
each tree, each with its own `bench/` and `src/`; the parent runs first in
even pairs and the change in odd ones. For every end-to-end metric that the
parent's BENCHMARK.json lists, it prints each side's median and quartiles, the
change/parent ratio of the medians, the pairs the change won (ties count for
neither) and whether the medians differ by more than the parent's
interquartile range: a gain counts only when the change wins nine pairs in ten
and that column reads "yes". The last column judges a regression against the
metric's `bound` in BENCHMARK.json, a share of the parent's median: "worse"
when the change's median is worse than the parent's by more than the bound;
else "unresolved" when the parent's interquartile range is wider than the
bound, unless every change run beats every parent run; else "ok". --json
writes every run and the summary.

Exit code 1 when a run is not correct or fails operations, or when a pair's
two runs disagree on `episodes_recovered`, `recovery_p50_s` or
`recovery_p90_s`; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIMULATED = ("episodes_recovered", "recovery_p50_s", "recovery_p90_s")


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`: its verdict and its metrics' values."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{tree}: seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}",
              file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{k: m["value"] for k, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metric: dict) -> dict:
    name, lower = metric["name"], metric["better"] == "lower"
    sides = {side: [p[side][name] for p in pairs] for side in ("parent", "change")}
    parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
    wins = sum(c < p if lower else c > p for p, c in zip(sides["parent"], sides["change"]))
    ties = sum(c == p for p, c in zip(sides["parent"], sides["change"]))
    gap = abs(change["median"] - parent["median"])
    return {"parent": parent, "change": change, "change_wins": wins, "ties": ties,
            "pairs": len(pairs),
            "median_ratio_change_over_parent":
                change["median"] / parent["median"] if parent["median"] else None,
            "gap_beyond_parent_iqr": gap > parent["q3"] - parent["q1"],
            "regression": regression(sides, parent, change, metric)}


def regression(sides: dict, parent: dict, change: dict, metric: dict) -> str:
    """"worse", "unresolved" or "ok" by the metric's bound, as the module
    docstring says."""
    lower = metric["better"] == "lower"
    bound = metric["bound"] * parent["median"]
    worse_by = change["median"] - parent["median"]
    if (worse_by if lower else -worse_by) > bound:
        return "worse"
    all_beat = (max(sides["change"]) < min(sides["parent"]) if lower
                else min(sides["change"]) > max(sides["parent"]))
    if parent["q3"] - parent["q1"] > bound and not all_beat:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["end_to_end"]

    pairs, problems = [], []
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(trees[side], args.workload, seed, args.seconds)
            if not pair[side]["correct"] or pair[side]["failed"]:
                problems.append(f"seed {seed}: the {side} run is not correct")
        differ = [m for m in SIMULATED if pair["parent"].get(m) != pair["change"].get(m)]
        if differ:
            problems.append(f"seed {seed}: the runs differ in {', '.join(differ)}")
        pairs.append(pair)
        print(f"seed {seed}: run_s parent {pair['parent'].get('run_s')} "
              f"change {pair['change'].get('run_s')}", file=sys.stderr)

    summary = {}
    if all(m["name"] in p[side] for p in pairs for side in ("parent", "change")
           for m in metrics):
        print(f"{args.workload}, {args.pairs} pairs, seeds {args.first_seed}-"
              f"{args.first_seed + args.pairs - 1}, --seconds {args.seconds}")
        columns = ("metric", "parent_med", "parent_q1", "parent_q3", "change_med",
                   "change_q1", "change_q3", "ratio", "won", "beyond_iqr", "regression")
        print(("{:22}" + " {:>11}" * 10).format(*columns))
        for metric in metrics:
            s = summary[metric["name"]] = summarize(pairs, metric)
            ratio = s["median_ratio_change_over_parent"]
            values = [format(s[side][q], ".5g") for side in ("parent", "change")
                      for q in ("median", "q1", "q3")]
            print(("{:22}" + " {:>11}" * 10).format(
                metric["name"], *values, "-" if ratio is None else format(ratio, ".3f"),
                f"{s['change_wins']}/{s['pairs']}",
                "yes" if s["gap_beyond_parent_iqr"] else "no", s["regression"]))
    for problem in problems:
        print(f"bench_pairs: {problem}", file=sys.stderr)
    if args.json is not None:
        args.json.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                         "pairs": pairs, "summary": summary,
                                         "problems": problems}, indent=1) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
