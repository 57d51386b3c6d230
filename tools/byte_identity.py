#!/usr/bin/env python3
"""Write every output a behavior-preserving change must keep byte-identical.

Run: python3 tools/byte_identity.py DIR

For the source tree this script belongs to, it runs each command below with
that tree's `src/` and writes what the command produced into `DIR/<case>/`:
the files it wrote (under `out/`), its `stdout`, its `stderr` and its `exit`
code. In stdout and stderr the output directory reads `$OUT` and the tree's
root reads `$TREE`, so two trees give equal bytes for equal behavior:

    python3 OLD/tools/byte_identity.py /tmp/old
    python3 NEW/tools/byte_identity.py /tmp/new
    diff -r /tmp/old /tmp/new

The commands:

- `hasim run --out`, with and without `--emit-monitor-log`, on both glitch
  scenarios;
- `hasim run --out --emit-monitor-log` on the benchmark's `storm` inputs of
  seeds 1-3 and its `steady` input of seed 1, generated by
  `bench/workloads.py` (the documents go to `DIR/inputs/`);
- `hasim replicate nondestructive|destructive --n 1000 --seed 42 --out`;
- the four demos.

DIR must not exist yet.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent
# The benchmark inputs run: (workload, seed).
INPUTS = (("storm", 1), ("storm", 2), ("storm", 3), ("steady", 1))


def cases(root: Path):
    """(name, command) of every case; `hasim` writes to `root/name/out`."""
    def hasim(name, *args):
        return name, [sys.executable, "-m", "hasim.cli", *args, "--out",
                      str(root / name / "out")]

    for name in ("power_glitch", "power_glitch_noreboot"):
        scenario = str(TREE / "scenarios" / f"{name}.json")
        yield hasim(f"run_{name}", "run", scenario)
        yield hasim(f"run_{name}_log", "run", scenario, "--emit-monitor-log")
    for name, seed in INPUTS:
        scenario = str(root / "inputs" / f"{name}_{seed}.json")
        yield hasim(f"run_{name}_{seed}_log", "run", scenario, "--emit-monitor-log")
    for experiment in ("nondestructive", "destructive"):
        yield hasim(f"replicate_{experiment}", "replicate", experiment,
                    "--n", "1000", "--seed", "42")
    for demo in sorted((TREE / "demos").glob("*.py")):
        yield f"demo_{demo.stem}", [sys.executable, str(demo)]


def write_inputs(inputs: Path) -> None:
    """The benchmark's scenario documents, serialized as its workloads do."""
    sys.path.insert(0, str(TREE / "bench"))
    import workloads

    inputs.mkdir()
    for name, seed in INPUTS:
        doc = getattr(workloads, f"{name}_scenario")(seed)
        (inputs / f"{name}_{seed}.json").write_text(json.dumps(doc))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if root.exists():
        print(f"{root} exists; name a new directory", file=sys.stderr)
        return 2
    root.mkdir(parents=True)
    write_inputs(root / "inputs")
    env = dict(os.environ, PYTHONPATH=str(TREE / "src"))
    for name, command in cases(root):
        case = root / name
        case.mkdir()
        result = subprocess.run(command, capture_output=True, text=True, env=env, cwd=case)
        for stream, text in (("stdout", result.stdout), ("stderr", result.stderr)):
            text = text.replace(str(case / "out"), "$OUT").replace(str(TREE), "$TREE")
            (case / stream).write_text(text)
        (case / "exit").write_text(f"{result.returncode}\n")
    print(f"wrote {root}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
