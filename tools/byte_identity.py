#!/usr/bin/env python3
"""Write every output a behavior-preserving change must keep byte-identical.

Run: python3 tools/byte_identity.py DIR

For the source tree this script belongs to, it runs each command below with
that tree's `src/` and writes what the command produced into `DIR/<case>/`:
the files it wrote (under `out/`), its `stdout`, its `stderr` and its `exit`
code. In stdout and stderr the output directory reads `$OUT`, DIR reads
`$DIR` and the tree's root reads `$TREE`, so two trees give equal bytes for
equal behavior:

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
- the four demos;
- bad input, whose problem lists must match: `hasim validate` on a cluster
  with problems in every record kind, and on the benchmark's `steady`
  cluster of seed 1 with one problem deep in each list, and `hasim run
  --out` on a scenario that names the first cluster by path and has bad
  injections (the documents go to `DIR/inputs/`).

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
# A cluster with problems in every record kind: unknown, missing, null and
# mistyped keys, non-object records, bounds, MACs, NaN, 10**400, references.
BAD_CLUSTER = {
    "hosts": [
        {"host_id": "h1", "cpu_count": 4, "ram_mb": 1024},
        {"host_id": "", "cpu_count": 0, "ram_mb": "x", "load_threshold": -1,
         "power_state": "dim", "rack": 3},
        "not a host",
        {"cpu_count": 10**400, "ram_mb": 1, "load_threshold": 2.0005},
        {"host_id": "h1", "cpu_count": 2, "ram_mb": 1, "power_state": "off"},
    ],
    "vms": [
        {"vm_id": "v1", "mac": "52:54:00:00:00:01", "bound_host": "h1", "boot_profile": "p"},
        {"vm_id": "v2", "mac": "52:54:00:00:00:ZZ", "bound_host": "h9", "boot_profile": "q",
         "lifecycle": "booting", "reinstall_allowed": "yes",
         "load_contribution": float("nan"), "owner": "x"},
        7,
        {"vm_id": "v1", "mac": "52:54:00:00:00:01", "bound_host": "h1", "boot_profile": "p",
         "load_contribution": 0.0001},
        {"vm_id": None, "mac": "52:54:00:00:00:03", "boot_profile": "p", "lifecycle": None},
        {"vm_id": "h1", "mac": "52:54:00:00:00:04", "bound_host": "h1", "boot_profile": "r",
         "load_contribution": True},
    ],
    "profiles": {"p": {"boot_s": 0}, "q": [], "r": {"install_s": 1.5, "colour": 1}},
    "controller": {"t1_s": 0, "scan_period_s": "60", "speed": 2},
    "telemetry": {"detection_latency_s": 5},
    "timing": {"boot_jitter_s": -3, "controller_phase_s": 600},
    "extra": True,
}
# Names the cluster above by path; its injections have problems of their own
# and against the ids the cluster declares, rejected records included.
BAD_SCENARIO = {
    "cluster": "bad_cluster.json", "horizon_s": 600, "seed": 1,
    "injections": [
        {"at": 10, "kind": "non_destructive_crash", "vm": "v2"},
        {"at": 10, "kind": "destructive_crash", "vm": "ghost"},
        {"at": -5, "kind": "power_glitch", "hosts": ["h1", "nope"]},
        {"at": 700, "kind": "load_spike", "host": "h1", "extra_load": "lots", "duration_s": 0},
        {"kind": "meteor"},
        "boom",
        {"at": 10, "kind": "physical_host_failure", "host": "h1", "why": "x"},
    ],
}


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
    yield "validate_bad_cluster", [sys.executable, "-m", "hasim.cli", "validate",
                                   str(root / "inputs" / "bad_cluster.json")]
    yield "validate_long_bad_cluster", [sys.executable, "-m", "hasim.cli", "validate",
                                        str(root / "inputs" / "long_bad_cluster.json")]
    yield hasim("run_bad_scenario", "run", str(root / "inputs" / "bad_scenario.json"))


def write_inputs(inputs: Path) -> None:
    """The benchmark's scenario documents, serialized as its workloads do."""
    sys.path.insert(0, str(TREE / "bench"))
    import workloads

    inputs.mkdir()
    for name, seed in INPUTS:
        doc = getattr(workloads, f"{name}_scenario")(seed)
        (inputs / f"{name}_{seed}.json").write_text(json.dumps(doc))
    # One VM's MAC broken deep in its list, and one host with an unknown key.
    long_bad_cluster = workloads.steady_scenario(1)["cluster"]
    long_bad_cluster["vms"][1733]["mac"] = "52:54:00:00:06:zz"
    long_bad_cluster["hosts"][151]["rack"] = 12
    for name, doc in (("bad_cluster", BAD_CLUSTER), ("bad_scenario", BAD_SCENARIO),
                      ("long_bad_cluster", long_bad_cluster)):
        (inputs / f"{name}.json").write_text(json.dumps(doc))


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
            text = text.replace(str(case / "out"), "$OUT").replace(str(root), "$DIR") \
                .replace(str(TREE), "$TREE")
            (case / stream).write_text(text)
        (case / "exit").write_text(f"{result.returncode}\n")
    print(f"wrote {root}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
