"""The benchmark's input generators, `bench/workloads.py`, for the tests that
read the benchmark's inputs.
"""

import importlib.util
import json
from pathlib import Path

from hasim.config import Scenario, load_scenario

ROOT = Path(__file__).resolve().parent.parent


def bench_workloads():
    """`bench/workloads.py`, loaded as a module."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def storm_scenario(seed: int) -> Scenario:
    """The bench `storm` scenario of `seed`, as `hasim.config` reads it."""
    return load_scenario(json.dumps(bench_workloads().storm_scenario(seed)))
