"""One round of each benchmark workload runs and its outputs check correct.

bench/run.py drives the package through public names that no other test
calls the same way, so a rename or removal fails here, not in the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["replicate", "steady", "storm"])
def test_one_benchmark_round_is_correct(workload):
    done = subprocess.run([sys.executable, str(BENCH), "--workload", workload,
                           "--seed", "0", "--seconds", "0"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
