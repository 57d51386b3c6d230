"""The determinism contract: `tools/byte_identity.py` writes, byte for byte,
the outputs whose digests `tests/golden/byte_identity.sha256` lists, under
two hash seeds.

A change that alters an output on purpose rewrites the golden file:

    python3 tools/byte_identity.py /tmp/new > tests/golden/byte_identity.sha256
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "byte_identity.sha256"


def changed_paths(expected: list[str], found: list[str]) -> list[str]:
    """The paths whose digest differs between two digest lists, or that
    only one of them lists."""
    a, b = ({path: digest for digest, path in (line.split("  ", 1) for line in lines)}
            for lines in (expected, found))
    return sorted(path for path in a.keys() | b.keys() if a.get(path) != b.get(path))


def test_changed_paths_names_changed_added_and_removed_files():
    assert changed_paths(["1  a", "2  b", "3  c"], ["1  a", "9  b", "4  d"]) == ["b", "c", "d"]


def test_outputs_match_the_golden_digests_under_two_hash_seeds(tmp_path):
    header, *expected = GOLDEN.read_text().splitlines()
    runs = {seed: subprocess.Popen(
                [sys.executable, str(ROOT / "tools" / "byte_identity.py"), str(tmp_path / seed)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed))
            for seed in ("1", "2")}  # in parallel
    for seed, run in runs.items():
        out, err = run.communicate()
        assert run.returncode == 0, err
        found_header, *found = out.splitlines()
        assert found_header == header, \
            f"the golden digests are of {header[2:]}, this run is of {found_header[2:]}"
        assert found == expected, \
            f"PYTHONHASHSEED={seed} changed {changed_paths(expected, found)}"
