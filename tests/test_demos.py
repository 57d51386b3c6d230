"""The narrative demos run to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, env=env, timeout=120)


def test_all_four_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr


def test_placement_demo_fills_the_backup_sequentially():
    out = run_demo(ROOT / "demos" / "04_placement_policy.py").stdout
    tail = out.rstrip("\n").splitlines()[-3:]
    assert tail == ["  restart vm0 backup", "  restart vm1 backup", "  defer vm2"]
