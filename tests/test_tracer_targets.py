"""The benchmark's per-layer tracer still finds every name it wraps.

bench/tracer.py skips a target that no longer exists, so after a rename its
metric would silently read 0. This test fails instead.
"""

import sys
from pathlib import Path

import hasim.engine

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracer import Tracer  # noqa: E402


def test_every_tracer_target_exists():
    tracer = Tracer()
    patch, targets, missing = tracer.patch, [], []

    def recording_patch(owner, attr, name, on_result=None):
        targets.append(name)
        if getattr(owner, attr, None) is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        patch(owner, attr, name, on_result)

    tracer.patch = recording_patch
    tracer.install()
    try:
        assert missing == []
        # The class-owned targets are patched only when their class exists.
        assert {"engine.init", "engine.run", "telemetry.record_heartbeat",
                "telemetry.snapshot", "provisioning.boot_outcome"} <= set(targets)
        assert hasim.engine.heapq is tracer.heap  # the event counter's target
    finally:
        tracer.uninstall()
