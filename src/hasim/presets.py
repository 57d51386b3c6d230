"""Checked-in experiment presets: the batch crash campaigns.

The replication presets pin every input of the two headline experiments so
their published numbers are reproducible from explicit parameters:

  nondestructive  one VM is crashed non-destructively per episode; the full
                  escalation config is the default one, so each episode is
                  detect (70 s + up to one scan period) then reboot
                  (80 s +/- 10). Expected recovery: 180 s +/- 30.

  destructive     the VM's system is corrupted, so reboot and restart can
                  never help. The preset disables both lower steps and the
                  controller goes straight to reinstallation at detection:
                  detect then install (442 s +/- 17). Expected recovery:
                  542 s +/- 45.

Each episode runs on a fresh copy of a one-host cluster. Episode i draws
exactly the stream of `np.random.default_rng(seed + i)`: one generator per
campaign is set to that stream's starting state before the episode
(`hasim.streams`). The crash instant is uniformly jittered across one scan
period, which is what spreads detection over 70..129 s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import parse_cluster_config
from .engine import (
    DESTRUCTIVE_CRASH,
    NON_DESTRUCTIVE_CRASH,
    FailureInjection,
    SimReport,
    Simulation,
)
from .streams import streams

# One scan period; crash instants are jittered uniformly across it.
CRASH_WINDOW_S = 60
INJECT_BASE_S = 120


@dataclass(frozen=True)
class ReplicationPreset:
    """One crash campaign, named by its key in PRESETS."""

    kind: str
    horizon_s: int
    cluster_doc: dict


def _single_host_cluster(controller: dict) -> dict:
    return {
        "hosts": [
            {"host_id": "node01", "cpu_count": 4, "ram_mb": 8192},
        ],
        "vms": [
            {"vm_id": "svc01", "mac": "52:54:00:00:00:01", "bound_host": "node01",
             "boot_profile": "default"},
        ],
        "profiles": {"default": {}},
        "controller": controller,
        "telemetry": {},
        "timing": {},
    }


PRESETS = {
    "nondestructive": ReplicationPreset(
        kind=NON_DESTRUCTIVE_CRASH,
        horizon_s=600,
        cluster_doc=_single_host_cluster({}),
    ),
    "destructive": ReplicationPreset(
        kind=DESTRUCTIVE_CRASH,
        horizon_s=900,
        cluster_doc=_single_host_cluster({
            "reboot_step_enabled": False,
            "restart_step_enabled": False,
        }),
    ),
}


def check_replicate_args(name: str, n: int, seed: int) -> None:
    """Raise ValueError unless `replicate_experiment` can run these arguments."""
    if name not in PRESETS:
        raise ValueError(f"unknown experiment '{name}' "
                         f"(expected one of {', '.join(sorted(PRESETS))})")
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")


def replicate_experiment(name: str, n: int, seed: int) -> SimReport:
    """Run n independent crash episodes under the named preset.

    Episode i runs on a fresh cluster with the stream of
    `np.random.default_rng(seed + i)`; the first draw places the crash within
    the scan period, subsequent draws sample durations.
    """
    check_replicate_args(name, n, seed)
    preset = PRESETS[name]
    config = parse_cluster_config(preset.cluster_doc)
    episodes = []
    vm_id = config.vms[0].vm_id
    for rng in streams(seed, n):
        crash_at = INJECT_BASE_S + int(rng.integers(0, CRASH_WINDOW_S))
        injection = FailureInjection(at=crash_at, kind=preset.kind, vm_id=vm_id)
        report = Simulation(config, [injection], preset.horizon_s, seed=rng).run()
        episodes.extend(report.episodes)
    return SimReport(episodes=episodes, horizon_s=preset.horizon_s)

