#!/usr/bin/env python3
"""Walk through the recovery timeline of a single crashed VM.

A one-host cluster runs one service VM. We crash it twice, once softly
(a reboot fixes it) and once destructively (its system is corrupted, so the
controller has to escalate all the way to a reinstallation), and print the
annotated event trace of each episode.

Run: python3 demos/01_single_crash_timeline.py
"""

from hasim import (
    DESTRUCTIVE_CRASH,
    NON_DESTRUCTIVE_CRASH,
    FailureInjection,
    Simulation,
    parse_cluster_config,
)

CLUSTER = {
    "hosts": [{"host_id": "node01", "cpu_count": 4, "ram_mb": 8192}],
    "vms": [{"vm_id": "svc01", "mac": "52:54:00:00:00:01",
             "bound_host": "node01", "boot_profile": "default"}],
    "profiles": {"default": {}},
    # Zero jitter so the timeline below is exact.
    "timing": {"boot_jitter_s": 0, "reinstall_jitter_s": 0},
}


def show(kind, horizon):
    config = parse_cluster_config(CLUSTER)
    report = Simulation(config, [FailureInjection(130, kind, vm_id="svc01")],
                        horizon, seed=1, collect_trace=True).run()
    ep = report.episodes[0]
    print(f"--- {kind} ---")
    print(f"failure injected at t={ep.failure_at}s")
    print(f"monitor staleness reaches 70s at t={ep.failure_at + 70}s; "
          f"the next controller scan is t={ep.detected_at}s")
    for t, action in ep.actions:
        print(f"  t={t:>4}s  controller: {action}")
    print(f"recovered at t={ep.recovered_at}s "
          f"({ep.recovery_s}s after the failure)\n")
    print("interesting trace records:")
    for line in report.trace:
        if any(key in line for key in (" inject ", " action ", " boot_start ",
                                       " boot_complete ", " pxe_bind ",
                                       " install_complete ", " recovered ")):
            print(f"  {line}")
    print()


def main():
    print("A soft crash: the VM hangs but stays reachable, one reboot heals it.")
    print("Expected: detect at ~70s + scan alignment, reboot takes 80s.\n")
    show(NON_DESTRUCTIVE_CRASH, horizon=600)

    print("A destructive crash: reboot and restart complete but the machine")
    print("never comes back; after T1 and T2 expire the controller rebinds the")
    print("VM's MAC to an install profile and the next boot reinstalls it.\n")
    show(DESTRUCTIVE_CRASH, horizon=1200)


if __name__ == "__main__":
    main()
