"""Seeded inputs of the three benchmark workloads.

Every input is a plain JSON document, or a preset name with an integer seed,
made from the benchmark's --seed alone: the same seed gives the same bytes.
The simulator receives only these generated inputs.

All VM loads, spike loads and thresholds are quarter-unit multiples. They are
exact in binary floating point, so a placement is decided by the values and
not by the order in which the engine happens to sum them, and the benchmark's
own recomputation of a host's committed load is exact too.
"""

from __future__ import annotations

import random

HORIZON_STEADY_S = 3600
HORIZON_STORM_S = 7200

# replicate: the paper's two campaigns, n episodes each, as `hasim replicate`.
REPLICATE_N = 1000

# steady: one large, healthy cluster with soft crashes of distinct VMs.
STEADY_HOSTS = 200
STEADY_VMS_PER_HOST = 10
STEADY_CRASHES = 100

# storm: a mid-size cluster with little headroom on any host.
STORM_HOSTS = 60
STORM_VMS_PER_HOST = 10
STORM_GLITCH_SHARE = 3          # one host in three loses power at one instant
STORM_HOST_FAILURES = 4
STORM_SPIKES = 8
STORM_DESTRUCTIVE = 60
STORM_SOFT = 40
STORM_OPT_OUT_SHARE = 0.1
# Each host's threshold is its initial load plus 0.5 to 2 units.
STORM_HEADROOM_QUARTERS = (2, 8)
# The glitch falls 70 s before a scan, so that scan detects the halted VMs
# while nearly every glitched host is still booting (70 to 90 s): their VMs
# go straight to restart and must be fitted, in sequence, into the little
# headroom the other hosts have; the rest are deferred to later scans.
STORM_GLITCH_PHASE_S = 50
# Host-level failures all fall within 180 s of each other, starting at a
# random instant in [300, 720]. An episode they open reaches a reinstall no
# sooner than 70 s detection + T2 = 250 s after it, and VM crashes only start
# at 1200 s, so no installation is ever interrupted and the escalation level
# of every episode can only rise.
STORM_HOST_EVENTS_START_S = (300, 720)
STORM_HOST_EVENTS_WINDOW_S = 180
STORM_CRASHES_S = (1200, 6000)


def _mac(i: int) -> str:
    return "52:54:%02x:%02x:%02x:%02x" % ((i >> 24) & 0xFF, (i >> 16) & 0xFF,
                                          (i >> 8) & 0xFF, i & 0xFF)


def _quarters(rng: random.Random, lo: int, hi: int) -> float:
    """A multiple of 0.25 in [lo/4, hi/4]."""
    return rng.randint(lo, hi) * 0.25


def _cluster(rng: random.Random, n_hosts: int, vms_per_host: int, cpu_count: int,
             headroom_quarters: tuple[int, int] | None, opt_out_share: float) -> dict:
    """Hosts with vms_per_host VMs each, loads 0.25 to 1.0.

    With headroom_quarters a host's threshold is its initial load plus that
    many quarter units, otherwise it is the default (cpu_count).
    """
    hosts, vms = [], []
    for h in range(n_hosts):
        host = {"host_id": f"h{h:03d}", "cpu_count": cpu_count, "ram_mb": 65536}
        load = 0.0
        for _ in range(vms_per_host):
            i = len(vms)
            vm = {"vm_id": f"vm{i:05d}", "mac": _mac(i), "bound_host": host["host_id"],
                  "boot_profile": "default", "load_contribution": _quarters(rng, 1, 4)}
            if opt_out_share and rng.random() < opt_out_share:
                vm["reinstall_allowed"] = False
            load += vm["load_contribution"]
            vms.append(vm)
        if headroom_quarters is not None:
            host["load_threshold"] = load + _quarters(rng, *headroom_quarters)
        hosts.append(host)
    return {"hosts": hosts, "vms": vms, "profiles": {"default": {}},
            "controller": {}, "telemetry": {}, "timing": {}}


def replicate_inputs(seed: int) -> dict:
    """Preset names, episode count and the generator seed of each campaign."""
    rng = random.Random(f"replicate/{seed}")
    return {"n": REPLICATE_N,
            "campaigns": [("nondestructive", rng.randrange(2**31)),
                          ("destructive", rng.randrange(2**31))]}


def steady_scenario(seed: int) -> dict:
    """200 hosts x 2000 VMs for an hour; 100 soft crashes of distinct VMs.

    Hosts have 16 cores (threshold 16) and carry at most 10 load units, so
    nothing is ever short of capacity. Crashes fall early enough that every
    one is detected and rebooted before the horizon (crash + 129 s detection
    + 90 s boot at the latest).
    """
    rng = random.Random(f"steady/{seed}")
    cluster = _cluster(rng, STEADY_HOSTS, STEADY_VMS_PER_HOST, 16, None, 0.0)
    vm_ids = [v["vm_id"] for v in cluster["vms"]]
    crashed = rng.sample(vm_ids, STEADY_CRASHES)
    injections = sorted(
        ({"at": rng.randint(60, HORIZON_STEADY_S - 300), "kind": "non_destructive_crash",
          "vm": vm_id} for vm_id in crashed),
        key=lambda inj: (inj["at"], inj["vm"]))
    return {"cluster": cluster, "injections": injections,
            "horizon_s": HORIZON_STEADY_S, "replications": 1,
            "seed": rng.randrange(2**31)}


def storm_scenario(seed: int) -> dict:
    """60 hosts x 600 VMs for two hours under a storm of failures.

    Each host's threshold leaves it 0.5 to 2 load units of headroom, so a
    power glitch of a third of the hosts cannot be absorbed until the
    glitched hosts boot back: placement fills hosts in sequence and defers
    the rest. Four hosts fail for good, eight load spikes steer placement,
    and 100 distinct VMs crash, 60 of them destructively. About one VM in
    ten opts out of reinstallation, so some corrupted VMs are never
    recovered. Destructive crashes are about a fifth of all episodes, so the
    90th recovery percentile lies inside their reboot-restart-reinstall mode
    rather than on the edge between two modes.
    """
    rng = random.Random(f"storm/{seed}")
    cluster = _cluster(rng, STORM_HOSTS, STORM_VMS_PER_HOST, 8, STORM_HEADROOM_QUARTERS,
                       STORM_OPT_OUT_SHARE)
    host_ids = [h["host_id"] for h in cluster["hosts"]]
    hit = rng.sample(host_ids, STORM_HOSTS // STORM_GLITCH_SHARE + STORM_HOST_FAILURES)
    glitched, failed = sorted(hit[STORM_HOST_FAILURES:]), hit[:STORM_HOST_FAILURES]
    start = rng.randint(*STORM_HOST_EVENTS_START_S)
    glitch_at = 60 * (start // 60 + 1) + STORM_GLITCH_PHASE_S
    injections = [{"at": glitch_at, "kind": "power_glitch", "hosts": glitched}]
    injections += [{"at": rng.randint(start, start + STORM_HOST_EVENTS_WINDOW_S),
                    "kind": "physical_host_failure", "host": h} for h in failed]
    injections += [{"at": rng.randint(0, HORIZON_STORM_S - 1800), "kind": "load_spike",
                    "host": rng.choice(host_ids), "extra_load": _quarters(rng, 4, 16),
                    "duration_s": rng.randint(300, 1800)}
                   for _ in range(STORM_SPIKES)]
    vm_ids = [v["vm_id"] for v in cluster["vms"]]
    crashed = rng.sample(vm_ids, STORM_DESTRUCTIVE + STORM_SOFT)
    lo, hi = STORM_CRASHES_S
    injections += [{"at": rng.randint(lo, hi),
                    "kind": "destructive_crash" if i < STORM_DESTRUCTIVE
                    else "non_destructive_crash",
                    "vm": vm_id} for i, vm_id in enumerate(crashed)]
    injections.sort(key=lambda inj: (inj["at"], inj["kind"]))
    return {"cluster": cluster, "injections": injections,
            "horizon_s": HORIZON_STORM_S, "replications": 1,
            "seed": rng.randrange(2**31)}
