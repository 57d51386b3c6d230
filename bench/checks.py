"""Output checks, derived from the model rather than from the program.

Each check takes the program's outputs (episodes, rendered files, the final
cluster state) and returns a list of problems. A problem is a pair
(episode index or None, message): an index marks one failed operation, None
marks a fault in an output shared by every episode of the round.

The figures come from the model's parameters (scan period 60 s, detection
latency 70 s, T1 = T2 = 180 s, boot 80 +/- 10 s, install 442 +/- 17 s), not
from the code that produces the outputs:

  detection   a machine silenced at f with a last heartbeat at f is Down at
              the first scan s with s - f >= 70, so detected_at is the first
              multiple of 60 at or after f + 70.
  replicate   f = 120 + U{0..59}, so detection - f is uniform over 70..129
              and E[detection - f] = 99.5 s; recovery adds a boot (mean 80 s)
              or an install (mean 442 s): E = 179.5 s and 541.5 s.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from collections import Counter
from xml.etree import ElementTree

SCAN_S = 60
DETECTION_LATENCY_S = 70
T1_S = 180
T2_S = 180
BOOT_S = (70, 90)
INSTALL_S = (425, 459)

SOFT = "non_destructive_crash"
HARD = "destructive_crash"
REBOOT, RESTART, REINSTALL = "reboot", "restart", "reinstall"
LEVEL = {REBOOT: 1, RESTART: 2, REINSTALL: 3}

# Preset campaigns: failure kind, the one action at detection, the window of
# recovered_at - detected_at, and the expected mean recovery.
REPLICATE = {
    "nondestructive": (SOFT, (REBOOT, "svc01", None), BOOT_S,
                       99.5 + sum(BOOT_S) / 2),
    "destructive": (HARD, (REINSTALL, "svc01", "node01"), INSTALL_S,
                    99.5 + sum(INSTALL_S) / 2),
}
REPLICATE_CRASH_WINDOW = (120, 179)

EPISODES_HEADER = ["vm_id", "kind", "failure_at", "detected_at", "recovered_at",
                   "recovery_s", "recovered_on"]


def detection_scan(failure_at: int) -> int:
    """First scan instant at or after failure_at + 70 s."""
    return SCAN_S * -(-(failure_at + DETECTION_LATENCY_S) // SCAN_S)


def _actions(ep) -> list[tuple[int, str, str, str | None]]:
    return [(t, a.kind, a.vm_id, a.target_host) for t, a in ep.actions]


def check_replicate_campaign(preset: str, n: int, episodes) -> list:
    """One campaign of `hasim replicate`: n single-action, recovered episodes."""
    kind, (action, vm_id, target), (lo, hi), mean = REPLICATE[preset]
    problems = []
    if len(episodes) != n:
        problems.append((None, f"{preset}: {len(episodes)} episodes, expected {n}"))
    for i, ep in enumerate(episodes):
        def bad(msg):
            problems.append((i, f"{preset} episode {i}: {msg}"))
        if ep.kind != kind or ep.vm_id != vm_id:
            bad(f"kind {ep.kind} on {ep.vm_id}")
        if not REPLICATE_CRASH_WINDOW[0] <= ep.failure_at <= REPLICATE_CRASH_WINDOW[1]:
            bad(f"failure_at {ep.failure_at} outside {REPLICATE_CRASH_WINDOW}")
        if ep.detected_at != detection_scan(ep.failure_at):
            bad(f"detected_at {ep.detected_at}, expected {detection_scan(ep.failure_at)}")
            continue
        if ep.recovered_at is None:
            bad("not recovered")
            continue
        if not lo <= ep.recovered_at - ep.detected_at <= hi:
            bad(f"recovered {ep.recovered_at - ep.detected_at} s after detection, "
                f"outside [{lo}, {hi}]")
        if _actions(ep) != [(ep.detected_at, action, vm_id, target)]:
            bad(f"actions {_actions(ep)}")
    times = [ep.recovered_at - ep.failure_at for ep in episodes
             if ep.recovered_at is not None]
    if len(times) >= 2:
        se = statistics.stdev(times) / math.sqrt(len(times))
        sample_mean = statistics.fmean(times)
        if not abs(sample_mean - mean) <= 5 * se:
            problems.append((None, f"{preset}: mean recovery {sample_mean:.2f} s is more "
                                   f"than 5 standard errors ({se:.2f} s) from {mean} s"))
    return problems


def check_steady(episodes, crashes: dict[str, int], initial_host: dict[str, str],
                 state) -> list:
    """Soft crashes on a healthy cluster: each is one reboot where it ran."""
    problems = []
    seen = Counter(ep.vm_id for ep in episodes)
    if seen != Counter(crashes.keys()):
        problems.append((None, f"episodes cover {len(seen)} VMs, "
                               f"{len(crashes)} were crashed"))
    for i, ep in enumerate(episodes):
        def bad(msg):
            problems.append((i, f"{ep.vm_id}: {msg}"))
        if ep.kind != SOFT or crashes.get(ep.vm_id) != ep.failure_at:
            bad(f"{ep.kind} at {ep.failure_at} does not match an injected crash")
        if ep.detected_at != detection_scan(ep.failure_at):
            bad(f"detected_at {ep.detected_at}, expected {detection_scan(ep.failure_at)}")
            continue
        if ep.recovered_at is None:
            bad("not recovered")
            continue
        if not BOOT_S[0] <= ep.recovered_at - ep.detected_at <= BOOT_S[1]:
            bad(f"boot took {ep.recovered_at - ep.detected_at} s")
        if _actions(ep) != [(ep.detected_at, REBOOT, ep.vm_id, None)]:
            bad(f"actions {_actions(ep)}")
        if ep.recovered_on != initial_host.get(ep.vm_id):
            bad(f"recovered on {ep.recovered_on}, started on {initial_host.get(ep.vm_id)}")
    moved = [v.vm_id for v in state.vms.values()
             if v.bound_host != initial_host[v.vm_id] or v.lifecycle.value != "running"]
    if moved:
        problems.append((None, f"{len(moved)} VMs did not end running where they "
                               f"started, e.g. {moved[:3]}"))
    return problems


def check_storm_episode(ep, reinstall_allowed: bool) -> list[str]:
    """The properties of acceptance criterion 5, for one episode."""
    out = []
    kinds = [a.kind for _, a in ep.actions]
    levels = [LEVEL[k] for k in kinds if k in LEVEL]
    times = {k: [t for t, a in ep.actions if a.kind == k] for k in LEVEL}
    if any(t % SCAN_S for t, _ in ep.actions):
        out.append("action off the scan grid")
    if ep.detected_at is None:
        if ep.actions:
            out.append("acted on before detection")
    elif ep.detected_at != detection_scan(ep.failure_at):
        out.append(f"detected_at {ep.detected_at}, "
                   f"expected {detection_scan(ep.failure_at)}")
    elif ep.actions and ep.actions[0][0] != ep.detected_at:
        out.append(f"first action at {ep.actions[0][0]}, detected at {ep.detected_at}")
    if any(a > b for a, b in zip(levels, levels[1:])):
        out.append(f"escalation went backwards: {kinds}")
    if REINSTALL in kinds:
        if RESTART not in kinds[:kinds.index(REINSTALL)]:
            out.append(f"reinstall without a prior restart: {kinds}")
        if not reinstall_allowed:
            out.append("reinstall despite opt-out")
        if ep.kind == SOFT:
            out.append("reinstall on a soft crash")
    if times[REBOOT] and times[RESTART] and times[RESTART][0] - times[REBOOT][0] < T1_S:
        out.append("restart before T1")
    for t in times[REINSTALL]:
        prior = [r for r in times[RESTART] if r < t]
        if not prior or t - prior[-1] < T2_S:
            out.append("reinstall before T2")
    if any(b - a < T2_S for a, b in zip(times[RESTART], times[RESTART][1:])):
        out.append("restarts closer than T2")
    if ep.kind == HARD and ep.recovered_at is not None and kinds.count(REINSTALL) != 1:
        out.append(f"{kinds.count(REINSTALL)} reinstalls on a recovered corrupted VM")
    return out


def committed_load(state, host_id: str) -> float:
    """Load of running, booting and installing VMs plus spikes, from the state."""
    host = state.hosts[host_id]
    running = host.power_state.value == "on"
    total = state.extra_load.get(host_id, 0.0) if running else 0.0
    for vm_id in host.hosted_vms:
        lifecycle = state.vms[vm_id].lifecycle.value
        if lifecycle in ("booting", "installing") or (running and lifecycle == "running"):
            total += state.vms[vm_id].load_contribution
    return total


def placement_problem(state, snapshot, now: int, action) -> str | None:
    """Threshold safety of one restart or reinstall, just before it applies."""
    host = state.hosts.get(action.target_host)
    if host is None:
        return f"placement of {action.vm_id} onto unknown host {action.target_host}"
    if host.power_state.value != "on":
        return f"placement of {action.vm_id} onto powered-off {host.host_id}"
    entry = snapshot.entries.get(host.host_id) if snapshot.taken_at == now else None
    if entry is None or entry.verdict != "up":
        return f"placement of {action.vm_id} onto {host.host_id}, not Up at t={now}"
    load = committed_load(state, host.host_id) + state.vms[action.vm_id].load_contribution
    if not load < host.load_threshold:
        return (f"placement of {action.vm_id} onto {host.host_id} at t={now} "
                f"makes {load}, threshold {host.load_threshold}")
    return None


def check_conservation(state) -> list:
    """Every VM is bound to exactly one host that lists it, or parked."""
    listed = Counter(vm_id for h in state.hosts.values() for vm_id in h.hosted_vms)
    bad = []
    for vm in state.vms.values():
        if vm.bound_host is None:
            ok = vm.lifecycle.value == "waiting_for_capacity" and listed[vm.vm_id] == 0
        else:
            ok = (listed[vm.vm_id] == 1
                  and vm.vm_id in state.hosts[vm.bound_host].hosted_vms)
        if not ok:
            bad.append(vm.vm_id)
    if bad or set(listed) - set(state.vms):
        return [(None, f"VMs not conserved: {bad[:3]}")]
    return []


def check_report_csv(text: str, episodes) -> list:
    """report.csv count, mean, min and max, recomputed from the episodes."""
    by_kind: dict[str, list[int]] = {}
    for ep in episodes:
        if ep.recovered_at is not None:
            by_kind.setdefault(ep.kind, []).append(ep.recovered_at - ep.failure_at)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["kind", "count", "mean_s", "stddev_s", "min_s", "max_s"]:
        return [(None, "report.csv: bad header")]
    got = {r[0]: r for r in rows[1:]}
    if set(got) != set(by_kind):
        return [(None, f"report.csv kinds {sorted(got)}, expected {sorted(by_kind)}")]
    problems = []
    for kind, times in by_kind.items():
        # Sums of integers below 2**53 are exact, so the mean is one
        # correctly rounded division whatever the summation order.
        expected = (len(times), sum(times) / len(times), min(times), max(times))
        row = got[kind]
        actual = (int(row[1]), float(row[2]), int(row[4]), int(row[5]))
        if actual != expected:
            problems.append((None, f"report.csv {kind}: {actual}, expected {expected}"))
    return problems


def check_episodes_csv(text: str, episodes) -> list:
    """episodes.csv holds every episode's fields, in order."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != EPISODES_HEADER:
        return [(None, "episodes.csv: bad header")]
    if len(rows) - 1 != len(episodes):
        return [(None, f"episodes.csv: {len(rows) - 1} rows for {len(episodes)} episodes")]

    def blank(v):
        return "" if v is None else str(v)

    problems = []
    for i, (row, ep) in enumerate(zip(rows[1:], episodes)):
        recovery = None if ep.recovered_at is None else ep.recovered_at - ep.failure_at
        expected = [ep.vm_id, ep.kind, str(ep.failure_at), blank(ep.detected_at),
                    blank(ep.recovered_at), blank(recovery), blank(ep.recovered_on)]
        if row != expected:
            problems.append((i, f"episodes.csv row {i + 1}: {row}, expected {expected}"))
    return problems


def check_monitor_log(text: str, horizon_s: int) -> list:
    """One well-formed <CLUSTER> line per scan, scans at 0, 60, ... <= horizon."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    expected = horizon_s // SCAN_S + 1
    if len(lines) != expected:
        return [(None, f"monitor_log.xml: {len(lines)} lines, expected {expected}")]
    for i, line in enumerate(lines):
        try:
            root = ElementTree.fromstring(line)
        except ElementTree.ParseError as exc:
            return [(None, f"monitor_log.xml line {i + 1}: {exc}")]
        if root.tag != "CLUSTER" or root.get("TAKEN_AT") != str(i * SCAN_S):
            return [(None, f"monitor_log.xml line {i + 1}: <{root.tag} "
                           f"TAKEN_AT={root.get('TAKEN_AT')}>")]
    return []


def check_trace_actions(trace_text: str, episodes) -> list:
    """The `action` lines of trace.txt are exactly the episodes' actions."""
    traced = Counter()
    for line in trace_text.splitlines():
        parts = line.split(" ")
        if len(parts) >= 4 and parts[1] == "action":
            traced[(int(parts[0]), *parts[2:])] += 1
    expected = Counter()
    for ep in episodes:
        for t, kind, vm_id, target in _actions(ep):
            expected[(t, kind, vm_id) + ((target,) if target else ())] += 1
    if traced != expected:
        extra, missing = traced - expected, expected - traced
        return [(None, f"trace.txt actions differ: {sum(extra.values())} extra, "
                       f"{sum(missing.values())} missing, e.g. "
                       f"{(list(extra) + list(missing))[:2]}")]
    return []
