#!/usr/bin/env python3
"""How the placement choice ranks hosts, and how batch failover fills them.

choose_host filters to powered-on, monitor-up hosts that can take the VM's
load while staying strictly under their threshold, then ranks by
(load, hosted VM count, host id). When a host dies, the controller's scan
(tick) places its VMs one at a time, each placement visible to the next, so
a single backup is not oversubscribed by the whole batch.

Run: python3 demos/04_placement_policy.py
"""

from hasim import ControllerParams, HostView, MonitorSnapshot, VmInfo, choose_host, tick
from hasim.cluster import load_text, to_milli
from hasim.telemetry import DOWN, SnapshotEntry


def view(host_id, load, vm_count=0, threshold=4.0, power_on=True, up=True):
    """A host's view; loads are given in units, and views hold milli-units."""
    return HostView(host_id=host_id, power_on=power_on, monitor_up=up,
                    load=to_milli(load), vm_count=vm_count,
                    load_threshold=to_milli(threshold))


def show_choice(title, hosts, vm):
    print(f"{title}")
    for h in hosts:
        state = []
        if not h.power_on:
            state.append("off")
        if not h.monitor_up:
            state.append("down")
        room = h.load_threshold - h.load - vm.load_contribution
        state.append(f"load={load_text(h.load)}/{load_text(h.load_threshold)}"
                     f" vms={h.vm_count} headroom={room / 1000:+.1f}")
        print(f"  {h.host_id}: {' '.join(state)}")
    print(f"  -> choose_host picks: {choose_host(hosts, vm)}\n")


def main():
    vm = VmInfo("gridce", None, to_milli(1.0), True)

    show_choice("Loaded host loses to an idle one:",
                [view("alfa01", 5.0), view("alfa04", 1.0)], vm)

    show_choice("Equal load: fewer hosted VMs wins, then the host id:",
                [view("hb", 1.0, vm_count=3), view("ha", 1.0, vm_count=3),
                 view("hc", 1.0, vm_count=1)], vm)

    show_choice("Exactly reaching the threshold is not allowed (strict <):",
                [view("h1", 3.0, threshold=4.0)], vm)

    show_choice("Powered-off and monitor-down hosts are never candidates:",
                [view("h1", 0.0, power_on=False), view("h2", 0.0, up=False)], vm)

    print("Sequential fill: host 'dead' had three 1.5-load VMs; the backup")
    print("(threshold 4.0) can absorb two, the third must wait for capacity:")
    vms = [VmInfo(f"vm{i}", "dead", to_milli(1.5), True) for i in range(3)]
    # The scan after the failure sees the host and its VMs Down.
    down = SnapshotEntry(last_heartbeat_at=0, reported_load=0, verdict=DOWN)
    snapshot = MonitorSnapshot(taken_at=240, entries={
        machine: down for machine in ["dead"] + [vm.vm_id for vm in vms]})
    hosts = {"dead": view("dead", 0.0, vm_count=3, power_on=False, up=False),
             "backup": view("backup", 0.0)}
    _, actions = tick({}, snapshot, hosts, 240, ControllerParams(), vms)
    for action in actions:
        print(f"  {action}")


if __name__ == "__main__":
    main()
