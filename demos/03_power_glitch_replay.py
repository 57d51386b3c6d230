#!/usr/bin/env python3
"""Replay of a machine-room power glitch taking down a loaded host.

The cluster has four hosts. alfa01 carries the service VM gridce and is
pinned over its load threshold by a long-running load spike; alfa02 and
alfa03 are too loaded to absorb another VM. The glitch powers alfa01 off;
it boots itself back, but gridce stays down until the controller recovers
it - and because alfa01 is over threshold, the placement choice must land
on alfa04.

We run the scenario twice: with the reboot step enabled (the controller
first tries an ssh reboot that cannot work, then waits out T1) and with the
reboot step disabled (straight to restart), showing how much of the outage
the futile reboot costs.

Run: python3 demos/03_power_glitch_replay.py
"""

from pathlib import Path

from hasim import Simulation, host_load, load_scenario
from hasim.cluster import load_text

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def replay(name):
    scenario = load_scenario((SCENARIOS / name).read_text(), base_dir=SCENARIOS)
    sim = Simulation(scenario.config, scenario.injections, scenario.horizon_s,
                     seed=scenario.seed, collect_trace=True)
    report = sim.run()
    ep = next(e for e in report.episodes if e.vm_id == "gridce")
    reboot_enabled = scenario.config.controller.reboot_step_enabled
    print(f"--- {name} (reboot step {'on' if reboot_enabled else 'off'}) ---")
    print(f"glitch at t={ep.failure_at}s: alfa01 loses power, gridce halts")
    host_up = next(line for line in report.trace
                   if "boot_complete alfa01" in line)
    print(f"alfa01 boots itself back at t={host_up.split()[0]}s, but gridce "
          f"stays down")
    print(f"controller first sees gridce down at t={ep.detected_at}s")
    for t, action in ep.actions:
        note = ""
        if action.kind == "reboot":
            note = "  (futile: the guest is powered off, ssh cannot reach it)"
        print(f"  t={t:>4}s  {action}{note}")
    print(f"gridce recovered on {ep.recovered_on} at t={ep.recovered_at}s: "
          f"{ep.recovery_s}s of outage")
    print("host loads at the end of the run:")
    for host_id in sorted(sim.state.hosts):
        print(f"  {host_id}: load={load_text(host_load(sim.state, host_id))} "
              f"threshold={load_text(sim.state.hosts[host_id].load_threshold)} "
              f"vms={sim.state.hosts[host_id].hosted_vms}")
    print()


def main():
    replay("power_glitch.json")
    replay("power_glitch_noreboot.json")
    print("Omitting the reboot step saves the full T1 wait plus the scan")
    print("alignment - the difference between the two outages above.")


if __name__ == "__main__":
    main()
