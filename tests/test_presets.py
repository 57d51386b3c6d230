"""Replication presets and packaged scenario files."""

import json
from pathlib import Path

import numpy as np
import pytest

from hasim.config import load_scenario, parse_cluster_config
from hasim.presets import PRESETS, replicate_experiment

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_scenario_files_agree():
    # Only the reboot step differs between the glitch replays, and the
    # cluster file is their cluster.
    glitch = json.loads((SCENARIOS / "power_glitch.json").read_text())
    noreboot = json.loads((SCENARIOS / "power_glitch_noreboot.json").read_text())
    assert glitch["cluster"]["controller"] == {"reboot_step_enabled": True}
    assert noreboot["cluster"]["controller"] == {"reboot_step_enabled": False}
    noreboot["cluster"]["controller"] = glitch["cluster"]["controller"]
    assert noreboot == glitch
    assert json.loads((SCENARIOS / "cluster_basic.json").read_text()) == glitch["cluster"]


def test_scenario_files_load():
    for name in ("power_glitch.json", "power_glitch_noreboot.json"):
        scenario = load_scenario((SCENARIOS / name).read_text(), base_dir=SCENARIOS)
        assert scenario.horizon_s == 900
        assert len(scenario.config.hosts) == 4


def test_preset_clusters_are_valid():
    for preset in PRESETS.values():
        config = parse_cluster_config(preset.cluster_doc)
        assert len(config.vms) == 1


def test_destructive_preset_skips_lower_steps():
    config = parse_cluster_config(PRESETS["destructive"].cluster_doc)
    assert not config.controller.reboot_step_enabled
    assert not config.controller.restart_step_enabled
    config = parse_cluster_config(PRESETS["nondestructive"].cluster_doc)
    assert config.controller.reboot_step_enabled
    assert config.controller.restart_step_enabled


def test_replicate_episode_seeds_are_independent():
    # Episode i depends only on seed + i: prefixes of longer runs agree.
    short = replicate_experiment("nondestructive", 3, 7)
    longer = replicate_experiment("nondestructive", 5, 7)
    assert [e.recovered_at for e in short.episodes] == \
        [e.recovered_at for e in longer.episodes[:3]]


def test_replicate_crash_times_spread_over_scan_period():
    report = replicate_experiment("nondestructive", 200, 11)
    offsets = {e.failure_at % 60 for e in report.episodes}
    assert len(offsets) > 30  # uniform jitter across the period


def test_replicate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        replicate_experiment("catastrophic", 10, 1)
    with pytest.raises(ValueError):
        replicate_experiment("nondestructive", 0, 1)


def test_nondestructive_preset_analytic_window():
    # Oracle: recovery = 70 + U(0,60) + U(70,90); quick bounds check.
    report = replicate_experiment("nondestructive", 100, 5)
    rec = np.array([e.recovery_s for e in report.recovered()])
    assert len(rec) == 100
    assert rec.min() >= 140 and rec.max() <= 219


def test_destructive_preset_analytic_window():
    # Oracle: recovery = 70 + U(0,60) + U(425,459).
    report = replicate_experiment("destructive", 100, 5)
    rec = np.array([e.recovery_s for e in report.recovered()])
    assert len(rec) == 100
    assert rec.min() >= 495 and rec.max() <= 588
    kinds = [a.kind for _, a in report.episodes[0].actions]
    assert kinds == ["reinstall"]
