"""Every run of a batch draws exactly the stream of `np.random.default_rng(seed + i)`.

`hasim.streams` derives PCG64 states instead of building a generator per run.
The oracles are numpy's own seeding (`np.random.PCG64(seed).state`) and the
replaced per-episode loop of `replicate_experiment`, kept here as it was.
"""

import json
import warnings

import numpy as np
import pytest

from hasim.cli import _run_replicated
from hasim.config import load_scenario, parse_cluster_config
from hasim.engine import FailureInjection, SimReport, Simulation
from hasim.presets import (
    CRASH_WINDOW_S,
    INJECT_BASE_S,
    PRESETS,
    replicate_experiment,
)
from hasim.streams import BLOCK, pcg64_states, streams
from test_cli import SCENARIOS

SEEDS = (0, 42, 2**32 - 3, 10**30)


def oracle_replicate(name: str, n: int, seed: int) -> SimReport:
    """`replicate_experiment` as it was: a fresh `default_rng(seed + i)` per episode."""
    preset = PRESETS[name]
    config = parse_cluster_config(preset.cluster_doc)
    episodes = []
    vm_id = config.vms[0].vm_id
    for i in range(n):
        rng = np.random.default_rng(seed + i)
        episodes.extend(oracle_episode(preset, config, vm_id, rng))
    return SimReport(episodes=episodes, horizon_s=preset.horizon_s)


def oracle_episode(preset, config, vm_id, rng):
    crash_at = INJECT_BASE_S + int(rng.integers(0, CRASH_WINDOW_S))
    injection = FailureInjection(at=crash_at, kind=preset.kind, vm_id=vm_id)
    return Simulation(config, [injection], preset.horizon_s, seed=rng).run().episodes


@pytest.mark.parametrize("base", [0, 2**31, 2**32, 2**64, 2**128, 10**30, 2**200])
def test_derived_states_are_numpys_own(base):
    first = max(0, base - 40)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        states, incs = pcg64_states(first, 80)
    for i, (state, inc) in enumerate(zip(states, incs)):
        want = np.random.PCG64(first + i).state["state"]
        assert (state, inc) == (want["state"], want["inc"]), first + i


def test_seeds_of_more_words_than_the_pool_cross_word_counts():
    # 2**160 - 2 has five 32-bit words and 2**160 six; SeedSequence mixes
    # every word beyond its pool of four, so each count hashes differently.
    for first in (2**160 - 2, 2**200 + 7, 2**256 - 1):
        states, incs = pcg64_states(first, 4)
        assert [(s, c) for s, c in zip(states, incs)] == [
            tuple(np.random.PCG64(first + i).state["state"][k] for k in ("state", "inc"))
            for i in range(4)]


def test_streams_equal_default_rng_across_blocks():
    # One draw of every kind the engine and the presets take, across a block
    # boundary; the generator's state must carry nothing from the run before.
    n = BLOCK + 3
    for i, rng in enumerate(streams(2**32 - BLOCK, n)):
        want = np.random.default_rng(2**32 - BLOCK + i)
        assert rng.integers(0, 60) == want.integers(0, 60)
        assert rng.integers(0, 2**40, size=2).tolist() == want.integers(0, 2**40, size=2).tolist()
        assert rng.random() == want.random()
    assert i == n - 1
    with pytest.raises(ValueError):
        next(streams(-1, 1))


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("seed", SEEDS)
def test_replicate_equals_the_per_episode_default_rng_loop(name, seed):
    assert replicate_experiment(name, 400, seed) == oracle_replicate(name, 400, seed)


def test_interleaved_campaigns_draw_as_each_alone():
    a, b = "nondestructive", "destructive"
    configs = {k: parse_cluster_config(PRESETS[k].cluster_doc) for k in (a, b)}
    ran = {a: [], b: []}
    for rng_a, rng_b in zip(streams(42, 200), streams(2**32 - 3, 200)):
        ran[a] += oracle_episode(PRESETS[a], configs[a], "svc01", rng_a)
        ran[b] += oracle_episode(PRESETS[b], configs[b], "svc01", rng_b)
    assert ran[a] == oracle_replicate(a, 200, 42).episodes
    assert ran[b] == oracle_replicate(b, 200, 2**32 - 3).episodes


def test_run_replications_cross_the_32_bit_boundary_as_int_seeds():
    doc = json.loads((SCENARIOS / "power_glitch.json").read_text())
    doc["replications"] = 5
    scenario = load_scenario(json.dumps(doc), base_dir=SCENARIOS)
    seed = 2**32 - 3
    got = _run_replicated(scenario, seed, collect_trace=True, emit_monitor_log=True)
    trace, log, episodes = [], [], []
    for i in range(5):
        report = Simulation(scenario.config, scenario.injections, scenario.horizon_s,
                            seed=seed + i, collect_trace=True, emit_monitor_log=True).run()
        trace += [f"0 replication {i} seed {seed + i}"] + report.trace
        log += report.monitor_log
        episodes += report.episodes
    assert (got.trace, got.monitor_log, got.episodes) == (trace, log, episodes)
