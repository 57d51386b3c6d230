"""Every run of a batch draws exactly the stream of `np.random.default_rng(seed + i)`.

`hasim.streams` derives PCG64 states instead of building a generator per run,
and draws from them in Python ints. The oracles are numpy itself (its seeding,
`np.random.PCG64(seed).state`, and its `Generator.integers` with the state it
leaves) and the replaced per-episode loop of `replicate_experiment`, kept here
as it was.
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
from hasim.streams import BLOCK, PCG64Stream, pcg64_states, seeded, streams
from test_cli import SCENARIOS

SEEDS = (0, 42, 2**32 - 3, 10**30)
# Every case of numpy's int64 `integers(low, high)`, 32-bit and 64-bit draws
# interleaved so that the half-word buffer carries across 64-bit draws: one
# value (nothing drawn), hasim's 21, 35 and 60, a range of 2**31 + 1 that
# rejects about half its words, 2**32 (the raw 32-bit word), 64-bit ranges
# up to all of int64 (the raw 64-bit word), and lows other than 0.
CASES = ((0, 60), (0, 2**40), (0, 21), (0, 1), (0, 2**31 + 1), (0, 2**63),
         (0, 35), (-5, 5), (0, 2**32), (0, 2**31 + 1), (7, 8), (-2**63, 2**63),
         (0, 2), (0, 2**32 + 1), (2**63 - 3, 2**63), (0, 2**31 + 1), (-2**63, -2**63 + 60))
# The ranges hasim draws and the edges of its word sizes.
HASIM_RANGES = (1, 21, 35, 60, 2**31 + 1, 2**32, 2**40)


def numpy_state(rng: np.random.Generator) -> tuple:
    s = rng.bit_generator.state
    return s["state"]["state"], s["state"]["inc"], s["has_uint32"], s["uinteger"]


def stream_state(stream: PCG64Stream) -> tuple:
    return stream.state, stream.inc, stream.has_uint32, stream.uinteger


def words_drawn(before: tuple, after: tuple) -> int:
    """The 32-bit words a 32-bit draw took, counted on numpy's own PCG64:
    the LCG steps between the two states, two words each, plus the buffered
    word it started with, less the one it left."""
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                           "state": {"state": before[0], "inc": before[1]}}
    steps = 0
    while bit_generator.state["state"]["state"] != after[0]:
        bit_generator.random_raw()
        steps += 1
    return before[2] + 2 * steps - after[2]


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
    # One draw of every range hasim takes, and the word-size edges, across a
    # block boundary; each stream must carry nothing from the run before, and
    # ends in numpy's whole state, which fixes every later draw.
    n = BLOCK + 3
    for i, rng in enumerate(streams(2**32 - BLOCK, n)):
        want = np.random.default_rng(2**32 - BLOCK + i)
        assert [rng.integers(0, k) for k in HASIM_RANGES] == \
            [want.integers(0, k) for k in HASIM_RANGES]
        assert stream_state(rng) == numpy_state(want)
    assert i == n - 1
    with pytest.raises(ValueError):
        next(streams(-1, 1))


def test_the_stream_draws_and_leaves_state_as_numpy():
    # Each case three times from each seed's stream, against default_rng:
    # equal values and equal whole state after every draw. The rejection
    # loop must run, or the range of 2**31 + 1 tested nothing.
    first = 2**32 - BLOCK // 2
    runs = [(seeded(seed), seed) for seed in SEEDS]
    runs += [(stream, first + i) for i, stream in enumerate(streams(first, BLOCK))]
    rejected = 0
    for stream, seed in runs:
        want = np.random.default_rng(seed)
        assert stream_state(stream) == numpy_state(want)
        for low, high in CASES * 3:
            before = numpy_state(want)
            assert stream.integers(low, high) == want.integers(low, high), (seed, low, high)
            assert stream_state(stream) == numpy_state(want), (seed, low, high)
            if high - low == 2**31 + 1:
                rejected += words_drawn(before, numpy_state(want)) > 1
    assert rejected > 0


@pytest.mark.parametrize("low, high, message", [
    (0, 2**63 + 1, "high is out of bounds for int64"),
    (-2**63 - 1, 0, "low is out of bounds for int64"),
    (5, 5, "low >= high"),
    (6, 5, "low >= high"),
])
def test_the_stream_refuses_what_numpy_refuses(low, high, message):
    stream, want = seeded(1), np.random.default_rng(1)
    for rng in (stream, want):
        with pytest.raises(ValueError, match=message):
            rng.integers(low, high)
    assert stream_state(stream) == numpy_state(want) == stream_state(seeded(1))


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
