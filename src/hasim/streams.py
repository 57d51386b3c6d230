"""The random stream of run i in a batch: exactly `np.random.default_rng(seed + i)`.

Building a generator hashes its seed through numpy's SeedSequence, which costs
more than a one-host episode's own draws. `streams` keeps one PCG64 generator
and sets it, run after run, to the state `default_rng(seed + i)` starts from.
`pcg64_states` derives those states for a block of consecutive seeds in one
vectorised numpy pass: SeedSequence's hash (a pool of four 32-bit words, and
a seed of any number of words), then PCG64's 128-bit seeding step on object
arrays of Python integers.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

BLOCK = 256  # seeds whose states are held at a time
_POOL = 4
_W32 = 0xFFFFFFFF
_W128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on 32-bit words held in uint64 arrays; its
    multiplier advances at every call."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _W32
        value = value * const & _W32
        return value ^ value >> 16
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = (x * 0xCA01F9DD - y * 0x4973F715) & _W32
    return r ^ r >> 16


def pcg64_states(first: int, count: int) -> tuple[list[int], list[int]]:
    """The PCG64 (state, inc) pairs of seeds first .. first + count - 1."""
    n_words = max(_POOL, -(-(first + count - 1).bit_length() // 32))
    words, carry = [], np.arange(count, dtype=np.uint64)
    for k in range(n_words):  # the seeds' 32-bit words, least significant first
        total = carry + (first >> 32 * k & _W32)
        words.append(total & _W32)
        carry = total >> 32
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[k]) for k in range(_POOL)]  # a zero word pads alike
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, n_words):  # a word beyond the pool mixes into every word
        has = min(count, max(0, (1 << 32 * src) - first))  # the first seed with that word
        for p in pool:
            p[has:] = _mix(p[has:], hashmix(words[src][has:]))
    hashout = _hasher(0x8B51F9DD, 0x58F38DED)
    w = [hashout(pool[k % _POOL]) for k in range(8)]
    # generate_state(4, np.uint64) gives the initial state and stream; PCG64's
    # seeding steps the LCG from 0, adds the initial state and steps again.
    u = [(w[k] | w[k + 1] << 32).astype(object) for k in range(0, 8, 2)]
    inc = (u[2] << 65 | u[3] << 1 | 1) & _W128
    return (((u[0] << 64 | u[1]) + inc) * _PCG64_MULT + inc & _W128).tolist(), inc.tolist()


def streams(seed: int, n: int) -> Iterator[np.random.Generator]:
    """Yield one generator n times, the i-th time in the state of
    `np.random.default_rng(seed + i)`. Finish with it before the next."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(0)
    bit_generator = rng.bit_generator
    for first in range(seed, seed + n, BLOCK):
        for state, inc in zip(*pcg64_states(first, min(BLOCK, seed + n - first))):
            bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
            yield rng
