"""hasim's random streams: numpy's PCG64 draws, in Python ints.

hasim takes one kind of draw, `integers(low, high)` over an int64 range.
`PCG64Stream` is numpy's PCG64 bit generator (O'Neill 2014: a 128-bit LCG
step, then the XSL-RR output) under numpy's bounded-integer rule (Lemire
2019), so it returns exactly what `np.random.Generator.integers(low, high)`
returns and leaves the same state, and a run makes no numpy call to draw.
numpy still seeds: `seeded(seed)` starts at the state
`np.random.default_rng(seed)` starts from.

`streams(seed, n)` yields the stream of `np.random.default_rng(seed + i)`
for run i of a batch. Building a generator hashes its seed through numpy's
SeedSequence, which costs more than a one-host episode's own draws, so
`pcg64_states` derives the states of a block of consecutive seeds in one
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
_W64 = (1 << 64) - 1
_W128 = (1 << 128) - 1
_INT64_END = 1 << 63  # int64 draws lie in [-_INT64_END, _INT64_END)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class PCG64Stream:
    """numpy's PCG64 with `Generator.integers(low, high)` (int64, no size).

    `state`, `inc`, `has_uint32` and `uinteger` are the fields of
    `PCG64().state`: the LCG state and increment, and the unused half of
    the last 64-bit word that a 32-bit draw left.
    """

    __slots__ = ("state", "inc", "has_uint32", "uinteger")

    def __init__(self, state: int, inc: int):
        self.state, self.inc = state, inc
        self.has_uint32 = self.uinteger = 0

    def _next64(self) -> int:
        """Step the LCG, then XSL-RR: the state's halves xored, rotated right
        by its top six bits."""
        state = self.state = (self.state * _PCG64_MULT + self.inc) & _W128
        x = state >> 64 ^ state & _W64
        return (x << 64 | x) >> (state >> 122) & _W64

    def _next32(self) -> int:
        """The half-word left by the last 32-bit draw, else the low half of
        a new word, keeping its high half."""
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        word = self._next64()
        self.has_uint32, self.uinteger = 1, word >> 32
        return word & _W32

    def integers(self, low: int, high: int) -> int:
        """A uniform int in [low, high), drawn as numpy draws it: nothing for
        one value, a 32-bit draw for up to 2**32 values, else a 64-bit one."""
        if high > _INT64_END:
            raise ValueError("high is out of bounds for int64")
        if low < -_INT64_END:
            raise ValueError("low is out of bounds for int64")
        n = high - low
        if n <= 1:
            if n < 1:
                raise ValueError("low >= high")
            return low
        if n <= 1 << 32:
            return low + _lemire(self._next32, n, 32)
        return low + _lemire(self._next64, n, 64)


def _lemire(draw, n: int, bits: int) -> int:
    """Lemire's unbiased [0, n) from words of `bits` bits: the high part of
    word * n, drawn again while its low part falls below 2**bits mod n.
    n = 2**bits takes the word as it is."""
    if n == 1 << bits:
        return draw()
    m = draw() * n
    threshold = (1 << bits) % n
    while m & (1 << bits) - 1 < threshold:
        m = draw() * n
    return m >> bits


def seeded(seed: int) -> PCG64Stream:
    """The stream `np.random.default_rng(seed)` starts, seeded by numpy."""
    state = np.random.PCG64(seed).state["state"]
    return PCG64Stream(state["state"], state["inc"])


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


def streams(seed: int, n: int) -> Iterator[PCG64Stream]:
    """Yield n streams, the i-th in the state of `np.random.default_rng(seed + i)`."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    for first in range(seed, seed + n, BLOCK):
        for state, inc in zip(*pcg64_states(first, min(BLOCK, seed + n - first))):
            yield PCG64Stream(state, inc)
