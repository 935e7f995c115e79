"""numpy's seeding and its small draw without replacement, in Python ints.

Nothing here imports numpy, yet every word equals numpy's: seed_words is
SeedSequence's hash, on Python ints or on uint32 arrays that hash many
entropies at once; pcg64_seed is how numpy seeds O'Neill's PCG64 (2014)
from it; and sample(seed, m, k) equals
numpy.random.default_rng(seed).choice(m, size=k, replace=False).tolist()
draw for draw, with Lemire's bounded integers (ACM TOMACS 2019).
"""

from __future__ import annotations

import operator
from typing import Iterator

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL = 4  # SeedSequence's default pool size, in words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def int_words(n: int) -> list[int]:
    """SeedSequence's 32-bit words of an integer n >= 0, lowest first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("seed must be non-negative")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix, whose multiplier steps by `mult` per call."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def seed_words(entropy: list) -> list:
    """SeedSequence(entropy).generate_state(8), with no spawn key. A word is
    a Python int below 2^32 or a uint32 array; every product is masked to
    32 bits, so both wrap alike, and an array hashes each of its elements."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        value = ((x * _MIX_L & _MASK32) - (y * _MIX_R & _MASK32)) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = _hasher(_INIT_B, _MULT_B)
    return [out(pool[i % _POOL]) for i in range(8)]


def pcg64_seed(words: list[int]) -> tuple[int, int]:
    """The (state, inc) of numpy's PCG64 seeded with 8 hashed words: they are
    four little-endian uint64 v, and numpy seeds with state v0:v1 and
    sequence v2:v3 (pcg_setseq_128_srandom_r)."""
    v = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    inc = (v[2] << 64 | v[3]) << 1 & _MASK128 | 1
    return ((inc + (v[0] << 64 | v[1])) * _PCG_MULT + inc) & _MASK128, inc


def _next32(state: int, inc: int) -> Iterator[int]:
    """numpy's PCG64 next32: the low half of an XSL-RR output, then its
    buffered high half."""
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        x = (x >> rot | x << (-rot & 63)) & _MASK64
        yield x & _MASK32
        yield x >> 32


def sample(seed: int, population: int, size: int) -> list[int]:
    """numpy's default_rng(seed).choice(population, size=size, replace=False)
    as a list, for a population below 2^32."""
    population, size = operator.index(population), operator.index(size)
    if not 0 <= size <= population <= _MASK32:
        raise ValueError(f"cannot sample {size} of {population} without replacement")
    draws = _next32(*pcg64_seed(seed_words(int_words(seed))))

    def bounded(top: int) -> int:  # uniform in [0, top], by Lemire's method
        if top == 0:
            return 0
        m = next(draws) * (top + 1)
        if m & _MASK32 <= top:
            threshold = (1 << 32) % (top + 1)
            while m & _MASK32 < threshold:
                m = next(draws) * (top + 1)
        return m >> 32

    if population > 10000 and size > population // 50:
        # numpy shuffles the tail of range(population); here only moved entries are kept
        moved: dict[int, int] = {}
        for i in range(population - 1, max(population - size, 1) - 1, -1):
            j = bounded(i)
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        return [moved.get(i, i) for i in range(population - size, population)]
    # Floyd's algorithm, then a shuffle; numpy's hash set answers as a set does
    picks, seen = [], set()
    for j in range(population - size, population):
        value = bounded(j)
        picks.append(j if value in seen else value)
        seen.add(picks[-1])
    for i in range(size - 1, 0, -1):
        j = bounded(i)
        picks[i], picks[j] = picks[j], picks[i]
    return picks
