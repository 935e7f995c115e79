"""timecent.pcg against numpy.random itself: the baseline draw of compare
and the per-snapshot seeding of generate must equal numpy's, word for word."""

from __future__ import annotations

import random

import numpy as np
import pytest

from timecent.pcg import int_words, pcg64_seed, sample, seed_words

# one to five entropy words; 2^32 - 1 is the largest one-word seed, and past
# four words SeedSequence mixes the rest into its pool one word at a time
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**73, 2**128 + 9)


def numpy_sample(seed: int, population: int, size: int) -> list[int]:
    return np.random.default_rng(seed).choice(population, size=size, replace=False).tolist()


def sample_cases() -> list[tuple[int, int, int]]:
    """(seed, population, size) cases over both of numpy's branches."""
    edges = [
        (1, 1), (2, 1), (2, 2), (7, 7), (10, 1), (1000, 1), (1000, 1000),
        (20000, 400), (10000, 201),  # Floyd: size is not above population // 50, or 10000 is not above 10000
        (20000, 401), (12000, 241),  # the tail shuffle
        (3 * 2**30, 5), (2**31 + 2, 4),  # Lemire's method rejects a quarter to a half of its draws
        (2**32 - 1, 3),  # the largest population, so the largest bound Lemire's method takes
    ]
    cases = [(seed, m, k) for seed in SEEDS for m, k in edges]
    cases.append((2**64 + 5, 10001, 10001))  # the tail shuffle of everything
    rng = random.Random(28)
    while len(cases) < 2020:
        m = rng.choice((rng.randrange(1, 40), rng.randrange(1, 3000), rng.randrange(10001, 12000)))
        k = rng.randrange(1, min(m, 20) + 1)
        cases.append((rng.choice((*SEEDS, rng.randrange(2**rng.choice((8, 32, 40, 70))))), m, k))
    return cases


def test_sample_equals_numpy_choice_draw_for_draw():
    cases = sample_cases()
    tails = sum(m > 10000 and k > m // 50 for _, m, k in cases)
    assert tails >= 10 and len(cases) >= 2000
    for seed, m, k in cases:
        assert sample(seed, m, k) == numpy_sample(seed, m, k), (seed, m, k)


def test_sample_accepts_any_integer_seed_and_refuses_the_rest():
    assert sample(np.int64(7), np.int32(40), 5) == numpy_sample(7, 40, 5)
    assert sample(3, 0, 0) == []
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="non-negative"):
        sample(-1, 10, 1)
    for seed in (None, 1.0, "1"):  # no draw from OS entropy for None
        with pytest.raises(TypeError):
            sample(seed, 10, 1)
    for m, k in ((3, 4), (3, -1)):
        with pytest.raises(ValueError):
            numpy_sample(1, m, k)
        with pytest.raises(ValueError):
            sample(1, m, k)
    with pytest.raises(ValueError):  # 64-bit bounds are not implemented
        sample(1, 2**32, 1)


@pytest.mark.filterwarnings("error")  # an overflowing numpy scalar op warns
def test_seeding_hashes_instants_at_once_as_seed_sequence_does():
    instants = (0, 1, 799, 2**23 - 1)
    for seed, width in ((1, 1), (2**32 + 3, 2), (2**64 + 5, 3), (2**96 + 7, 4)):
        assert len(int_words(seed)) == width
        words = np.array(seed_words([*int_words(seed), np.array(instants, dtype=np.uint32)]))
        assert words.shape == (8, len(instants)) and words.dtype == np.uint32
        for column, i in enumerate(instants):
            state = np.random.PCG64(np.random.SeedSequence((seed, i))).state["state"]
            expected = (state["state"], state["inc"])
            assert pcg64_seed(words[:, column].tolist()) == expected, (seed, i)
            assert pcg64_seed(seed_words([*int_words(seed), i])) == expected, (seed, i)
