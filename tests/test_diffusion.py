from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timecent import (
    TVG,
    Contact,
    CoverageThreshold,
    TemporalNode,
    UNREACHED,
    build_tvg,
    constrained_count,
    cover_steps,
    diffuse,
    spread_milestones,
    spread_profile,
)
from conftest import random_tvg


def test_trace_micro_chain(chain4):
    trace = diffuse(chain4, TemporalNode(0, 0))
    assert trace.sizes == (1, 2, 3, 4)
    assert trace.exhausted
    assert trace.informed == {0, 1, 2, 3}


def test_trace_final_snapshot_delivers(chain4):
    trace = diffuse(chain4, TemporalNode(3, 2))
    assert trace.sizes == (1, 2)
    assert trace.exhausted
    assert trace.informed == {2, 3}


def test_trace_empty_snapshots_stay_at_one():
    tvg = build_tvg(5, 4, [])
    for node in range(5):
        for time in range(4):
            trace = diffuse(tvg, TemporalNode(node, time))
            assert set(trace.sizes) == {1}
            assert trace.exhausted


def test_no_growth_step_does_not_terminate():
    # a quiet snapshot in the middle must not end the diffusion
    tvg = build_tvg(3, 3, [Contact(0, 1, 0), Contact(1, 2, 2)])
    trace = diffuse(tvg, TemporalNode(0, 0))
    assert trace.sizes == (1, 2, 2, 3)
    assert trace.exhausted


def test_trace_threshold_stops_early(chain4):
    trace = diffuse(chain4, TemporalNode(0, 0), required_count=2)
    assert trace.sizes == (1, 2)
    assert not trace.exhausted


def test_trace_step_budget_stops(chain4):
    trace = diffuse(chain4, TemporalNode(0, 0), max_steps=1)
    assert trace.sizes == (1, 2)
    assert not trace.exhausted


def test_trace_invalid_start(chain4):
    with pytest.raises(ValueError):
        diffuse(chain4, TemporalNode(4, 0))
    with pytest.raises(ValueError):
        diffuse(chain4, TemporalNode(0, 3))


def test_threshold_exact_arithmetic():
    assert CoverageThreshold.of("0.1", 160).required_count == 16
    assert CoverageThreshold.of("0.5", 4).required_count == 2
    assert CoverageThreshold.of(Fraction(1, 3), 9).required_count == 3
    assert CoverageThreshold.of("0.34", 50).required_count == 17
    assert CoverageThreshold.of("1.0", 7).required_count == 7
    assert CoverageThreshold.of("0.001", 10).required_count == 1


def test_threshold_validation():
    with pytest.raises(ValueError):
        CoverageThreshold.of("0", 4)
    with pytest.raises(ValueError):
        CoverageThreshold.of("1.5", 4)
    with pytest.raises(ValueError):
        CoverageThreshold.of("0.5", 0)


def test_cover_steps_micro(chain4):
    assert cover_steps(chain4, TemporalNode(0, 0), CoverageThreshold.of("0.5", 4)) == 1
    assert cover_steps(chain4, TemporalNode(3, 2), CoverageThreshold.of("1.0", 4)) is UNREACHED


def test_cover_steps_threshold_of_one_is_zero(chain4):
    thr = CoverageThreshold.of(Fraction(1, 4), 4)
    assert thr.required_count == 1
    for node in range(4):
        for time in range(3):
            assert cover_steps(chain4, TemporalNode(node, time), thr) == 0


def test_constrained_count_micro(chain4):
    assert constrained_count(chain4, TemporalNode(0, 0), 1) == 2
    assert constrained_count(chain4, TemporalNode(2, 0), 1) == 1


def test_constrained_count_budget_never_binds(chain4):
    # phi >= N gives total temporal reachability from the start
    for node in range(4):
        full = diffuse(chain4, TemporalNode(node, 0)).sizes[-1]
        assert constrained_count(chain4, TemporalNode(node, 0), 3) == full
        assert constrained_count(chain4, TemporalNode(node, 0), 50) == full


def test_constrained_count_requires_positive_budget(chain4):
    with pytest.raises(ValueError):
        constrained_count(chain4, TemporalNode(0, 0), 0)


@st.composite
def tvg_strategy(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    big_n = draw(st.integers(min_value=1, max_value=8))
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    per_time = [
        draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs)))
        for _ in range(big_n)
    ]
    return TVG.from_snapshot_pairs(n, per_time)


@settings(max_examples=60, deadline=None)
@given(tvg_strategy(), st.data())
def test_sizes_monotone_and_bounded(tvg, data):
    node = data.draw(st.integers(min_value=0, max_value=tvg.num_nodes - 1))
    time = data.draw(st.integers(min_value=0, max_value=tvg.num_instants - 1))
    trace = diffuse(tvg, TemporalNode(node, time))
    assert trace.sizes[0] == 1
    assert len(trace.sizes) == tvg.num_instants - time + 1
    for prev, cur in zip(trace.sizes, trace.sizes[1:]):
        assert prev <= cur
    assert trace.sizes[-1] <= tvg.num_nodes


@settings(max_examples=60, deadline=None)
@given(tvg_strategy(), st.data())
def test_constrained_count_monotone_in_budget(tvg, data):
    node = data.draw(st.integers(min_value=0, max_value=tvg.num_nodes - 1))
    time = data.draw(st.integers(min_value=0, max_value=tvg.num_instants - 1))
    start = TemporalNode(node, time)
    counts = [constrained_count(tvg, start, phi) for phi in range(1, tvg.num_instants + 2)]
    for prev, cur in zip(counts, counts[1:]):
        assert prev <= cur


@settings(max_examples=60, deadline=None)
@given(tvg_strategy(), st.data())
def test_cover_steps_consistent_with_constrained_count(tvg, data):
    node = data.draw(st.integers(min_value=0, max_value=tvg.num_nodes - 1))
    time = data.draw(st.integers(min_value=0, max_value=tvg.num_instants - 1))
    start = TemporalNode(node, time)
    n = tvg.num_nodes
    for required in range(2, n + 1):
        thr = CoverageThreshold.of(Fraction(required, n), n)
        assert thr.required_count == required
        steps = cover_steps(tvg, start, thr)
        if steps is UNREACHED:
            continue
        assert steps >= 1
        assert constrained_count(tvg, start, steps) >= required
        if steps >= 2:
            assert constrained_count(tvg, start, steps - 1) < required


def test_milestones_match_per_start_diffusions():
    """The all-starts engine agrees with one diffusion per start node."""
    rng = random.Random(1234)
    for _ in range(120):
        tvg = random_tvg(rng, max_nodes=9, max_instants=10)
        time = rng.randrange(tvg.num_instants)
        milestones = spread_milestones(tvg, time)
        for u in range(tvg.num_nodes):
            profile = spread_profile(tvg, TemporalNode(u, time))
            expected = []
            seen = 0
            for step, mask in enumerate(profile):
                size = mask.bit_count()
                expected.extend([step] * (size - seen))
                seen = size
            assert milestones[u] == expected, (u, time)


def test_milestones_stop_count_truncates_consistently():
    rng = random.Random(77)
    for _ in range(60):
        tvg = random_tvg(rng, max_nodes=8, max_instants=9)
        time = rng.randrange(tvg.num_instants)
        stop = rng.randint(2, tvg.num_nodes)
        full = spread_milestones(tvg, time)
        stopped = spread_milestones(tvg, time, stop_count=stop)
        for u in range(tvg.num_nodes):
            if len(full[u]) >= stop:
                assert stopped[u][stop - 1] == full[u][stop - 1]
            else:
                assert len(stopped[u]) == len(full[u])


def test_milestones_max_steps_truncates_consistently():
    rng = random.Random(78)
    for _ in range(60):
        tvg = random_tvg(rng, max_nodes=8, max_instants=9)
        time = rng.randrange(tvg.num_instants)
        budget = rng.randint(1, tvg.num_instants)
        full = spread_milestones(tvg, time)
        capped = spread_milestones(tvg, time, max_steps=budget)
        for u in range(tvg.num_nodes):
            assert capped[u] == [s for s in full[u] if s <= budget]


def test_milestones_trivial_threshold():
    tvg = build_tvg(3, 2, [])
    assert spread_milestones(tvg, 0, stop_count=1) == [[0], [0], [0]]


def test_diffusion_ignores_snapshot_mutation_attempts(chain4):
    # the contact arrays are read-only; the engine sees a stable view
    with pytest.raises(ValueError, match="read-only"):
        chain4.snapshots[0].pairs[0, 1] = 3
    with pytest.raises(ValueError, match="read-only"):
        chain4.edges[0, 2] = 3
    assert list(chain4.snapshots[0].contact_list) == [(0, 1)]
