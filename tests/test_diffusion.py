from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timecent import (
    INF,
    TVG,
    CoverageThreshold,
    MetricSpec,
    TemporalNode,
    cover_time,
    expand,
    metric_sweep,
    oracle_reach,
    reach_profile,
    spread_milestones,
    tcc,
)
from timecent import centrality
from timecent.centrality import earliest_arrivals
from conftest import milestones_of, random_tvg


def arrivals_at(tvg: TVG, t: int) -> list[list[int]]:
    """Rows of the earliest-arrival matrix of instant t, from the backward pass."""
    _, arrival, _ = next(earliest_arrivals(tvg, t, t + 1, tvg.num_instants - 1))
    return arrival.tolist()


def sweep_values(tvg: TVG, metric: MetricSpec) -> dict:
    return metric_sweep(tvg, metric, (0, tvg.num_instants)).values


def test_trace_micro_chain(chain4):
    assert spread_milestones(chain4, 0)[0] == [0, 1, 2, 3]
    # node v joins the flood from (0, t0) after consuming snapshot E[0, v]
    assert arrivals_at(chain4, 0)[0] == [-1, 0, 1, 2]


def test_trace_final_snapshot_delivers(chain4):
    assert spread_milestones(chain4, 2)[3] == [0, 1]
    assert arrivals_at(chain4, 2)[3][2] == 2
    # at t2 starts 2 and 3 each inform two nodes within one step, 0 and 1 one each
    assert sweep_values(chain4, MetricSpec.tcc(1))[2] == Fraction(6, 16)


def test_trace_empty_snapshots_stay_at_one():
    tvg = TVG(5, 4, [])
    for time in range(4):
        assert spread_milestones(tvg, time) == [[0]] * 5
    assert set(sweep_values(tvg, MetricSpec.tcc(4)).values()) == {Fraction(1, 5)}
    assert set(sweep_values(tvg, MetricSpec.ct("0.2")).values()) == {0}
    table = metric_sweep(tvg, MetricSpec.ct("0.4"), (0, 4))
    assert set(table.values.values()) == {INF}
    assert set(table.unreached_starts.values()) == {5}


def test_no_growth_step_does_not_terminate():
    # a quiet snapshot in the middle must not end the diffusion
    tvg = TVG(3, 3, [(0, 0, 1), (2, 1, 2)])
    assert spread_milestones(tvg, 0)[0] == [0, 1, 3]
    assert arrivals_at(tvg, 0)[0] == [-1, 0, 2]
    # starts 0 and 1 inform a second node at step 1, start 2 only at step 3
    assert sweep_values(tvg, MetricSpec.ct(Fraction(2, 3)))[0] == Fraction(5, 3)


def test_trace_threshold_stops_early():
    # every start informs two nodes at t0, so ct tau=0.5 ends before t1's contact;
    # the milestone lists still run to the last snapshot
    tvg = TVG(4, 2, [(0, 0, 1), (0, 2, 3), (1, 1, 2)])
    assert spread_milestones(tvg, 0)[0] == [0, 1, 2]
    assert spread_milestones(tvg, 0, stop_count=2) == spread_milestones(tvg, 0)
    assert sweep_values(tvg, MetricSpec.ct("0.5"))[0] == 1


def test_trace_step_budget_stops(chain4):
    assert [s for s in spread_milestones(chain4, 0)[0] if s <= 1] == [0, 1]
    assert sweep_values(chain4, MetricSpec.tcc(1))[0] == Fraction(3, 8)


def test_trace_invalid_start(chain4):
    for time in (-1, 3):
        with pytest.raises(ValueError):
            spread_milestones(chain4, time)
        with pytest.raises(ValueError):
            cover_time(chain4, time, "0.5")
        with pytest.raises(ValueError):
            tcc(chain4, time, 1)


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


def test_milestones_cover_micro(chain4):
    # (0, t0) informs its second node at step 1; (3, t2) never informs all four
    assert spread_milestones(chain4, 0)[0][1] == 1
    assert len(spread_milestones(chain4, 2)[3]) < 4
    table = metric_sweep(chain4, MetricSpec.ct("1.0"), (0, 3))
    assert table.values[2] == INF
    assert table.unreached_starts[2] == 4


def test_threshold_of_one_is_met_at_step_zero(chain4):
    assert CoverageThreshold.of(Fraction(1, 4), 4).required_count == 1
    for time in range(3):
        assert cover_time(chain4, time, Fraction(1, 4)) == 0
    assert set(sweep_values(chain4, MetricSpec.ct(Fraction(1, 4))).values()) == {0}


def test_coverage_micro(chain4):
    # within one step from t0: starts 0 and 1 inform two nodes, 2 and 3 one
    assert [sum(s <= 1 for s in m) for m in spread_milestones(chain4, 0)] == [2, 2, 1, 1]


def test_coverage_budget_never_binds(chain4):
    # phi >= N gives total temporal reachability from the start
    for time in range(3):
        full = Fraction(sum(len(m) for m in spread_milestones(chain4, time)), 16)
        assert tcc(chain4, time, 3) == full
        assert tcc(chain4, time, 50) == full
    assert sweep_values(chain4, MetricSpec.tcc(50)) == sweep_values(chain4, MetricSpec.tcc(3))


def test_tcc_requires_positive_budget(chain4):
    with pytest.raises(ValueError):
        tcc(chain4, 0, 0)
    with pytest.raises(ValueError):
        MetricSpec.tcc(0)


@st.composite
def tvg_strategy(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    big_n = draw(st.integers(min_value=1, max_value=8))
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rows = [
        (t, a, b)
        for t in range(big_n)
        for a, b in draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs)))
    ]
    return TVG(n, big_n, rows)


@settings(max_examples=60, deadline=None)
@given(tvg_strategy(), st.data())
def test_sizes_monotone_and_bounded(tvg, data):
    time = data.draw(st.integers(min_value=0, max_value=tvg.num_instants - 1))
    for milestones in spread_milestones(tvg, time):
        assert milestones[0] == 0
        for prev, cur in zip(milestones, milestones[1:]):
            assert prev <= cur
        assert len(milestones) <= tvg.num_nodes
        assert milestones[-1] <= tvg.num_instants - time


@settings(max_examples=60, deadline=None)
@given(tvg_strategy(), st.data())
def test_coverage_monotone_in_budget(tvg, data):
    time = data.draw(st.integers(min_value=0, max_value=tvg.num_instants - 1))
    full = spread_milestones(tvg, time)
    counts = [[sum(s <= phi for s in m) for m in full] for phi in range(1, tvg.num_instants + 2)]
    for prev, cur in zip(counts, counts[1:]):
        assert all(p <= c for p, c in zip(prev, cur))


@settings(max_examples=60, deadline=None)
@given(tvg_strategy(), st.data())
def test_cover_step_consistent_with_coverage(tvg, data):
    time = data.draw(st.integers(min_value=0, max_value=tvg.num_instants - 1))
    n = tvg.num_nodes
    g = expand(tvg)
    for required in range(2, n + 1):
        thr = CoverageThreshold.of(Fraction(required, n), n)
        assert thr.required_count == required
        for u, m in enumerate(spread_milestones(tvg, time, stop_count=required)):
            if len(m) < required:
                continue
            # the cover step is the oracle's: met after it, short of it one step earlier
            steps = m[required - 1]
            assert steps >= 1
            assert len(oracle_reach(g, TemporalNode(u, time), steps)) >= required
            assert len(oracle_reach(g, TemporalNode(u, time), steps - 1)) < required


def test_milestones_match_per_start_diffusions():
    """The all-starts engine agrees with the oracle's diffusion per start node."""
    rng = random.Random(1234)
    for _ in range(120):
        tvg = random_tvg(rng, max_nodes=9, max_instants=10)
        g = expand(tvg)
        time = rng.randrange(tvg.num_instants)
        milestones = spread_milestones(tvg, time)
        for u in range(tvg.num_nodes):
            expected = milestones_of(reach_profile(g, TemporalNode(u, time)))
            assert milestones[u] == expected, (u, time)


def test_milestones_ignore_stop_count():
    rng = random.Random(77)
    for _ in range(60):
        tvg = random_tvg(rng, max_nodes=8, max_instants=9)
        time = rng.randrange(tvg.num_instants)
        stop = rng.randint(2, tvg.num_nodes)
        assert spread_milestones(tvg, time, stop_count=stop) == spread_milestones(tvg, time)


def test_stop_count_reads_one_pass_to_the_last_snapshot(monkeypatch):
    """With stop_count, one earliest_arrivals pass still gives the oracle's
    full milestone lists, through the last snapshot."""
    passes = []
    real = centrality.earliest_arrivals

    def counted(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(centrality, "earliest_arrivals", counted)
    rng = random.Random(606)
    for _ in range(150):
        tvg = random_tvg(rng, max_nodes=8, max_instants=40)
        time = rng.randrange(tvg.num_instants)
        n = tvg.num_nodes
        stop = rng.randint(2, n)
        g = expand(tvg)
        full = [milestones_of(reach_profile(g, TemporalNode(u, time))) for u in range(n)]
        passes.clear()
        assert spread_milestones(tvg, time, stop_count=stop) == full, (tvg, time, stop)
        assert len(passes) == 1


def test_milestones_trivial_threshold():
    tvg = TVG(3, 2, [])
    assert spread_milestones(tvg, 0, stop_count=1) == [[0], [0], [0]]


def test_diffusion_ignores_snapshot_mutation_attempts(chain4):
    # the contact arrays are read-only; the engine sees a stable view
    with pytest.raises(ValueError, match="read-only"):
        chain4.snapshots[0].pairs[0, 1] = 3
    with pytest.raises(ValueError, match="read-only"):
        chain4.edges[0, 2] = 3
    assert list(chain4.snapshots[0].contact_list) == [(0, 1)]
