from __future__ import annotations

import io
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timecent import (
    INF,
    ErTvgSpec,
    IngestConfig,
    MetricSpec,
    MetricTable,
    TVG,
    TemporalNode,
    check_top_k,
    compare_topk_random,
    cover_time,
    default_eval_range,
    discretize_with_stats,
    empirical_distribution,
    expand,
    generate_er_tvg,
    median,
    metric_sweep,
    oracle_reach,
    parse_contacts,
    rank_instants,
    reach_profile,
    reference_spec,
    spread_milestones,
    tcc,
)
from timecent import centrality
from timecent.centrality import earliest_arrivals
from timecent.tables import (
    comparison_summary,
    format_value,
    group_stats,
    is_inf,
    read_table_csv,
    write_comparison_csv,
    write_distribution_csv,
    write_table_csv,
)
from timecent.tvg import MAX_SWEEP_NODES
from conftest import random_tvg
from edge_markovian import edge_markovian_rows


def table_of(values, metric=None, unreached=None):
    return MetricTable(metric, dict(values), unreached or {})


def test_cover_time_micro_exact(chain4):
    assert cover_time(chain4, 0, "0.5") == Fraction(7, 4)
    assert cover_time(chain4, 0, Fraction(1, 2)) == Fraction(7, 4)


def test_cover_time_rejects_invalid_tau(chain4):
    for tau in ("0", "1.5", "-0.5", "x", Fraction(0)):
        with pytest.raises(ValueError, match="tau"):
            cover_time(chain4, 0, tau)


def test_cover_time_inf_when_any_start_fails(chain4):
    assert cover_time(chain4, 2, "1.0") == INF


def test_cover_time_zero_when_one_node_suffices(chain4):
    for t_i in range(3):
        assert cover_time(chain4, t_i, Fraction(1, 4)) == 0


def test_tcc_micro_exact(chain4):
    assert tcc(chain4, 0, 1) == Fraction(3, 8)


def test_tcc_all_empty_snapshots_is_one_over_v():
    tvg = TVG(5, 3, [])
    for t_i in range(3):
        for phi in (1, 2, 9):
            assert tcc(tvg, t_i, phi) == Fraction(1, 5)


def test_tcc_complete_snapshot_saturates():
    tvg = TVG(4, 1, [(0, a, b) for a in range(4) for b in range(a + 1, 4)])
    assert tcc(tvg, 0, 1) == 1


def test_tcc_bounds_random():
    rng = random.Random(55)
    for _ in range(30):
        tvg = random_tvg(rng)
        t_i = rng.randrange(tvg.num_instants)
        phi = rng.randint(1, tvg.num_instants + 1)
        value = tcc(tvg, t_i, phi)
        assert Fraction(1, tvg.num_nodes) <= value <= 1


def test_values_are_exact_fractions_and_inf_is_math_inf():
    # a float count / n**2 equals the exact value wherever that is dyadic, and
    # writes the same CSV text there: only the type tells the two apart
    rng = random.Random(4242)  # the corpus of the sweep-against-oracle test below
    kinds = {"fraction": 0, "inf": 0}
    for _ in range(80):
        tvg = random_tvg(rng)
        n, big_n = tvg.num_nodes, tvg.num_instants
        t_i = rng.randrange(big_n)
        values = [cover_time(tvg, t_i, Fraction(r, n)) for r in range(1, n + 1)]
        values += [tcc(tvg, t_i, phi) for phi in range(1, big_n + 2)]
        for r in range(1, n + 1):
            values += metric_sweep(tvg, MetricSpec.ct(Fraction(r, n)), (0, big_n)).values.values()
        for phi in range(1, big_n + 2):
            values += metric_sweep(tvg, MetricSpec.tcc(phi), (0, big_n)).values.values()
        for value in values:
            if type(value) is Fraction:
                kinds["fraction"] += 1
            else:
                assert type(value) is float and value == math.inf, (tvg, value)
                kinds["inf"] += 1
    assert INF is math.inf
    assert min(kinds.values()) > 1000, kinds


def test_metric_sweep_ct_micro(chain4):
    table = metric_sweep(chain4, MetricSpec.ct("0.5"), (0, 3))
    assert table.values == {0: Fraction(7, 4), 1: INF, 2: INF}
    # start a never meets 2 nodes from t1 or t2; everyone else does from t1
    assert table.unreached_starts == {0: 0, 1: 1, 2: 2}


def _assert_sweeps_match_oracle(tvg, first, last):
    """metric_sweep over [first, last) equals ct and tcc derived from the
    oracle's reach profiles, for every threshold r/n and every budget 1..N+1."""
    n = tvg.num_nodes
    g = expand(tvg)
    # informed counts per instant, start and budget 0 .. N - t
    counts = {
        t_i: [[len(s) for s in reach_profile(g, TemporalNode(u, t_i))] for u in range(n)]
        for t_i in range(first, last)
    }
    for r in range(1, n + 1):
        table = metric_sweep(tvg, MetricSpec.ct(Fraction(r, n)), (first, last))
        assert table.times() == list(range(first, last))
        for t_i, rows in counts.items():
            cover = [next((s for s, c in enumerate(row) if c >= r), None) for row in rows]
            unreached = cover.count(None)
            value = INF if unreached else Fraction(sum(cover), n)
            assert table.values[t_i] == value, (r, t_i)
            assert table.unreached_starts[t_i] == unreached, (r, t_i)
    for phi in range(1, tvg.num_instants + 2):
        table = metric_sweep(tvg, MetricSpec.tcc(phi), (first, last))
        for t_i, rows in counts.items():
            value = Fraction(sum(row[min(phi, len(row) - 1)] for row in rows), n * n)
            assert table.values[t_i] == value, (phi, t_i)
            assert table.unreached_starts[t_i] == 0


def test_metric_sweep_equals_per_instant_results_random(monkeypatch):
    rng = random.Random(4242)
    for _ in range(80):
        tvg = random_tvg(rng)
        first = rng.randrange(tvg.num_instants)
        last = rng.randint(first + 1, tvg.num_instants)
        _assert_sweeps_match_oracle(tvg, first, last)
    # ranges that end well before the last instant, where a ct pass stops
    # before the last snapshot when every start of the range's last instant
    # meets the threshold
    early = 0
    for _ in range(40):
        tvg = random_tvg(rng, max_nodes=8, max_instants=36)
        last = rng.randint(1, max(1, tvg.num_instants // 3))
        first = rng.randrange(last)
        _assert_sweeps_match_oracle(tvg, first, last)
        tops = _assert_ct_tops_follow_the_oracle(tvg, first, last, monkeypatch)
        early += any(tops[r] < tvg.num_instants - 1 for r in range(2, tvg.num_nodes + 1))
    assert early >= 10


def _assert_ct_tops_follow_the_oracle(tvg, first, last, monkeypatch):
    """The tops of the passes a ct sweep of [first, last) runs for count r
    are last - 2 + 1, 4, 16, ... up to the first that reaches the latest
    snapshot at which an oracle reach profile from last - 1 holds r nodes,
    each capped at the last snapshot, where the rounds also end when a
    start never holds r nodes. Returns the final top by r."""
    g = expand(tvg)
    n, limit = tvg.num_nodes, tvg.num_instants - 1
    rows = [[len(s) for s in reach_profile(g, TemporalNode(u, last - 1))] for u in range(n)]
    tops = []
    real = centrality.earliest_arrivals

    def recorded(tvg, first, last, top):
        tops.append(top)
        return real(tvg, first, last, top)

    monkeypatch.setattr(centrality, "earliest_arrivals", recorded)
    final = {}
    for r in range(1, n + 1):
        steps = [next((s for s, c in enumerate(row) if c >= r), None) for row in rows]
        # step s reads snapshot last - 2 + s
        latest = math.inf if None in steps else last - 2 + max(steps)
        expected = [min(last - 2 + 4**k, limit) for k in range(limit + 1)]
        expected = expected[: next(i for i, top in enumerate(expected) if top >= min(latest, limit)) + 1]
        tops.clear()
        metric_sweep(tvg, MetricSpec.ct(Fraction(r, n)), (first, last))
        assert tops == expected, (r, first, last, tvg)
        final[r] = tops[-1]
    monkeypatch.undo()
    return final


def test_ct_sweep_whose_first_round_meets_need_runs_one_pass(monkeypatch):
    # snapshot 2 is complete: every start at instant 2 informs all 4 nodes by snapshot 2
    tvg = TVG(4, 10, [(2, a, b) for a in range(4) for b in range(a + 1, 4)])
    passes = []
    real = centrality.earliest_arrivals

    def recorded(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(centrality, "earliest_arrivals", recorded)
    table = metric_sweep(tvg, MetricSpec.ct("1"), (0, 3))
    assert passes == [(tvg, 0, 3, 2)]
    assert table.values == {0: 3, 1: 2, 2: 1}


def test_metric_sweep_equals_per_instant_results_degenerate():
    for tvg in (TVG(1, 4, []), TVG(5, 6, []), TVG(2, 1, [(0, 0, 1)])):
        for first in range(tvg.num_instants):
            for last in range(first + 1, tvg.num_instants + 1):
                _assert_sweeps_match_oracle(tvg, first, last)


def test_metric_sweep_tcc_bounds(chain4):
    table = metric_sweep(chain4, MetricSpec.tcc(2), (0, 3))
    for value in table.values.values():
        assert Fraction(1, 4) <= value <= 1


def test_metric_sweep_rejects_empty_node_set():
    empty, _ = discretize_with_stats(parse_contacts([]), IngestConfig(30, 0, 59))
    with pytest.raises(ValueError, match="no nodes"):
        metric_sweep(empty, MetricSpec.tcc(1), (0, 2))
    with pytest.raises(ValueError, match="no nodes"):
        tcc(empty, 0, 1)
    with pytest.raises(ValueError, match="no nodes"):
        cover_time(empty, 0, "0.5")


def test_metric_sweep_and_single_instant_metrics_refuse_nodes_over_the_cap():
    # the pass holds an n x n matrix; every metric refuses before allocating it
    tvg = TVG(MAX_SWEEP_NODES + 1, 2, [(0, 0, 1)])
    calls = (
        lambda: metric_sweep(tvg, MetricSpec.tcc(1), (0, 2)),
        lambda: metric_sweep(tvg, MetricSpec.ct("0.5"), (0, 1)),
        lambda: tcc(tvg, 0, 1),
        lambda: cover_time(tvg, 0, "0.5"),
        lambda: spread_milestones(tvg, 0),
    )
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(ValueError, match="8192"):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_single_instant_metrics_hold_memory_near_one_arrival_matrix():
    # 2048 nodes: one int16 arrival matrix is 8 MiB; 512 contacts per snapshot over all
    # nodes, then 2048 among 800 nodes, so that tcc copies the 800 active rows (3.2 MB)
    rng = random.Random(7)
    n, big_n = 2048, 12
    for spread, contacts in ((n, n // 4), (800, n)):
        rows = {(t, *sorted(rng.sample(range(spread), 2))) for t in range(big_n) for _ in range(contacts)}
        tvg = TVG(n, big_n, sorted(rows))
        for call in (
            lambda: cover_time(tvg, 1, "0.5"),
            lambda: tcc(tvg, 1, 3),
        ):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 20 * 2**20, spread


def test_ct_sweep_holds_no_partitioned_copy_into_the_next_snapshot():
    # 2048 nodes, three perfect matchings per instant: every node has contacts,
    # so a pass holds the int16 matrix, all its rows and one neighbour gather (3x)
    rng = random.Random(3)
    n, big_n = 2048, 6
    rows = []
    for t in range(big_n):
        for _ in range(3):
            order = rng.sample(range(n), n)
            rows += [(t, *sorted(order[i : i + 2])) for i in range(0, n, 2)]
    tvg = TVG(n, big_n, rows)
    tracemalloc.start()
    try:
        metric_sweep(tvg, MetricSpec.ct("0.5"), (0, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * n * 2


def test_long_dense_sweep_lays_out_a_bounded_number_of_contacts():
    # 256 nodes, three perfect matchings per instant, 191k contacts in 500
    # instants, swept over 480. Laying out 1024 snapshots at once peaked at
    # 19.2 MiB; chunks of at most _ARCS = 2^16 contacts at 7.5, at 6.9-7.0
    # (about 110 B per contact) once each layout array was dropped when dead,
    # and at 5.9-6.0 once the second key was built in place and no chunk's
    # node column was held through the next layout (8.0 and 26.0 MiB at 1024
    # and 2048 nodes, from 9.0 and 27.0).
    rng = np.random.default_rng(3)
    n, big_n = 256, 500
    pairs = np.sort([rng.permutation(n).reshape(-1, 2) for _ in range(3 * big_n)], axis=2)
    times = np.repeat(np.arange(big_n), 3 * n // 2)
    tvg = TVG(n, big_n, np.column_stack((times, pairs.reshape(-1, 2))))
    for spec in (MetricSpec.tcc(10), MetricSpec.ct("0.5")):
        tracemalloc.start()
        try:
            metric_sweep(tvg, spec, (0, 480))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, spec


def test_metric_sweep_range_validation(chain4):
    with pytest.raises(ValueError):
        metric_sweep(chain4, MetricSpec.tcc(1), (0, 9))
    with pytest.raises(ValueError):
        metric_sweep(chain4, MetricSpec.tcc(1), (2, 2))


def test_metric_sweep_default_range_prefix():
    tvg = TVG(2, 8, [])
    table = metric_sweep(tvg, MetricSpec.tcc(1))
    assert table.times() == list(range(7))  # ceil(0.825 * 8)


def test_default_eval_range_examples():
    assert default_eval_range(800) == (0, 660)
    assert default_eval_range(40320) == (0, 33264)
    assert default_eval_range(1) == (0, 1)


def test_metric_spec_validation():
    with pytest.raises(ValueError):
        MetricSpec.ct("0")
    with pytest.raises(ValueError):
        MetricSpec.ct("1.5")
    with pytest.raises(ValueError):
        MetricSpec.tcc(0)


def test_rank_ct_ascending_inf_last():
    table = table_of({0: Fraction(5), 1: Fraction(3), 2: INF}, MetricSpec.ct("0.5"))
    assert rank_instants(table, 2) == [(1, Fraction(3)), (0, Fraction(5))]
    assert rank_instants(table, 3)[-1] == (2, INF)


def test_rank_tcc_descending_tie_by_time():
    table = table_of({0: Fraction(1, 5), 1: Fraction(1, 5)}, MetricSpec.tcc(2))
    assert rank_instants(table, 2) == [(0, Fraction(1, 5)), (1, Fraction(1, 5))]


def test_rank_k_validation(chain4):
    table = table_of({0: Fraction(1)}, MetricSpec.ct("0.5"))
    with pytest.raises(ValueError):
        rank_instants(table, 0)


def test_rank_boundary_separates_topk_from_rest():
    rng = random.Random(23)
    ct_values = {t: (INF if rng.random() < 0.2 else Fraction(rng.randint(0, 20), 3))
                 for t in range(50)}
    ct_table = table_of(ct_values, MetricSpec.ct("0.5"))
    top = rank_instants(ct_table, 12)
    rest = [v for t, v in ct_values.items() if t not in {ti for ti, _ in top}]
    for _, v in top:
        assert all(v <= r for r in rest)  # inf compares above every Fraction

    tcc_values = {t: Fraction(rng.randint(1, 30), 30) for t in range(50)}
    tcc_table = table_of(tcc_values, MetricSpec.tcc(5))
    top = rank_instants(tcc_table, 12)
    rest = [v for t, v in tcc_values.items() if t not in {ti for ti, _ in top}]
    for _, v in top:
        assert all(v >= r for r in rest)


def test_rank_never_places_inf_before_finite():
    rng = random.Random(17)
    values = {}
    for t in range(40):
        values[t] = INF if rng.random() < 0.3 else Fraction(rng.randint(0, 50), 7)
    table = table_of(values, MetricSpec.ct("0.5"))
    ranked = rank_instants(table, 40)
    seen_inf = False
    for _, value in ranked:
        if value == INF:
            seen_inf = True
        else:
            assert not seen_inf


def test_distribution_three_point_cdf():
    table = table_of({0: 1, 1: 2, 2: 2})
    dist = empirical_distribution(table, "cdf")
    assert dist.points == ((1, Fraction(1, 3)), (2, Fraction(1)))
    assert dist.excluded_infinite == 0


def test_distribution_excludes_inf():
    table = table_of({0: 1, 1: INF})
    dist = empirical_distribution(table, "cdf")
    assert dist.points == ((1, Fraction(1)),)
    assert dist.excluded_infinite == 1


def test_distribution_all_inf_is_error():
    with pytest.raises(ValueError):
        empirical_distribution(table_of({0: INF, 1: INF}), "cdf")


def test_distribution_ccdf_shape():
    table = table_of({0: 1, 1: 2, 2: 2, 3: 5})
    dist = empirical_distribution(table, "ccdf")
    assert dist.points[0] == (1, Fraction(1))
    fractions = [f for _, f in dist.points]
    assert fractions == sorted(fractions, reverse=True)
    assert dist.points[-1] == (5, Fraction(1, 4))


def test_distribution_cdf_ends_at_one():
    rng = random.Random(6)
    values = {t: Fraction(rng.randint(0, 9), 3) for t in range(25)}
    dist = empirical_distribution(table_of(values), "cdf")
    assert dist.points[-1][1] == 1
    fractions = [f for _, f in dist.points]
    assert fractions == sorted(fractions)


def test_median_odd_even_inf():
    assert median([Fraction(3), Fraction(1), Fraction(2)]) == 2
    assert median([Fraction(1), Fraction(2)]) == Fraction(3, 2)
    assert median([Fraction(1), INF, Fraction(2), INF]) == INF
    assert median([Fraction(1), Fraction(3), INF]) == 3


def _inf_last_key(value):
    """The key tables sorted ct values on before relying on math.inf's order."""
    return (1, 0.0) if is_inf(value) else (0, value)


def _reference_rank_low(table, k):
    items = sorted(table.values.items(), key=lambda kv: (*_inf_last_key(kv[1]), kv[0]))
    return items[:k]


def _reference_median(values):
    ordered = sorted(values, key=_inf_last_key)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    lo, hi = ordered[mid - 1], ordered[mid]
    if is_inf(hi):
        return INF
    return (lo + hi) / 2


def _reference_distribution(values, kind):
    """Each distinct finite value, named by the last member of its run of
    equals once `values` are sorted in the order given (a stable sort), with
    the share of finite values <= it (cdf) or >= it (ccdf), counted one by one."""
    finite = sorted(v for v in values if not is_inf(v))
    named = [v for i, v in enumerate(finite) if i + 1 == len(finite) or finite[i + 1] != v]
    counted = (lambda w, v: w <= v) if kind == "cdf" else (lambda w, v: w >= v)
    return [(v, Fraction(sum(counted(w, v) for w in finite), len(finite))) for v in named]


def _typed(value):
    return type(value), value


# sweep values (denominators divide n or n^2), the same values read back as
# floats, and INF, mixed in one table
_FRACTION = st.builds(Fraction, st.integers(0, 40), st.sampled_from([1, 2, 4, 8, 16]))
_VALUE = st.one_of(_FRACTION, _FRACTION.map(float), st.just(INF))


@settings(max_examples=300, deadline=None)
@given(st.lists(_VALUE, min_size=1, max_size=24), st.integers(1, 30))
def test_tables_order_matches_the_inf_last_key(values, k):
    table = table_of(dict(reversed(list(enumerate(values)))))  # latest instant first
    ranked = rank_instants(table, k, higher_is_better=False)
    expected = _reference_rank_low(table, k)
    assert [(t, *_typed(v)) for t, v in ranked] == [(t, *_typed(v)) for t, v in expected]
    assert _typed(median(values)) == _typed(_reference_median(values))
    stats = group_stats(list(enumerate(values)))
    ordered = sorted(values, key=_inf_last_key)
    assert stats.minimum is ordered[0] and stats.maximum is ordered[-1]
    assert _typed(stats.med) == _typed(_reference_median(values))
    if all(map(is_inf, values)):
        return
    for kind in ("cdf", "ccdf"):
        dist = empirical_distribution(table, kind)
        expected = _reference_distribution(table.values.values(), kind)
        assert [(*_typed(v), f) for v, f in dist.points] == [(*_typed(v), f) for v, f in expected]
        assert dist.excluded_infinite == sum(map(is_inf, values))


def _value_rank(table, k, higher_is_better):
    """rank_instants as it sorted before its integer keys: on the values themselves."""
    items = list(table.values.items())
    if higher_is_better:
        items.sort(key=lambda kv: (-kv[1], kv[0]))
    else:
        items.sort(key=lambda kv: (kv[1], kv[0]))
    return items[:k]


_SWEPT = st.one_of(st.builds(Fraction, st.integers(0, 60), st.integers(1, 12)), st.just(INF))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_SWEPT, st.booleans()), min_size=1, max_size=24), st.integers(1, 30))
def test_rank_keys_order_as_the_values_do(drawn, k):
    # a sweep's table (Fractions and INF, ranked on integer keys), the same
    # table read back from CSV (floats and INF) and a mix (both on the values)
    swept = [v for v, _ in drawn]
    read = [float(v) for v in swept]
    mixed = [float(v) if as_float else v for v, as_float in drawn]
    for values in (swept, read, mixed):
        table = table_of(dict(reversed(list(enumerate(values)))))  # latest instant first
        for higher_is_better in (False, True):
            ranked = rank_instants(table, k, higher_is_better)
            expected = _value_rank(table, k, higher_is_better)
            assert [(t, *_typed(v)) for t, v in ranked] == [(t, *_typed(v)) for t, v in expected]


def test_compare_degenerate_equal_values():
    values = {t: Fraction(2) for t in range(20)}
    table = table_of(values, MetricSpec.ct("0.5"))
    report = compare_topk_random(table, 10, seed=3)
    assert report.top.med == report.random.med == Fraction(2)


def test_compare_excludes_top_from_baseline():
    rng = random.Random(2)
    values = {t: Fraction(rng.randint(0, 30), 2) for t in range(30)}
    table = table_of(values, MetricSpec.ct("0.5"))
    report = compare_topk_random(table, 5, seed=11)
    top_times = {t for t, _ in report.top.members}
    random_times = {t for t, _ in report.random.members}
    assert len(top_times) == len(random_times) == 5
    assert not top_times & random_times


def test_compare_is_seeded_and_reproducible():
    values = {t: Fraction(t % 7) for t in range(40)}
    table = table_of(values, MetricSpec.tcc(3))
    a = compare_topk_random(table, 6, seed=9)
    b = compare_topk_random(table, 6, seed=9)
    c = compare_topk_random(table, 6, seed=10)
    assert a == b
    assert a.random.members != c.random.members


def test_compare_range_too_small():
    table = table_of({0: Fraction(1), 1: Fraction(2)}, MetricSpec.ct("0.5"))
    with pytest.raises(ValueError, match="too small"):
        compare_topk_random(table, 2, seed=1)


def test_tcc_monotone_in_phi_random():
    rng = random.Random(91)
    for _ in range(25):
        tvg = random_tvg(rng)
        t_i = rng.randrange(tvg.num_instants)
        values = [tcc(tvg, t_i, phi) for phi in range(1, tvg.num_instants + 2)]
        for prev, cur in zip(values, values[1:]):
            assert prev <= cur


def test_cover_time_monotone_in_tau_random():
    rng = random.Random(92)
    for _ in range(25):
        tvg = random_tvg(rng)
        t_i = rng.randrange(tvg.num_instants)
        n = tvg.num_nodes
        values = [cover_time(tvg, t_i, Fraction(r, n)) for r in range(1, n + 1)]
        for prev, cur in zip(values, values[1:]):
            assert prev <= cur  # INF compares above every Fraction


def test_format_value():
    assert format_value(Fraction(7, 4)) == "1.75"
    assert format_value(INF) == "inf"
    assert format_value(Fraction(1, 3)) == "0.3333333333333333"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**70), st.integers(1, 2**70), st.floats(min_value=0))
@example(1006633145311236043253, 87876131233047068209, 0.0)  # float(p) / q is one ulp off here
def test_format_value_writes_the_repr_of_float(p, q, x):
    # the CSV bytes stay those of float(Fraction), whatever path format_value takes to it
    assert format_value(Fraction(p, q)) == repr(float(Fraction(p, q)))
    assert format_value(x) == repr(x)  # a value >= 0, INF too: repr(math.inf) is "inf"


def test_table_csv_round_trip(chain4):
    table = metric_sweep(chain4, MetricSpec.ct("0.5"), (0, 3))
    buf = io.StringIO()
    write_table_csv(table, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "time_index,value,unreached_starts"
    assert "inf" in text
    back = read_table_csv(io.StringIO(text))
    assert back.values[0] == 1.75
    assert back.values[1] == INF
    assert back.unreached_starts == table.unreached_starts
    assert back.times() == [0, 1, 2]


def test_table_csv_rejects_garbage():
    with pytest.raises(ValueError):
        read_table_csv(io.StringIO("nope\n"))
    with pytest.raises(ValueError):
        read_table_csv(io.StringIO("time_index,value,unreached_starts\n1,2\n"))
    with pytest.raises(ValueError):
        read_table_csv(io.StringIO("time_index,value,unreached_starts\n"))


HEADER = "time_index,value,unreached_starts\n"


@pytest.mark.parametrize(
    "row, problem",
    [
        ("0,2.0,0", "repeated time_index 0"),
        ("1,nan,0", "value 'nan' is neither >= 0 nor inf"),
        ("1,-inf,0", "value '-inf' is neither >= 0 nor inf"),
        ("1,2.0,-1", "negative unreached_starts -1"),
        ("-3,2.5,0", "negative time_index -3"),
    ],
    ids=["repeated-time", "nan", "minus-inf", "negative-unreached", "negative-time"],
)
def test_table_csv_rejects_rows_no_sweep_writes(row, problem):
    with pytest.raises(ValueError) as exc:
        read_table_csv(io.StringIO(f"{HEADER}0,1.5,0\n{row}\n2,inf,1\n"))
    assert str(exc.value) == f"line 3: {problem}"


def test_table_header_is_the_first_non_blank_line():
    table = read_table_csv(io.StringIO(f"\n  \n{HEADER}0,1.5,0\n\n1,inf,2\n"))
    assert table.values == {0: 1.5, 1: INF}
    assert table.unreached_starts == {0: 0, 1: 2}
    with pytest.raises(ValueError, match="unexpected table header: '0,1.5,0'"):
        read_table_csv(io.StringIO("\n0,1.5,0\n"))


def test_distribution_csv_format():
    dist = empirical_distribution(table_of({0: 1, 1: 2, 2: 2}), "cdf")
    buf = io.StringIO()
    write_distribution_csv(dist, buf)
    assert buf.getvalue() == "value,cum_fraction\n1.0,0.3333333333333333\n2.0,1.0\n"


def test_comparison_csv_and_summary():
    values = {t: Fraction(t) for t in range(10)}
    table = table_of(values, MetricSpec.ct("0.5"))
    report = compare_topk_random(table, 3, seed=5)
    buf = io.StringIO()
    write_comparison_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "group,time_index,value"
    assert sum(1 for line in lines if line.startswith("top,")) == 3
    assert sum(1 for line in lines if line.startswith("random,")) == 3
    summary = comparison_summary(report)
    assert "top" in summary and "random" in summary and "median=" in summary


@pytest.mark.parametrize("num_instants, width", [(32767, np.int16), (32768, np.int32)])
def test_sweeps_match_across_the_arrival_width_boundary(chain4, num_instants, width):
    # leading empty instants shift a TVG to the last instants of a TVG whose
    # matrix is int16 (its sentinel one above the last snapshot) or int32
    rng = random.Random(32767)
    for tvg in (chain4, *(random_tvg(rng) for _ in range(6))):
        n, big_n = tvg.num_nodes, tvg.num_instants
        pad = num_instants - big_n
        padded = TVG(n, num_instants, tvg.edges + np.array([pad, 0, 0], dtype=np.int32))
        _, arrival, _ = next(earliest_arrivals(padded, num_instants - 1, num_instants, num_instants - 1))
        assert arrival.dtype == width
        first = rng.randrange(big_n)
        for lo, hi in ((0, big_n), (first, rng.randint(first + 1, big_n))):
            specs = [MetricSpec.ct(Fraction(r, n)) for r in range(1, n + 1)]
            specs += [MetricSpec.tcc(phi) for phi in range(1, big_n + 2)]
            for spec in specs:
                table = metric_sweep(tvg, spec, (lo, hi))
                shifted = metric_sweep(padded, spec, (lo + pad, hi + pad))
                assert shifted.values == {t + pad: v for t, v in table.values.items()}, spec
                assert shifted.unreached_starts == {
                    t + pad: c for t, c in table.unreached_starts.items()
                }, spec


def _closed_forms(tvg, first, last):
    """tcc(t, 1), ct(t, 2/n) and ct's unreached counts for t in [first, last),
    from edges and offsets alone.

    tcc(t, 1) = (n + 2 m_t) / n^2, where snapshot t holds m_t contacts. A start u
    covers 2 nodes at step s_u(t) - t + 1, where s_u(t) is the first snapshot at
    or after t in which u has a contact; with no such snapshot u is unreached.
    """
    n, offsets = tvg.num_nodes, tvg.offsets.tolist()
    tcc1 = {t: Fraction(n + 2 * (offsets[t + 1] - offsets[t]), n * n) for t in range(first, last)}
    ct2, unreached = {}, {}
    next_contact = [None] * n
    for t in range(tvg.num_instants - 1, first - 1, -1):
        for _, a, b in tvg.edges[offsets[t] : offsets[t + 1]].tolist():
            next_contact[a] = next_contact[b] = t
        if t < last:
            unreached[t] = next_contact.count(None)
            ct2[t] = INF if unreached[t] else Fraction(sum(next_contact) - n * (t - 1), n)
    return tcc1, ct2, unreached


def test_sweeps_equal_their_closed_forms_at_full_scale():
    # every instant of the seed-1 reference TVG and of a wide-dense-sized TVG (400
    # nodes, about 400 contacts per snapshot), and instants 31,000-33,999 of a
    # 34,000-instant TVG (so the int32 matrix) that holds three copies of the
    # reference, 1000 instants apart: starts in the 200 empty instants after a copy
    # wait for the next copy, or after the last one are never reached
    ref = generate_er_tvg(reference_spec(1))
    wide = generate_er_tvg(ErTvgSpec(400, 120, 0.005, 1))
    n, pad = ref.num_nodes, 31_000
    shifted = [ref.edges + np.array([pad + 1000 * j, 0, 0], dtype=np.int32) for j in range(3)]
    padded = TVG(n, pad + 3000, np.concatenate(shifted))
    for tvg, first, last in ((ref, 0, ref.num_instants), (wide, 0, wide.num_instants),
                             (padded, pad, pad + 3000)):
        tcc1, ct2, unreached = _closed_forms(tvg, first, last)
        table = metric_sweep(tvg, MetricSpec.tcc(1), (first, last))
        assert table.values == tcc1
        assert table.unreached_starts == dict.fromkeys(tcc1, 0)
        table = metric_sweep(tvg, MetricSpec.ct(Fraction(2, tvg.num_nodes)), (first, last))
        assert table.values == ct2
        assert table.unreached_starts == unreached
    assert unreached[pad + 2999] == n  # no contact after the last copy: INF


def test_pass_reports_the_rows_each_snapshot_rewrote(monkeypatch):
    rng = random.Random(1212)
    tvgs = [random_tvg(rng, max_instants=30) for _ in range(20)]
    for chunk in (1, 2, 5, centrality._CHUNK):
        monkeypatch.setattr(centrality, "_CHUNK", chunk)
        for tvg in tvgs:
            big_n = tvg.num_instants
            last = rng.randint(1, big_n)
            first = rng.randrange(last)
            top = rng.randint(last - 1, big_n - 1)
            previous = None
            for t, arrival, rows in earliest_arrivals(tvg, first, last, top):
                assert rows.dtype == np.intp  # the index type take and fancy assignment want
                if previous is None:
                    assert rows.tolist() == list(range(tvg.num_nodes))
                else:
                    contact = set(tvg.edges[tvg.offsets[t] : tvg.offsets[t + 1], 1:].ravel().tolist())
                    assert sorted(rows.tolist()) == sorted(contact), (tvg, t)
                    kept = [u for u in range(tvg.num_nodes) if u not in contact]
                    expected = previous.copy()
                    np.fill_diagonal(expected, t - 1)
                    assert np.array_equal(arrival[kept], expected[kept]), (tvg, t)
                previous = arrival.copy()
        for tvg in tvgs[:5]:
            last = rng.randint(1, tvg.num_instants)
            _assert_sweeps_match_oracle(tvg, rng.randrange(last), last)
        monkeypatch.undo()


def test_metric_sweep_is_independent_of_chunking(monkeypatch):
    # the engines read contacts and neighbour columns a chunk of snapshots at a time
    rng = random.Random(77)
    tvgs = [random_tvg(rng, max_instants=30) for _ in range(12)]
    specs = [MetricSpec.ct("0.5"), MetricSpec.ct("1"), MetricSpec.tcc(1), MetricSpec.tcc(4)]
    big, budget = centrality._CHUNK, centrality._ARCS
    for tvg in tvgs:
        last = rng.randint(1, tvg.num_instants)
        first = rng.randrange(last)
        whole = [metric_sweep(tvg, spec, (first, last)) for spec in specs]
        single = [tcc(tvg, t, 4) for t in range(tvg.num_instants)]
        # a chunk ends after `chunk` snapshots, or before it holds more than `arcs` contacts
        for chunk, arcs in ((1, budget), (2, budget), (5, budget), (big, 1), (big, 5), (2, 5)):
            monkeypatch.setattr(centrality, "_CHUNK", chunk)
            monkeypatch.setattr(centrality, "_ARCS", arcs)
            for spec, table in zip(specs, whole):
                again = metric_sweep(tvg, spec, (first, last))
                assert again.values == table.values
                assert again.unreached_starts == table.unreached_starts
            assert [tcc(tvg, t, 4) for t in range(tvg.num_instants)] == single
            monkeypatch.undo()


def _sparse_tvg(rng, n, big_n, busy):
    """TVG whose snapshots in `busy` hold random contacts (at least one each) and the rest none."""
    rows = {(t, *sorted(rng.sample(range(n), 2))) for t in busy for _ in range(rng.randint(1, n))}
    return TVG(n, big_n, sorted(rows))


def test_tcc_over_runs_of_empty_snapshots_across_chunks_matches_the_oracle(monkeypatch):
    # across an empty snapshot only the diagonal moves, and an arrival leaves the
    # budget where snapshot within + 1 holds contacts, which only a budget short of top reaches
    rng = random.Random(1919)
    cases = []
    for s in (1, 4, 9):  # the only contacts sit at s: within + 1 = s at instant s - phi
        cases.append((_sparse_tvg(rng, 5, 11, [s]), 0, 11))
    for _ in range(12):  # runs of empty snapshots, ranges ending at N (within clipped to top) or before
        big_n = rng.randint(4, 16)
        tvg = _sparse_tvg(rng, rng.randint(2, 6), big_n, [t for t in range(big_n) if rng.random() < 0.3])
        first = rng.randrange(big_n)
        cases += [(tvg, first, big_n), (tvg, first, rng.randint(first + 1, big_n))]
    for chunk in (1, 2, 5, centrality._CHUNK):  # empty runs across chunk boundaries
        monkeypatch.setattr(centrality, "_CHUNK", chunk)
        for tvg, first, last in cases:
            _assert_sweeps_match_oracle(tvg, first, last)
        monkeypatch.undo()


def _thin_tvg(rng, n, big_n, dense=()):
    """TVG with 0-2 contacts in each snapshot, about half of them empty, and
    n // 2 to n contacts in each snapshot of `dense`."""
    rows = set()
    for t in range(big_n):
        most = rng.randint(n // 2, n) if t in dense else rng.choice((0, 0, 1, 2))
        rows |= {(t, *sorted(rng.sample(range(n), 2))) for _ in range(most)}
    return TVG(n, big_n, sorted(rows))


def _windows(tvg, first, last, phis=range(1, 7)):
    """Per budget phi and instant of [first, last), in that order: (contact
    ends in t..within, nodes with a contact there)."""
    out = []
    for phi in phis:
        top = min(tvg.num_instants - 1, last - 2 + phi)
        for t in range(first, last):
            block = tvg.edges[tvg.offsets[t] : tvg.offsets[min(t - 1 + phi, top) + 1]]
            out.append((2 * len(block), len(set(block[:, 1:].ravel().tolist()))))
    return out


def test_tcc_counts_the_rows_that_can_reach_in_sparse_windows_as_the_oracle_counts(monkeypatch):
    # a row whose node has no contact in t..within counts its diagonal alone; the count
    # reads the other rows if they are at most half, and the whole matrix if not
    rng = random.Random(3131)
    cases, mixed = [], []
    # at most 2 contacts a snapshot: every window of phi <= n / 8 has at most n / 2 active rows
    for n in (16, 25, 40):
        tvg = _thin_tvg(rng, n, 14)
        cases += [(tvg, 0, 14), (tvg, 2, 9)]
    for _ in range(3):  # dense snapshots among thin ones: windows switch within a range
        tvg = _thin_tvg(rng, 16, 14, dense=set(rng.sample(range(14), 3)))
        mixed += [(tvg, 0, 14), (tvg, rng.randrange(5), rng.randint(6, 13))]
    # snapshot 3 is a matching of 14 of 16 nodes: 14 active rows, more than half,
    # so the count at instant 3 with phi 1 is whole
    matching = TVG(16, 6, [(1, 0, 1), *((3, 2 * a, 2 * a + 1) for a in range(1, 8))])
    assert _windows(matching, 3, 4, [1]) == [(14, 14)]
    cases += [(matching, 0, 6), (matching, 1, 5)]
    # snapshot 2 is a clique on 6 of 16 nodes: 30 contact ends, more than the rows,
    # yet 6 active rows, so the count at instant 2 with phi 1 reads those rows alone
    clique = TVG(16, 6, [(2, a, b) for a in range(3, 9) for b in range(a + 1, 9)] + [(4, 0, 1)])
    assert _windows(clique, 2, 3, [1]) == [(30, 6)]
    cases += [(clique, 0, 6), (clique, 1, 5)]
    # node 0 meets someone at 3 and at 5, the top of a phi 3 sweep of [0, 4): its next
    # contact from instant 2 on is 3, the earlier of two writes to one index
    cases.append((TVG(16, 8, [(3, 0, 1), (5, 0, 2)]), 0, 4))
    for tvg, first, last in cases + mixed:  # a window whose count reads the active rows alone
        n = tvg.num_nodes
        assert any(0 < 2 * active <= n for _, active in _windows(tvg, first, last))
    for tvg, first, last in mixed:  # and a window counted whole
        assert any(2 * active > tvg.num_nodes for _, active in _windows(tvg, first, last))
    for chunk in (1, 2, 5, centrality._CHUNK):  # ranges ending at N (within clipped to top) and before
        monkeypatch.setattr(centrality, "_CHUNK", chunk)
        for tvg, first, last in cases + mixed:
            _assert_sweeps_match_oracle(tvg, first, last)
        monkeypatch.undo()


# (p, q, N, sd): the sd of the mean of tcc(t, 2) over instants 0..N-2 of edge_markovian_rows
# at n = 60, over seeds 0-199 (N = 400) or 0-99 (N = 1500)
_EDGE_MARKOVIAN_TCC = ((0.05, 0.6, 400, 0.0030), (0.02, 0.2, 400, 0.0067),
                       (0.003, 0.3, 1500, 0.00030))


@pytest.mark.parametrize("p, q, big_n, sd", _EDGE_MARKOVIAN_TCC)
def test_tcc_2_of_edge_markovian_snapshots_matches_its_closed_form(p, q, big_n, sd):
    # From (u, t), v is still uninformed after step 2 iff uv is absent at t and at t + 1,
    # w.p. (1 - pi)(1 - p) from the stationary share pi = p / (p + q), and for each of the
    # n - 2 other nodes w, uw at t and wv at t + 1 are not both present, w.p. 1 - pi^2 on
    # pairs distinct from each other and from uv. So for t <= N - 2, E[tcc(t, 2)] =
    # (1 + (n - 1)(1 - (1 - pi)(1 - p)(1 - pi^2)^(n - 2))) / n. Every window of the first
    # two cases is counted whole; in the third, 505 of 1,499 instants count active rows
    # alone at seed 1. The band is 4 sd; p or q at 1.1 or 0.9 times moves the mean 4.9 to
    # 16.7 sd.
    n, pi = 60, p / (p + q)
    tvg = TVG(n, big_n, edge_markovian_rows(n, big_n, p, q, np.random.default_rng(1)))
    values = metric_sweep(tvg, MetricSpec.tcc(2), (0, big_n - 1)).values
    model = (1 + (n - 1) * (1 - (1 - pi) * (1 - p) * (1 - pi * pi) ** (n - 2))) / n
    assert abs(float(sum(values.values()) / len(values)) - model) < 4 * sd


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rank_instants(table_of({}), 1), "empty metric table"),
        (lambda: rank_instants(table_of({0: Fraction(1)}), 1),
         "table has no metric kind; pass higher_is_better"),
        (lambda: empirical_distribution(table_of({0: Fraction(1)}), "pdf"),
         "unknown distribution kind 'pdf'"),
        (lambda: median([]), "median of empty sequence"),
        (lambda: check_top_k(0, 5), "k must be at least 1"),
        (lambda: oracle_reach(expand(TVG(2, 2, [])), TemporalNode(0, 2), 1),
         "start time 2 out of range [0,2)"),
        (lambda: reach_profile(expand(TVG(2, 2, [])), TemporalNode(0, -1)),
         "start time -1 out of range [0,2)"),
    ],
    ids=["rank-empty", "rank-no-metric", "dist-kind", "median-empty", "top-k-zero",
         "oracle-reach-time", "reach-profile-time"],
)
def test_library_checks_name_the_fault(call, message):
    """Checks the CLI never reaches: its own argument checks come first."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
