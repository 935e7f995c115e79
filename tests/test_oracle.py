from __future__ import annotations

import random

import numpy as np
import pytest

from timecent import TVG, TemporalNode, expand, oracle_reach, reach_profile, spread_milestones
from timecent import centrality
from timecent.centrality import earliest_arrivals
from conftest import assert_engines_match_oracle, random_tvg


def test_expand_micro_counts(chain4):
    g = expand(chain4)
    assert len(g.successors) == 16  # 4 nodes in layers 0..3, layer 3 past the last instant
    # 3 contacts -> 6 contact arcs, plus 4*3 progression arcs
    assert sum(map(len, g.successors)) == 2 * 3 + 4 * 3


def test_expand_empty_two_by_two():
    g = expand(TVG(2, 2, []))
    assert len(g.successors) == 6
    assert sum(map(len, g.successors)) == 4


def test_expand_single_instant_has_only_progression_arcs():
    g = expand(TVG(3, 1, []))
    assert sum(map(len, g.successors)) == 3
    assert g.successors == ((3,), (4,), (5,), (), (), ())


def test_expand_arc_count_formula():
    rng = random.Random(21)
    for _ in range(40):
        tvg = random_tvg(rng)
        g = expand(tvg)
        n, big_n = tvg.num_nodes, tvg.num_instants
        assert sum(map(len, g.successors)) == 2 * tvg.num_contacts() + n * big_n
        assert len(g.successors) == n * (big_n + 1)
        assert g.successors[n * big_n :] == ((),) * n  # layer N has no out-arcs


def test_oracle_reach_micro(chain4):
    g = expand(chain4)
    assert oracle_reach(g, TemporalNode(0, 0), 3) == {0, 1, 2, 3}
    assert oracle_reach(g, TemporalNode(0, 0), 2) == {0, 1, 2}
    assert oracle_reach(g, TemporalNode(0, 0), 0) == {0}
    # final-instant contact delivers within the step that consumes it
    assert oracle_reach(g, TemporalNode(3, 2), 1) == {2, 3}


def test_oracle_final_instant_only_contact():
    g = expand(TVG(3, 2, [(1, 0, 1)]))
    assert g.successors[2 * 3 :] == ((),) * 3
    assert reach_profile(g, TemporalNode(0, 1)) == [{0}, {0, 1}]
    assert reach_profile(g, TemporalNode(0, 0)) == [{0}, {0}, {0, 1}]
    assert oracle_reach(g, TemporalNode(2, 0), 5) == {2}


def test_oracle_reach_zero_steps_everywhere():
    rng = random.Random(31)
    for _ in range(10):
        tvg = random_tvg(rng)
        g = expand(tvg)
        for node in range(tvg.num_nodes):
            assert oracle_reach(g, TemporalNode(node, 0), 0) == {node}


def test_oracle_reach_empty_tvg():
    g = expand(TVG(3, 4, []))
    for steps in (0, 1, 4, 10):
        assert oracle_reach(g, TemporalNode(1, 0), steps) == {1}


def test_oracle_reach_validation(chain4):
    g = expand(chain4)
    with pytest.raises(ValueError):
        oracle_reach(g, TemporalNode(9, 0), 1)
    with pytest.raises(ValueError):
        oracle_reach(g, TemporalNode(0, 0), -1)


def test_diffusion_matches_oracle_small_batch():
    """Spot equivalence run; the full 1000-instance sweep is in acceptance."""
    rng = random.Random(410)
    for _ in range(100):
        assert assert_engines_match_oracle(random_tvg(rng)) > 0


def test_engines_match_oracle_on_a_star_and_a_matching_across_chunks(monkeypatch):
    # snapshots 1 and 2 each hold a star, whose centre is not the lowest node,
    # and a matching, so their nodes' degrees differ and their runs have
    # different lengths; with 2-instant chunks they lie in different chunks
    monkeypatch.setattr(centrality, "_CHUNK", 2)
    pairs = [
        [(0, 4), (2, 6)],
        [(4, 7), (5, 7), (6, 7), (0, 2), (1, 3)],
        [(0, 5), (1, 5), (3, 5), (2, 4), (6, 7)],
        [(3, 7)],
    ]
    rows = [(t, a, b) for t, snapshot in enumerate(pairs) for a, b in snapshot]
    assert assert_engines_match_oracle(TVG(8, 4, rows)) > 0


def test_arrivals_match_oracle_reach():
    # budgets past the last snapshot included: the pass and the lists then hold the full reach
    rng = random.Random(411)
    for _ in range(40):
        tvg = random_tvg(rng)
        g = expand(tvg)
        node = rng.randrange(tvg.num_nodes)
        time = rng.randrange(tvg.num_instants)
        budget = rng.randint(0, tvg.num_instants + 2)
        expected = oracle_reach(g, TemporalNode(node, time), budget)
        _, arrival, _ = next(earliest_arrivals(tvg, time, time + 1, tvg.num_instants - 1))
        assert set(np.flatnonzero(arrival[node] <= time - 1 + budget).tolist()) == expected
        milestones = spread_milestones(tvg, time)
        assert sum(s <= budget for s in milestones[node]) == len(expected)
