from __future__ import annotations

import random

import numpy as np
import pytest

from timecent import TVG, TemporalNode, expand, oracle_reach, spread_milestones
from timecent import diffusion
from timecent.diffusion import earliest_arrivals
from conftest import assert_engines_match_oracle, random_tvg


def test_expand_micro_counts(chain4):
    g = expand(chain4)
    assert g.num_vertices == 12
    # 2 contacts before the final instant -> 4 contact arcs, plus 4*2 progression arcs
    assert g.num_arcs == 2 * 2 + 4 * 2


def test_expand_empty_two_by_two():
    g = expand(TVG(2, 2, []))
    assert g.num_vertices == 4
    assert g.num_arcs == 2


def test_expand_single_instant_has_no_arcs():
    tvg = TVG(3, 1, [])
    g = expand(tvg)
    assert g.num_arcs == 0
    assert g.final_contacts == ()


def test_expand_arc_count_formula():
    rng = random.Random(21)
    for _ in range(40):
        tvg = random_tvg(rng)
        g = expand(tvg)
        non_final = sum(len(s) for s in tvg.snapshots[:-1])
        assert g.num_arcs == 2 * non_final + tvg.num_nodes * (tvg.num_instants - 1)
        assert g.num_vertices == tvg.num_nodes * tvg.num_instants


def test_oracle_reach_micro(chain4):
    g = expand(chain4)
    assert oracle_reach(g, TemporalNode(0, 0), 3) == {0, 1, 2, 3}
    assert oracle_reach(g, TemporalNode(0, 0), 2) == {0, 1, 2}
    assert oracle_reach(g, TemporalNode(0, 0), 0) == {0}
    # final-instant contact delivers within the step that consumes it
    assert oracle_reach(g, TemporalNode(3, 2), 1) == {2, 3}


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
    monkeypatch.setattr(diffusion, "_CHUNK", 2)
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
        _, arrival = next(earliest_arrivals(tvg, time, time + 1, tvg.num_instants - 1))
        assert set(np.flatnonzero(arrival[node] <= time - 1 + budget).tolist()) == expected
        milestones = spread_milestones(tvg, time, max_steps=budget)
        assert len(milestones[node]) == len(expected)
