from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from timecent import TVG, TemporalNode, expand, reach_profile, spread_milestones
from timecent.diffusion import earliest_arrivals


def child_env() -> dict[str, str]:
    """This environment with the repository's src first on PYTHONPATH, for child processes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


@pytest.fixture
def chain4() -> TVG:
    """4-node TVG {t0: a-b, t1: b-c, t2: c-d} with a=0, b=1, c=2, d=3."""
    return TVG(4, 3, [(0, 0, 1), (1, 1, 2), (2, 2, 3)])


def random_tvg(rng: random.Random, max_nodes: int = 10, max_instants: int = 12) -> TVG:
    """Small random TVG drawn from independent per-pair coin flips."""
    n = rng.randint(2, max_nodes)
    big_n = rng.randint(1, max_instants)
    p = rng.choice((0.1, 0.3, 0.6))
    per_time = [
        [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        for _ in range(big_n)
    ]
    return TVG.from_snapshot_pairs(n, per_time)


def snapshot_adjacency(tvg: TVG, t: int) -> list[set[int]]:
    """Neighbour set of every node at instant t, read from the TVG's columns."""
    adjacent: list[set[int]] = [set() for _ in range(tvg.num_nodes)]
    for _, a, b in tvg.edges[tvg.offsets[t] : tvg.offsets[t + 1]].tolist():
        adjacent[a].add(b)
        adjacent[b].add(a)
    return adjacent


def milestones_of(profile: list[set[int]]) -> list[int]:
    """Milestone list of an oracle reach profile: entry k is the first budget
    whose informed set holds k + 1 nodes, as spread_milestones reports it."""
    milestones: list[int] = []
    for budget, informed in enumerate(profile):
        milestones.extend([budget] * (len(informed) - len(milestones)))
    return milestones


def assert_engines_match_oracle(tvg: TVG) -> int:
    """Check the diffusion engine against the time-expanded oracle.

    earliest_arrivals runs once over the whole TVG; for every start u,
    instant t and budget s, {v : E[u, v] <= t - 1 + s} must equal the
    oracle's informed set. spread_milestones runs once per instant; its
    milestone list for every start must equal the one derived from the
    oracle. Returns the number of (start, budget) sets compared.
    """
    g = expand(tvg)
    n, big_n = tvg.num_nodes, tvg.num_instants
    profiles = {
        (u, t): reach_profile(g, TemporalNode(u, t)) for t in range(big_n) for u in range(n)
    }
    compared = 0
    for t, arrival, _ in earliest_arrivals(tvg, 0, big_n, big_n - 1):
        for u, row in enumerate(arrival.tolist()):
            for s, informed in enumerate(profiles[u, t]):
                within = {v for v, last in enumerate(row) if last <= t - 1 + s}
                assert within == informed, ("earliest_arrivals", u, t, s, tvg)
                compared += 1
    for t in range(big_n):
        for u, milestones in enumerate(spread_milestones(tvg, t)):
            assert milestones == milestones_of(profiles[u, t]), ("spread_milestones", u, t, tvg)
    return compared
