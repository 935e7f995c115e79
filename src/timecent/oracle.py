"""Brute-force reachability reference over the time-expanded digraph.

A TVG is equivalent to a static directed graph whose vertices are the
temporal nodes (v, t) for t = 0 .. N, where layer N sits one instant past
the last snapshot and receives what that snapshot delivers. Each contact
{u, v} at instant t contributes the arcs (u,t)->(v,t+1) and
(v,t)->(u,t+1); every node w additionally has a self-progression arc
(w,t)->(w,t+1) for t < N, which encodes that informed nodes retain
information. All arcs advance exactly one instant, so the digraph is
acyclic in time and BFS level s from (u, t) is the node set informed
after s diffusion steps.

Test-support scale only: the expansion holds |V| * (N + 1) vertices and
is not meant for sweeps.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .tvg import TVG, TemporalNode


class ExpandedDigraph(NamedTuple):
    """Static expansion of a TVG over temporal-node vertices.

    Vertex ids are time-major: (v, t) -> t * num_nodes + v, for t in
    0 .. num_instants. successors holds the out-arcs of every vertex.
    """

    num_nodes: int
    num_instants: int
    successors: tuple[tuple[int, ...], ...]


def expand(tvg: TVG) -> ExpandedDigraph:
    """Build the time-expanded digraph of a TVG."""
    n = tvg.num_nodes
    succ = [[v + n] for v in range(n * tvg.num_instants)] + [[] for _ in range(n)]
    for t, a, b in tvg.edges.tolist():
        succ[t * n + a].append((t + 1) * n + b)
        succ[t * n + b].append((t + 1) * n + a)
    return ExpandedDigraph(n, tvg.num_instants, tuple(map(tuple, succ)))


def _budget_walk(g: ExpandedDigraph, start: TemporalNode) -> Iterator[set[int]]:
    """Yield the informed node set after each unit of step budget.

    Level s of the BFS sits at instant start.time + s. Every vertex below
    layer N keeps itself informed, so a level's nodes are the informed set
    for budget s.
    """
    n = g.num_nodes
    node, time = start
    if not 0 <= node < n:
        raise ValueError(f"start node {node} out of range [0,{n})")
    if not 0 <= time < g.num_instants:
        raise ValueError(f"start time {time} out of range [0,{g.num_instants})")
    succ = g.successors
    level = {time * n + node}
    for _ in range(time, g.num_instants):
        level = {w for v in level for w in succ[v]}
        yield {v % n for v in level}


def reach_profile(g: ExpandedDigraph, start: TemporalNode) -> list[set[int]]:
    """Informed node sets for every budget 0 .. N - start.time."""
    profile = [{start.node}]
    profile.extend(_budget_walk(g, start))
    return profile


def oracle_reach(g: ExpandedDigraph, start: TemporalNode, steps: int) -> set[int]:
    """Nodes reachable from the starting temporal node within `steps`."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    informed = {start.node}
    for budget, informed_at in enumerate(_budget_walk(g, start), start=1):
        if budget > steps:
            break
        informed = informed_at
    return informed
