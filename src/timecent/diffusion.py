"""Flooding diffusion over TVG snapshots.

Step rule. A diffusion starting from temporal node (u, t) holds the
informed set I_0 = {u}. Step s (s = 1, 2, ...) applies the contacts of
snapshot t + s - 1 exactly once: every node in contact with an informed
node at that snapshot joins I_s. Newly informed nodes relay only from the
next snapshot on (one hop per snapshot, no closure within a snapshot) and
informed nodes stay informed. The final snapshot is consumed like any
other, so recipients at the last instant count within that step.

A step that produces no growth does not end the diffusion, because later
snapshots may carry new contacts. Iteration stops only when a stopping
rule fires (informed-count threshold met, step budget spent) or when the
snapshots run out.

Two engines follow this rule. spread_milestones floods forward from all
|V| start nodes of one instant at once, holding int bitmasks over start
nodes; the single-instant cover_time and tcc of timecent.centrality, and
the bound on the snapshots a ct sweep reads, build on it.
earliest_arrivals answers every start node of every instant of a range
in one backward pass over the snapshots; the centrality sweeps build on
it. It reads each snapshot as its contact nodes by degree and their k-th
neighbours, which _neighbour_columns derives with numpy from the TVG's
edge slices. The time-expanded oracle (timecent.oracle) is the
independent reference the tests check both engines against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .tvg import TVG


def check_tau(tau: Fraction | str | int) -> Fraction:
    """tau as an exact Fraction; ValueError unless it parses and is in (0, 1]."""
    try:
        frac = Fraction(tau)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid tau {tau!r}") from None
    if not 0 < frac <= 1:
        raise ValueError(f"tau must be in (0, 1], got {frac}")
    return frac


def check_phi(phi: int) -> int:
    """phi unchanged; ValueError unless it is a step budget of at least 1."""
    if phi < 1:
        raise ValueError("phi must be at least 1")
    return phi


@dataclass(frozen=True)
class CoverageThreshold:
    """Fraction of nodes a diffusion must inform, as an exact count.

    required_count = ceil(tau * num_nodes), computed in exact rational
    arithmetic so decimal tau values never hit float boundary issues
    (tau=0.1 with 160 nodes is exactly 16).
    """

    tau: Fraction
    required_count: int

    @classmethod
    def of(cls, tau: Fraction | str | int, num_nodes: int) -> CoverageThreshold:
        frac = check_tau(tau)
        if num_nodes < 1:
            raise ValueError("threshold needs at least one node")
        required = -((-frac.numerator * num_nodes) // frac.denominator)
        return cls(frac, required)


# Instants whose contacts or neighbour columns are prepared at once: bounds
# the arrays a loop holds, and the work a loop that stops early has wasted.
_CHUNK = 1024


def _contact_lists(tvg: TVG, first: int, last: int) -> Iterator[list[list[int]]]:
    """Contacts of each instant of [first, last) as [a, b] lists, for the forward flood.

    The offsets are read _CHUNK instants at a time, so a caller that stops
    early pays for the instants it reads, not for the rest of the TVG.
    """
    pairs = tvg.edges[:, 1:]
    for start in range(first, last, _CHUNK):
        bounds = tvg.offsets[start : min(start + _CHUNK, last) + 1].tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield pairs[lo:hi].tolist()


def spread_milestones(
    tvg: TVG,
    time: int,
    *,
    max_steps: int | None = None,
    stop_count: int | None = None,
) -> list[list[int]]:
    """Run all |V| diffusions starting at one instant simultaneously.

    Returns per start node u a milestone array m where m[k] is the first
    step at which the diffusion from (u, time) had informed k+1 nodes
    (m[0] == 0 always). Arrays grow until the snapshots run out, every
    diffusion saturates, the step budget max_steps is spent, or every
    start has informed at least stop_count nodes.

    The flood is transposed: it keeps one bitmask per node holding the set
    of starts that have informed it, so each snapshot costs a handful of
    big-int operations.
    """
    n = tvg.num_nodes
    if not 0 <= time < tvg.num_instants:
        raise ValueError(f"time {time} out of range [0,{tvg.num_instants})")
    if max_steps is not None and max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    milestones: list[list[int]] = [[0] for _ in range(n)]
    if stop_count is not None and stop_count <= 1:
        return milestones
    # spread[v] = bitmask over start nodes whose diffusion has informed v
    spread = [1 << u for u in range(n)]
    total = n
    full_total = n * n
    pending = n
    last = tvg.num_instants
    if max_steps is not None:
        last = min(last, time + max_steps)
    for step, contacts in enumerate(_contact_lists(tvg, time, last), start=1):
        if not contacts:
            continue
        updates: dict[int, int] = {}
        get = updates.get
        for a, b in contacts:
            sa = spread[a]
            sb = spread[b]
            if sb & ~sa:
                updates[a] = get(a, 0) | sb
            if sa & ~sb:
                updates[b] = get(b, 0) | sa
        if not updates:
            continue
        for v, add in updates.items():
            newly = add & ~spread[v]
            if not newly:
                continue
            spread[v] |= newly
            total += newly.bit_count()
            while newly:
                low = newly & -newly
                newly ^= low
                m = milestones[low.bit_length() - 1]
                m.append(step)
                if stop_count is not None and len(m) == stop_count:
                    pending -= 1
        if total == full_total:
            break
        if stop_count is not None and pending == 0:
            break
    return milestones


# Largest node count a sweep accepts: the state of earliest_arrivals is one
# n x n int32 matrix, 256 MiB at this size.
MAX_SWEEP_NODES = 8192

# Arrival entry of a node the flood never informs.
NEVER = np.iinfo(np.int32).max


def _neighbour_columns(
    tvg: TVG, first: int, top: int
) -> Iterator[tuple[int, np.ndarray, list[int], np.ndarray]]:
    """Yield (t, nodes, lengths, columns) for t = top down to first.

    nodes are the contact nodes of snapshot t by degree, highest first, so
    the nodes with a k-th neighbour are a prefix. columns lists the first
    neighbours of nodes[:lengths[0]], then the second neighbours of
    nodes[:lengths[1]], and so on. An empty snapshot yields no nodes.
    """
    for hi in range(top, first - 1, -_CHUNK):
        lo = max(first, hi - _CHUNK + 1)
        span = np.arange(lo, hi + 2)
        block = tvg.edges[tvg.offsets[lo] : tvg.offsets[hi + 1]]
        # one arc per contact end, grouped by (time, node)
        time = np.concatenate((block[:, 0], block[:, 0]))
        node = np.concatenate((block[:, 1], block[:, 2]))
        nbr = np.concatenate((block[:, 2], block[:, 1]))
        order = np.lexsort((node, time))
        time, node, nbr = time[order], node[order], nbr[order]
        head = np.ones(len(time), dtype=bool)
        head[1:] = (time[1:] != time[:-1]) | (node[1:] != node[:-1])
        starts = np.flatnonzero(head)
        degree = np.diff(np.append(starts, len(time)))
        # each snapshot's nodes by degree; column k follows the same order
        by_degree = np.lexsort((-degree, time[starts]))
        nodes = node[starts[by_degree]]
        node_at = np.searchsorted(time[starts[by_degree]], span).tolist()
        place = np.empty_like(by_degree)
        place[by_degree] = np.arange(len(by_degree))
        k = np.arange(len(time)) - np.repeat(starts, degree)  # arc's rank at its node
        order = np.lexsort((np.repeat(place, degree), k, time))
        columns = nbr[order]
        time, k = time[order], k[order]
        head[1:] = (time[1:] != time[:-1]) | (k[1:] != k[:-1])
        runs = np.flatnonzero(head)
        lengths = np.diff(np.append(runs, len(time))).tolist()
        run_at = np.searchsorted(time[runs], span).tolist()
        arc_at = np.searchsorted(time, span).tolist()
        for t in range(hi, lo - 1, -1):
            j = t - lo
            yield (
                t,
                nodes[node_at[j] : node_at[j + 1]],
                lengths[run_at[j] : run_at[j + 1]],
                columns[arc_at[j] : arc_at[j + 1]],
            )


def earliest_arrivals(
    tvg: TVG, first: int, last: int, top: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t, E) for t = last - 1 down to first, from one backward pass.

    Needs 0 <= first < last <= top + 1 <= num_instants.

    E[u, v] is the last snapshot index the diffusion from (u, t) consumes
    before v is informed, so v joins at step E[u, v] - t + 1. The diagonal
    is t - 1 (step 0), and NEVER marks a node not informed through snapshot
    top; later snapshots are never read.

    Flooding from a set is the union of the floods from its members, so
    E_t[u] is the elementwise minimum of E_{t+1}[w] over w in {u} and the
    neighbours of u at t, with E_{t+1}[w, w] = t. A snapshot rewrites only
    the rows of its contact nodes, and an empty one costs nothing; the n^2
    work is the caller's reduction at each yielded instant. E is one array
    updated in place: reduce it before the next iteration. It holds n^2
    int32 entries; centrality.metric_sweep refuses n > MAX_SWEEP_NODES.
    """
    n = tvg.num_nodes
    arrival = np.full((n, n), NEVER, dtype=np.int32)
    diagonal = arrival.reshape(-1)[:: n + 1]
    for t, nodes, lengths, columns in _neighbour_columns(tvg, first, top):
        if len(nodes):
            # the diagonal is only kept at yields; the rows read here need E_{t+1}[w, w] = t
            arrival[nodes, nodes] = t
            rows = arrival[nodes]
            at = 0
            for length in lengths:
                np.minimum(rows[:length], arrival[columns[at : at + length]], out=rows[:length])
                at += length
            arrival[nodes] = rows
        if t < last:
            diagonal[:] = t - 1
            yield t, arrival
