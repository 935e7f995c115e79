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

One engine follows this rule. earliest_arrivals answers every start
node of every instant of a range in one backward pass over the
snapshots; every metric of timecent.centrality is a sweep built on it.
It lays each snapshot out from the TVG's edge slices with numpy, as its
contact nodes by degree and runs of their k-th neighbours, and names the
rows each snapshot rewrote, so a ct sweep re-partitions only those. It
lays out the snapshots its first yield reads apart from the rest, so a
ct sweep that drops a pass there to restart with a later top has laid
out no more. spread_milestones reduces one single-instant pass to
milestone lists.
The time-expanded oracle (timecent.oracle) is the independent reference
the tests check the engine against.
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


# Instants whose arcs are laid out at once: bounds the arrays
# a pass holds, and the work a pass with a near top has wasted.
_CHUNK = 1024


# Largest node count earliest_arrivals (every metric) accepts: its state is
# one n x n matrix, int16 up to 32,767 instants (128 MiB at this size) and
# int32 beyond (256 MiB). With a snapshot's contact rows and one neighbour
# gather, a pass peaks near 3x that (384 or 768 MiB).
MAX_SWEEP_NODES = 8192


def earliest_arrivals(
    tvg: TVG, first: int, last: int, top: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
    """Yield (t, E, rows) for t = last - 1 down to first, from one backward pass.

    Needs 0 <= first < last <= top + 1 <= num_instants.

    E[u, v] is the last snapshot index the diffusion from (u, t) consumes
    before v is informed, so v joins at step E[u, v] - t + 1. The diagonal
    is t - 1 (step 0). A node not informed through snapshot top holds the
    dtype's maximum, which no arrival reaches, so callers test `> top`;
    later snapshots are never read. E is int16 when num_instants <= 32767
    and int32 otherwise, so every arrival, -1 to top, lies below that
    sentinel.

    Flooding from a set is the union of the floods from its members, so
    E_t[u] is the elementwise minimum of E_{t+1}[w] over w in {u} and the
    neighbours of u at t, with E_{t+1}[w, w] = t. A snapshot rewrites only
    the rows of its contact nodes, and an empty one costs nothing; the n^2
    work is the caller's reduction at each yielded instant. E is one array
    updated in place: reduce it before the next iteration. It holds n^2
    entries, so the pass refuses n > MAX_SWEEP_NODES before it starts.

    rows is None at the first yield, where every row is new, and after that
    snapshot t's distinct contact nodes (empty for an empty snapshot). A
    row not in rows equals its row at the previous yield, except that its
    diagonal is now t - 1 instead of t. Its off-diagonal entries are
    >= t + 1, so the diagonal stays the row's unique minimum and, for
    k >= 2, the row's k-th smallest entry does not change.
    """
    n = tvg.num_nodes
    if n > MAX_SWEEP_NODES:
        raise ValueError(f"{n} nodes exceed the sweep limit of {MAX_SWEEP_NODES} nodes")
    dtype = np.int16 if tvg.num_instants < 2**15 else np.int32
    arrival = np.full((n, n), np.iinfo(dtype).max, dtype=dtype)
    diagonal = arrival.reshape(-1)[:: n + 1]
    no_rows = np.empty(0, dtype=tvg.edges.dtype)  # what an empty snapshot rewrites
    # chunks above the first yield stop at it, so a caller that stops there lays out no more
    for hi in (*range(top, last - 2, -_CHUNK), *range(last - 2, first - 1, -_CHUNK)):
        lo = max(first if hi < last - 1 else last - 1, hi - _CHUNK + 1)
        block = tvg.edges[tvg.offsets[lo] : tvg.offsets[hi + 1]]
        # one arc per contact end, grouped by (time, node)
        time = np.concatenate((block[:, 0], block[:, 0]))
        node = np.concatenate((block[:, 1], block[:, 2]))
        nbr = np.concatenate((block[:, 2], block[:, 1]))
        order = np.lexsort((node, time))
        time, node, nbr = time[order], node[order], nbr[order]
        # head[i]: arc i opens a group; the last entry closes the final one
        head = np.ones(len(time) + 1, dtype=bool)
        head[1:-1] = (time[1:] != time[:-1]) | (node[1:] != node[:-1])
        bounds = np.flatnonzero(head)
        degree = np.diff(bounds)
        k = np.arange(len(time)) - np.repeat(bounds[:-1], degree)  # arc's rank at its node
        # Run k of a snapshot: the k-th neighbours of its contact nodes,
        # highest degree first (the sort is stable, so ties keep node order).
        # The nodes with a k-th neighbour are a prefix of run 0, and node
        # over run 0 lists the snapshot's contact nodes.
        order = np.lexsort((-np.repeat(degree, degree), k, time))
        time, node, nbr, k = time[order], node[order], nbr[order], k[order]
        head[1:-1] = (time[1:] != time[:-1]) | (k[1:] != k[:-1])
        runs = np.flatnonzero(head)  # run r is arcs runs[r] to runs[r + 1]
        run_at = np.searchsorted(time[runs[:-1]], np.arange(lo, hi + 2)).tolist()
        runs = runs.tolist()
        for t in range(hi, lo - 1, -1):
            start, end = run_at[t - lo], run_at[t - lo + 1]  # snapshot t's runs
            nodes = no_rows
            if start < end:
                nodes = node[runs[start] : runs[start + 1]]
                # the diagonal is only kept at yields; the rows read here need E_{t+1}[w, w] = t
                diagonal[nodes] = t
                rows = arrival.take(nodes, axis=0)
                for r in range(start, end):
                    part = rows[: runs[r + 1] - runs[r]]
                    np.minimum(part, arrival.take(nbr[runs[r] : runs[r + 1]], axis=0), out=part)
                arrival[nodes] = rows
                del rows, part  # not held through the caller's reduction
            if t < last:
                diagonal[:] = t - 1
                yield t, arrival, None if t == last - 1 else nodes


def spread_milestones(
    tvg: TVG, time: int, *, max_steps: int | None = None, stop_count: int | None = None
) -> list[list[int]]:
    """Milestones of all |V| diffusions starting at one instant.

    Returns per start node u a milestone list m where m[k] is the first
    step at which the diffusion from (u, time) had informed k+1 nodes
    (m[0] == 0 always). Lists run until the snapshots run out or max_steps
    is spent; with stop_count, only to the first step by which every start
    has informed stop_count nodes, if there is one. They are the sorted
    rows of one single-instant earliest_arrivals pass (arrival a is step
    a - time + 1) over the whole budget.
    """
    if not 0 <= time < tvg.num_instants:
        raise ValueError(f"time {time} out of range [0,{tvg.num_instants})")
    if max_steps is not None and max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    budget = min(tvg.num_instants - time, tvg.num_instants if max_steps is None else max_steps)
    need = None if stop_count is None else max(stop_count, 1)
    if need is not None and need > tvg.num_nodes:
        need = None  # never met
    # step s reads snapshot time - 1 + s; a zero budget still reads one
    _, arrival, _ = next(earliest_arrivals(tvg, time, time + 1, time - 1 + max(budget, 1)))
    steps = np.sort(arrival, axis=1).astype(np.int64) - (time - 1)
    cut = budget if need is None else min(budget, int(steps[:, need - 1].max()))
    counts = np.count_nonzero(steps <= cut, axis=1)
    return [row[:k] for row, k in zip(steps.tolist(), counts.tolist())]
