"""Time centrality of TVG instants: the flooding step rule, the one pass
that follows it for every start, and the two metrics read off that pass.

Step rule. A diffusion from temporal node (u, t) holds I_0 = {u}. Step s
(s = 1, 2, ...) applies the contacts of snapshot t + s - 1 once: every
node in contact with an informed node there joins I_s. A new node relays
only from the next snapshot on (one hop per snapshot, no closure within a
snapshot), informed nodes stay informed, and the final snapshot counts
like any other. A step without growth does not end a diffusion, since
later snapshots may carry new contacts; only a metric's stopping rule or
the end of the snapshots does.

The pass. earliest_arrivals answers every start node of every instant of
a range in one backward pass over the snapshots, after the one-pass
foremost paths of Wu et al. (PVLDB 2014). It lays each snapshot out from
the TVG's edge slices with numpy and names the rows each snapshot
rewrote. spread_milestones reduces a one-instant pass to milestone lists.

The metrics rank instants by how the diffusions from every start node
perform:

* Cover time ct(t, tau): the mean number of steps the diffusion from
  (u, t) takes to inform ceil(tau * |V|) nodes, over every start u. If a
  start never gets there before the snapshots run out, the value is INF;
  the count of such starts is kept per instant, so softer aggregations
  need no rerun. Lower is more central.

* Time-constrained coverage tcc(t, phi): the nodes informed within phi
  steps, summed over starts and normalized by |V|^2. Always in
  [1/|V|, 1]; higher is more central.

Values are exact rationals (Fraction); INF is float('inf'). metric_sweep
computes a metric over a range, and cover_time and tcc are one-instant
sweeps. The time-expanded oracle (timecent.oracle) is the independent
reference the tests check all of this against. Tables, rankings,
distributions and their CSV files live in timecent.tables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Literal, NamedTuple

import numpy as np

from .tables import (
    INF,
    ComparisonReport,
    MetricTable,
    MetricValue,
    group_stats,
    is_inf,  # noqa: F401  (re-exported: perfbench/traced.py imports it from here)
    rank_instants,
)
from .tvg import MAX_SWEEP_NODES, TVG


def check_tau(tau: Fraction | str | int) -> Fraction:
    """tau as an exact Fraction; ValueError unless it parses and is in (0, 1]."""
    try:
        frac = Fraction(tau)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid tau {tau!r}") from None
    if not 0 < frac <= 1:
        raise ValueError(f"tau must be in (0, 1], got {frac}")
    return frac


class CoverageThreshold(NamedTuple):
    """Fraction of nodes a diffusion must inform, as an exact count.

    required_count = ceil(tau * num_nodes), computed in exact rational
    arithmetic so decimal tau values never hit float boundary issues
    (tau=0.1 with 160 nodes is exactly 16).
    """

    required_count: int

    @classmethod
    def of(cls, tau: Fraction | str | int, num_nodes: int) -> CoverageThreshold:
        frac = check_tau(tau)
        if num_nodes < 1:
            raise ValueError("threshold needs at least one node")
        return cls(-((-frac.numerator * num_nodes) // frac.denominator))


# Instants whose arcs are laid out at once, and the most contacts they may
# hold unless one snapshot alone holds more: bound the arrays a pass holds.
_CHUNK = 1024
_ARCS = 1 << 16


def earliest_arrivals(
    tvg: TVG, first: int, last: int, top: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
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
    the rows of its contact nodes, and every step writes the diagonal once;
    the n^2 work is the caller's reduction at each yielded instant. Arcs are
    laid out _CHUNK snapshots or _ARCS contacts at a time by two sorts of
    int64 keys. E is one array updated in place: reduce it before the next
    iteration. It holds n^2 entries, so the pass refuses n > MAX_SWEEP_NODES
    before it starts.

    rows names every row at the first yield, where every row is new, and
    after that snapshot t's distinct contact nodes (empty for an empty
    snapshot). A row not in rows equals its row at the previous yield,
    except that its diagonal is now t - 1 instead of t. Its off-diagonal
    entries are >= t + 1, so the diagonal stays the row's unique minimum
    and, for k >= 2, the row's k-th smallest entry does not change. rows
    holds np.intp indices, numpy's index type.
    """
    n = tvg.num_nodes
    if n > MAX_SWEEP_NODES:
        raise ValueError(f"{n} nodes exceed the sweep limit of {MAX_SWEEP_NODES} nodes")
    dtype = np.int16 if tvg.num_instants < 2**15 else np.int32
    arrival = np.full((n, n), np.iinfo(dtype).max, dtype=dtype)
    diagonal = arrival.reshape(-1)[:: n + 1]
    diagonal[:] = top  # before step t it holds E_{t+1}[w, w] = t
    no_rows = np.empty(0, dtype=np.intp)  # what an empty snapshot rewrites
    hi = top
    while hi >= first:
        # chunks above the first yield stop at it, so a caller that stops there lays out no more
        lo = max(first if hi < last - 1 else last - 1, hi - _CHUNK + 1)
        lo = max(lo, min(hi, int(np.searchsorted(tvg.offsets, tvg.offsets[hi + 1] - _ARCS))))
        block = tvg.edges[tvg.offsets[lo] : tvg.offsets[hi + 1]]
        # one arc per contact end, by its unique key ((time - lo) * n + node) * n + nbr
        key = (block[:, 0] - lo).astype(np.int64) * n
        key = np.concatenate((key + block[:, 1], key + block[:, 2]))
        key *= n
        key += np.concatenate((block[:, 2], block[:, 1]))
        # any kind gives one order; "stable" maps ~0.25 MB less of numpy's code than the default
        key.sort(kind="stable")
        node, nbr = np.empty((2, len(key)), dtype=np.int32)
        np.divmod(key, n, out=(key, nbr))  # key is now (time - lo) * n + node
        # head[i]: arc i opens a group; the last entry closes the final one
        head = np.ones(len(key) + 1, dtype=bool)
        head[1:-1] = key[1:] != key[:-1]
        bounds = np.flatnonzero(head)
        degree = np.diff(bounds)
        k = np.arange(len(key)) - np.repeat(bounds[:-1], degree)  # arc's rank at its node
        # Run k of a snapshot: the k-th neighbours of its contact nodes,
        # highest degree first (the sort is stable, so ties keep node order).
        # The nodes with a k-th neighbour are a prefix of run 0, and node
        # over run 0 lists the snapshot's contact nodes.
        np.divmod(key, n, out=(key, node))  # key is now time - lo
        key *= n  # in place: ((time - lo) * n + k) * n + n - degree
        key += k
        key *= n
        key += n - np.repeat(degree, degree)
        del bounds, degree, k  # each layout array is dropped once dead, to keep the peak low
        order = np.argsort(key, kind="stable")
        node, nbr, key = node[order], nbr[order], key[order] // n
        head[1:-1] = key[1:] != key[:-1]
        runs = np.flatnonzero(head)  # run r is arcs runs[r] to runs[r + 1]
        run_at = np.searchsorted(key[runs[:-1]] // n, np.arange(hi - lo + 2)).tolist()
        runs = runs.tolist()
        del key, head, order
        # numpy's index type, which take and fancy assignment use without a cast;
        # int32 through the sorts keeps the layout's peak lower
        node, nbr = node.astype(np.intp), nbr.astype(np.intp)
        for t in range(hi, lo - 1, -1):
            start, end = run_at[t - lo], run_at[t - lo + 1]  # snapshot t's runs
            nodes = no_rows
            if start < end:
                nodes = node[runs[start] : runs[start + 1]]
                rows = arrival.take(nodes, axis=0)
                for r in range(start, end):
                    part = rows[: runs[r + 1] - runs[r]]
                    np.minimum(part, arrival.take(nbr[runs[r] : runs[r + 1]], axis=0), out=part)
                arrival[nodes] = rows
                del rows, part  # not held through the caller's reduction
            diagonal.fill(t - 1)
            if t == lo:  # a view would hold this chunk's node column through the next layout
                nodes = nodes.copy()
            if t < last:
                yield t, arrival, np.arange(n) if t == last - 1 else nodes
        del node, nbr, nodes
        hi = lo - 1


def spread_milestones(tvg: TVG, time: int, *, stop_count: int | None = None) -> list[list[int]]:
    """Milestones of all |V| diffusions starting at one instant.

    Returns per start node u a milestone list m where m[k] is the first
    step at which the diffusion from (u, time) had informed k+1 nodes
    (m[0] == 0 always). Lists run until the snapshots run out. They are the
    sorted rows of one single-instant earliest_arrivals pass (arrival a is
    step a - time + 1) through the last snapshot. stop_count is accepted
    and ignored.
    """
    if not 0 <= time < tvg.num_instants:
        raise ValueError(f"time {time} out of range [0,{tvg.num_instants})")
    _, arrival, _ = next(earliest_arrivals(tvg, time, time + 1, tvg.num_instants - 1))
    steps = np.sort(arrival, axis=1).astype(np.int64) - (time - 1)
    counts = np.count_nonzero(steps <= tvg.num_instants - time, axis=1)
    return [row[:k] for row, k in zip(steps.tolist(), counts.tolist())]


class MetricSpec(NamedTuple):
    """Which metric to compute, with its parameter."""

    kind: Literal["ct", "tcc"]
    tau: Fraction | None = None
    phi: int | None = None

    @classmethod
    def ct(cls, tau: Fraction | str) -> MetricSpec:
        return cls("ct", tau=check_tau(tau))

    @classmethod
    def tcc(cls, phi: int) -> MetricSpec:
        if phi < 1:
            raise ValueError("phi must be at least 1")
        return cls("tcc", phi=phi)

    def label(self) -> str:
        if self.kind == "ct":
            return f"ct tau={self.tau}"
        return f"tcc phi={self.phi}"

    @property
    def higher_is_better(self) -> bool:
        return self.kind == "tcc"


def default_eval_range(num_instants: int) -> tuple[int, int]:
    """Default evaluation prefix: the first ceil(0.825 * N) instants.

    Leaves the tail of the sequence as room for diffusions to spread.
    """
    return (0, -((-825 * num_instants) // 1000))


def cover_time(tvg: TVG, t_i: int, tau: Fraction | str) -> MetricValue:
    """Cover time of one instant for coverage fraction tau, a one-instant sweep."""
    return metric_sweep(tvg, MetricSpec.ct(tau), (t_i, t_i + 1)).values[t_i]


def tcc(tvg: TVG, t_i: int, phi: int) -> Fraction:
    """Time-constrained coverage of one instant for step budget phi, a one-instant sweep."""
    return metric_sweep(tvg, MetricSpec.tcc(phi), (t_i, t_i + 1)).values[t_i]


def metric_sweep(
    tvg: TVG,
    metric: MetricSpec,
    eval_range: tuple[int, int] | None = None,
) -> MetricTable:
    """Compute a metric for every instant of a half-open range.

    One backward pass of earliest_arrivals serves every instant;
    each instant's arrival matrix is reduced to its value at once. ct takes
    per start the required_count-th earliest arrival, by a row-wise
    partition of the rows the pass names: every row at the first instant,
    then the rows the instant's snapshot rewrote (no other row's value
    moves). Its pass is its own probe: the first reads from top = last - 1.
    While a start at the first yield (instant last - 1) has not met the
    threshold by top, the pass is dropped there and run again with
    top = last - 2 + 4, 16, 64, ..., or the last snapshot once that is
    reached. A diffusion from (u, t), t < last - 1, still holds u at
    last - 1, so it meets the threshold no later than the one from
    (u, last - 1). tcc counts the arrivals within phi steps and reads no
    snapshot past the last instant's budget. A row whose node has no contact
    in t..within counts its diagonal alone, so the count reads only the
    other rows if they are at most half, and the whole matrix if not. Both
    metrics keep one int per instant (ct's is None while a start is short
    of the threshold) and make one Fraction per distinct int after the pass.
    """
    n = tvg.num_nodes
    if n == 0:
        raise ValueError("TVG has no nodes")
    if eval_range is None:
        eval_range = default_eval_range(tvg.num_instants)
    first, last = eval_range
    if not (0 <= first < last <= tvg.num_instants):
        raise ValueError(
            f"evaluation range [{first},{last}) invalid for {tvg.num_instants} instants"
        )
    ints, unreached = [], []  # per instant, in pass order (last - 1 down to first)
    if metric.kind == "ct":
        need = CoverageThreshold.of(metric.tau, n).required_count
        cover = np.empty(n, dtype=np.int64)  # per start, its need-th arrival
        span, limit = 1, tvg.num_instants - 1
        while not ints:  # a dropped pass appends nothing; a whole one reaches first
            top = min(last - 2 + span, limit)
            for t_i, arrival, rows in earliest_arrivals(tvg, first, last, top):
                if need == 1:
                    cover.fill(t_i - 1)  # the diagonal: every start covers itself at step 0
                elif len(rows):
                    # only the rewritten rows' need-th arrivals can have moved
                    block = arrival.take(rows, axis=0)
                    block.partition(need - 1, axis=1)
                    cover[rows] = block[:, need - 1]
                    del block  # not held through the next snapshot
                missing = int(np.count_nonzero(cover > top))
                if missing and t_i == last - 1 and top < limit:
                    break  # a start is short of need: restart with a larger top
                ints.append(None if missing else int(cover.sum()) - n * (t_i - 1))
                unreached.append(missing)
            del arrival  # freed before the next round allocates its own
            span *= 4
    else:
        phi, offsets = metric.phi, tvg.offsets
        top = min(tvg.num_instants - 1, last - 2 + phi)
        nxt = np.full(n, top + 1)  # per node, its first contact in snapshots t..top, or top + 1
        block = tvg.edges[offsets[last - 1] : offsets[top + 1]]
        np.minimum.at(nxt, block[:, 1:], block[:, :1])
        for t_i, arrival, rows in earliest_arrivals(tvg, first, last, top):
            within = min(t_i - 1 + phi, top)  # no arrival exceeds top
            if t_i < last - 1:  # the first yield names every row
                nxt[rows] = t_i
            active = (nxt <= within).nonzero()[0]
            if 2 * len(active) <= n:  # so the copy holds at most half the matrix
                count = n - len(active) + int(np.count_nonzero(arrival.take(active, 0) <= within))
            else:
                count = int(np.count_nonzero(arrival <= within))
            ints.append(count)
            unreached.append(0)
    denom = n if metric.kind == "ct" else n * n  # ct: steps over n starts; tcc: pairs of n * n
    share = {i: INF if i is None else Fraction(i, denom) for i in set(ints)}  # one per distinct int
    times = range(first, last)  # the pass runs backward; the table is in ascending order
    return MetricTable(metric, dict(zip(times, map(share.__getitem__, reversed(ints)))),
                       dict(zip(times, reversed(unreached))))


def check_top_k(k: int, instants: int) -> None:
    """ValueError unless k >= 1 and `instants` hold k top instants and k others."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if instants < 2 * k:
        raise ValueError(f"evaluation range of {instants} instants is too small for k={k}")


def compare_topk_random(table: MetricTable, k: int, seed: int) -> ComparisonReport:
    """Contrast the k most central instants with k random other instants.

    The baseline is drawn uniformly without replacement from the table's
    instants excluding the top-k set: the picks numpy's
    default_rng(seed).choice(len(candidates), size=k, replace=False) makes,
    computed without numpy.random (timecent.pcg.sample), so the report is
    reproducible. Requires at least 2k instants.
    """
    from .pcg import sample  # here, so that ct and tcc runs do not load it

    check_top_k(k, len(table.values))
    top = rank_instants(table, k)
    top_set = {t_i for t_i, _ in top}
    candidates = [t_i for t_i in table.times() if t_i not in top_set]
    chosen = sorted(candidates[i] for i in sample(seed, len(candidates), k))
    baseline = [(t_i, table.values[t_i]) for t_i in chosen]
    return ComparisonReport(
        table.metric, k, seed, group_stats(top), group_stats(baseline)
    )
