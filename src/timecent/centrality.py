"""Time-centrality metrics over TVG instants.

Two metrics rank time instants by how well a flooding diffusion started
at that instant performs, averaged over all start nodes:

* Cover time ct(t, tau): mean number of steps for the diffusion from
  (u, t) to inform at least ceil(tau * |V|) nodes, averaged over every
  start node u. If any start node never meets the threshold before the
  snapshots run out, the instant's value is INF (the count of failing
  starts is retained per instant, so softer aggregations stay derivable
  without rerunning). Lower is more central.

* Time-constrained coverage tcc(t, phi): sum over start nodes of the
  number of nodes informed after at most phi steps, normalized by |V|^2.
  Always in [1/|V|, 1]; higher is more central.

Values are exact rationals (Fraction); INF is float('inf'). metric_sweep
computes them all, cover_time and tcc as one-instant sweeps; a ct sweep
finds how far its diffusions read by restarting its own pass with a
larger top. Tables, rankings, distributions and their CSV files live in
the tables module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

import numpy as np

from .diffusion import (
    CoverageThreshold,
    check_phi,
    check_tau,
    earliest_arrivals,
    spread_milestones,  # noqa: F401  (re-exported: perfbench/traced.py wraps it here)
)
from .tables import (
    INF,
    ComparisonReport,
    MetricTable,
    MetricValue,
    group_stats,
    is_inf,  # noqa: F401  (re-exported: perfbench/traced.py imports it from here)
    rank_instants,
)
from .tvg import TVG


@dataclass(frozen=True)
class MetricSpec:
    """Which metric to compute, with its parameter."""

    kind: Literal["ct", "tcc"]
    tau: Fraction | None = None
    phi: int | None = None

    @classmethod
    def ct(cls, tau: Fraction | str) -> MetricSpec:
        return cls("ct", tau=check_tau(tau))

    @classmethod
    def tcc(cls, phi: int) -> MetricSpec:
        return cls("tcc", phi=check_phi(phi))

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
    last = -((-825 * num_instants) // 1000)
    return (0, min(num_instants, last))


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

    One backward pass of diffusion.earliest_arrivals serves every instant;
    each instant's arrival matrix is reduced to its value at once. ct takes
    per start the required_count-th earliest arrival, by a row-wise
    partition that after the first instant covers only the rows the
    instant's snapshot rewrote (no other row's value moves). Its pass is
    its own probe: the first reads from top = last - 1. While a start at
    the first yield (instant last - 1) has not met the threshold by top,
    the pass is dropped there and run again with top = last - 2 + 4, 16,
    64, ..., or the last snapshot once that is reached. A diffusion from
    (u, t), t < last - 1, still holds u at last - 1, so it meets the
    threshold no later than the one from (u, last - 1). tcc counts the
    arrivals within phi steps and reads no snapshot past the last
    instant's budget.
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
    values: dict[int, MetricValue] = {}
    unreached: dict[int, int] = {}
    if metric.kind == "ct":
        need = CoverageThreshold.of(metric.tau, n).required_count
        span, limit = 1, tvg.num_instants - 1
        while True:
            top = min(last - 2 + span, limit)
            for t_i, arrival, rows in earliest_arrivals(tvg, first, last, top):
                if rows is None:
                    # a copy: a view would keep the partitioned n x n copy alive through the next snapshot
                    cover = np.partition(arrival, need - 1, axis=1)[:, need - 1].copy()
                    if top < limit and cover.max() > top:
                        break  # a start is short of need: restart with a larger top
                elif need == 1:
                    cover.fill(t_i - 1)  # the diagonal: every start covers itself at step 0
                elif len(rows):
                    # only the rewritten rows' need-th arrivals can have moved
                    block = arrival.take(rows, axis=0)
                    block.partition(need - 1, axis=1)
                    cover[rows] = block[:, need - 1]
                    del block  # not held through the next snapshot
                unreached[t_i] = int(np.count_nonzero(cover > top))
                total = int(cover.sum(dtype=np.int64)) - n * (t_i - 1)
                values[t_i] = INF if unreached[t_i] else Fraction(total, n)
            else:
                break
            del arrival  # freed before the next round allocates its own
            span *= 4
    else:
        phi = metric.phi
        top = min(tvg.num_instants - 1, last - 2 + phi)
        for t_i, arrival, _ in earliest_arrivals(tvg, first, last, top):
            within = min(t_i - 1 + phi, top)  # no arrival exceeds top
            values[t_i] = Fraction(int(np.count_nonzero(arrival <= within)), n * n)
            unreached[t_i] = 0
    # the pass runs backward; keep the tables in ascending instant order
    return MetricTable(
        metric, dict(reversed(values.items())), (first, last), dict(reversed(unreached.items()))
    )


def check_top_k(k: int, instants: int) -> None:
    """ValueError unless k >= 1 and `instants` hold k top instants and k others."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if instants < 2 * k:
        raise ValueError(f"evaluation range of {instants} instants is too small for k={k}")


def compare_topk_random(table: MetricTable, k: int, seed: int) -> ComparisonReport:
    """Contrast the k most central instants with k random other instants.

    The baseline is drawn uniformly without replacement from the table's
    instants excluding the top-k set, using a seeded generator, so the
    report is reproducible. Requires at least 2k instants.
    """
    check_top_k(k, len(table.values))
    top = rank_instants(table, k)
    top_set = {t_i for t_i, _ in top}
    candidates = [t_i for t_i in table.times() if t_i not in top_set]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(candidates), size=k, replace=False)
    chosen = sorted(candidates[int(i)] for i in picks)
    baseline = [(t_i, table.values[t_i]) for t_i in chosen]
    return ComparisonReport(
        table.metric, k, seed, group_stats(top), group_stats(baseline)
    )
