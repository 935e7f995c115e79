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

Values are exact rationals (Fraction); INF is float('inf'). CSV exports
render values as their float repr and INF as the literal `inf`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Iterable, Literal, Sequence

import numpy as np

from .diffusion import (
    NEVER,
    CoverageThreshold,
    check_phi,
    check_tau,
    earliest_arrivals,
    spread_milestones,
)
from .tvg import TVG

INF = math.inf

MetricValue = Fraction | float


def is_inf(value: MetricValue) -> bool:
    return isinstance(value, float) and math.isinf(value)


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


@dataclass
class MetricTable:
    """Per-instant metric values over a half-open evaluation range."""

    metric: MetricSpec | None
    values: dict[int, MetricValue]
    eval_range: tuple[int, int]
    unreached_starts: dict[int, int] = field(default_factory=dict)

    def times(self) -> list[int]:
        return sorted(self.values)

    def finite_values(self) -> list[MetricValue]:
        return [v for v in self.values.values() if not is_inf(v)]


def default_eval_range(num_instants: int) -> tuple[int, int]:
    """Default evaluation prefix: the first ceil(0.825 * N) instants.

    Leaves the tail of the sequence as room for diffusions to spread.
    """
    last = -((-825 * num_instants) // 1000)
    return (0, min(num_instants, last))


def cover_time(tvg: TVG, t_i: int, thr: CoverageThreshold) -> MetricValue:
    """Cover time of one instant: mean steps to the threshold, or INF."""
    if tvg.num_nodes == 0:
        raise ValueError("TVG has no nodes")
    need = thr.required_count
    if need != CoverageThreshold.of(thr.tau, tvg.num_nodes).required_count:
        raise ValueError(
            f"threshold of {need} nodes does not match tau={thr.tau} on {tvg.num_nodes} nodes"
        )
    milestones = spread_milestones(tvg, t_i, stop_count=need)
    if any(len(m) < need for m in milestones):
        return INF
    return Fraction(sum(m[need - 1] for m in milestones), tvg.num_nodes)


def tcc(tvg: TVG, t_i: int, phi: int) -> Fraction:
    """Time-constrained coverage of one instant for step budget phi."""
    check_phi(phi)
    if tvg.num_nodes == 0:
        raise ValueError("TVG has no nodes")
    milestones = spread_milestones(tvg, t_i, max_steps=phi)
    return Fraction(sum(len(m) for m in milestones), tvg.num_nodes ** 2)


def _ct_pass_top(tvg: TVG, last: int, need: int) -> int:
    """Last snapshot a ct sweep of instants before `last` reads.

    A diffusion from (u, t), t < last - 1, still holds u at last - 1, so
    from then on it informs a superset of the one from (u, last - 1) and
    meets the threshold no later. When every diffusion from last - 1 meets
    it, the latest of them bounds the whole range; otherwise the pass reads
    to the end.
    """
    if last == tvg.num_instants:
        return last - 1  # the range's last instant reads the last snapshot itself
    reach = spread_milestones(tvg, last - 1, stop_count=need)
    if any(len(m) < need for m in reach):
        return tvg.num_instants - 1
    # milestone step s of a diffusion from last - 1 consumes snapshot last - 2 + s
    return max(last - 1, last - 2 + max(m[need - 1] for m in reach))


def metric_sweep(
    tvg: TVG,
    metric: MetricSpec,
    eval_range: tuple[int, int] | None = None,
) -> MetricTable:
    """Compute a metric for every instant of a half-open range.

    One backward pass of diffusion.earliest_arrivals serves every instant;
    each instant's arrival matrix is reduced to its value at once. ct takes
    per start the required_count-th earliest arrival (a row-wise
    partition) and reads no snapshot past _ct_pass_top. tcc counts the
    arrivals within phi steps and reads no snapshot past the last instant's
    budget. Values equal cover_time and tcc of each instant.
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
        kth = need - 1
        for t_i, arrival in earliest_arrivals(tvg, first, last, _ct_pass_top(tvg, last, need)):
            cover = np.partition(arrival, kth, axis=1)[:, kth]
            unreached[t_i] = int(np.count_nonzero(cover == NEVER))
            if unreached[t_i]:
                values[t_i] = INF
            else:
                values[t_i] = Fraction(int(cover.sum(dtype=np.int64)) - n * (t_i - 1), n)
    else:
        phi = metric.phi
        top = min(tvg.num_instants - 1, last - 2 + phi)
        for t_i, arrival in earliest_arrivals(tvg, first, last, top):
            within = min(t_i - 1 + phi, top)  # no arrival exceeds top
            values[t_i] = Fraction(int(np.count_nonzero(arrival <= within)), n * n)
            unreached[t_i] = 0
    # the pass runs backward; keep the tables in ascending instant order
    return MetricTable(
        metric, dict(reversed(values.items())), (first, last), dict(reversed(unreached.items()))
    )


def _sort_key_low(item: tuple[int, MetricValue]) -> tuple[int, MetricValue, int]:
    t_i, value = item
    if is_inf(value):
        return (1, Fraction(0), t_i)
    return (0, value, t_i)


def rank_instants(
    table: MetricTable, k: int, higher_is_better: bool | None = None
) -> list[tuple[int, MetricValue]]:
    """Most central instants first; ties broken by earlier instant.

    Cover time ranks ascending with INF last, coverage ranks descending.
    Returns the first k entries (all, when k exceeds the table).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not table.values:
        raise ValueError("empty metric table")
    if higher_is_better is None:
        if table.metric is None:
            raise ValueError("table has no metric kind; pass higher_is_better")
        higher_is_better = table.metric.higher_is_better
    items = list(table.values.items())
    if higher_is_better:
        items.sort(key=lambda kv: (-kv[1], kv[0]))
    else:
        items.sort(key=_sort_key_low)
    return items[:k]


@dataclass(frozen=True)
class Distribution:
    """Empirical CDF or CCDF points over the finite values of a table."""

    kind: Literal["cdf", "ccdf"]
    points: tuple[tuple[MetricValue, Fraction], ...]
    excluded_infinite: int


def empirical_distribution(
    table: MetricTable, kind: Literal["cdf", "ccdf"] = "cdf"
) -> Distribution:
    """Distribution over finite values; INF entries are excluded and counted.

    CDF points are (v, fraction of finite values <= v); CCDF points are
    (v, fraction of finite values >= v), both over ascending distinct v.
    """
    if kind not in ("cdf", "ccdf"):
        raise ValueError(f"unknown distribution kind {kind!r}")
    finite = sorted(table.finite_values())
    excluded = len(table.values) - len(finite)
    if not finite:
        raise ValueError("no finite values to distribute")
    total = len(finite)
    counts: list[tuple[MetricValue, int]] = []
    for v in finite:
        if counts and counts[-1][0] == v:
            counts[-1] = (v, counts[-1][1] + 1)
        else:
            counts.append((v, 1))
    points = []
    if kind == "cdf":
        seen = 0
        for v, c in counts:
            seen += c
            points.append((v, Fraction(seen, total)))
    else:
        remaining = total
        for v, c in counts:
            points.append((v, Fraction(remaining, total)))
            remaining -= c
    return Distribution(kind, tuple(points), excluded)


def median(values: Sequence[MetricValue]) -> MetricValue:
    """Median with INF ordered above every finite value."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values, key=lambda v: (1, 0.0) if is_inf(v) else (0, v))
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    lo, hi = ordered[mid - 1], ordered[mid]
    if is_inf(hi):
        return INF
    return (lo + hi) / 2


@dataclass(frozen=True)
class GroupStats:
    members: tuple[tuple[int, MetricValue], ...]
    minimum: MetricValue
    med: MetricValue
    maximum: MetricValue


def _group_stats(members: list[tuple[int, MetricValue]]) -> GroupStats:
    vals = [v for _, v in members]
    ordered = sorted(vals, key=lambda v: (1, 0.0) if is_inf(v) else (0, v))
    return GroupStats(tuple(members), ordered[0], median(vals), ordered[-1])


@dataclass(frozen=True)
class ComparisonReport:
    """Top-k instants versus a seeded random baseline of equal size."""

    metric: MetricSpec | None
    k: int
    seed: int
    top: GroupStats
    random: GroupStats


def compare_topk_random(
    tvg: TVG, table: MetricTable, k: int, seed: int
) -> ComparisonReport:
    """Contrast the k most central instants with k random other instants.

    The baseline is drawn uniformly without replacement from the table's
    instants excluding the top-k set, using a seeded generator, so the
    report is reproducible. Requires at least 2k instants.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(table.values) < 2 * k:
        raise ValueError(
            f"evaluation range of {len(table.values)} instants is too small for k={k}"
        )
    top = rank_instants(table, k)
    top_set = {t_i for t_i, _ in top}
    candidates = [t_i for t_i in table.times() if t_i not in top_set]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(candidates), size=k, replace=False)
    chosen = sorted(candidates[int(i)] for i in picks)
    baseline = [(t_i, table.values[t_i]) for t_i in chosen]
    return ComparisonReport(
        table.metric, k, seed, _group_stats(top), _group_stats(baseline)
    )


# ---------------------------------------------------------------------------
# CSV export / import


def format_value(value: MetricValue) -> str:
    if is_inf(value):
        return "inf"
    return repr(float(value))


def write_table_csv(table: MetricTable, out: IO[str]) -> None:
    out.write("time_index,value,unreached_starts\n")
    for t_i in table.times():
        unreached = table.unreached_starts.get(t_i, 0)
        out.write(f"{t_i},{format_value(table.values[t_i])},{unreached}\n")


def read_table_csv(src: IO[str] | Iterable[str], metric: MetricSpec | None = None) -> MetricTable:
    """Read a table written by write_table_csv; values become floats."""
    values: dict[int, MetricValue] = {}
    unreached: dict[int, int] = {}
    for lineno, raw in enumerate(src, start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1:
            if line != "time_index,value,unreached_starts":
                raise ValueError(f"unexpected table header: {line!r}")
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 fields")
        try:
            t_i = int(parts[0])
            value = float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed row {line!r}") from None
        values[t_i] = value
        unreached[t_i] = count
    if not values:
        raise ValueError("metric table has no rows")
    times = sorted(values)
    return MetricTable(metric, values, (times[0], times[-1] + 1), unreached)


def write_distribution_csv(dist: Distribution, out: IO[str]) -> None:
    out.write("value,cum_fraction\n")
    for value, frac in dist.points:
        out.write(f"{format_value(value)},{repr(float(frac))}\n")


def write_comparison_csv(report: ComparisonReport, out: IO[str]) -> None:
    out.write("group,time_index,value\n")
    for group, stats in (("top", report.top), ("random", report.random)):
        for t_i, value in stats.members:
            out.write(f"{group},{t_i},{format_value(value)}\n")


def comparison_summary(report: ComparisonReport) -> str:
    """Human-readable three-point summary of both groups."""
    label = report.metric.label() if report.metric else "metric"
    lines = [f"top-{report.k} vs random-{report.k} ({label}, seed {report.seed})"]
    for name, stats in (("top", report.top), ("random", report.random)):
        lines.append(
            f"  {name:<7} min={format_value(stats.minimum)}"
            f" median={format_value(stats.med)} max={format_value(stats.maximum)}"
        )
    return "\n".join(lines)
