"""Metric tables: rankings, distributions, comparison reports and their CSV files.

A table holds one metric value per instant of an evaluation range. Values
are exact rationals (Fraction) when a sweep computed them and floats when
read back from CSV; INF is float('inf'), which orders above every finite
value of either type, so sorting needs no special key. CSV exports render
values as their float repr and INF as the literal `inf`.

This module imports no numpy, so the commands that only read and write
tables (dist, rank) start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, TYPE_CHECKING, Iterable, Literal, Sequence

if TYPE_CHECKING:
    from .centrality import MetricSpec

INF = math.inf

MetricValue = Fraction | float


def is_inf(value: MetricValue) -> bool:
    return isinstance(value, float) and math.isinf(value)


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
        items.sort(key=lambda kv: (kv[1], kv[0]))
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
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


@dataclass(frozen=True)
class GroupStats:
    members: tuple[tuple[int, MetricValue], ...]
    minimum: MetricValue
    med: MetricValue
    maximum: MetricValue


def group_stats(members: list[tuple[int, MetricValue]]) -> GroupStats:
    vals = [v for _, v in members]
    ordered = sorted(vals)
    return GroupStats(tuple(members), ordered[0], median(vals), ordered[-1])


@dataclass(frozen=True)
class ComparisonReport:
    """Top-k instants versus a seeded random baseline of equal size."""

    metric: MetricSpec | None
    k: int
    seed: int
    top: GroupStats
    random: GroupStats


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


def read_table_csv(src: IO[str] | Iterable[str]) -> MetricTable:
    """Read a table written by write_table_csv; values become floats.

    A sweep writes each instant once, with a value >= 0 or inf and a
    non-negative unreached count; any other row is refused.
    """
    values: dict[int, MetricValue] = {}
    unreached: dict[int, int] = {}
    header = False
    for lineno, raw in enumerate(src, start=1):
        line = raw.strip()
        if not line:
            continue
        if not header:
            if line != "time_index,value,unreached_starts":
                raise ValueError(f"unexpected table header: {line!r}")
            header = True
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
        if t_i in values:
            raise ValueError(f"line {lineno}: repeated time_index {t_i}")
        if not value >= 0:  # refuses nan as well as negatives
            raise ValueError(f"line {lineno}: value {parts[1]!r} is neither >= 0 nor inf")
        if count < 0:
            raise ValueError(f"line {lineno}: negative unreached_starts {count}")
        values[t_i] = value
        unreached[t_i] = count
    if not values:
        raise ValueError("metric table has no rows")
    times = sorted(values)
    return MetricTable(None, values, (times[0], times[-1] + 1), unreached)


def write_ranking_csv(ranked: Sequence[tuple[int, MetricValue]], out: IO[str]) -> None:
    out.write("rank,time_index,value\n")
    for pos, (t_i, value) in enumerate(ranked, start=1):
        out.write(f"{pos},{t_i},{format_value(value)}\n")


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
