"""Metric tables: rankings, distributions, comparison reports and their CSV files.

A table holds one metric value per instant of an evaluation range. Values
are exact rationals (Fraction) when a sweep computed them and floats when
read back from CSV; INF is float('inf'), which orders above every finite
value of either type, so sorting needs no special case for it. CSV exports
render values as their float repr and INF as the literal `inf`.

This module imports no numpy, so the commands that only read and write
tables (dist, rank) start without it. Its records, like centrality's, are
NamedTuples, so no sweep or table command imports `dataclasses` (a record
also equals the plain tuple of its fields, and has a length and unpacks).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import IO, TYPE_CHECKING, Callable, Iterable, Literal, NamedTuple, Sequence

if TYPE_CHECKING:
    from .centrality import MetricSpec

INF = math.inf

MetricValue = Fraction | float


def is_inf(value: MetricValue) -> bool:
    return isinstance(value, float) and math.isinf(value)


class MetricTable(NamedTuple):
    """Per-instant metric values; the keys of `values` are the table's instants."""

    metric: MetricSpec | None
    values: dict[int, MetricValue]
    unreached_starts: dict[int, int]  # no default: a NamedTuple's would be one shared dict

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
    key = _order_key(table.values.values())
    sign = -1 if higher_is_better else 1
    items = list(table.values.items())
    items.sort(key=lambda kv: (sign * key(kv[1]), kv[0]))
    return items[:k]


def _order_key(values: Iterable[MetricValue]) -> Callable[[MetricValue], MetricValue]:
    """A key that orders the values as they order themselves.

    When every finite value is a Fraction, as in a sweep's table, that is
    the integer v * L for L the lcm of their denominators, which compares
    far faster than Fractions do; INF stays math.inf. Float and mixed
    tables sort on the values themselves.
    """
    denominators = set()
    for v in values:
        if isinstance(v, Fraction):
            denominators.add(v.denominator)
        elif not is_inf(v):
            return lambda v: v
    scale = math.lcm(*denominators)
    return lambda v: v.numerator * (scale // v.denominator) if isinstance(v, Fraction) else v


class Distribution(NamedTuple):
    """Empirical CDF or CCDF points over the finite values of a table."""

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
    # each distinct value once, named by the last member of its run of equal values
    distinct = [v for v, after in zip(finite, finite[1:] + [None]) if v != after]
    if kind == "cdf":
        points = [(v, Fraction(bisect_right(finite, v), total)) for v in distinct]
    else:
        points = [(v, Fraction(total - bisect_left(finite, v), total)) for v in distinct]
    return Distribution(tuple(points), excluded)


def median(values: Sequence[MetricValue]) -> MetricValue:
    """Median with INF ordered above every finite value."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


class GroupStats(NamedTuple):
    members: tuple[tuple[int, MetricValue], ...]
    minimum: MetricValue
    med: MetricValue
    maximum: MetricValue


def group_stats(members: list[tuple[int, MetricValue]]) -> GroupStats:
    vals = [v for _, v in members]
    ordered = sorted(vals)
    return GroupStats(tuple(members), ordered[0], median(vals), ordered[-1])


class ComparisonReport(NamedTuple):
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

    A sweep writes each instant (>= 0) once, with a value >= 0 or inf and
    a non-negative unreached count; any other row is refused.
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
        if t_i < 0:
            raise ValueError(f"line {lineno}: negative time_index {t_i}")
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
    return MetricTable(None, values, unreached)


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
