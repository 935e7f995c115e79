"""Contact-log ingestion: parse timestamped contacts, discretize to a TVG.

Input is line-oriented CSV `timestamp,label_a,label_b` (UTF-8, LF or
CRLF), with one optional header line recognized by a first field equal to
"timestamp". Timestamps are integer seconds. Discretization assigns a
record with timestamp s to snapshot floor((s - start) / granularity);
bins are left-closed, so a boundary timestamp belongs to the later bin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

import numpy as np

from .tvg import TVG, check_instants


class ContactLogError(ValueError):
    """Malformed contact-log input, carrying the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class ContactRecord:
    """One observed contact between two labelled nodes."""

    timestamp: int
    label_a: str
    label_b: str


@dataclass(frozen=True)
class IngestConfig:
    """Discretization settings.

    start_timestamp and end_timestamp default to the stream's minimum and
    maximum timestamps; the number of snapshots is
    floor((end - start) / granularity) + 1.
    """

    granularity_seconds: int = 30
    start_timestamp: int | None = None
    end_timestamp: int | None = None

    def __post_init__(self) -> None:
        if self.granularity_seconds < 1:
            raise ValueError("granularity_seconds must be at least 1")
        if (
            self.start_timestamp is not None
            and self.end_timestamp is not None
            and self.end_timestamp < self.start_timestamp
        ):
            raise ValueError("end_timestamp must not precede start_timestamp")


@dataclass
class IngestStats:
    """Counters reported alongside a discretized TVG."""

    records_read: int = 0
    records_rejected: int = 0
    start_timestamp: int = 0
    end_timestamp: int = 0
    labels: list[str] = field(default_factory=list)


def parse_contacts(src: IO[str] | Iterable[str]) -> Iterator[ContactRecord]:
    """Parse contact records from CSV lines, in input order.

    Labels are preserved verbatim (surrounding whitespace stripped).
    Raises ContactLogError with the line number on malformed lines,
    non-integer timestamps or self-contacts.
    """
    for lineno, raw in enumerate(src, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        parts = line.split(",")
        if lineno == 1 and parts and parts[0].strip().lower() == "timestamp":
            continue
        if len(parts) != 3:
            raise ContactLogError(lineno, "expected 'timestamp,label_a,label_b'")
        ts_text, label_a, label_b = (p.strip() for p in parts)
        try:
            timestamp = int(ts_text)
        except ValueError:
            raise ContactLogError(lineno, f"non-integer timestamp {ts_text!r}") from None
        if not label_a or not label_b:
            raise ContactLogError(lineno, "empty node label")
        if label_a == label_b:
            raise ContactLogError(lineno, f"self-contact on label {label_a!r}")
        yield ContactRecord(timestamp, label_a, label_b)


def discretize_with_stats(
    records: Iterable[ContactRecord], cfg: IngestConfig = IngestConfig()
) -> tuple[TVG, IngestStats]:
    """Discretize records into a TVG and report ingestion counters.

    Node labels get dense ids in first-appearance order. Records outside
    [start, end] are rejected and counted, not raised. Duplicate contacts
    within a bin collapse to one.
    """
    items = list(records)
    if not items and (cfg.start_timestamp is None or cfg.end_timestamp is None):
        raise ValueError("empty record stream needs explicit start and end timestamps")
    start = cfg.start_timestamp
    if start is None:
        start = min(r.timestamp for r in items)
    end = cfg.end_timestamp
    if end is None:
        end = max(r.timestamp for r in items)
    if end < start:
        raise ValueError("end_timestamp must not precede start_timestamp")
    granularity = cfg.granularity_seconds
    num_instants = (end - start) // granularity + 1
    try:
        check_instants(num_instants)
    except ValueError as exc:
        raise ValueError(f"timestamps {start} to {end} in {granularity} s bins: {exc}") from None
    flat: list[int] = []  # time, a, b of each accepted record
    ids: dict[str, int] = {}
    rejected = 0
    for rec in items:
        if not start <= rec.timestamp <= end:
            rejected += 1
            continue
        a = ids.setdefault(rec.label_a, len(ids))
        b = ids.setdefault(rec.label_b, len(ids))
        flat += ((rec.timestamp - start) // granularity, a, b)
    rows = np.array(flat, dtype=np.int64).reshape(-1, 3)
    rows[:, 1:].sort(axis=1)
    labels = {i: label for label, i in ids.items()}
    tvg = TVG(len(ids), num_instants, rows, labels or None)
    stats = IngestStats(
        records_read=len(items),
        records_rejected=rejected,
        start_timestamp=start,
        end_timestamp=end,
        labels=[label for label, _ in sorted(ids.items(), key=lambda kv: kv[1])],
    )
    return tvg, stats


def discretize(
    records: Iterable[ContactRecord], cfg: IngestConfig = IngestConfig()
) -> TVG:
    """Discretize records into a TVG (see discretize_with_stats)."""
    tvg, _ = discretize_with_stats(records, cfg)
    return tvg

