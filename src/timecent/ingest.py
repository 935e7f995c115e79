"""Contact-log ingestion: parse timestamped contacts, discretize to a TVG.

Input is line-oriented CSV `timestamp,label_a,label_b` (UTF-8, LF or
CRLF), with one optional header line recognized by a first field equal to
"timestamp". Timestamps are integer seconds. Discretization assigns a
record with timestamp s to snapshot floor((s - start) / granularity);
bins are left-closed, so a boundary timestamp belongs to the later bin.

Both steps run on whole columns: `parse_contacts` splits the text once and
returns a `ContactColumns`. A line scan runs only when a column check
fails, to name the first bad line (or to skip blank lines).
`discretize_with_stats` turns the columns into the TVG's (time, a, b) rows;
node i's label is `IngestStats.labels[i]`, since the TVG keeps no labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from typing import IO, Iterable, NamedTuple

import numpy as np

from .tvg import TVG, _integers, check_instants


class ContactLogError(ValueError):
    """Malformed contact-log input, carrying the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ContactColumns(NamedTuple):
    """Contact records as columns, in input order."""

    timestamps: np.ndarray  # int64, or Python ints if one is past int64
    label_a: list[str]
    label_b: list[str]


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


def parse_contacts(src: IO[str] | Iterable[str]) -> ContactColumns:
    """Parse contact records from CSV lines into columns, in input order.

    Labels are preserved verbatim (surrounding whitespace stripped).
    Raises ContactLogError with the line number on malformed lines,
    non-integer timestamps, empty labels or self-contacts.
    """
    lines = [raw.rstrip("\r\n") for raw in src]
    body = lines[1:] if lines and _is_header(lines[0]) else lines
    try:
        if not set(map(str.count, body, repeat(","))) <= {2}:
            raise ValueError("a blank or malformed line")
        fields = ",".join(body).split(",")
        timestamps = _integers(fields[0::3])
        label_a = list(map(str.strip, fields[1::3]))
        label_b = list(map(str.strip, fields[2::3]))
        if "" in label_a or "" in label_b or any(map(str.__eq__, label_a, label_b)):
            raise ValueError("an empty label or a self-contact")
    except ValueError:
        return _scan_contacts(lines)
    return ContactColumns(timestamps, label_a, label_b)


def _is_header(line: str) -> bool:
    return line.split(",")[0].strip().lower() == "timestamp"


def _scan_contacts(lines: list[str]) -> ContactColumns:
    """parse_contacts line by line: skips blank lines and raises at the
    first bad one."""
    timestamps: list[int] = []
    label_a: list[str] = []
    label_b: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if lineno == 1 and _is_header(line):
            continue
        if len(parts) != 3:
            raise ContactLogError(lineno, "expected 'timestamp,label_a,label_b'")
        ts_text, a, b = (p.strip() for p in parts)
        try:
            timestamps.append(int(ts_text))
        except ValueError:
            raise ContactLogError(lineno, f"non-integer timestamp {ts_text!r}") from None
        if not a or not b:
            raise ContactLogError(lineno, "empty node label")
        if a == b:
            raise ContactLogError(lineno, f"self-contact on label {a!r}")
        label_a.append(a)
        label_b.append(b)
    return ContactColumns(_integers(timestamps), label_a, label_b)


def discretize_with_stats(
    columns: ContactColumns, cfg: IngestConfig = IngestConfig()
) -> tuple[TVG, IngestStats]:
    """Discretize contact columns into a TVG and report ingestion counters.

    Node labels get dense ids in first-appearance order (a before b) among
    the accepted records. Records outside [start, end] are rejected and
    counted, not raised. Duplicate contacts within a bin collapse to one.
    """
    timestamps, label_a, label_b = columns
    timestamps = _integers(timestamps)
    if not len(timestamps) and (cfg.start_timestamp is None or cfg.end_timestamp is None):
        raise ValueError("empty record stream needs explicit start and end timestamps")
    start = cfg.start_timestamp
    if start is None:
        start = int(timestamps.min())
    end = cfg.end_timestamp
    if end is None:
        end = int(timestamps.max())
    if end < start:
        raise ValueError("end_timestamp must not precede start_timestamp")
    granularity = cfg.granularity_seconds
    num_instants = (end - start) // granularity + 1
    try:
        check_instants(num_instants)
    except ValueError as exc:
        raise ValueError(f"timestamps {start} to {end} in {granularity} s bins: {exc}") from None
    if max(-start, end, end - start) >= 1 << 63:
        timestamps = timestamps.astype(object)  # the window needs Python ints
    accepted = (timestamps >= start) & (timestamps <= end)
    # the labels of the accepted records, interleaved a, b
    labels = list(chain.from_iterable(compress(zip(label_a, label_b), accepted.tolist())))
    ids = {label: i for i, label in enumerate(dict.fromkeys(labels))}
    rows = np.empty((len(labels) // 2, 3), dtype=np.int64)
    rows[:, 0] = (timestamps[accepted] - start) // granularity
    rows[:, 1:] = np.fromiter(map(ids.__getitem__, labels), np.int64, len(labels)).reshape(-1, 2)
    rows[:, 1:].sort(axis=1)
    tvg = TVG(len(ids), num_instants, rows)
    stats = IngestStats(
        records_read=len(timestamps),
        records_rejected=len(timestamps) - len(rows),
        start_timestamp=start,
        end_timestamp=end,
        labels=list(ids),
    )
    return tvg, stats
