"""Contact-log ingestion: parse timestamped contacts, discretize to a TVG.

Input is line-oriented CSV `timestamp,label_a,label_b` (UTF-8, LF or
CRLF), with one optional header line recognized by a first field equal to
"timestamp". Timestamps are integer seconds. Discretization assigns a
record with timestamp s to snapshot floor((s - start) / granularity);
bins are left-closed, so a boundary timestamp belongs to the later bin.

`parse_contacts` reads the lines in one pass into a `ContactColumns`,
skipping blank lines, and stops at the first bad line, so a bad log is
refused before the rest of it is read. `discretize_with_stats` turns the
columns into the TVG's (time, a, b) rows on whole columns; node i's
label is `IngestStats.labels[i]`, since the TVG keeps no labels.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress, count
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

    One pass over the lines, which stops at the first bad one: it raises
    ContactLogError with that line's number for a wrong field count, a
    non-integer timestamp, an empty label or a self-contact. Labels are
    kept verbatim apart from surrounding whitespace, and the records that
    name one label share one str.
    """
    timestamps: array[int] | list[int] = array("q")  # a list once one is past int64
    label_a: list[str] = []
    label_b: list[str] = []
    label = {}.setdefault  # one str per distinct label, shared by every record that names it
    for lineno, line in enumerate(src, start=1):
        parts = line.split(",")  # the line end is whitespace, stripped off the last field
        if len(parts) != 3 or lineno == 1:
            first = parts[0].strip()
            if len(parts) == 1 and not first:
                continue  # a blank line
            if lineno == 1 and first.lower() == "timestamp":
                continue  # the header
            if len(parts) != 3:
                raise ContactLogError(lineno, "expected 'timestamp,label_a,label_b'")
        ts_text, a, b = parts
        ts_text = ts_text.strip()  # int() alone would refuse the \x1c-\x1f that strip() drops
        try:
            timestamps.append(int(ts_text))
        except ValueError:
            raise ContactLogError(lineno, f"non-integer timestamp {ts_text!r}") from None
        except OverflowError:
            timestamps = timestamps.tolist()
            timestamps.append(int(ts_text))
        a = a.strip()
        b = b.strip()
        if not a or not b:
            raise ContactLogError(lineno, "empty node label")
        if a == b:
            raise ContactLogError(lineno, f"self-contact on label {a!r}")
        label_a.append(label(a, a))
        label_b.append(label(b, b))
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
    if max(-start, end, end - start, granularity) >= 1 << 63:
        timestamps = timestamps.astype(object)  # the window needs Python ints
    accepted = (timestamps >= start) & (timestamps <= end)
    ids = defaultdict(count().__next__)  # a label new to it gets the next id
    # the ids of the accepted records' labels, interleaved a, b, in one pass
    labels = chain.from_iterable(compress(zip(label_a, label_b), accepted.tobytes()))
    kept = np.count_nonzero(accepted)
    pairs = np.fromiter(map(ids.__getitem__, labels), np.int64, 2 * kept).reshape(-1, 2)
    del labels  # before the rows are allocated
    pairs.sort(axis=1)
    rows = np.empty((len(pairs), 3), dtype=np.int64)
    rows[:, 0] = (timestamps[accepted] - start) // granularity
    rows[:, 1:] = pairs
    del pairs
    tvg = TVG(len(ids), num_instants, rows)
    stats = IngestStats(
        records_read=len(timestamps),
        records_rejected=len(timestamps) - len(rows),
        start_timestamp=start,
        end_timestamp=end,
        labels=list(ids),
    )
    return tvg, stats
