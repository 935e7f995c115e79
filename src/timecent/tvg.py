"""Snapshot-sequence model of a time-varying graph (TVG).

A TVG is a fixed node set observed over a discrete sequence of time
instants. Each instant carries a snapshot: the set of undirected contacts
active at that instant. A contact {a, b} at instant t stands for the
reciprocal pair of directed temporal edges that deliver from t to t+1;
that cross-instant convention is realized operationally by the diffusion
step rule (see timecent.centrality), so no edge beyond the final instant is
ever materialized.

Storage is columnar: one read-only int32 array `edges` of (time, a, b)
rows with a < b, sorted by (time, a, b) without duplicates, and
num_instants + 1 int64 `offsets`, so the contacts of instant t are rows
offsets[t] to offsets[t + 1] (CSR over time). An empty instant costs one
offset. `TVG.snapshots` is a read-only sequence view over those slices.
A TVG is built from such rows, TVG(num_nodes, num_instants, rows), given
in any order; `contacts()` yields them back as `Contact` tuples.

Serialized form ("tvg v1"), byte-deterministic for a given TVG:

    tvg v1 <num_nodes> <num_instants>
    <time> <a> <b>
    ...

with a < b on every contact line, lines sorted by (time, a, b), LF line
endings and a trailing newline. Nodes are the integers 0 to num_nodes - 1;
a contact log's labels stay with its ingestion (`IngestStats.labels`).

The parser reads any order and skips blank lines. A contact line is three
fields separated by whitespace: any run of the characters str.split()
splits on, other than a line end (format_tvg writes one space). Each field,
and each header count, is an ASCII integer, [+-]?[0-9]+. numpy's loadtxt
reads exactly this grammar; a line scan with it names the first bad line.
"""

from __future__ import annotations

import re
import warnings
from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

import numpy as np

NodeId = int
TimeIndex = int

FORMAT_HEADER = "tvg v1"
_is_field = re.compile(r"[+-]?[0-9]+").fullmatch  # a header count or a contact field

# Largest instant count a TVG may have. Its offsets are int64, so they stay
# within 64 MiB whatever a header or a contact log's time span declares.
MAX_INSTANTS = 1 << 23

# Largest node count a sweep (centrality.earliest_arrivals, behind every
# metric) accepts: its state is one n x n matrix, int16 up to 32,767
# instants (128 MiB at this size) and int32 beyond (256 MiB). With a
# snapshot's contact rows and one neighbour gather, a pass peaks near 3x
# that (384 or 768 MiB).
MAX_SWEEP_NODES = 8192


class TvgFormatError(ValueError):
    """Raised when serialized TVG data cannot be parsed."""


class TemporalNode(NamedTuple):
    """A (node, time instant) pair."""

    node: NodeId
    time: TimeIndex


class Contact(NamedTuple):
    """Undirected co-presence of nodes a < b at one instant, as
    TVG.contacts() yields it."""

    a: NodeId
    b: NodeId
    time: TimeIndex


def check_nodes(num_nodes: int) -> None:
    """ValueError unless 0 <= num_nodes <= 2**31 - 1: node ids are int32."""
    if not 0 <= num_nodes <= np.iinfo(np.int32).max:
        raise ValueError(f"num_nodes must be in [0, 2**31 - 1], got {num_nodes}")


def check_instants(num_instants: int) -> None:
    """ValueError unless 1 <= num_instants <= MAX_INSTANTS."""
    if not 1 <= num_instants <= MAX_INSTANTS:
        raise ValueError(
            f"num_instants must be in [1, {MAX_INSTANTS}] (MAX_INSTANTS), got {num_instants}"
        )


def _integers(values) -> np.ndarray:
    """values (ints, or strings that int() reads) as an int64 array, or as
    Python ints if one overflows int64."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:  # such a value is out of range; the checks still find it
        return np.frompyfunc(int, 1, 1)(np.asarray(values, dtype=object))


def _first_invalid(rows: np.ndarray, num_nodes: int, num_instants: int) -> tuple[int, str] | None:
    """Index of the first row that is not a contact of such a TVG, and why."""
    t, a, b = rows.T
    bad = (t < 0) | (t >= num_instants) | (a < 0) | (b >= num_nodes) | (a >= b)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    t, a, b = rows[i].tolist()
    if not 0 <= t < num_instants:
        return i, f"time {t} out of range [0,{num_instants})"
    if not (0 <= a < num_nodes and 0 <= b < num_nodes):
        return i, f"node out of range: contact ({a},{b}) at time {t}, node range [0,{num_nodes})"
    return i, f"contact ({a},{b}) at time {t} must satisfy a < b"


def _sorted_unique(rows: np.ndarray, num_nodes: int, num_instants: int) -> np.ndarray:
    """Valid (time, a, b) rows sorted without repeats, as int32: by one int64
    key (t * n + a) * n + b, sorted in place, or by np.unique over the rows
    once num_instants * num_nodes**2 passes 2**63 and that key would overflow."""
    n = num_nodes
    if num_instants * n * n > 1 << 63:
        return np.unique(rows, axis=0).astype(np.int32)
    key = rows[:, 0] * n
    key += rows[:, 1]
    key *= n
    key += rows[:, 2]
    if (key[1:] > key[:-1]).all():  # in order, without repeats, as a saved file is
        return rows.astype(np.int32)
    key.sort()
    key = key[np.r_[True, key[1:] != key[:-1]]]  # drop repeats (key is not empty here)
    edges = np.empty((len(key), 3), dtype=np.int32)
    np.divmod(key, n, out=(key, edges[:, 2]))
    np.divmod(key, n, out=(edges[:, 0], edges[:, 1]))
    return edges


class Snapshot:
    """Read-only view of the contacts of one instant: `pairs` holds their
    (a, b) rows, a < b, sorted."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: np.ndarray):
        self.pairs = pairs

    @property
    def contact_list(self) -> tuple[tuple[NodeId, NodeId], ...]:
        return tuple(map(tuple, self.pairs.tolist()))

    def __len__(self) -> int:
        return len(self.pairs)


class Snapshots(Sequence):
    """Read-only sequence of a TVG's snapshots, one slice of its edges each."""

    __slots__ = ("_pairs", "_offsets")

    def __init__(self, tvg: TVG):
        self._pairs = tvg.edges[:, 1:]
        self._offsets = tvg.offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[t] for t in range(*index.indices(len(self)))]
        t = range(len(self))[index]
        return Snapshot(self._pairs[self._offsets[t] : self._offsets[t + 1]])


class TVG:
    """A time-varying graph: its contacts in columnar form (see module doc).

    Instances are not modified after construction, and their arrays are
    read-only; construct once, then share.
    """

    __slots__ = ("num_nodes", "num_instants", "edges", "offsets")

    def __init__(
        self,
        num_nodes: int,
        num_instants: int,
        rows: Iterable[tuple[TimeIndex, NodeId, NodeId]] | np.ndarray,
    ):
        """`rows` holds (time, a, b) contacts with a < b, in any order;
        duplicates collapse to one."""
        check_nodes(num_nodes)
        check_instants(num_instants)
        rows = _integers(rows)
        if rows.size == 0:
            rows = rows.reshape(0, 3)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError("contacts must be (time, a, b) rows")
        invalid = _first_invalid(rows, num_nodes, num_instants)
        if invalid is not None:
            raise ValueError(invalid[1])
        edges = _sorted_unique(rows, num_nodes, num_instants)
        # offsets[t]: contacts before instant t, summed in place
        offsets = np.bincount(edges[:, 0] + 1, minlength=num_instants + 1)
        np.cumsum(offsets, out=offsets)
        edges.flags.writeable = False
        offsets.flags.writeable = False
        self.num_nodes = num_nodes
        self.num_instants = num_instants
        self.edges = edges
        self.offsets = offsets

    @classmethod
    def from_snapshot_pairs(
        cls,
        num_nodes: int,
        per_time_pairs: Iterable[Iterable[tuple[NodeId, NodeId]]],
    ) -> TVG:
        """Build from one iterable of canonical (a, b) pairs per instant."""
        per_time = list(per_time_pairs)
        rows = [(t, a, b) for t, pairs in enumerate(per_time) for a, b in pairs]
        return cls(num_nodes, len(per_time), rows)

    @property
    def snapshots(self) -> Snapshots:
        return Snapshots(self)

    def contacts(self) -> Iterator[Contact]:
        """All contacts in (time, a, b) order."""
        for t, a, b in self.edges.tolist():
            yield Contact(a, b, t)

    def num_contacts(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TVG):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self.num_instants == other.num_instants
            and np.array_equal(self.edges, other.edges)
        )

    def __repr__(self) -> str:
        return (
            f"TVG(num_nodes={self.num_nodes}, num_instants={self.num_instants}, "
            f"contacts={self.num_contacts()})"
        )


def churn_rate(tvg: TVG) -> Fraction:
    """Tendency of active node pairs to change state between instants.

    Pooled over all consecutive snapshot pairs (i, i+1): the fraction of
    node pairs active in snapshot i or i+1 whose state differs between
    the two. Always-absent pairs do not enter the denominator. Returns 0
    when no pair is ever active.

    With C_i the contacts of instant i, m their total and S the sum of
    |C_i & C_{i+1}|: flipped = 2m - |C_0| - |C_last| - 2S and active =
    flipped + S. S counts the contacts whose pair recurs at the next
    instant: sorted keys (a * n + b) * (N + 1) + t that differ by 1. The
    stride N + 1 keeps one pair's instant N - 1 off the next pair's instant 0.
    """
    if tvg.num_instants < 2:
        raise ValueError("churn_rate needs at least 2 snapshots")
    stride = tvg.num_instants + 1
    pair = tvg.edges[:, 1].astype(np.int64) * tvg.num_nodes + tvg.edges[:, 2]
    if tvg.num_nodes**2 * stride > 1 << 63:  # number the pairs densely: the keys fit int64
        pair = np.unique(pair, return_inverse=True)[1]
    key = np.sort(pair * stride + tvg.edges[:, 0])
    overlap = int(np.count_nonzero(key[1:] - key[:-1] == 1))
    m = tvg.num_contacts()
    ends = int(tvg.offsets[1]) + m - int(tvg.offsets[-2])
    flipped = 2 * m - ends - 2 * overlap
    active = flipped + overlap
    if active == 0:
        return Fraction(0)
    return Fraction(flipped, active)


# rows format_tvg renders at a time, so that few of their Python ints are alive at once
_FORMAT_ROWS = 1 << 14


def format_tvg(tvg: TVG) -> str:
    """Render the tvg v1 text form."""
    parts = [f"{FORMAT_HEADER} {tvg.num_nodes} {tvg.num_instants}\n"]
    for i in range(0, tvg.num_contacts(), _FORMAT_ROWS):
        block = tvg.edges[i : i + _FORMAT_ROWS]
        parts.append(("%d %d %d\n" * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def save_tvg(tvg: TVG, path: str) -> None:
    # newline="" so the output is LF on every platform
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_tvg(tvg))


def parse_tvg(lines: Iterable[str]) -> TVG:
    """Parse the tvg v1 text form; raises TvgFormatError on bad input.

    numpy's loadtxt reads the body after the header. If it fails, or a row
    is out of range, a line scan finds the first bad line and names it.
    """
    try:  # where the scan reads a stream again from
        start = lines.tell() if lines.seekable() else None
    except (AttributeError, OSError):
        start = None
    it = iter(lines)
    try:
        header = next(it)
    except StopIteration:
        raise TvgFormatError("empty input, missing header") from None
    fields = header.split()
    if len(fields) != 4 or fields[0] != "tvg" or fields[1] != "v1":
        raise TvgFormatError(f"bad header: {header.strip()!r}")
    try:
        if not all(map(_is_field, fields[2:])):
            raise ValueError("each count is [+-]?[0-9]+")
        num_nodes, num_instants = int(fields[2]), int(fields[3])
        check_nodes(num_nodes)
        check_instants(num_instants)
    except ValueError as exc:
        raise TvgFormatError(f"bad header counts: {header.strip()!r} ({exc})") from None
    if start is None and it is lines:
        lines = [header, *it]  # a one-shot iterator: keep its lines for the scan
        it = iter(lines)
        next(it)
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads "1.5" as an integer with a DeprecationWarning,
            # and an empty body warns; both go to the scan
            warnings.simplefilter("error")
            rows = np.loadtxt(it, dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, OverflowError, Warning):
        pass
    else:
        try:
            return TVG(num_nodes, num_instants, rows)
        except ValueError:  # a row of the wrong shape or out of range: the scan names its line
            pass
    if start is not None:
        lines.seek(start)
    it = iter(lines)
    next(it)
    return TVG(num_nodes, num_instants, _scan_rows(it, num_nodes, num_instants))


def _scan_rows(body: Iterable[str], num_nodes: int, num_instants: int) -> np.ndarray:
    """The rows of a tvg v1 body, read line by line with the module doc's
    grammar; TvgFormatError names the first bad line."""
    values: list[int] = []
    blanks: list[int] = []  # records read before each blank line
    malformed = None  # what is wrong with the line after the last record read
    for line in body:
        parts = line.split()
        if len(parts) == 3 and all(map(_is_field, parts)):
            values += map(int, parts)
        elif parts:
            malformed = "non-integer field" if len(parts) == 3 else "expected '<time> <a> <b>'"
            break
        else:
            blanks.append(len(values) // 3)
    rows = _integers(values).reshape(-1, 3)
    del values  # the int objects outweigh the array
    invalid = _first_invalid(rows, num_nodes, num_instants)
    if invalid is None and malformed is not None:
        invalid = (len(rows), malformed)
    if invalid is not None:
        index, message = invalid
        raise TvgFormatError(f"line {index + 2 + bisect_right(blanks, index)}: {message}")
    return rows


def load_tvg(path: str) -> TVG:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tvg(fh)
