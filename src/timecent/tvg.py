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

Its text form, "tvg v1", is described in timecent.tvgtext, which holds
the parts that need no numpy. format_tvg writes it byte-deterministically
for a given TVG. parse_tvg reads any iterable of lines with
tvgtext.read_rows, which names the first bad line. load_tvg reads a
file's body with numpy's loadtxt, which reads exactly that grammar; when
it fails or a row is out of range, parse_tvg reads the file again.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .tvgtext import (
    FORMAT_HEADER,
    TvgFormatError,
    check_instants,
    check_nodes,
    churn_fraction,
    contact_error,
    read_header,
    read_rows,
)

NodeId = int
TimeIndex = int

# Largest node count a sweep (centrality.earliest_arrivals, behind every
# metric) accepts: its state is one n x n matrix, int16 up to 32,767
# instants (128 MiB at this size) and int32 beyond (256 MiB). A short pass
# peaked at 3.0-3.3x either matrix (tracemalloc, 2048 and 4096 nodes, 3
# contacts per node per snapshot) and a long one ~1 MiB more: 390-425 or
# 775-810 MiB. No snapshot is split: one of over 2^16 contacts costs ~82 B each.
MAX_SWEEP_NODES = 8192


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


def _integers(values) -> np.ndarray:
    """values (ints) as an int64 array, or as Python ints if one overflows int64."""
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
    return i, contact_error(*rows[i].tolist(), num_nodes, num_instants)


def _sorted_unique(work: list, num_nodes: int, num_instants: int, rows=None) -> np.ndarray:
    """Contacts sorted without repeats, as int32 (time, a, b) rows. `work` is a list
    [time, pairs] that this empties, so that each array is freed once used: one int64
    key (t * n + a) * n + b is built in place on `time`, or np.unique sorts once
    num_instants * num_nodes**2 passes 2**63 and that key would overflow. Given `rows`,
    whose valid rows (a < b) `pairs` views, `rows` itself comes back (C-ordered int32)
    if in order without repeats; without it, each pair is ordered in place."""
    key, pairs = work  # the times, until they become the key
    work.clear()
    if rows is None:
        pairs.sort(axis=1)
    n = num_nodes
    if num_instants * n * n > 1 << 63:
        return np.unique(np.column_stack((key, pairs)), axis=0).astype(np.int32)
    key *= n
    key += pairs[:, 0]
    key *= n
    key += pairs[:, 1]
    del pairs
    if (key[1:] > key[:-1]).all():  # in order, without repeats, as a saved file is
        if rows is not None:
            return np.ascontiguousarray(rows, dtype=np.int32)
    else:
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
        duplicates collapse to one. A C-ordered int32 array of rows already
        in order, without repeats, becomes `edges` itself and is made
        read-only; any other `rows` is copied."""
        check_nodes(num_nodes)
        check_instants(num_instants)
        if getattr(rows, "dtype", None) != np.int32:  # int32 rows are read without an int64 copy
            rows = _integers(rows)
        if rows.size == 0:
            rows = rows.reshape(0, 3)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError("contacts must be (time, a, b) rows")
        invalid = _first_invalid(rows, num_nodes, num_instants)
        if invalid is not None:
            raise ValueError(invalid[1])
        # the key is built on an int64 copy of the times: int32 rows would overflow it
        work = [rows[:, 0].astype(np.int64), rows[:, 1:]]
        edges = _sorted_unique(work, num_nodes, num_instants, rows)
        # offsets[t]: contacts before instant t, summed in place
        offsets = np.zeros(num_instants + 1, dtype=np.int64)
        offsets[1:] = np.bincount(edges[:, 0], minlength=num_instants)
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
    return churn_fraction(m, int(tvg.offsets[1]), m - int(tvg.offsets[-2]), overlap)


# rows format_tvg renders at a time, so that few of their Python ints are alive at once
_FORMAT_ROWS = 1 << 12


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
    """Parse the tvg v1 text form from any iterable of lines, in one pass
    of tvgtext.read_rows; raises TvgFormatError naming the first bad line."""
    it = iter(lines)
    num_nodes, num_instants = read_header(next(it, ""))
    rows = chain.from_iterable(read_rows(it, num_nodes, num_instants))
    return TVG(num_nodes, num_instants, np.fromiter(rows, np.int64).reshape(-1, 3))


def load_tvg(path: str) -> TVG:
    """Read a tvg v1 file: numpy's loadtxt reads a seekable file's body. If it
    fails, or a row is out of range, parse_tvg reads the file again from its
    start and names the first bad line; parse_tvg alone reads a pipe."""
    with open(path, "r", encoding="utf-8") as fh:
        if fh.seekable():
            num_nodes, num_instants = read_header(next(fh, ""))
            try:
                with warnings.catch_warnings():
                    # numpy < 2 reads "1.5" as an integer with a DeprecationWarning,
                    # and an empty body warns; both go to parse_tvg
                    warnings.simplefilter("error")
                    rows = np.loadtxt(fh, dtype=np.int64, ndmin=2, comments=None)
                return TVG(num_nodes, num_instants, rows)
            except (ValueError, OverflowError, Warning):  # a bad line, or a row out of range
                fh.seek(0)
        return parse_tvg(fh)
