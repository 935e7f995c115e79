"""Snapshot-sequence model of a time-varying graph (TVG).

A TVG is a fixed node set observed over a discrete sequence of time
instants. Each instant carries a snapshot: the set of undirected contacts
active at that instant. A contact {a, b} at instant t stands for the
reciprocal pair of directed temporal edges that deliver from t to t+1;
that cross-instant convention is realized operationally by the diffusion
step rule (see timecent.diffusion), so no edge beyond the final instant is
ever materialized.

Serialized form ("tvg v1"), byte-deterministic for a given TVG:

    tvg v1 <num_nodes> <num_instants>
    <time> <a> <b>
    ...

with a < b on every contact line, lines sorted by (time, a, b), LF line
endings and a trailing newline. Node labels are not part of the format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Iterator, NamedTuple

NodeId = int
TimeIndex = int

FORMAT_HEADER = "tvg v1"


class TvgFormatError(ValueError):
    """Raised when serialized TVG data cannot be parsed."""


class TemporalNode(NamedTuple):
    """A (node, time instant) pair."""

    node: NodeId
    time: TimeIndex


@dataclass(frozen=True)
class Contact:
    """Undirected co-presence of two distinct nodes at one instant.

    Stored canonically with a < b; construction swaps the endpoints if
    needed and rejects self-contacts.
    """

    a: NodeId
    b: NodeId
    time: TimeIndex

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"self-contact on node {self.a} at time {self.time}")
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    @property
    def pair(self) -> tuple[NodeId, NodeId]:
        return (self.a, self.b)


class Snapshot:
    """Contacts active at one time instant, with derived adjacency.

    Adjacency is symmetric by construction: contacts are undirected.
    """

    __slots__ = ("contacts", "contact_list", "adjacency")

    def __init__(self, pairs: Iterable[tuple[NodeId, NodeId]] = ()):
        self.contacts: frozenset[tuple[NodeId, NodeId]] = frozenset(pairs)
        self.contact_list: tuple[tuple[NodeId, NodeId], ...] = tuple(sorted(self.contacts))
        adj: dict[NodeId, set[NodeId]] = {}
        for a, b in self.contact_list:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        self.adjacency: dict[NodeId, frozenset[NodeId]] = {
            v: frozenset(nbrs) for v, nbrs in adj.items()
        }

    def neighbors(self, node: NodeId) -> frozenset[NodeId]:
        return self.adjacency.get(node, frozenset())

    def __len__(self) -> int:
        return len(self.contacts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Snapshot):
            return NotImplemented
        return self.contacts == other.contacts

    def __hash__(self) -> int:
        return hash(self.contacts)

    def __repr__(self) -> str:
        return f"Snapshot({sorted(self.contacts)!r})"


_EMPTY_SNAPSHOT = Snapshot()


class TVG:
    """A time-varying graph as an immutable sequence of snapshots.

    Instances are not modified after construction; construct once, then
    share.
    """

    __slots__ = ("num_nodes", "num_instants", "snapshots", "node_labels")

    def __init__(
        self,
        num_nodes: int,
        num_instants: int,
        snapshots: Iterable[Snapshot],
        node_labels: dict[NodeId, str] | None = None,
    ):
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        if num_instants < 1:
            raise ValueError("num_instants must be at least 1")
        self.num_nodes = num_nodes
        self.num_instants = num_instants
        self.snapshots: tuple[Snapshot, ...] = tuple(snapshots)
        self.node_labels = dict(node_labels) if node_labels else None
        if len(self.snapshots) != num_instants:
            raise ValueError(
                f"expected {num_instants} snapshots, got {len(self.snapshots)}"
            )
        for t, snap in enumerate(self.snapshots):
            for a, b in snap.contact_list:
                if not (0 <= a < num_nodes and 0 <= b < num_nodes):
                    raise ValueError(
                        f"contact ({a},{b}) at time {t} out of node range [0,{num_nodes})"
                    )

    @classmethod
    def from_snapshot_pairs(
        cls,
        num_nodes: int,
        per_time_pairs: Iterable[Iterable[tuple[NodeId, NodeId]]],
        node_labels: dict[NodeId, str] | None = None,
    ) -> TVG:
        """Build from one iterable of canonical (a, b) pairs per instant."""
        snapshots = [Snapshot(pairs) if pairs else _EMPTY_SNAPSHOT for pairs in per_time_pairs]
        return cls(num_nodes, len(snapshots), snapshots, node_labels)

    def neighbors(self, node: NodeId, time: TimeIndex) -> frozenset[NodeId]:
        """Nodes in contact with `node` at instant `time`."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0,{self.num_nodes})")
        if not 0 <= time < self.num_instants:
            raise ValueError(f"time {time} out of range [0,{self.num_instants})")
        return self.snapshots[time].neighbors(node)

    def contacts(self) -> Iterator[Contact]:
        """All contacts in (time, a, b) order."""
        for t, snap in enumerate(self.snapshots):
            for a, b in snap.contact_list:
                yield Contact(a, b, t)

    def num_contacts(self) -> int:
        return sum(len(snap) for snap in self.snapshots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TVG):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self.num_instants == other.num_instants
            and self.snapshots == other.snapshots
        )

    def __hash__(self) -> int:
        return hash((self.num_nodes, self.num_instants, self.snapshots))

    def __repr__(self) -> str:
        return (
            f"TVG(num_nodes={self.num_nodes}, num_instants={self.num_instants}, "
            f"contacts={self.num_contacts()})"
        )


def build_tvg(
    num_nodes: int,
    num_instants: int,
    contacts: Iterable[Contact],
    node_labels: dict[NodeId, str] | None = None,
) -> TVG:
    """Assemble a TVG from a contact stream.

    Duplicate contacts are deduplicated silently. Out-of-range node or
    time indices raise ValueError (self-contacts are rejected by Contact
    itself).
    """
    per_time: list[set[tuple[NodeId, NodeId]]] = [set() for _ in range(num_instants)]
    for c in contacts:
        if not 0 <= c.time < num_instants:
            raise ValueError(f"contact time {c.time} out of range [0,{num_instants})")
        if not 0 <= c.a < num_nodes or not 0 <= c.b < num_nodes:
            raise ValueError(
                f"contact ({c.a},{c.b}) at time {c.time} out of node range [0,{num_nodes})"
            )
        per_time[c.time].add(c.pair)
    return TVG.from_snapshot_pairs(num_nodes, per_time, node_labels)


def churn_rate(tvg: TVG) -> Fraction:
    """Tendency of active node pairs to change state between instants.

    Pooled over all consecutive snapshot pairs (i, i+1): the fraction of
    node pairs active in snapshot i or i+1 whose state differs between
    the two. Always-absent pairs do not enter the denominator. Returns 0
    when no pair is ever active.
    """
    if tvg.num_instants < 2:
        raise ValueError("churn_rate needs at least 2 snapshots")
    flipped = 0
    active = 0
    for i in range(tvg.num_instants - 1):
        cur = tvg.snapshots[i].contacts
        nxt = tvg.snapshots[i + 1].contacts
        flipped += len(cur ^ nxt)
        active += len(cur | nxt)
    if active == 0:
        return Fraction(0)
    return Fraction(flipped, active)


def format_tvg(tvg: TVG) -> str:
    """Render the tvg v1 text form."""
    lines = [f"{FORMAT_HEADER} {tvg.num_nodes} {tvg.num_instants}\n"]
    for t, snap in enumerate(tvg.snapshots):
        for a, b in snap.contact_list:
            lines.append(f"{t} {a} {b}\n")
    return "".join(lines)


def write_tvg(tvg: TVG, out: IO[str]) -> None:
    out.write(format_tvg(tvg))


def save_tvg(tvg: TVG, path: str) -> None:
    # newline="" so the output is LF on every platform
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_tvg(tvg, fh)


def parse_tvg(lines: Iterable[str]) -> TVG:
    """Parse the tvg v1 text form; raises TvgFormatError on bad input."""
    it = iter(lines)
    try:
        header = next(it)
    except StopIteration:
        raise TvgFormatError("empty input, missing header") from None
    fields = header.split()
    if len(fields) != 4 or fields[0] != "tvg" or fields[1] != "v1":
        raise TvgFormatError(f"bad header: {header.strip()!r}")
    try:
        num_nodes = int(fields[2])
        num_instants = int(fields[3])
    except ValueError:
        raise TvgFormatError(f"bad header counts: {header.strip()!r}") from None
    if num_nodes < 0 or num_instants < 1:
        raise TvgFormatError(f"bad header counts: {header.strip()!r}")
    per_time: list[set[tuple[int, int]]] = [set() for _ in range(num_instants)]
    for lineno, line in enumerate(it, start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise TvgFormatError(f"line {lineno}: expected '<time> <a> <b>'")
        try:
            t, a, b = (int(p) for p in parts)
        except ValueError:
            raise TvgFormatError(f"line {lineno}: non-integer field") from None
        if not 0 <= t < num_instants:
            raise TvgFormatError(f"line {lineno}: time {t} out of range")
        if not 0 <= a < num_nodes or not 0 <= b < num_nodes:
            raise TvgFormatError(f"line {lineno}: node out of range")
        if a >= b:
            raise TvgFormatError(f"line {lineno}: contact must satisfy a < b")
        per_time[t].add((a, b))
    return TVG.from_snapshot_pairs(num_nodes, per_time)


def read_tvg(src: IO[str]) -> TVG:
    return parse_tvg(src)


def load_tvg(path: str) -> TVG:
    with open(path, "r", encoding="utf-8") as fh:
        return read_tvg(fh)
