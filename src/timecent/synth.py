"""Randomized TVGs built from independent Erdos-Renyi snapshots.

RNG contract (part of the output format contract): snapshot i of a spec
seeded with s is drawn from numpy's PCG64 bit generator seeded with
SeedSequence((s, i)). The C(n, 2) node pairs are sampled in lexicographic
order (a < b, ascending) with one uniform draw per pair. The uniforms are
drawn from that one stream in blocks, and each double is one 64-bit output
of it, so the blocks give the same values, in the same order, as a single
call for all pairs would. The derivation is deterministic and platform
independent, and snapshots do not share RNG state, so they may be
generated in any order or in parallel with identical results.

The reference parameterization used throughout the test suite is 160
nodes, 800 instants and edge probability 0.01 * ln(160) / 160, about
3.17198363452e-04. That probability sits well below the ln(n)/n sharp
connectivity threshold, so every snapshot it produces is a sparse,
disconnected graph (about 4 contacts per instant on average).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tvg import MAX_SWEEP_NODES, TVG, check_instants

REFERENCE_NUM_NODES = 160
REFERENCE_NUM_INSTANTS = 800
REFERENCE_EDGE_PROBABILITY = 0.01 * math.log(160) / 160

# Largest expected contact count, p * C(n, 2) * N, of a spec. Generating
# peaks at about 24 B per contact, so a spec at the cap stays near 100 MiB.
MAX_EXPECTED_CONTACTS = 1 << 22

# uniforms a snapshot draws at a time, and contacts turned into rows at a time
_DRAWS = 1 << 14


@dataclass(frozen=True)
class ErTvgSpec:
    """Parameters of a randomized TVG with independent G(n, p) snapshots."""

    num_nodes: int
    num_instants: int
    edge_probability: float
    seed: int

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        if self.num_nodes > MAX_SWEEP_NODES:
            # no sweep accepts more
            raise ValueError(
                f"num_nodes {self.num_nodes} exceeds the sweep limit of {MAX_SWEEP_NODES} nodes"
            )
        check_instants(self.num_instants)
        if not 0 <= self.edge_probability <= 1:
            raise ValueError("edge_probability must be in [0, 1]")
        pairs = self.num_nodes * (self.num_nodes - 1) // 2
        expected = self.edge_probability * pairs * self.num_instants
        if expected > MAX_EXPECTED_CONTACTS:
            raise ValueError(
                f"expected contact count {expected:.4g} (prob * C(nodes, 2) * instants) exceeds "
                f"{MAX_EXPECTED_CONTACTS} (MAX_EXPECTED_CONTACTS)"
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def reference_spec(seed: int) -> ErTvgSpec:
    """The built-in reference parameterization with the given seed."""
    return ErTvgSpec(
        REFERENCE_NUM_NODES,
        REFERENCE_NUM_INSTANTS,
        REFERENCE_EDGE_PROBABILITY,
        seed,
    )


def _pair_ends(n: int, hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (a, b) of the pairs at indices `hits` of the C(n, 2) pairs
    in lexicographic order: row a starts at index a * (2n - a - 1) / 2."""
    a = np.arange(n, dtype=np.int64)
    start = a * (2 * n - a - 1) // 2
    ends_a = np.searchsorted(start, hits, side="right") - 1
    return ends_a, hits - start[ends_a] + ends_a + 1


def generate_er_tvg(spec: ErTvgSpec) -> TVG:
    """Generate the randomized TVG described by `spec`."""
    n = spec.num_nodes
    pairs = n * (n - 1) // 2
    keys = bytearray()  # int64 i * pairs + pair index (below 2^48) per contact of snapshot i
    if n >= 2 and spec.edge_probability > 0:  # otherwise no snapshot has a contact
        for i in range(spec.num_instants):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((spec.seed, i))))
            for lo in range(0, pairs, _DRAWS):
                draws = rng.random(min(_DRAWS, pairs - lo))
                hits = (draws < spec.edge_probability).nonzero()[0].astype(np.int64, copy=False)
                hits += i * pairs + lo
                keys += hits.tobytes()
    keys = np.frombuffer(keys, dtype=np.int64)
    rows = np.empty((len(keys), 3), dtype=np.int32)  # in order, so they become the TVG's edges
    for lo in range(0, len(keys), _DRAWS):
        block = rows[lo : lo + _DRAWS]
        times, hits = np.divmod(keys[lo : lo + _DRAWS], pairs)
        block[:, 0] = times
        block[:, 1], block[:, 2] = _pair_ends(n, hits)
    del keys
    return TVG(n, spec.num_instants, rows)
