"""Edge-Markovian snapshots: the dynamic graph of Clementi et al., "Flooding
Time in Edge-Markovian Dynamic Graphs" (PODC 2008). Each node pair is its own
two-state Markov chain: an absent pair appears at the next instant with
probability p, and a present one disappears with probability q. A pair starts
present with its stationary probability p / (p + q), so every snapshot has the
same law. With q = 1 - p the snapshots are independent G(n, p) graphs.
"""

from __future__ import annotations

import numpy as np


def edge_markovian_rows(n: int, num_instants: int, p: float, q: float, rng) -> np.ndarray:
    """(t, a, b) rows of one edge-Markovian TVG drawn from `rng`, a numpy Generator."""
    a, b = np.triu_indices(n, 1)
    present = rng.random(len(a)) < p / (p + q)
    rows = []
    for t in range(num_instants):
        rows.append(np.column_stack((np.full(np.count_nonzero(present), t), a[present], b[present])))
        draw = rng.random(len(a))
        present = np.where(present, draw >= q, draw < p)
    return np.concatenate(rows)
