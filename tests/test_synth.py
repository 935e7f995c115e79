from __future__ import annotations

import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from timecent import TVG, ErTvgSpec, format_tvg, generate_er_tvg, reference_spec, synth
from timecent.synth import MAX_EXPECTED_CONTACTS
from timecent.tvg import MAX_SWEEP_NODES
from conftest import child_env


def contract_edges(spec: ErTvgSpec) -> list[list[int]]:
    """(time, a, b) rows of `spec` drawn as README's RNG contract states:
    snapshot i from PCG64 seeded with SeedSequence((seed, i)), one uniform
    per pair of combinations(range(n), 2), a contact when it is below p."""
    pairs = list(itertools.combinations(range(spec.num_nodes), 2))
    rows = []
    for i in range(spec.num_instants):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((spec.seed, i))))
        draws = rng.random(len(pairs)).tolist()
        rows += [[i, a, b] for (a, b), u in zip(pairs, draws) if u < spec.edge_probability]
    return rows


def test_p_zero_gives_empty_snapshots():
    tvg = generate_er_tvg(ErTvgSpec(4, 3, 0.0, seed=1))
    assert tvg.num_instants == 3
    assert tvg.num_contacts() == 0


def test_p_one_gives_complete_snapshots():
    tvg = generate_er_tvg(ErTvgSpec(4, 3, 1.0, seed=1))
    assert np.diff(tvg.offsets).tolist() == [6, 6, 6]


def test_single_node_has_no_pairs():
    tvg = generate_er_tvg(ErTvgSpec(1, 5, 1.0, seed=1))
    assert tvg.num_contacts() == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        ErTvgSpec(0, 3, 0.5, 1)
    with pytest.raises(ValueError):
        ErTvgSpec(4, 0, 0.5, 1)
    with pytest.raises(ValueError):
        ErTvgSpec(4, 3, 1.5, 1)
    with pytest.raises(ValueError):
        ErTvgSpec(4, 3, 0.5, -1)


def test_spec_refuses_an_expected_contact_count_over_the_cap():
    # p * C(n, 2) * N: 2.8e14 expected contacts here, about 30 PB at 116 B each
    with pytest.raises(ValueError, match="MAX_EXPECTED_CONTACTS"):
        ErTvgSpec(8192, 8388608, 1.0, 1)
    with pytest.raises(ValueError, match="MAX_EXPECTED_CONTACTS"):
        ErTvgSpec(2, MAX_EXPECTED_CONTACTS + 1, 1.0, 1)
    ErTvgSpec(2, MAX_EXPECTED_CONTACTS, 1.0, 1)  # at the cap: accepted, not generated


def test_reference_spec_parameters():
    spec = reference_spec(1)
    assert spec.num_nodes == 160
    assert spec.num_instants == 800
    assert spec.edge_probability == pytest.approx(0.01 * math.log(160) / 160, rel=1e-12)
    assert spec.edge_probability == pytest.approx(3.17198363452e-04, rel=1e-11)
    assert spec.seed == 1


def test_same_seed_is_byte_identical():
    spec = ErTvgSpec(30, 50, 0.05, seed=42)
    a = generate_er_tvg(spec)
    b = generate_er_tvg(spec)
    assert a == b
    assert format_tvg(a) == format_tvg(b)


def test_different_seeds_differ():
    a = generate_er_tvg(ErTvgSpec(30, 50, 0.05, seed=1))
    b = generate_er_tvg(ErTvgSpec(30, 50, 0.05, seed=2))
    assert a != b


CONTRACT_SPECS = (
    ErTvgSpec(25, 40, 0.08, 9),
    ErTvgSpec(12, 30, 0.3, 3),
    ErTvgSpec(25, 40, 0.0, 9),
    ErTvgSpec(200, 3, 0.01, 7),  # 19,900 pairs: more than one draw block per snapshot
)


def test_snapshots_are_independent_substreams():
    """Each snapshot is drawn from its own seeded substream, as the contract states."""
    assert 200 * 199 // 2 > synth._DRAWS
    for spec in CONTRACT_SPECS:
        assert generate_er_tvg(spec).edges.tolist() == contract_edges(spec), spec


@pytest.mark.parametrize("block", [1, 7, 300])
def test_draw_blocks_keep_the_rng_contract(monkeypatch, block):
    # a snapshot's uniforms and its rows come `block` at a time, and the seeds of
    # `block` snapshots are hashed at once; 300 is C(25, 2), so those blocks divide
    # a 25-node snapshot exactly
    monkeypatch.setattr(synth, "_DRAWS", block)
    for spec in CONTRACT_SPECS:
        assert generate_er_tvg(spec).edges.tolist() == contract_edges(spec), spec


def test_mean_contacts_matches_expectation():
    """Contacts per snapshot concentrate on p * C(n, 2) over many instants."""
    spec = ErTvgSpec(60, 400, 0.01, seed=5)
    tvg = generate_er_tvg(spec)
    expected = spec.edge_probability * 60 * 59 / 2
    mean = tvg.num_contacts() / spec.num_instants
    assert abs(mean - expected) <= 0.15 * expected


def test_contact_pairs_are_canonical():
    tvg = generate_er_tvg(ErTvgSpec(12, 30, 0.3, seed=3))
    for a, b in tvg.edges[:, 1:].tolist():
        assert 0 <= a < b < 12


def test_pair_indices_map_to_lexicographic_pairs():
    # with p = 1 every pair index is hit, in order
    for n in range(1, 41):
        spec = ErTvgSpec(n, 3, 1.0, 1)
        assert generate_er_tvg(spec).edges.tolist() == contract_edges(spec), n


def _traced_peak(spec: ErTvgSpec) -> tuple[TVG, int]:
    """generate_er_tvg(spec) and its peak traced allocation in bytes."""
    generate_er_tvg(ErTvgSpec(8, 1, 0.5, 1))  # numpy's first-use allocations stay out of the count
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tvg = generate_er_tvg(spec)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before <= tvg.edges.nbytes + tvg.offsets.nbytes + 2**16
    return tvg, peak - before


def test_generate_holds_no_pair_table():
    # one snapshot of 4096 nodes has C(4096, 2) pairs, 64 MiB of doubles in one call (72 MiB
    # peak); drawn 2^14 at a time, and the pairs hit mapped to their endpoints without a table
    # of all C(n, 2) pairs, it peaked at 0.25 MiB
    tvg, peak = _traced_peak(ErTvgSpec(4096, 1, 1e-7, 1))
    assert tvg.num_nodes == 4096
    assert peak < 2**20


def test_generate_memory_per_contact():
    # 119,554 contacts: 27 B a contact measured, the int64 keys and the int32 rows they
    # fill a block at a time; one pass over every contact at once took 80 B
    tvg, peak = _traced_peak(ErTvgSpec(400, 300, 0.005, 1))
    assert tvg.num_contacts() > 100_000
    assert peak < 32 * tvg.num_contacts()


def _generate_in_child(*spec) -> tuple[int, int]:
    """The contact count and peak RSS (KiB) of generate_er_tvg(ErTvgSpec(*spec)) in a
    child process. The child reads its own VmHWM: its ru_maxrss would start from this
    process's."""
    code = (
        "from timecent import ErTvgSpec, generate_er_tvg\n"
        f"tvg = generate_er_tvg(ErTvgSpec{spec!r})\n"
        "status = open('/proc/self/status').read().split('VmHWM:')[1].split()\n"
        "print(tvg.num_contacts(), status[0])\n"
    )
    child = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    contacts, peak_kib = map(int, child.stdout.split())
    return contacts, peak_kib


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
def test_generating_a_million_empty_snapshots_stays_small():
    # importing numpy alone peaks near 28 MiB; nothing is drawn or kept per snapshot
    contacts, peak_kib = _generate_in_child(2, 1_000_000, 0.0, 1)
    assert contacts == 0
    assert peak_kib <= 64 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
def test_a_snapshot_at_the_node_cap_stays_small():
    # C(8192, 2) pairs: 256 MiB of doubles in one call, 325 MB peak; drawn 2^14 at a time
    contacts, peak_kib = _generate_in_child(MAX_SWEEP_NODES, 1, 0.01, 1)
    assert contacts > 300_000
    assert peak_kib <= 64 * 1024
