from __future__ import annotations

import itertools
import math
import subprocess
import sys
import tracemalloc

import pytest

from timecent import (
    ErTvgSpec,
    format_tvg,
    generate_er_tvg,
    reference_spec,
    snapshot_pairs,
)
from timecent.synth import MAX_EXPECTED_CONTACTS
from conftest import child_env


def test_p_zero_gives_empty_snapshots():
    tvg = generate_er_tvg(ErTvgSpec(4, 3, 0.0, seed=1))
    assert tvg.num_instants == 3
    assert tvg.num_contacts() == 0


def test_p_one_gives_complete_snapshots():
    tvg = generate_er_tvg(ErTvgSpec(4, 3, 1.0, seed=1))
    assert [len(s) for s in tvg.snapshots] == [6, 6, 6]


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


def test_snapshots_are_independent_substreams():
    """Any snapshot can be regenerated alone, enabling parallel generation."""
    spec = ErTvgSpec(25, 40, 0.08, seed=9)
    tvg = generate_er_tvg(spec)
    for i in (0, 7, 39):
        assert frozenset(snapshot_pairs(spec, i)) == frozenset(tvg.snapshots[i].contact_list)
    with pytest.raises(ValueError):
        snapshot_pairs(spec, 40)


def test_mean_contacts_matches_expectation():
    """Contacts per snapshot concentrate on p * C(n, 2) over many instants."""
    spec = ErTvgSpec(60, 400, 0.01, seed=5)
    tvg = generate_er_tvg(spec)
    expected = spec.edge_probability * 60 * 59 / 2
    mean = tvg.num_contacts() / spec.num_instants
    assert abs(mean - expected) <= 0.15 * expected


def test_contact_pairs_are_canonical():
    tvg = generate_er_tvg(ErTvgSpec(12, 30, 0.3, seed=3))
    for snap in tvg.snapshots:
        for a, b in snap.contact_list:
            assert 0 <= a < b < 12


def test_pair_indices_map_to_lexicographic_pairs():
    # with p = 1 every pair index is hit, in order
    for n in range(1, 41):
        assert snapshot_pairs(ErTvgSpec(n, 1, 1.0, 1), 0) == list(itertools.combinations(range(n), 2))


def test_generate_holds_no_pair_table():
    # one snapshot of 4096 nodes draws C(4096, 2) doubles, 64 MiB; the pairs
    # hit are mapped to their endpoints without a table of all C(n, 2) pairs
    generate_er_tvg(ErTvgSpec(8, 1, 0.5, 1))  # numpy's first-use allocations stay out of the count
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tvg = generate_er_tvg(ErTvgSpec(4096, 1, 1e-7, 1))
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tvg.num_nodes == 4096
    assert peak - before < 96 * 2**20
    assert after - before < 2**20


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
def test_generating_a_million_empty_snapshots_stays_small():
    # importing numpy alone peaks near 28 MiB; nothing is drawn or kept per snapshot.
    # The child reads its own VmHWM: its ru_maxrss would start from this process's.
    code = (
        "from timecent import ErTvgSpec, generate_er_tvg\n"
        "tvg = generate_er_tvg(ErTvgSpec(2, 1_000_000, 0.0, 1))\n"
        "status = open('/proc/self/status').read().split('VmHWM:')[1].split()\n"
        "print(tvg.num_contacts(), status[0])\n"
    )
    child = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    contacts, peak_kib = map(int, child.stdout.split())
    assert contacts == 0
    assert peak_kib <= 64 * 1024
