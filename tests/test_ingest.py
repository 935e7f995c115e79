from __future__ import annotations

import random
from fractions import Fraction

import pytest

from timecent import (
    ContactLogError,
    ContactRecord,
    CoverageThreshold,
    IngestConfig,
    cover_time,
    discretize,
    discretize_with_stats,
    parse_contacts,
    tcc,
)

TWO_WEEKS = 14 * 24 * 3600  # seconds


def records(text: str):
    return list(parse_contacts(text.splitlines(keepends=True)))


def test_parse_direct():
    assert records("0,alice,bob\n") == [ContactRecord(0, "alice", "bob")]


def test_parse_preserves_order_and_labels():
    got = records("0,alice,bob\n30,bob,alice\n")
    assert got == [ContactRecord(0, "alice", "bob"), ContactRecord(30, "bob", "alice")]


def test_parse_malformed_first_line():
    with pytest.raises(ContactLogError, match="line 1"):
        records("x,a,b\n")


def test_parse_error_carries_line_number():
    with pytest.raises(ContactLogError, match="line 3"):
        records("0,a,b\n1,b,c\n2,c\n")


def test_parse_skips_header():
    got = records("timestamp,label_a,label_b\n0,a,b\n")
    assert got == [ContactRecord(0, "a", "b")]


def test_parse_crlf_and_blank_lines():
    got = records("0,a,b\r\n\r\n5,b,c\r\n")
    assert got == [ContactRecord(0, "a", "b"), ContactRecord(5, "b", "c")]


def test_parse_rejects_self_contact():
    with pytest.raises(ContactLogError, match="self-contact"):
        records("0,a,a\n")


def test_parse_rejects_empty_label():
    with pytest.raises(ContactLogError, match="empty node label"):
        records("0,a,\n")


def test_ingest_config_validation():
    with pytest.raises(ValueError):
        IngestConfig(0)
    with pytest.raises(ValueError):
        IngestConfig(30, 100, 50)


def test_discretize_one_record_per_bin():
    tvg = discretize(records("0,a,b\n30,b,c\n"), IngestConfig(30))
    assert tvg.num_instants == 2
    assert [len(s) for s in tvg.snapshots] == [1, 1]


def test_discretize_dedups_within_bin():
    tvg = discretize(records("0,a,b\n10,a,b\n"), IngestConfig(30))
    assert tvg.num_instants == 1
    assert tvg.num_contacts() == 1


def test_discretize_boundary_goes_to_later_bin():
    tvg = discretize(records("0,a,b\n30,a,b\n"), IngestConfig(30))
    assert tvg.num_instants == 2
    assert [len(s) for s in tvg.snapshots] == [1, 1]


def test_discretize_two_week_stream_snapshot_count():
    text = f"0,a,b\n{TWO_WEEKS - 1},b,c\n"
    tvg = discretize(records(text), IngestConfig(30))
    assert tvg.num_instants == 40320


def test_discretize_snapshot_count_formula():
    rng = random.Random(5)
    for _ in range(30):
        start = rng.randint(0, 1000)
        end = start + rng.randint(0, 5000)
        gran = rng.randint(1, 90)
        cfg = IngestConfig(gran, start, end)
        tvg = discretize([ContactRecord(start, "a", "b")], cfg)
        assert tvg.num_instants == (end - start) // gran + 1


def test_discretize_labels_first_appearance_order():
    tvg, stats = discretize_with_stats(records("0,zoe,amy\n1,amy,bob\n"))
    assert stats.labels == ["zoe", "amy", "bob"]
    assert tvg.node_labels == {0: "zoe", 1: "amy", 2: "bob"}


def test_discretize_rejects_out_of_range_with_count():
    cfg = IngestConfig(30, 0, 59)
    tvg, stats = discretize_with_stats(records("0,a,b\n100,a,b\n30,b,c\n"), cfg)
    assert stats.records_rejected == 1
    assert stats.records_read == 3
    assert tvg.num_instants == 2
    assert tvg.num_contacts() == 2


def test_discretize_empty_stream_needs_bounds():
    with pytest.raises(ValueError, match="explicit start and end"):
        discretize([])
    tvg = discretize([], IngestConfig(30, 0, 89))
    assert tvg.num_instants == 3
    assert tvg.num_nodes == 0


def test_discretize_idempotent_under_duplicates():
    base = records("0,a,b\n40,b,c\n")
    doubled = base + base
    assert discretize(base, IngestConfig(30)) == discretize(doubled, IngestConfig(30))


def _random_log(rng: random.Random, labels: list[str], span: int, count: int):
    recs = []
    for _ in range(count):
        a, b = rng.sample(labels, 2)
        recs.append(ContactRecord(rng.randint(0, span), a, b))
    return recs


def test_relabeling_invariance():
    """A bijective relabeling yields an isomorphic TVG."""
    rng = random.Random(99)
    labels = [f"n{i}" for i in range(12)]
    recs = _random_log(rng, labels, span=600, count=150)
    mapping = dict(zip(labels, rng.sample(labels, len(labels))))
    relabeled = [
        ContactRecord(r.timestamp, mapping[r.label_a], mapping[r.label_b]) for r in recs
    ]
    cfg = IngestConfig(30, 0, 600)
    a = discretize(recs, cfg)
    b = discretize(relabeled, cfg)
    assert a.num_nodes == b.num_nodes
    assert a.num_instants == b.num_instants
    assert [len(s) for s in a.snapshots] == [len(s) for s in b.snapshots]
    thr_a = CoverageThreshold.of(Fraction(1, 2), a.num_nodes)
    for t_i in (0, a.num_instants // 2, a.num_instants - 1):
        assert tcc(a, t_i, 3) == tcc(b, t_i, 3)
        assert cover_time(a, t_i, thr_a) == cover_time(b, t_i, thr_a)


def test_discretize_refuses_instant_count_over_the_cap():
    # an outlier timestamp 2e9 s after the first: 66.7 M instants at 30 s bins
    with pytest.raises(ValueError, match="MAX_INSTANTS"):
        discretize(records("0,a,b\n2000000000,b,c\n"), IngestConfig(30))
