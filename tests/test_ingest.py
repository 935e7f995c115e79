from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from timecent import (
    ContactColumns,
    ContactLogError,
    IngestConfig,
    cover_time,
    discretize_with_stats,
    format_tvg,
    parse_contacts,
    tcc,
)

TWO_WEEKS = 14 * 24 * 3600  # seconds
INT64_PAST = 2**63  # one past the largest int64


def records(text: str) -> ContactColumns:
    return parse_contacts(text.splitlines(keepends=True))


def rows(columns: ContactColumns) -> list[tuple[int, str, str]]:
    return list(zip(columns.timestamps.tolist(), columns.label_a, columns.label_b))


def log(recs) -> ContactColumns:
    """Columns of (timestamp, label_a, label_b) records, through the parser."""
    return parse_contacts(f"{t},{a},{b}" for t, a, b in recs)


def test_parse_direct():
    got = records("0,alice,bob\n")
    assert isinstance(got, ContactColumns)
    assert got.timestamps.dtype == np.int64
    assert rows(got) == [(0, "alice", "bob")]
    assert rows(records("")) == []


def test_parse_preserves_order_and_labels():
    for text, expected in (
        ("0,alice,bob\n30,bob,alice\n", [(0, "alice", "bob"), (30, "bob", "alice")]),
        # whitespace around fields is stripped, whitespace inside a label is kept
        (" 0 , alice ,\tbob \n+7,x y,z\u2028\n", [(0, "alice", "bob"), (7, "x y", "z")]),
        ("5,a\x0cb,c\n", [(5, "a\x0cb", "c")]),
        # str.strip() drops \x1c-\x1f, which int() alone refuses
        ("\x1c5\x1f,\x1da,b\x1e\n", [(5, "a", "b")]),
    ):
        assert rows(parse_contacts(text.split("\n"))) == expected


def test_parse_malformed_first_line():
    with pytest.raises(ContactLogError, match="line 1"):
        records("x,a,b\n")


def test_parse_error_carries_line_number():
    cfg = IngestConfig(30, 0, 59)
    for text, message in (
        ("0,a,b\n1,b,c\n2,c\n", "line 3: expected 'timestamp,label_a,label_b'"),
        # the record on line 2 is outside the window, the bad line after it is still named
        ("0,a,b\n999,a,b\nx,a,b\n", "line 3: non-integer timestamp 'x'"),
        # a header is recognized on line 1 only
        ("0,a,b\ntimestamp,a,b\n", "line 2: non-integer timestamp 'timestamp'"),
        ("\ntimestamp,a,b\n0,a,b\n", "line 2: non-integer timestamp 'timestamp'"),
        ("0,a,b\nTIMESTAMP\n", "line 2: expected 'timestamp,label_a,label_b'"),
        # lines of 2 and 4 fields hold 6 fields between them
        ("1,2\n3,4,5,6\n", "line 1: expected"),
        ("0,a,b\n\n1,,b\n", "line 3: empty node label"),
        ("0,a,b\r\n1, b ,b\r\n", "line 2: self-contact on label 'b'"),
        ("0,a,b\n1_000,a,b\n1.5,a,b\n", "line 3: non-integer timestamp '1.5'"),
    ):
        with pytest.raises(ContactLogError, match=message):
            discretize_with_stats(records(text), cfg)


def test_parse_skips_header():
    for header in ("timestamp,label_a,label_b", " Timestamp ,a,b", "TIMESTAMP"):
        assert rows(records(f"{header}\n0,a,b\n")) == [(0, "a", "b")]


def test_parse_crlf_and_blank_lines():
    for text in ("0,a,b\r\n\r\n5,b,c\r\n", "\n0,a,b\n \t\n5,b,c", "0,a,b\r\n\x0c\n5,b,c\n\n"):
        assert rows(parse_contacts(text.split("\n"))) == [(0, "a", "b"), (5, "b", "c")]


def test_parse_stops_at_the_first_bad_line():
    class Unread(Exception):
        pass

    def lines():
        yield "0,a,b\n"
        yield "x,a,b\n"
        raise Unread("a line after the bad one was requested")

    with pytest.raises(ContactLogError, match="line 2: non-integer timestamp 'x'"):
        parse_contacts(lines())


def test_parse_memory_stays_near_its_result():
    lines = [f"{t},p{t % 300:03d},q{(7 * t) % 300:03d}\n" for t in range(20_000)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = parse_contacts(lines)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.timestamps) == 20_000
    # the column pass, which listed every line and every field first, peaked at 2.2x
    assert peak - before < 1.6 * (kept - before)


def _log_lines(records: int, labels: int, seed: int) -> list[str]:
    """A header and `records` contact lines, timestamps in order, 0-6 s apart."""
    rng = random.Random(seed)
    lines = ["timestamp,label_a,label_b\n"]
    t = 0
    for _ in range(records):
        t += rng.randrange(7)
        a, b = rng.sample(range(labels), 2)
        lines.append(f"{t},p{a:03d},p{b:03d}\n")
    return lines


def test_parse_keeps_one_str_per_distinct_label():
    columns = parse_contacts(_log_lines(2_000, 30, 4))
    labels = columns.label_a + columns.label_b
    assert len(set(labels)) == len(set(map(id, labels))) == 30


def test_ingest_memory_per_record():
    records = 24_000
    lines = _log_lines(records, 300, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tvg, stats = discretize_with_stats(parse_contacts(lines), IngestConfig(30))
        text = format_tvg(tvg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (stats.records_read, len(stats.labels)) == (records, 300)
    assert text.count("\n") == tvg.num_contacts() + 1
    # 53.2 B a record measured. With an int64 pair array, an int32 rows copy and the
    # TVG's own key it took 70.7; with a str per label field, a 3-key lexsort and the
    # whole body's ints at once, 240
    assert peak < 56 * records


def test_discretize_takes_the_columns_as_a_list():
    cfg = IngestConfig(30, 0, 59)
    for text, window in (
        ("0,a,b\n40,b,c\n100,c,d\n", cfg),
        ("0,zoe,amy\n500,ghost,amy\n1,amy,bob\n-5,bob,ghost\n1,bob,amy\n", cfg),
        (f"0,a,b\n{INT64_PAST},a,b\n30,b,c\n{-INT64_PAST - 1},c,d\n", cfg),
        ("".join(_log_lines(500, 20, 2)), IngestConfig(30)),
        ("", IngestConfig(30, 0, 89)),
        ("", IngestConfig(30)),  # no bounds for an empty stream
        ("0,a,b\n2000000000,b,c\n", IngestConfig(30)),  # past MAX_INSTANTS
    ):
        columns = records(text)
        outcomes = []
        for form in (columns, list(columns)):
            try:
                outcomes.append(discretize_with_stats(form, window))
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


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
    tvg = discretize_with_stats(records("0,a,b\n30,b,c\n"), IngestConfig(30))[0]
    assert tvg.num_instants == 2
    assert np.diff(tvg.offsets).tolist() == [1, 1]


def test_discretize_dedups_within_bin():
    tvg = discretize_with_stats(records("0,a,b\n10,a,b\n"), IngestConfig(30))[0]
    assert tvg.num_instants == 1
    assert tvg.num_contacts() == 1


def test_discretize_boundary_goes_to_later_bin():
    tvg = discretize_with_stats(records("0,a,b\n30,a,b\n"), IngestConfig(30))[0]
    assert tvg.num_instants == 2
    assert np.diff(tvg.offsets).tolist() == [1, 1]


def test_discretize_two_week_stream_snapshot_count():
    text = f"0,a,b\n{TWO_WEEKS - 1},b,c\n"
    tvg = discretize_with_stats(records(text), IngestConfig(30))[0]
    assert tvg.num_instants == 40320


def test_discretize_snapshot_count_formula():
    rng = random.Random(5)
    for _ in range(30):
        start = rng.randint(0, 1000)
        end = start + rng.randint(0, 5000)
        gran = rng.randint(1, 90)
        cfg = IngestConfig(gran, start, end)
        tvg = discretize_with_stats(log([(start, "a", "b")]), cfg)[0]
        assert tvg.num_instants == (end - start) // gran + 1


def test_discretize_labels_first_appearance_order():
    tvg, stats = discretize_with_stats(records("0,zoe,amy\n1,amy,bob\n"))
    assert stats.labels == ["zoe", "amy", "bob"]
    assert tvg.edges.tolist() == [[0, 0, 1], [0, 1, 2]]  # node i is labels[i]
    # a label seen only in rejected records gets no id
    text = "0,zoe,amy\n500,ghost,amy\n1,amy,bob\n-5,bob,ghost\n"
    tvg, stats = discretize_with_stats(records(text), IngestConfig(30, 0, 59))
    assert stats.labels == ["zoe", "amy", "bob"]
    assert (tvg.num_nodes, stats.records_rejected) == (3, 2)


def test_discretize_rejects_out_of_range_with_count():
    cfg = IngestConfig(30, 0, 59)
    tvg, stats = discretize_with_stats(records("0,a,b\n100,a,b\n30,b,c\n"), cfg)
    assert stats.records_rejected == 1
    assert type(stats.records_rejected) is int  # not a numpy int, which json cannot write
    assert stats.records_read == 3
    assert tvg.num_instants == 2
    assert tvg.num_contacts() == 2
    # timestamps past int64 either way are rejected and counted too
    text = f"0,a,b\n{INT64_PAST},a,b\n30,b,c\n{-INT64_PAST - 1},c,d\n"
    big, stats = discretize_with_stats(records(text), cfg)
    assert (stats.records_read, stats.records_rejected) == (4, 2)
    assert big == tvg


def test_discretize_empty_stream_needs_bounds():
    with pytest.raises(ValueError, match="explicit start and end"):
        discretize_with_stats(records(""))
    tvg = discretize_with_stats(records(""), IngestConfig(30, 0, 89))[0]
    assert tvg.num_instants == 3
    assert tvg.num_nodes == 0


def test_discretize_idempotent_under_duplicates():
    text = "0,a,b\n40,b,c\n"
    once = discretize_with_stats(records(text), IngestConfig(30))[0]
    assert once == discretize_with_stats(records(text + text), IngestConfig(30))[0]


def _random_log(rng: random.Random, labels: list[str], span: int, count: int):
    recs = []
    for _ in range(count):
        a, b = rng.sample(labels, 2)
        recs.append((rng.randint(0, span), a, b))
    return recs


def test_relabeling_invariance():
    """A bijective relabeling yields an isomorphic TVG."""
    rng = random.Random(99)
    labels = [f"n{i}" for i in range(12)]
    recs = _random_log(rng, labels, span=600, count=150)
    mapping = dict(zip(labels, rng.sample(labels, len(labels))))
    relabeled = [(t, mapping[a], mapping[b]) for t, a, b in recs]
    cfg = IngestConfig(30, 0, 600)
    a = discretize_with_stats(log(recs), cfg)[0]
    b = discretize_with_stats(log(relabeled), cfg)[0]
    assert a.num_nodes == b.num_nodes
    assert a.num_instants == b.num_instants
    assert a.offsets.tolist() == b.offsets.tolist()  # contacts per snapshot
    for t_i in (0, a.num_instants // 2, a.num_instants - 1):
        assert tcc(a, t_i, 3) == tcc(b, t_i, 3)
        assert cover_time(a, t_i, Fraction(1, 2)) == cover_time(b, t_i, Fraction(1, 2))


def test_discretize_refuses_instant_count_over_the_cap():
    # an outlier timestamp 2e9 s after the first: 66.7 M instants at 30 s bins
    with pytest.raises(ValueError, match="MAX_INSTANTS"):
        discretize_with_stats(records("0,a,b\n2000000000,b,c\n"), IngestConfig(30))
    # one past int64, with no window to reject it
    with pytest.raises(ValueError, match="MAX_INSTANTS"):
        discretize_with_stats(records(f"0,a,b\n{INT64_PAST},b,c\n"), IngestConfig(30))
