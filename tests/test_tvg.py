from __future__ import annotations

import io
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import chain

import pytest

from timecent import (
    MAX_INSTANTS,
    TVG,
    Contact,
    TvgFormatError,
    churn_rate,
    format_tvg,
    load_tvg,
    parse_tvg,
    save_tvg,
)
from conftest import random_tvg


def test_build_tvg_one_contact_per_snapshot(chain4):
    assert chain4.num_nodes == 4
    assert chain4.num_instants == 3
    assert [len(s) for s in chain4.snapshots] == [1, 1, 1]
    assert set(chain4.snapshots[0].contact_list) == {(0, 1)}
    assert set(chain4.snapshots[2].contact_list) == {(2, 3)}


def test_build_tvg_empty():
    tvg = TVG(2, 1, [])
    assert tvg.num_instants == 1
    assert len(tvg.snapshots[0]) == 0


def test_build_tvg_deduplicates():
    tvg = TVG(3, 2, [(0, 0, 1), (0, 0, 1), (0, 0, 1)])
    assert tvg.num_contacts() == 1


def test_build_tvg_range_errors():
    with pytest.raises(ValueError, match="time"):
        TVG(2, 1, [(1, 0, 1)])
    with pytest.raises(ValueError, match="node range"):
        TVG(2, 1, [(0, 0, 5)])


def test_contacts_round_trip():
    tvg = TVG(4, 3, [(2, 0, 3), (0, 1, 2), (0, 0, 1), (2, 0, 3)])
    contacts = list(tvg.contacts())
    assert contacts == [Contact(0, 1, 0), Contact(1, 2, 0), Contact(0, 3, 2)]
    assert [[c.time, c.a, c.b] for c in contacts] == tvg.edges.tolist()


def test_tvg_constructor_validation():
    with pytest.raises(ValueError, match="time 3 out of range"):
        TVG(2, 3, [(3, 0, 1)])
    with pytest.raises(ValueError, match="num_instants"):
        TVG(2, 0, [])
    with pytest.raises(ValueError, match=r"num_nodes must be in \[0, 2\*\*31 - 1\]"):
        TVG(2**31, 1, [])
    with pytest.raises(ValueError, match="node range"):
        TVG(2, 1, [(0, 0, 7)])
    with pytest.raises(ValueError, match="a < b"):
        TVG(2, 1, [(0, 1, 0)])
    with pytest.raises(ValueError, match=r"\(time, a, b\) rows"):
        TVG(4, 1, [(0, 1), (1, 2), (2, 3)])


def test_churn_identical_snapshots_is_zero():
    tvg = TVG(4, 3, [(t, 0, 1) for t in range(3)])
    assert churn_rate(tvg) == 0


def test_churn_disjoint_flip_is_one():
    tvg = TVG(4, 2, [(0, 0, 1), (1, 2, 3)])
    assert churn_rate(tvg) == 1


def test_churn_alternating_disjoint_is_one():
    rows = []
    for t in range(6):
        rows.append((t, 0, 1) if t % 2 == 0 else (t, 2, 3))
    assert churn_rate(TVG(4, 6, rows)) == 1


def test_churn_partial_overlap():
    # {a-b} then {a-b, c-d}: one pair flips out of two active
    tvg = TVG(4, 2, [(0, 0, 1), (1, 0, 1), (1, 2, 3)])
    assert churn_rate(tvg) == Fraction(1, 2)


def test_churn_no_active_pairs_is_zero():
    assert churn_rate(TVG(3, 4, [])) == 0


def test_churn_needs_two_snapshots():
    with pytest.raises(ValueError):
        churn_rate(TVG(2, 1, []))


def test_format_micro(chain4):
    assert format_tvg(chain4) == "tvg v1 4 3\n0 0 1\n1 1 2\n2 2 3\n"


def test_format_sorted_and_deterministic():
    rng = random.Random(3)
    for _ in range(10):
        tvg = random_tvg(rng)
        text = format_tvg(tvg)
        assert text == format_tvg(tvg)
        body = text.splitlines()[1:]
        keys = [tuple(int(x) for x in line.split()) for line in body]
        assert keys == sorted(keys)


def test_parse_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        tvg = random_tvg(rng)
        assert parse_tvg(io.StringIO(format_tvg(tvg))) == tvg


def test_save_load_round_trip(tmp_path, chain4):
    path = tmp_path / "chain.tvg"
    save_tvg(chain4, str(path))
    assert path.read_bytes() == b"tvg v1 4 3\n0 0 1\n1 1 2\n2 2 3\n"
    assert load_tvg(str(path)) == chain4


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "empty"),
        ("tvg v2 2 2\n", "bad header"),
        ("tvg v1 2\n", "bad header"),
        ("tvg v1 x 2\n", "bad header counts"),
        ("tvg v1 2 0\n", "bad header counts"),
        ("tvg v1 2 2\n0 0\n", "expected"),
        ("tvg v1 2 2\n0 0 x\n", "non-integer"),
        ("tvg v1 2 2\n5 0 1\n", "time 5 out of range"),
        ("tvg v1 2 2\n0 0 4\n", "node out of range"),
        ("tvg v1 2 2\n0 1 0\n", "a < b"),
        ("tvg v1 2 2\n0 1 1\n", "a < b"),
        # the first bad line is named, whatever is wrong with later lines
        ("tvg v1 2 2\n\n0 0 x\n0 1\n", "line 3: non-integer"),
        ("tvg v1 2 2\n0 0 1\n\n\n5 0 1\n0 0\n", "line 5: time 5 out of range"),
        ("tvg v1 2 2\n0 0 1\n1 1 0\n0 0 7\n", "line 3: .*a < b"),
        ("tvg v1 2 2\n0 0 1\n0 1\n0 0 x\n", "line 3: expected"),
        ("tvg v1 2 2\n1 0 99999999999999999999\n", "line 2: node out of range"),
        ("tvg v1 2 2\n-99999999999999999999 0 1\n", "line 2: time -99999999999999999999"),
        # fields are ASCII [+-]?[0-9]+, whatever else int() reads
        ("tvg v1 2 2\n0 0 1\n1_0 0 1\n", "line 3: non-integer field"),
        ("tvg v1 2 2\n0 0 \u0661\n", "line 2: non-integer field"),
        ("tvg v1 2 2\n0 0 1.0\n", "line 2: non-integer field"),
        ("tvg v1 2 2\n0 0 1\x00\n", "line 2: non-integer field"),
        # there are no comments (comments=None)
        ("tvg v1 2 2\n# comment\n0 0 1\n", "line 2: expected '<time> <a> <b>'"),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(TvgFormatError, match=match):
        parse_tvg(io.StringIO(text))


def test_parse_field_grammar():
    """Whitespace runs separate fields; rows may come in any order."""
    expected = TVG(3, 2, [(0, 0, 1), (1, 1, 2)])
    for body in (
        "0 0 1\n1 1 2\n",
        "\t0\t0  1 \r\n\n+1 +1 2\r\n",
        "1 1 2\n0 0 1\n1 1 2\n",  # out of order, with a duplicate
        "0\x0c0\x0b1\n1\u20281 2",  # what str.split() splits on, no final newline
    ):
        text = "tvg v1 3 2\n" + body
        assert parse_tvg(io.StringIO(text)) == expected, body
        assert parse_tvg(line for line in text.split("\n")) == expected, body


def test_parse_error_path_rereads_a_stream_from_where_it_started(tmp_path):
    path = tmp_path / "t.tvg"
    path.write_text("preamble\ntvg v1 2 2\n\n0 0 x\n")
    for skip in (lambda fh: fh.readline(), next):  # next() disables tell()
        with open(path) as fh:
            skip(fh)
            with pytest.raises(TvgFormatError, match="line 3: non-integer"):
                parse_tvg(fh)


def _churn_by_sets(tvg):
    """churn_rate from per-instant contact sets (the definition)."""
    sets = [set(s.contact_list) for s in tvg.snapshots]
    flipped = sum(len(c ^ d) for c, d in zip(sets, sets[1:]))
    active = sum(len(c | d) for c, d in zip(sets, sets[1:]))
    return Fraction(flipped, active) if active else Fraction(0)


def test_churn_matches_set_reference_random():
    rng = random.Random(21)
    tvgs = [random_tvg(rng, max_instants=rng.choice((2, 12))) for _ in range(60)]
    tvgs += [TVG(4, 2, []), TVG(3, 5, []), TVG(2, 2, [(1, 0, 1)])]
    for tvg in tvgs:
        if tvg.num_instants >= 2:
            assert churn_rate(tvg) == _churn_by_sets(tvg)


def test_instant_cap_is_checked_before_allocation():
    with pytest.raises(TvgFormatError, match=str(MAX_INSTANTS)):
        parse_tvg(io.StringIO(f"tvg v1 3 {MAX_INSTANTS + 1}\n"))
    with pytest.raises(ValueError, match="MAX_INSTANTS"):
        TVG(3, 10**9, [])
    assert TVG(3, MAX_INSTANTS, [(MAX_INSTANTS - 1, 0, 2)]).num_contacts() == 1


def test_node_cap_is_checked_before_the_body_is_read():
    def body():
        raise AssertionError("the body was read")
        yield "0 0 1\n"

    for lines in (chain(["tvg v1 2147483648 3\n"], body()), ["tvg v1 3000000000 3\n"]):
        with pytest.raises(TvgFormatError, match=r"bad header counts.*2\*\*31 - 1"):
            parse_tvg(lines)
    assert parse_tvg(["tvg v1 2147483647 1\n"]).num_nodes == 2**31 - 1


def test_many_empty_instants_load_in_bounded_memory():
    # one int64 offset per instant: 2 million empty instants peak at about 16 MB
    tracemalloc.start()
    try:
        start = time.perf_counter()
        tvg = parse_tvg(io.StringIO("tvg v1 3 2000000\n"))
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tvg.num_instants, tvg.num_contacts(), len(tvg.snapshots)) == (2000000, 0, 2000000)
    assert peak < 64 * 2**20
    assert elapsed < 1.0
