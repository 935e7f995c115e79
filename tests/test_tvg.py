from __future__ import annotations

import io
import os
import random
import threading
import time
import tracemalloc
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from edge_markovian import edge_markovian_rows


def test_build_tvg_one_contact_per_snapshot(chain4):
    assert chain4.num_nodes == 4
    assert chain4.num_instants == 3
    assert chain4.offsets.tolist() == [0, 1, 2, 3]  # one contact per snapshot
    assert chain4.edges.tolist() == [[0, 0, 1], [1, 1, 2], [2, 2, 3]]


def test_build_tvg_empty():
    tvg = TVG(2, 1, [])
    assert tvg.num_instants == 1
    assert tvg.offsets.tolist() == [0, 0]
    assert tvg != object()  # __eq__ leaves a non-TVG to the other operand


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


def test_rows_sort_whatever_the_node_count():
    # (t * n + a) * n + b passes int64 here, so one int64 key cannot order these rows
    n = 2**31 - 1
    tvg = TVG(n, 4, [(3, 5, 9), (0, 1, 2), (3, 5, 9), (2, 0, n - 1)])
    assert tvg.edges.tolist() == [[0, 1, 2], [2, 0, n - 1], [3, 5, 9]]
    assert tvg.offsets.tolist() == [0, 1, 1, 2, 3]
    rng = random.Random(8)
    # 2**30 nodes over 8 instants is the last size whose keys all fit: the largest is 2**63 - 1
    for num_nodes, num_instants in ((n, 6), (2**30, 9), (2**30, 8), (7, 5), (2, 3)):
        for _ in range(20):
            rows = []
            for _ in range(rng.randint(0, 12)):
                a, b = sorted(rng.sample(range(min(num_nodes, 4)), 2))
                if num_nodes > 4 and rng.random() < 0.5:
                    b = rng.randrange(num_nodes - 3, num_nodes)
                rows.append((rng.randrange(num_instants), a, b))
            rows += rng.sample(rows, len(rows) // 2)  # repeats
            tvg = TVG(num_nodes, num_instants, rows)
            assert tvg.edges.tolist() == [list(row) for row in sorted(set(rows))]


def _constructor_rows() -> tuple[np.ndarray, np.ndarray]:
    """int64 rows of a TVG of 200 nodes and 1000 instants: 200,000 shuffled, most of
    them repeats, and its 48,953 contacts in order."""
    rng = np.random.default_rng(5)
    distinct = np.column_stack(
        (rng.integers(0, 1000, 50_000), rng.integers(0, 100, 50_000), rng.integers(100, 200, 50_000))
    )
    shuffled = distinct[rng.integers(0, len(distinct), 200_000)]
    return shuffled, TVG(200, 1000, shuffled).edges.astype(np.int64)


def _constructor_peak(rows: np.ndarray) -> int:
    """The peak traced allocation, in bytes, of TVG(200, 1000, rows)."""
    tracemalloc.start()
    try:
        tvg = TVG(200, 1000, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(tvg.edges, np.unique(rows, axis=0))
    return peak


def test_constructor_holds_less_than_its_rows():
    shuffled, in_order = _constructor_rows()
    # 0.46x and 1.01x the int64 rows measured; the 3-key lexsort and step signs took 2.8x and 2.5x
    assert _constructor_peak(shuffled) < 0.75 * shuffled.nbytes
    assert _constructor_peak(in_order) < 1.05 * in_order.nbytes


def test_constructor_takes_no_int64_copy_of_int32_rows():
    # 11.0 B a row shuffled measured, where an int64 copy of the rows took 35.0
    shuffled, in_order = (rows.astype(np.int32) for rows in _constructor_rows())
    assert _constructor_peak(shuffled) < 16 * len(shuffled)
    # in order: 9.4 B a row measured, the int64 key and its order check; the offsets'
    # int32 `edges[:, 0] + 1` copy beside bincount's int64 one took 12.2, an int64
    # copy of the rows 48.2
    assert _constructor_peak(in_order) < 10 * len(in_order)


def test_constructor_keeps_int32_rows_in_order_as_its_edges():
    rows = np.array([[0, 0, 1], [0, 1, 2], [2, 0, 2]], dtype=np.int32)
    expected = rows.tolist()
    tvg = TVG(3, 3, rows)
    assert tvg.edges is rows and not rows.flags.writeable
    # out of order, repeated, int64 or not C-ordered: the rows are copied and left writeable
    others = (rows[::-1].copy(), rows[[0, 0, 1, 2]], rows.astype(np.int64), np.asfortranarray(rows))
    for other in others:
        tvg = TVG(3, 3, other)
        assert tvg.edges is not other and other.flags.writeable
        assert tvg.edges.tolist() == expected


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
        # more digits than int() reads: zero-led fields are read, others are out of range
        pytest.param("tvg v1 3 4\n0 0 " + "0" * 5000 + "1\n1 x 2\n", "^line 3: non-integer field$",
                     id="zero-led-5001-digits"),
        pytest.param("tvg v1 3 4\n0 0 1\n1 0 " + "9" * 5001 + "\n",
                     r"^line 3: node out of range: contact \(0,inf\)", id="node-5001-digits"),
        pytest.param("tvg v1 3 4\n-" + "9" * 5001 + " 0 1\n", r"^line 2: time -inf out of range \[0,4\)$",
                     id="time-minus-5001-digits"),
        # fields and header counts are ASCII [+-]?[0-9]+, whatever else int() reads
        ("tvg v1 2 2\n0 0 1\n1_0 0 1\n", "line 3: non-integer field"),
        ("tvg v1 2 2\n0 0 \u0661\n", "line 2: non-integer field"),
        ("tvg v1 2 2\n0 0 1.0\n", "line 2: non-integer field"),
        ("tvg v1 1_0 2\n", "bad header counts"),
        ("tvg v1 3 \u0662\n", "bad header counts"),
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


def test_parse_reads_a_stream_from_where_it_is(tmp_path):
    path = tmp_path / "t.tvg"
    path.write_text("preamble\ntvg v1 2 2\n\n0 0 x\n")
    for skip in (lambda fh: fh.readline(), next):
        with open(path) as fh:
            skip(fh)
            with pytest.raises(TvgFormatError, match="line 3: non-integer"):
                parse_tvg(fh)


def test_load_rereads_a_file_whose_last_row_is_out_of_range(tmp_path):
    # loadtxt reads every line and the constructor refuses the last row:
    # load_tvg reads the file again from its start to name that line
    path = tmp_path / "t.tvg"
    rows = [(t % 50, t % 7, 7 + t % 5) for t in range(4000)]
    path.write_text("tvg v1 12 50\n" + "".join(f"{t} {a} {b}\n" for t, a, b in rows) + "3 4 4\n")
    with pytest.raises(TvgFormatError, match=r"^line 4002: contact \(4,4\) at time 3 must satisfy a < b$"):
        load_tvg(str(path))


def test_load_names_an_out_of_range_row_before_a_later_undecodable_byte(tmp_path):
    # loadtxt takes line 2 without complaint and stops at the undecodable byte far
    # past it (a UnicodeDecodeError); only the reread from the start names line 2
    path = tmp_path / "t.tvg"
    path.write_bytes(b"tvg v1 4 3\n7 0 1\n" + b"".join(b"%d 0 1\n" % (t % 3) for t in range(20_000))
                     + b"\xff\n")
    with pytest.raises(TvgFormatError, match=r"^line 2: time 7 out of range \[0,3\)$"):
        load_tvg(str(path))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
def test_load_reads_a_valid_named_pipe_as_a_file(tmp_path):
    # 20,000 rows, more than a pipe buffers: the writer blocks until they are read
    rng = np.random.default_rng(8)
    low = rng.integers(0, 99, 20_000)
    rows = np.column_stack((rng.integers(0, 30, 20_000), low, low + rng.integers(1, 100 - low)))
    text = "tvg v1 100 30\n" + "".join(f"{t} {a} {b}\n" for t, a, b in rows.tolist())
    path, pipe = tmp_path / "t.tvg", tmp_path / "pipe.tvg"
    path.write_text(text)
    os.mkfifo(pipe)

    def write():
        with open(pipe, "w") as fh:  # opens once load_tvg opens the pipe to read
            fh.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    tvg = load_tvg(str(pipe))
    writer.join(timeout=60)
    assert tvg == load_tvg(str(path))
    assert tvg.num_contacts() == len(np.unique(rows, axis=0))


def test_parse_of_a_one_shot_iterator_holds_no_copy_of_its_lines():
    # 100,000 rows from a generator, read once: 48 B per line measured, 116
    # when the lines were kept in a list for a second reading
    def lines():
        yield "tvg v1 1000 100\n"
        for i in range(100_000):
            yield f"{i % 100} {i % 999} 999\n"

    tracemalloc.start()
    try:
        tvg = parse_tvg(lines())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tvg.num_contacts() == 99_900  # i and i + 99,900 repeat one row
    assert peak < 80 * 100_000


def _churn_by_sets(tvg):
    """churn_rate from per-instant contact sets (the definition), read from edges and offsets."""
    bounds = tvg.offsets.tolist()
    sets = [set(map(tuple, tvg.edges[lo:hi, 1:].tolist())) for lo, hi in zip(bounds, bounds[1:])]
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


@st.composite
def churn_tvgs(draw):
    n = draw(st.integers(2, 6))
    big_n = draw(st.integers(2, 8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rows = draw(st.lists(st.tuples(st.integers(0, big_n - 1), st.sampled_from(pairs)), max_size=30))
    return TVG(n, big_n, [(t, a, b) for t, (a, b) in rows])


@settings(max_examples=100, deadline=None)
@given(churn_tvgs())
# pair (0, 1)'s last contact is at instant N - 1 and the next pair's, (0, 2)'s, at 0
@example(TVG(3, 3, [(2, 0, 1), (0, 0, 2)]))
def test_churn_rate_matches_its_definition(tvg):
    assert churn_rate(tvg) == _churn_by_sets(tvg)


# (p, q, sd): the sd of churn_rate over seeds 0-199 of edge_markovian_rows at n = 60, N = 400
_EDGE_MARKOVIAN = ((0.05, 0.3, 0.0017), (0.05, 0.05, 0.0007), (0.1, 0.9, 0.0006))


@pytest.mark.parametrize("p, q, sd", _EDGE_MARKOVIAN)
def test_churn_rate_of_edge_markovian_snapshots(p, q, sd):
    # From the stationary share pi = p / (p + q), a pair is active at t or t + 1 with
    # probability 1 - (1 - pi)(1 - p) = p(1 + q) / (p + q) and flips with probability
    # pi q + (1 - pi) p = 2pq / (p + q), so churn is 2q / (1 + q), whatever p. The band
    # is 5 sd; q at 1.1 q or 0.9 q moves the mean by 13 to 87 sd.
    tvg = TVG(60, 400, edge_markovian_rows(60, 400, p, q, np.random.default_rng(1)))
    assert abs(float(churn_rate(tvg)) - 2 * q / (1 + q)) < 5 * sd


def test_churn_rate_whatever_the_node_count():
    # the keys (a * n + b) * (N + 1) + t fit int64 up to n * n * (N + 1) == 2**63;
    # past that the pairs are numbered densely first
    rng = random.Random(63)
    for num_nodes, num_instants in ((2**30, 7), (2**30, 8), (2**31 - 1, 2), (2**31 - 1, 5)):
        tops = [(num_nodes - 3, num_nodes - 1), (num_nodes - 2, num_nodes - 1), (0, num_nodes - 1)]
        pairs = tops + [(0, 1), (0, 2), (1, 2)]
        for _ in range(30):
            rows = [(rng.randrange(num_instants), *rng.choice(pairs)) for _ in range(rng.randint(0, 16))]
            tvg = TVG(num_nodes, num_instants, rows)
            assert churn_rate(tvg) == _churn_by_sets(tvg), (num_nodes, num_instants, rows)
    # pair (2**30, 2**30 + 1) is 2**61 pairs after (0, 1): at stride 8, unchecked
    # keys would wrap and put its instant 1 next to (0, 1)'s instant 0
    tvg = TVG(2**31 - 1, 7, [(0, 0, 1), (1, 2**30, 2**30 + 1)])
    assert churn_rate(tvg) == _churn_by_sets(tvg) == 1


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
