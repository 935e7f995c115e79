"""Differential tests: the parsers against line-by-line references.

The references below are the record-at-a-time contact-log parser and
discretizer that parse_contacts and the column discretizer replaced, and
the line loop of the tvg v1 parser that its column reader (numpy's
loadtxt) replaced, kept verbatim apart from returning tuples in place of
record objects and building the TVG without labels. parse_contacts is a
line pass too, appending to columns. Each parser must give the same TVG
and counters, node labels included (IngestStats.labels), or the same
exception with the same first-bad-line message.
"""

from __future__ import annotations

import io
import os
import tempfile
from bisect import bisect_right

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timecent import (
    TVG,
    ContactLogError,
    IngestConfig,
    IngestStats,
    TvgFormatError,
    churn_rate,
    discretize_with_stats,
    parse_contacts,
    parse_tvg,
)
from timecent.tvg import _first_invalid, _integers, check_instants
from timecent.tvgtext import read_rows, small_file_churn_rate


def reference_parse_contacts(src):
    for lineno, raw in enumerate(src, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        parts = line.split(",")
        if lineno == 1 and parts and parts[0].strip().lower() == "timestamp":
            continue
        if len(parts) != 3:
            raise ContactLogError(lineno, "expected 'timestamp,label_a,label_b'")
        ts_text, label_a, label_b = (p.strip() for p in parts)
        try:
            timestamp = int(ts_text)
        except ValueError:
            raise ContactLogError(lineno, f"non-integer timestamp {ts_text!r}") from None
        if not label_a or not label_b:
            raise ContactLogError(lineno, "empty node label")
        if label_a == label_b:
            raise ContactLogError(lineno, f"self-contact on label {label_a!r}")
        yield (timestamp, label_a, label_b)


def reference_discretize_with_stats(records, cfg):
    items = list(records)
    if not items and (cfg.start_timestamp is None or cfg.end_timestamp is None):
        raise ValueError("empty record stream needs explicit start and end timestamps")
    start = cfg.start_timestamp
    if start is None:
        start = min(r[0] for r in items)
    end = cfg.end_timestamp
    if end is None:
        end = max(r[0] for r in items)
    if end < start:
        raise ValueError("end_timestamp must not precede start_timestamp")
    granularity = cfg.granularity_seconds
    num_instants = (end - start) // granularity + 1
    try:
        check_instants(num_instants)
    except ValueError as exc:
        raise ValueError(f"timestamps {start} to {end} in {granularity} s bins: {exc}") from None
    flat: list[int] = []
    ids: dict[str, int] = {}
    rejected = 0
    for timestamp, label_a, label_b in items:
        if not start <= timestamp <= end:
            rejected += 1
            continue
        a = ids.setdefault(label_a, len(ids))
        b = ids.setdefault(label_b, len(ids))
        flat += ((timestamp - start) // granularity, a, b)
    rows = np.array(flat, dtype=np.int64).reshape(-1, 3)
    rows[:, 1:].sort(axis=1)
    tvg = TVG(len(ids), num_instants, rows)
    stats = IngestStats(
        records_read=len(items),
        records_rejected=rejected,
        start_timestamp=start,
        end_timestamp=end,
        labels=[label for label, _ in sorted(ids.items(), key=lambda kv: kv[1])],
    )
    return tvg, stats


def reference_parse_tvg(lines):
    it = iter(lines)
    header = next(it)
    fields = header.split()
    num_nodes, num_instants = int(fields[2]), int(fields[3])
    values: list[int] = []
    blanks: list[int] = []
    malformed = None
    try:
        for line in it:
            parts = line.split()
            if len(parts) == 3:
                t, a, b = parts
                values += (int(t), int(a), int(b))
            elif parts:
                malformed = "expected '<time> <a> <b>'"
                break
            else:
                blanks.append(len(values) // 3)
    except ValueError:
        malformed = "non-integer field"
    rows = _integers(values).reshape(-1, 3)
    invalid = _first_invalid(rows, num_nodes, num_instants)
    if invalid is None and malformed is not None:
        invalid = (len(rows), malformed)
    if invalid is not None:
        index, message = invalid
        raise TvgFormatError(f"line {index + 2 + bisect_right(blanks, index)}: {message}")
    return TVG(num_nodes, num_instants, rows)


def outcome(call, *args):
    """What a parser gives: its result, or its exception's type and message."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def ingest_outcome(parse, discretize, text, cfg):
    def run():
        tvg, stats = discretize(parse(io.StringIO(text)), cfg)
        return tvg, stats

    return outcome(run)


INT64_EDGES = st.sampled_from([2**63 - 1, 2**63, 2**64 + 7, -(2**63), -(2**63) - 1])
# str.strip() drops \x1c-\x1f around a number, which int() alone refuses
PAD = st.sampled_from(["", "", "\x1c", "\x1d", "\x1e", "\x1f", " "])
TIMESTAMP = st.one_of(
    st.builds("{}{}{}".format, PAD, st.integers(-40, 400), PAD),
    INT64_EDGES.map(str),
    st.sampled_from(["x", "1.5", " 3 ", "\t+4", "1_0", "\u0663", "", "0x1", "\x0c9"]),
)
# a header's first field: skipped only on line 1, whatever the field count
HEADER_FIELD = st.sampled_from(["timestamp", " Timestamp "])
LABELS = ["a", "b", "c", " a", "b ", "", " ", "a\x0cb", "c\u2028", "\u2028", "\u00e9"]
LABEL = st.sampled_from(LABELS)
# the labels of a contact line that parses: not empty, and different, once stripped
LABEL_PAIR = st.sampled_from(
    [f"{a},{b}" for a in LABELS for b in LABELS if "" != a.strip() != b.strip() != ""]
)
CONTACT_LINE = st.tuples(TIMESTAMP, LABEL, LABEL).map(",".join)
LOG_LINE = st.one_of(
    CONTACT_LINE,
    CONTACT_LINE,  # twice: with more lines that parse, a log reaches its later lines
    st.tuples(TIMESTAMP, LABEL).map(",".join),  # misaligned: 2 fields, or 4 below
    st.tuples(TIMESTAMP, LABEL, LABEL, LABEL).map(",".join),
    st.tuples(HEADER_FIELD, LABEL).map(",".join),
    st.tuples(HEADER_FIELD, LABEL, LABEL, LABEL).map(",".join),
    st.sampled_from(["", "  ", "\x0c", "timestamp,label_a,label_b", " Timestamp ,a,b"]),
)
BOUND = st.one_of(st.none(), st.integers(-40, 400), INT64_EDGES)


@st.composite
def contact_logs(draw):
    start, end = draw(BOUND), draw(BOUND)
    if start is not None and end is not None and end < start:
        start, end = end, start
    # two lines in three are contacts inside [start, end], the discretizer's accepting path
    lo = start if start is not None else min(-40, 400 if end is None else end)
    inside = st.integers(lo, max(lo, 400) if end is None else end)
    lines = [
        f"{draw(PAD)}{draw(inside)}{draw(PAD)},{draw(LABEL_PAIR)}" if kind else draw(LOG_LINE)
        for kind in draw(st.lists(st.integers(0, 2), max_size=12))
    ]
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, IngestConfig(draw(st.integers(1, 90)), start, end)


@settings(max_examples=200, deadline=None)
@given(contact_logs())
def test_ingest_matches_the_record_reference(case):
    text, cfg = case
    expected = ingest_outcome(reference_parse_contacts, reference_discretize_with_stats, text, cfg)
    assert ingest_outcome(parse_contacts, discretize_with_stats, text, cfg) == expected


def test_ingest_reference_cases():
    """Hand-picked cases the generated ones reach only by chance."""
    cfg = IngestConfig(30, 0, 100)
    for text in (
        "1,2\n3,4,5,6\n",
        "0,a,b\n\n1,b,c\n",
        f"0,a,b\n{2**63},b,c\n",
        "timestamp,a,b\r\n0,a\x0cb,c\u2028\r\n \r\n9,c,a\r\n",
        "0,a,b\n500,z,a\n1,a,b",
    ):
        for window in (cfg, IngestConfig(30)):
            expected = ingest_outcome(
                reference_parse_contacts, reference_discretize_with_stats, text, window
            )
            assert ingest_outcome(parse_contacts, discretize_with_stats, text, window) == expected


# tvg v1 bodies inside the grammar: whitespace-separated ASCII integers
FIELD = st.one_of(
    st.integers(-2, 8).map(str),
    st.sampled_from(["+1", "-0", "007", "99999999999999999999", "-99999999999999999999"]),
)
SEP = st.sampled_from([" ", "\t", "  ", " \t", "\x0c", "\x0b"])
EDGE = st.sampled_from(["", " ", "\t"])


def joined(draw, parts):
    """The fields of one tvg v1 line, separated and edged by drawn whitespace."""
    return draw(EDGE) + "".join((draw(SEP) if i else "") + p for i, p in enumerate(parts))


@st.composite
def tvg_line(draw, fields):
    return joined(draw, draw(st.lists(FIELD, min_size=fields, max_size=fields))) + draw(EDGE)


# a row's field written plainly, with a +, with leading zeros, or, for 0, as -0
SPELLING = st.sampled_from(["", "+", "00", "-"])


def spelled(draw, value):
    prefix = draw(SPELLING)
    return (prefix if prefix != "-" or value == 0 else "") + str(value)


TVG_LINE = st.one_of(
    tvg_line(3), tvg_line(3), tvg_line(3), tvg_line(2), tvg_line(4),
    st.sampled_from(["", " ", "\t", "# a comment", "# a b"]),
)


@st.composite
def tvg_texts(draw, line=TVG_LINE):
    num_nodes, num_instants = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    header = f"tvg v1 {num_nodes} {num_instants}\n"
    lines = []
    # two lines in three are rows valid for the header, the parsers' accepting path
    for kind in draw(st.lists(st.integers(0, 2), max_size=10)):
        if num_nodes >= 2 and kind:
            a = draw(st.integers(0, num_nodes - 2))
            row = (draw(st.integers(0, num_instants - 1)), a, draw(st.integers(a + 1, num_nodes - 1)))
            lines.append(joined(draw, [spelled(draw, value) for value in row]) + draw(EDGE))
        else:
            lines.append(draw(line))
    if num_nodes >= 2 and draw(st.integers(0, 3)) == 0:
        # one row a step past the header's range, at its time, its last node or a = b
        a = draw(st.integers(0, num_nodes - 2))
        row = draw(st.sampled_from([(num_instants, a, a + 1), (0, a, num_nodes), (0, a, a)]))
        row_line = joined(draw, [spelled(draw, value) for value in row]) + draw(EDGE)
        lines.insert(draw(st.integers(0, len(lines))), row_line)
    text = header + "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(max_examples=200, deadline=None)
@given(tvg_texts())
def test_parse_tvg_matches_the_line_reference(text):
    expected = outcome(reference_parse_tvg, io.StringIO(text))
    assert outcome(parse_tvg, io.StringIO(text)) == expected
    assert outcome(parse_tvg, iter(text.split("\n"))) == expected  # one-shot, no line ends


def scan_outcome(text):
    """What the line scan alone gives for a tvg v1 text."""
    header, *body = io.StringIO(text)
    num_nodes, num_instants = map(int, header.split()[2:])
    return outcome(lambda: TVG(num_nodes, num_instants, list(read_rows(body, num_nodes, num_instants))))


ANY_FIELD = st.one_of(
    FIELD,
    st.sampled_from(["1_0", "\u0663", "1.0", "1e3", "0x1", "+", "-", "1\x00", "2\u200b", "#"]),
)


@st.composite
def any_line(draw):
    return joined(draw, draw(st.lists(ANY_FIELD, min_size=1, max_size=4)))


@st.composite
def long_field_line(draw):
    """Three plain fields but one longer than int() reads: zero-led or out of range."""
    parts = [str(draw(st.integers(0, 8))) for _ in range(3)]
    parts[draw(st.integers(0, 2))] = draw(st.sampled_from(["0" * 5000 + "1", "9" * 5001]))
    return joined(draw, parts)


@settings(max_examples=200, deadline=None)
@given(tvg_texts(st.one_of(any_line(), long_field_line(), TVG_LINE)))
@example("tvg v1 4 3\n+0 0 1\n1 00 1\n1 -0 3\n2 1 2\n")  # signed fields, which texts drawn rarely accept
def test_loadtxt_and_the_scan_read_one_grammar(text):
    """Whatever loadtxt accepts, the scan accepts with the same rows; what it
    rejects, the scan rejects with the first bad line. churn counts an ASCII
    file of at least 2 instants without numpy exactly when parse_tvg accepts
    it, and finds churn_rate's value."""
    assert outcome(parse_tvg, io.StringIO(text)) == scan_outcome(text)
    if text.isascii() and int(text.split()[3]) >= 2:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.tvg")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            counted = small_file_churn_rate(path)
        tvg = outcome(parse_tvg, io.StringIO(text))
        assert counted == (None if isinstance(tvg, tuple) else churn_rate(tvg))
