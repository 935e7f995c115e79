"""The `tvg v1` text form without numpy: its header, the limits on its
counts, the churn formula, and a churn count of small files.

    tvg v1 <num_nodes> <num_instants>
    <time> <a> <b>
    ...

with a < b on every contact line, lines sorted by (time, a, b), LF line
endings and a trailing newline, as timecent.tvg.format_tvg writes it.
Nodes are the integers 0 to num_nodes - 1; a contact log's labels stay
with its ingestion (`IngestStats.labels`).

A reader takes any order and skips blank lines. A contact line is three
fields separated by whitespace: any run of the characters str.split()
splits on, other than a line end (format_tvg writes one space). Each
field, and each header count, is an ASCII integer, [+-]?[0-9]+.
timecent.tvg.parse_tvg reads any such text and names its first bad line;
small_file_churn_rate counts the small files that have none.
"""

from __future__ import annotations

import os
import re
import stat
from fractions import Fraction

FORMAT_HEADER = "tvg v1"
is_field = re.compile(r"[+-]?[0-9]+").fullmatch  # a header count or a contact field

# Largest instant count a TVG may have. Its offsets are int64, so they stay
# within 64 MiB whatever a header or a contact log's time span declares.
MAX_INSTANTS = 1 << 23

# Files of fewer bytes are counted by small_file_churn_rate, which holds
# their lines and one key per contact, about 20 bytes per byte read. Below
# this size, counting with Python ints costs less than importing numpy:
# the whole `churn` command broke even at about 505 KB (see README).
SMALL_TVG_BYTES = 384 << 10


class TvgFormatError(ValueError):
    """Raised when serialized TVG data cannot be parsed."""


def check_nodes(num_nodes: int) -> None:
    """ValueError unless 0 <= num_nodes <= 2**31 - 1: node ids are int32."""
    if not 0 <= num_nodes <= (1 << 31) - 1:
        raise ValueError(f"num_nodes must be in [0, 2**31 - 1], got {num_nodes}")


def check_instants(num_instants: int) -> None:
    """ValueError unless 1 <= num_instants <= MAX_INSTANTS."""
    if not 1 <= num_instants <= MAX_INSTANTS:
        raise ValueError(
            f"num_instants must be in [1, {MAX_INSTANTS}] (MAX_INSTANTS), got {num_instants}"
        )


def read_header(header: str) -> tuple[int, int]:
    """(num_nodes, num_instants) of a header line; TvgFormatError if it is not one."""
    fields = header.split()
    if len(fields) != 4 or fields[0] != "tvg" or fields[1] != "v1":
        raise TvgFormatError(f"bad header: {header.strip()!r}")
    try:
        if not all(map(is_field, fields[2:])):
            raise ValueError("each count is [+-]?[0-9]+")
        num_nodes, num_instants = int(fields[2]), int(fields[3])
        check_nodes(num_nodes)
        check_instants(num_instants)
    except ValueError as exc:
        raise TvgFormatError(f"bad header counts: {header.strip()!r} ({exc})") from None
    return num_nodes, num_instants


def churn_fraction(contacts: int, first: int, last: int, overlap: int) -> Fraction:
    """The churn rate (timecent.tvg.churn_rate) of a TVG of at least 2
    instants with `contacts` contacts, `first` of them at instant 0, `last`
    at its last instant, and `overlap` whose pair recurs at the next instant.

    Pairs active at i or i+1 that flip between them: flipped = 2 * contacts
    - first - last - 2 * overlap, over active = flipped + overlap; 0 when
    no pair is ever active.
    """
    flipped = 2 * contacts - first - last - 2 * overlap
    active = flipped + overlap
    return Fraction(flipped, active) if active else Fraction(0)


def small_file_churn_rate(path: str) -> Fraction | None:
    """churn_rate(load_tvg(path)) counted with Python ints, or None.

    It counts a regular file of fewer than SMALL_TVG_BYTES bytes of ASCII
    text, with a valid header of at least 2 instants and only blank or
    contact lines whose fields are unsigned. Every other file gives None,
    and load_tvg and churn_rate then read it and name what is wrong.

    Each contact is one key (a * n + b) * (N + 1) + t, so repeated lines
    collapse; the overlap counts the keys whose successor is a key.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):  # a pipe may be read only once
            return None
        with open(path, "rb") as fh:
            data = fh.read(SMALL_TVG_BYTES)
    except OSError:
        return None
    if len(data) >= SMALL_TVG_BYTES or not data.isascii():
        return None
    # the lines a text-mode file yields: universal newlines, then split on "\n"
    text = data.decode("ascii").replace("\r\n", "\n").replace("\r", "\n")
    header, _, body = text.partition("\n")
    try:
        num_nodes, num_instants = read_header(header)
    except TvgFormatError:
        return None
    if num_instants < 2:
        return None
    n, stride = num_nodes, num_instants + 1
    keys = set()
    for fields in map(str.split, body.split("\n")):
        if len(fields) == 3:
            t, a, b = fields
            digits = t + a + b  # int() reads 640 digits whatever sys.set_int_max_str_digits says
            if digits.isdigit() and len(digits) < 640:
                t, a, b = int(t), int(a), int(b)
                if t < num_instants and a < b < n:
                    keys.add((a * n + b) * stride + t)
                    continue
        if fields:
            return None
    times = [key % stride for key in keys]
    overlap = len(keys.intersection([key + 1 for key in keys]))
    return churn_fraction(len(keys), times.count(0), times.count(num_instants - 1), overlap)
