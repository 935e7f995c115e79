from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from timecent import __version__, churn_rate, format_value, load_tvg
from timecent.cli import main
from timecent.tvgtext import SMALL_TVG_BYTES, small_file_churn_rate
from conftest import child_env

# separators str.split() splits on inside a line; the last two are not ASCII
SEPARATORS = (" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "　")


def churn_by_load_tvg(path) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `timecent churn path` from
    churn_rate(load_tvg(path)), or from the error it raises."""
    header = f"# timecent {__version__}\n# command: churn\n# config: input={path}\n"
    try:
        rate = churn_rate(load_tvg(str(path)))
    except (ValueError, OSError) as exc:
        return 2, header, f"data error: {exc}\n"
    line = f"churn_rate {format_value(rate)} ({rate.numerator}/{rate.denominator})\n"
    return 0, header + line, ""


def churn_by_main(path, capsys) -> tuple[int, str, str]:
    code = main(["churn", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def random_text(rng: random.Random) -> str:
    """A small tvg v1 text whose rows may repeat and come in any order, with
    blank lines, separators and leading zeros; half the time one line then
    breaks the grammar or the checks."""
    n, big_n = rng.choice((2, 3, 5, 8)), rng.choice((2, 3, 4, 7))
    lines = []
    for _ in range(rng.randint(0, 14)):
        if rng.random() < 0.1:
            lines.append(rng.choice(("", " ", "\t", " \x0c ")))  # blank and whitespace-only
            continue
        a, b = sorted(rng.sample(range(n), 2))
        fields = [("00" if rng.random() < 0.1 else "") + str(v) for v in (rng.randrange(big_n), a, b)]
        seps = [rng.choice(SEPARATORS[:-2]) if rng.random() < 0.3 else " " for _ in range(2)]
        lines.append(fields[0] + seps[0] + fields[1] + seps[1] + fields[2])
        if rng.random() < 0.15:
            lines.append(lines[-1])  # a repeated line
    rng.shuffle(lines)
    if rng.random() < 0.5:
        t, a = rng.randrange(big_n), rng.randrange(n - 1)
        lines.insert(rng.randint(0, len(lines)), rng.choice((
            f"+{t} {a} {a + 1}", f"{t} -{a} {a + 1}", f"{t} {a + 1} {a}", f"{t} {a} {a}",
            f"{big_n} {a} {a + 1}", f"{t} {a} {n}", f"{t}\xa0{a} {a + 1}", f"{t} {a}",
            f"{t} {a} {a + 1} 0", f"{t} {a} {a + 1}.0", f"{t} {a}_0 {a + 1}", "#",
        )))
    header = rng.choice((f"tvg v1 {n} {big_n}",) * 9 + (f"tvg v1 {n} 1", f"tvg v1 1 {big_n}"))
    end = rng.choice(("\n", "\n", "\n", "\r\n", "\r"))
    return end.join([header, *lines]) + rng.choice((end, end, ""))


# texts that each take one case of the grammar or the checks
CASES = [
    "tvg v1 3 3\n1 0 1\n0 0 1\n1 0 1\n2 1 2\n0 0 1\n",  # unsorted and repeated rows
    "tvg v1 3 3\n\n0 0 1\n   \n\t\n1 0 2\n\n",  # blank and whitespace-only lines
    "tvg v1 3 2\n0\t0\x0b1\n1\x0c1\x1c2\x1d\n0 \x1e 1\x1f2\n",  # ASCII separators
    "tvg v1 3 2\n0　0 1\n1 1\xa02\n",  # non-ASCII separators
    "tvg v1 3 2\n00 000 01\n0001 1 0002\n",  # leading zeros
    "tvg v1 +3 02\n0 0 1\n1 1 2\n",  # signed and zero-led header counts
    "tvg v1 3 2\n+0 0 1\n1 1 2\n", "tvg v1 3 2\n0 -0 1\n",  # signed fields
    "tvg v1 3 2\n0 1 1\n", "tvg v1 3 2\n0 2 1\n",  # a >= b
    "tvg v1 3 2\n0 0 3\n", "tvg v1 3 2\n2 0 1\n", "tvg v1 3 2\n0 -1 1\n",  # out of range
    "tvg v1 3 1\n0 0 1\n", "tvg v1 3 1\n",  # one instant
    "tvg v1 0 2\n", "tvg v1 0 2\n0 0 1\n",  # zero nodes
    "tvg v1 2 2\n", "tvg v1 2 2", "tvg v1 2 2\n\n\n",  # no contacts
    "", "\n", "tvg v2 2 2\n", "tvg v1 2\n", "tvg v1 1_0 2\n", "tvg v1 2 9999999999\n",
    "tvg v1 3 2\n0 1 2 0\n", "tvg v1 3 2\n0 1\n", "tvg v1 3 2\n# 0 1 2\n",
    "tvg v1 3 2\n0 1_0 2\n", "tvg v1 3 2\n0 1.0 2\n", "tvg v1 3 2\n0 ١ 2\n",
    "tvg v1 3 2\n0 0 " + "0" * 5000 + "1\n",  # more digits than int() reads by default
    "tvg v1 3 4\n0 0 " + "0" * 5000 + "1\n1 x 2\n", "tvg v1 3 4\n0 0 1\n1 0 " + "9" * 5001 + "\n",
    "tvg v1 3 3\r\n0 0 1\r\n1 0 1\r\n", "tvg v1 3 3\r0 0 1\r1 0 1\r2 1 2",  # CRLF, CR
    "tvg v1 3 2\n0 0\r1\n",  # a CR ends a line
    f"tvg v1 {2**31 - 1} 3\n0 0 {2**31 - 2}\n1 0 {2**31 - 2}\n2 {2**31 - 3} {2**31 - 2}\n",
]


def test_churn_counts_small_files_as_load_tvg_and_churn_rate_do(tmp_path, capsys):
    rng = random.Random(24)
    bodies = [text.encode() for text in CASES + [random_text(rng) for _ in range(300)]]
    bodies += [b"\xef\xbb\xbftvg v1 3 2\n0 0 1\n", b"tvg v1 3 2\n0 0 1\n\xff\xfe\n",
               b"tvg v1 3 2\n0 0 \xc2\xb9\n"]  # a BOM, undecodable bytes, a superscript digit
    counted = 0
    for i, body in enumerate(bodies):
        path = tmp_path / f"{i}.tvg"
        path.write_bytes(body)
        assert churn_by_main(path, capsys) == churn_by_load_tvg(path), body
        counted += small_file_churn_rate(str(path)) is not None
    # both paths ran: about half the files are counted without numpy
    assert len(bodies) // 4 < counted < len(bodies) * 3 // 4, counted


def test_churn_prints_one_line_either_side_of_the_size_constant(tmp_path, capsys):
    rng = random.Random(7)
    rows = sorted({(rng.randrange(50), *sorted(rng.sample(range(40), 2))) for _ in range(400)})
    text = "tvg v1 40 50\n" + "".join(f"{t} {a} {b}\n" for t, a, b in rows)
    lines = set()
    for size in (SMALL_TVG_BYTES - 1, SMALL_TVG_BYTES):
        path = tmp_path / f"{size}.tvg"
        path.write_text(text + "\n" * (size - len(text)))  # padded with blank lines
        assert path.stat().st_size == size
        assert (small_file_churn_rate(str(path)) is None) == (size == SMALL_TVG_BYTES)
        code, out, err = churn_by_main(path, capsys)
        assert (code, out, err) == churn_by_load_tvg(path)
        lines.add(out.splitlines()[-1])
    assert len(lines) == 1 and "churn_rate 0." in lines.pop()


def test_churn_of_what_is_not_a_regular_file_is_load_tvgs_error(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "missing.tvg"):
        assert small_file_churn_rate(str(path)) is None
        code, out, err = churn_by_main(path, capsys)
        assert (code, out, err) == churn_by_load_tvg(path)
        assert code == 2


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
def test_churn_reads_a_named_pipe_once(tmp_path):
    pipe = tmp_path / "pipe.tvg"
    os.mkfifo(pipe)
    with subprocess.Popen([sys.executable, "-m", "timecent.cli", "churn", str(pipe)],
                          env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as child:
        try:
            with open(pipe, "w") as fh:  # opens once the child opens the pipe to read
                fh.write("tvg v1 3 2\n0 1 1\n")
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
    assert child.returncode == 2
    assert err == "data error: line 2: contact (1,1) at time 0 must satisfy a < b\n"
