from __future__ import annotations

import importlib
import math
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import timecent
import timecent.cli as cli
from timecent.cli import main
from conftest import child_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def small_tvg_path(tmp_path, capsys):
    path = tmp_path / "small.tvg"
    code = main(
        ["generate", "--nodes", "30", "--instants", "60", "--prob", "0.02",
         "--seed", "5", "--out", str(path)]
    )
    capsys.readouterr()
    assert code == 0
    return path


def test_generate_writes_deterministic_file(tmp_path, capsys):
    out1 = tmp_path / "a.tvg"
    out2 = tmp_path / "b.tvg"
    code1, stdout1, _ = run(capsys, "generate", "--nodes", "10", "--instants", "5",
                            "--prob", "0.3", "--seed", "7", "--out", str(out1))
    code2, stdout2, _ = run(capsys, "generate", "--nodes", "10", "--instants", "5",
                            "--prob", "0.3", "--seed", "7", "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert stdout1.replace(str(out1), "OUT") == stdout2.replace(str(out2), "OUT")
    assert stdout1.startswith("# timecent ")


def test_generate_reference_defaults_header(tmp_path, capsys):
    # header must carry the full config; avoid regenerating the big TVG twice
    out = tmp_path / "r.tvg"
    code, stdout, _ = run(capsys, "generate", "--reference-defaults", "--seed", "1",
                          "--out", str(out))
    assert code == 0
    assert "nodes=160" in stdout and "instants=800" in stdout
    assert repr(0.01 * math.log(160) / 160) in stdout
    header = out.read_text().splitlines()[0]
    assert header == "tvg v1 160 800"


def test_generate_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--seed", "1", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "error" in err
    for given in (["--nodes", "5"], ["--nodes", "0"], ["--instants", "0"],
                  ["--nodes", "0", "--instants", "0"]):
        code, _, err = run(capsys, "generate", "--reference-defaults", *given,
                           "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 1, given
    code, _, err = run(capsys, "generate", "--nodes", "5", "--instants", "4",
                       "--prob", "1.7", "--seed", "1", "--out", str(tmp_path / "x"))
    assert code == 1


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1


def test_unreadable_input_is_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "churn", str(tmp_path / "missing.tvg"))
    assert code == 2
    assert "data error" in err


def test_malformed_tvg_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.tvg"
    bad.write_text("tvg v9 1 1\n")
    code, _, err = run(capsys, "churn", str(bad))
    assert code == 2


def test_ingest_pipeline(tmp_path, capsys):
    log = tmp_path / "contacts.csv"
    log.write_text("timestamp,label_a,label_b\n0,ann,bea\n45,bea,cal\n400,ann,cal\n")
    out = tmp_path / "m.tvg"
    code, stdout, _ = run(capsys, "ingest", str(log), "--granularity", "30",
                          "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tvg v1 3 14"  # (400-0)//30 + 1 instants
    assert "3 contacts" in stdout


def test_ingest_reports_rejections(tmp_path, capsys):
    log = tmp_path / "contacts.csv"
    log.write_text("0,a,b\n100,a,b\n")
    out = tmp_path / "m.tvg"
    code, stdout, _ = run(capsys, "ingest", str(log), "--granularity", "30",
                          "--start", "0", "--end", "59", "--out", str(out))
    assert code == 0
    assert "rejected 1 of 2" in stdout


def test_ingest_granularity_past_int64_gives_one_instant(tmp_path, capsys):
    # a bin wider than any int64 span puts every record in instant 0
    log = tmp_path / "contacts.csv"
    log.write_text("-7,a,b\n100,b,c\n")
    out = tmp_path / "m.tvg"
    code, _, err = run(capsys, "ingest", str(log), "--granularity", str(2**63),
                       "--out", str(out))
    assert code == 0, err
    assert out.read_text() == "tvg v1 3 1\n0 0 1\n0 1 2\n"


def test_ingest_reads_a_byte_order_mark(tmp_path, capsys):
    text = "timestamp,label_a,label_b\r\n0,ann,bea\r\n45,bea,cal\r\n"
    outs = []
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / f"{name}.csv").write_bytes(data)
        out = tmp_path / f"{name}.tvg"
        code, _, err = run(capsys, "ingest", str(tmp_path / f"{name}.csv"), "--out", str(out))
        assert code == 0, err
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == b"tvg v1 3 2\n0 0 1\n1 1 2\n"


@pytest.mark.parametrize("flags", [("--granularity", "0"), ("--start", "10", "--end", "5")])
def test_ingest_bad_flag_values_are_usage_errors_before_reading(tmp_path, capsys, flags):
    out = tmp_path / "m.tvg"
    code, _, err = run(capsys, "ingest", str(tmp_path / "missing.csv"), *flags, "--out", str(out))
    assert code == 1, err
    assert "data error" not in err
    assert not out.exists()


def test_ingest_window_past_the_data_is_a_data_error(tmp_path, capsys):
    log = tmp_path / "contacts.csv"
    log.write_text("0,a,b\n100,a,b\n")
    code, _, err = run(capsys, "ingest", str(log), "--start", "500", "--out", str(tmp_path / "m.tvg"))
    assert code == 2
    assert "data error" in err


def test_ct_sweep_row_count(small_tvg_path, tmp_path, capsys):
    out = tmp_path / "ct.csv"
    code, stdout, _ = run(capsys, "ct", str(small_tvg_path), "--tau", "0.2",
                          "--range", "0:40", "--workers", "1", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "time_index,value,unreached_starts"
    assert len(lines) == 41


def test_ct_invalid_tau_and_range(small_tvg_path, tmp_path, capsys):
    out = tmp_path / "ct.csv"
    assert run(capsys, "ct", str(small_tvg_path), "--tau", "0",
               "--out", str(out))[0] == 1
    assert run(capsys, "ct", str(small_tvg_path), "--tau", "0.2",
               "--range", "5:900", "--out", str(out))[0] == 1
    assert run(capsys, "ct", str(small_tvg_path), "--tau", "0.2",
               "--range", "oops", "--out", str(out))[0] == 1
    for argv in (("ct", "--tau", "1/0"), ("ct", "--tau", "abc"), ("ct", "--tau", "1.5"),
                 ("tcc", "--phi", "0"),
                 ("compare", "--metric", "ct", "--tau", "0", "--seed", "1"),
                 ("compare", "--metric", "tcc", "--phi", "-2", "--seed", "1"),
                 ("compare", "--metric", "tcc", "--phi", "3", "--seed", "-1")):
        assert run(capsys, argv[0], str(small_tvg_path), *argv[1:],
                   "--out", str(out))[0] == 1, argv


def test_sweep_refuses_node_count_over_the_cap(tmp_path, capsys):
    # a header-only file declaring 9000 nodes must fail fast, not allocate n^2
    path = tmp_path / "wide.tvg"
    path.write_text("tvg v1 9000 1\n")
    for argv in (("ct", "--tau", "0.5"), ("tcc", "--phi", "3")):
        code, _, err = run(capsys, argv[0], str(path), *argv[1:],
                           "--out", str(tmp_path / "out.csv"))
        assert code == 2
        assert "8192" in err
    assert not (tmp_path / "out.csv").exists()


def _limited_to_1_gib() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def run_limited(tmp_path, *argv):
    """`timecent argv` in a child process whose address space is capped at 1 GiB."""
    return subprocess.run(
        [sys.executable, "-m", "timecent.cli", *argv], cwd=tmp_path, env=child_env(),
        capture_output=True, text=True, preexec_fn=_limited_to_1_gib, timeout=120,
    )


def test_sweep_over_the_node_cap_fails_before_allocating(tmp_path):
    # 100000 nodes would need 10 GB for one n x n boolean matrix, 40 GB as int32
    (tmp_path / "wide.tvg").write_text("tvg v1 100000 1\n")
    for argv in (("ct", "--tau", "0.5"), ("tcc", "--phi", "3")):
        child = run_limited(tmp_path, argv[0], "wide.tvg", *argv[1:], "--out", "out.csv")
        assert child.returncode == 2, child.stderr
        assert "8192" in child.stderr
    assert not (tmp_path / "out.csv").exists()


def test_generate_over_the_node_cap_is_a_usage_error(tmp_path):
    # one snapshot of 100000 nodes would draw 5e9 uniforms, 37 GiB
    child = run_limited(tmp_path, "generate", "--nodes", "100000", "--instants", "1",
                        "--prob", "0.5", "--seed", "1", "--out", "g.tvg")
    assert child.returncode == 1, child.stderr
    assert "8192" in child.stderr
    assert len(child.stderr.splitlines()) == 1
    assert not (tmp_path / "g.tvg").exists()


def test_generate_over_the_contact_cap_is_a_usage_error(tmp_path):
    # 1.6e11 expected contacts; drawing them would end in a MemoryError traceback
    child = run_limited(tmp_path, "generate", "--nodes", "2000", "--instants", "8000000",
                        "--prob", "0.01", "--seed", "1", "--out", "g.tvg")
    assert child.returncode == 1, child.stderr
    assert "MAX_EXPECTED_CONTACTS" in child.stderr
    assert len(child.stderr.splitlines()) == 1
    assert not (tmp_path / "g.tvg").exists()


def test_header_declaring_a_billion_instants_is_a_data_error(tmp_path):
    (tmp_path / "huge.tvg").write_text("tvg v1 3 1000000000\n")
    for argv in (("ct", "huge.tvg", "--tau", "0.1", "--out", "ct.csv"), ("churn", "huge.tvg")):
        child = run_limited(tmp_path, *argv)
        assert child.returncode == 2, child.stderr
        assert "8388608" in child.stderr and "MAX_INSTANTS" in child.stderr
    assert not (tmp_path / "ct.csv").exists()


def test_contact_log_with_outlier_timestamp_is_a_data_error(tmp_path):
    (tmp_path / "log.csv").write_text("0,a,b\n2000000000,b,c\n")
    child = run_limited(tmp_path, "ingest", "log.csv", "--granularity", "30", "--out", "log.tvg")
    assert child.returncode == 2, child.stderr
    assert "66666667" in child.stderr and "MAX_INSTANTS" in child.stderr
    assert not (tmp_path / "log.tvg").exists()


def test_sweep_negative_workers_is_usage_error(small_tvg_path, tmp_path, capsys):
    # checked before the input is read, so a missing file does not turn it into a data error
    for command, flag, tvg in (("tcc", ("--phi", "3"), small_tvg_path),
                               ("ct", ("--tau", "0.5"), tmp_path / "missing.tvg")):
        code, _, err = run(capsys, command, str(tvg), *flag,
                           "--workers", "-1", "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert "workers" in err


def test_sweep_header_echoes_workers_as_given(small_tvg_path, tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    for flag, shown in (((), "workers=0 "), (("--workers", "3"), "workers=3 ")):
        code, stdout, _ = run(capsys, "tcc", str(small_tvg_path), "--phi", "3", *flag,
                              "--out", out)
        assert code == 0
        assert shown in stdout


def test_sweep_worker_count_invariance(small_tvg_path, tmp_path, capsys):
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"tcc_{workers}.csv"
        code, _, _ = run(capsys, "tcc", str(small_tvg_path), "--phi", "10",
                         "--range", "0:30", "--workers", workers, "--out", str(out))
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_dist_consistent_with_ct_csv(small_tvg_path, tmp_path, capsys):
    table_path = tmp_path / "ct.csv"
    run(capsys, "ct", str(small_tvg_path), "--tau", "0.2", "--range", "0:40",
        "--workers", "1", "--out", str(table_path))
    dist_path = tmp_path / "cdf.csv"
    code, _, _ = run(capsys, "dist", str(table_path), "--kind", "cdf",
                     "--out", str(dist_path))
    assert code == 0
    # recompute the CDF independently from the table csv
    rows = [line.split(",") for line in table_path.read_text().splitlines()[1:]]
    finite = sorted(float(v) for _, v, _ in rows if v != "inf")
    got = [line.split(",") for line in dist_path.read_text().splitlines()[1:]]
    for value_text, frac_text in got:
        value = float(value_text)
        expected = sum(1 for v in finite if v <= value) / len(finite)
        assert float(frac_text) == pytest.approx(expected, abs=1e-12)
    assert float(got[-1][1]) == 1.0


def test_rank_matches_sorted_table(small_tvg_path, tmp_path, capsys):
    table_path = tmp_path / "tcc.csv"
    run(capsys, "tcc", str(small_tvg_path), "--phi", "10", "--range", "0:30",
        "--workers", "1", "--out", str(table_path))
    rank_path = tmp_path / "rank.csv"
    code, _, _ = run(capsys, "rank", str(table_path), "--metric", "tcc", "--k", "5",
                     "--out", str(rank_path))
    assert code == 0
    rows = [line.split(",") for line in table_path.read_text().splitlines()[1:]]
    by_value = sorted(((float(v), int(t)) for t, v, _ in rows), key=lambda x: (-x[0], x[1]))
    got = [line.split(",") for line in rank_path.read_text().splitlines()[1:]]
    assert [(int(t), float(v)) for _, t, v in got] == [(t, v) for v, t in by_value[:5]]


def test_compare_end_to_end(small_tvg_path, tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code, stdout, _ = run(capsys, "compare", str(small_tvg_path), "--metric", "tcc",
                          "--phi", "10", "--k", "4", "--seed", "7", "--range", "0:30",
                          "--workers", "1", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "group,time_index,value"
    assert sum(1 for l in lines if l.startswith("top,")) == 4
    assert sum(1 for l in lines if l.startswith("random,")) == 4
    assert "median=" in stdout
    # reruns are byte-identical
    out2 = tmp_path / "cmp2.csv"
    run(capsys, "compare", str(small_tvg_path), "--metric", "tcc", "--phi", "10",
        "--k", "4", "--seed", "7", "--range", "0:30", "--workers", "1",
        "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_compare_refuses_a_range_too_small_for_k_before_sweeping(small_tvg_path, tmp_path,
                                                                 capsys, monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("metric_sweep called")

    monkeypatch.setattr(cli, "metric_sweep", sweep)
    out = tmp_path / "c.csv"
    code, _, err = run(capsys, "compare", str(small_tvg_path), "--metric", "tcc", "--phi", "3",
                       "--k", "4", "--seed", "7", "--range", "0:7", "--out", str(out))
    assert code == 2
    assert "evaluation range of 7 instants is too small for k=4" in err
    assert not out.exists()


def test_compare_requires_metric_parameter(small_tvg_path, tmp_path, capsys):
    code, _, err = run(capsys, "compare", str(small_tvg_path), "--metric", "ct",
                       "--k", "4", "--seed", "7", "--out", str(tmp_path / "c.csv"))
    assert code == 1
    assert "tau" in err


@pytest.mark.parametrize(
    "metric, given, foreign",
    [("tcc", ("--phi", "3"), ("--tau", "7")), ("ct", ("--tau", "0.5"), ("--phi", "3"))],
)
def test_compare_refuses_the_other_metrics_parameter(small_tvg_path, tmp_path, capsys,
                                                      metric, given, foreign):
    out = tmp_path / "c.csv"
    code, _, err = run(capsys, "compare", str(small_tvg_path), "--metric", metric, *given,
                       *foreign, "--k", "4", "--seed", "7", "--out", str(out))
    assert code == 1
    assert foreign[0] in err
    assert not out.exists()


def test_churn_reports_fraction(small_tvg_path, capsys):
    code, stdout, _ = run(capsys, "churn", str(small_tvg_path))
    assert code == 0
    assert "churn_rate" in stdout


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_dist_and_rank_refuse_rows_no_sweep_writes(tmp_path, capsys):
    for row in ("0,2.0,0", "1,nan,0", "1,-inf,0", "1,2.0,-1", "-3,2.5,0"):
        table = tmp_path / "bad.csv"
        table.write_text(f"time_index,value,unreached_starts\n0,1.5,0\n{row}\n")
        for argv in (("dist",), ("rank", "--metric", "ct", "--k", "1")):
            code, _, err = run(capsys, argv[0], str(table), *argv[1:],
                               "--out", str(tmp_path / "out.csv"))
            assert code == 2, (row, argv)
            assert err.startswith("data error: line 3: "), err
    assert not (tmp_path / "out.csv").exists()


# timecent.cli.main in a child process where any import of numpy fails
NO_NUMPY_MAIN = """
import sys
sys.modules["numpy"] = None
from timecent.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_table_commands_run_without_numpy(small_tvg_path, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (("ct", "--tau", "0.2"), ("tcc", "--phi", "10")):
        code, _, _ = run(capsys, argv[0], str(small_tvg_path), *argv[1:], "--range", "0:40",
                         "--out", f"{argv[0]}.csv")
        assert code == 0
    for argv in (
        ("dist", "ct.csv", "--kind", "cdf", "--out", "out.csv"),
        ("dist", "tcc.csv", "--kind", "ccdf", "--out", "out.csv"),
        ("rank", "tcc.csv", "--metric", "tcc", "--k", "5", "--out", "out.csv"),
        ("rank", "ct.csv", "--metric", "ct", "--k", "5", "--out", "out.csv"),
        ("--version",),
        ("--help",),
    ):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse exits after --version and --help
            code = exc.code
        stdout = capsys.readouterr().out
        written = Path("out.csv").read_bytes() if "--out" in argv else None
        Path("out.csv").unlink(missing_ok=True)
        child = subprocess.run([sys.executable, "-c", NO_NUMPY_MAIN, *argv], cwd=tmp_path,
                               env=child_env(), capture_output=True, text=True, timeout=120)
        assert (child.returncode, child.stderr) == (code, ""), argv
        assert child.stdout == stdout, argv
        if written is not None:
            assert Path("out.csv").read_bytes() == written, argv


def test_package_import_loads_no_numpy():
    check = "import sys, timecent; assert 'numpy' not in sys.modules, 'numpy was imported'"
    child = subprocess.run([sys.executable, "-c", check], env=child_env(),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


# timecent.cli.main in a child process that then prints the timecent modules it
# loaded, and on a last line which of dataclasses and inspect it loaded
MODULES_MAIN = """
import sys
from timecent.cli import main
code = main(sys.argv[1:])
print(*sorted(name for name in sys.modules if name.split(".")[0] == "timecent"))
print(*(name for name in ("dataclasses", "inspect") if name in sys.modules))
sys.exit(code)
"""

# commands whose records are all NamedTuples; dist and rank import no numpy
# either, and nothing else they import brings in inspect
NO_DATACLASSES = {"ct", "tcc", "compare", "churn", "dist", "rank"}
NO_INSPECT = {"dist", "rank"}

# a run of each command on the small inputs its test writes
COMMAND_ARGS = {
    "generate": ("--nodes", "6", "--instants", "4", "--prob", "0.5", "--seed", "1",
                 "--out", "g.tvg"),
    "ingest": ("log.csv", "--out", "m.tvg"),
    "ct": ("small.tvg", "--tau", "0.5", "--out", "ct.csv"),
    "tcc": ("small.tvg", "--phi", "2", "--out", "tcc.csv"),
    "dist": ("table.csv", "--out", "d.csv"),
    "rank": ("table.csv", "--metric", "ct", "--k", "1", "--out", "r.csv"),
    "compare": ("small.tvg", "--metric", "tcc", "--phi", "2", "--k", "2", "--seed", "1",
                "--out", "c.csv"),
    "churn": ("small.tvg",),
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_command_imports_exactly_the_modules_it_names(command, tmp_path):
    (tmp_path / "log.csv").write_text("0,a,b\n45,b,c\n")
    (tmp_path / "small.tvg").write_text("tvg v1 4 6\n0 0 1\n1 1 2\n2 2 3\n4 0 3\n")
    (tmp_path / "table.csv").write_text("time_index,value,unreached_starts\n0,1.5,0\n1,inf,1\n")
    child = subprocess.run([sys.executable, "-c", MODULES_MAIN, command, *COMMAND_ARGS[command]],
                           cwd=tmp_path, env=child_env(), capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    *_, modules, stdlib = child.stdout.splitlines()
    named = {f"timecent.{module}" for module in cli._COMMANDS[command][1]}
    assert set(modules.split()) == {"timecent", "timecent.cli", "timecent.tables"} | named
    assert command not in NO_DATACLASSES or "dataclasses" not in stdlib.split()
    assert command not in NO_INSPECT or "inspect" not in stdlib.split()


def test_public_names_resolve_to_their_home_modules():
    for name in timecent.__all__[1:]:
        home = importlib.import_module(f"timecent.{timecent._HOMES[name]}")
        value = getattr(timecent, name)
        assert value is getattr(home, name), name
        if hasattr(value, "__qualname__"):  # a class or function is defined where it lives
            assert value.__module__ == home.__name__, name
    namespace: dict[str, object] = {}
    exec("from timecent import *", namespace)
    assert all(namespace[name] is getattr(timecent, name) for name in timecent.__all__)


# the names of timecent.cli that the benchmark's traced pass reads and rebinds
TRACE_HOOKS = (
    "load_tvg", "churn_rate", "compare_topk_random", "empirical_distribution", "rank_instants",
    "read_table_csv", "write_table_csv", "write_distribution_csv", "write_comparison_csv",
    "generate_er_tvg", "parse_contacts", "discretize_with_stats", "metric_sweep",
)


def test_trace_hooks_resolve_before_any_command():
    check = "import sys, timecent.cli as cli\nfor name in sys.argv[1:]: getattr(cli, name)"
    child = subprocess.run([sys.executable, "-c", check, *TRACE_HOOKS], env=child_env(),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


def test_commands_call_what_is_bound_on_the_cli_module(small_tvg_path, tmp_path, capsys,
                                                       monkeypatch):
    table = tmp_path / "tcc.csv"
    assert run(capsys, "tcc", str(small_tvg_path), "--phi", "3", "--out", str(table))[0] == 0
    churn = ("churn", str(small_tvg_path))
    rank = ("rank", str(table), "--metric", "tcc", "--k", "3", "--out", str(tmp_path / "r.csv"))
    for name, argv in (("load_tvg", churn), ("churn_rate", churn),
                       ("read_table_csv", rank), ("rank_instants", rank)):
        calls = []

        def counting(*args, real=getattr(cli, name), **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(cli, name, counting)
            assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1, name
