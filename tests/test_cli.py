from __future__ import annotations

import gc
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
from timecent.tvgtext import SMALL_TVG_BYTES
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
                          "--range", "0:40", "--out", str(out))
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


SWEEPS = (("ct", ("--tau", "0.5")), ("tcc", ("--phi", "3")),
          ("compare", ("--metric", "tcc", "--phi", "3", "--k", "2", "--seed", "7")))


def test_sweep_ignores_workers_whatever_its_value(small_tvg_path, tmp_path, capsys):
    # the flag is parsed so old command lines still run, and nothing reads it
    out = tmp_path / "t.csv"
    for command, flags in SWEEPS:
        code, expected, _ = run(capsys, command, str(small_tvg_path), *flags, "--out", str(out))
        assert code == 0
        artifact = out.read_bytes()
        for workers in ("-1", "0", "3"):
            out.unlink()
            got = run(capsys, command, str(small_tvg_path), *flags,
                      "--workers", workers, "--out", str(out))
            assert got == (0, expected, ""), (command, workers)
            assert out.read_bytes() == artifact, (command, workers)


def test_sweep_header_and_help_omit_workers(small_tvg_path, tmp_path, capsys):
    for command, flags in SWEEPS:
        for given in ((), ("--workers", "3")):
            code, stdout, _ = run(capsys, command, str(small_tvg_path), *flags, *given,
                                  "--out", str(tmp_path / "t.csv"))
            assert code == 0
            config = stdout.splitlines()[2]
            assert config.startswith("# config: ") and "workers" not in config, (command, given)
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "workers" not in capsys.readouterr().out, command


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
        "--out", str(table_path))
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
        "--out", str(table_path))
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
                          "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "group,time_index,value"
    assert sum(1 for l in lines if l.startswith("top,")) == 4
    assert sum(1 for l in lines if l.startswith("random,")) == 4
    assert "median=" in stdout
    # reruns are byte-identical
    out2 = tmp_path / "cmp2.csv"
    run(capsys, "compare", str(small_tvg_path), "--metric", "tcc", "--phi", "10",
        "--k", "4", "--seed", "7", "--range", "0:30", "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("phi", [10**20, 2**63 - 1])
def test_tcc_budget_past_int64_counts_as_the_whole_tvg(small_tvg_path, tmp_path, capsys, phi):
    # a budget of N steps reaches the last snapshot from every instant, so any larger one
    # gives the same table; phi + t must not pass through a fixed-width integer
    tvg = timecent.load_tvg(small_tvg_path)
    big_n = tvg.num_instants
    for first, last in ((0, 12), (40, big_n)):
        huge, whole = (timecent.metric_sweep(tvg, timecent.MetricSpec.tcc(budget), (first, last))
                       for budget in (phi, big_n))
        assert (huge.values, huge.unreached_starts) == (whole.values, whole.unreached_starts)
        assert timecent.tcc(tvg, first, phi) == timecent.tcc(tvg, first, big_n)
        compare = ("--metric", "tcc", "--k", "3", "--seed", "7")
        for command, flags in (("tcc", ()), ("compare", compare)):
            outs = []
            for budget in (phi, big_n):
                outs.append(tmp_path / f"{command}-{budget}.csv")
                code, _, err = run(capsys, command, str(small_tvg_path), *flags,
                                   "--phi", str(budget), "--range", f"{first}:{last}",
                                   "--out", str(outs[-1]))
                assert code == 0, err
            assert outs[0].read_bytes() == outs[1].read_bytes(), (command, first, last)


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


def _sweep_argv(command, metric, path, out):
    """A ct, tcc or compare run of `metric` on `path`, without --tau or --phi."""
    if command == "compare":
        return [command, str(path), "--metric", metric, "--k", "4", "--seed", "7", "--out", str(out)]
    return [command, str(path), "--out", str(out)]


def test_compare_requires_metric_parameter(small_tvg_path, tmp_path, capsys):
    # ct, tcc and compare share one check of the metric flags, and its messages
    out = tmp_path / "c.csv"
    for command, metric, flag in (("compare", "ct", "--tau"), ("compare", "tcc", "--phi"),
                                  ("ct", "ct", "--tau"), ("tcc", "tcc", "--phi")):
        result = run(capsys, *_sweep_argv(command, metric, small_tvg_path, out))
        assert result == (1, "", f"error: {metric} needs {flag}\n"), command
        assert not out.exists()


@pytest.mark.parametrize(
    "metric, given, foreign",
    [("tcc", ("--phi", "3"), ("--tau", "7")), ("ct", ("--tau", "0.5"), ("--phi", "3"))],
)
def test_compare_refuses_the_other_metrics_parameter(small_tvg_path, tmp_path, capsys,
                                                      metric, given, foreign):
    out = tmp_path / "c.csv"
    for command in ("compare", metric):
        result = run(capsys, *_sweep_argv(command, metric, small_tvg_path, out), *given, *foreign)
        assert result == (1, "", f"error: {foreign[0]} does not apply to {metric}\n"), command
        assert not out.exists()


def test_churn_reports_fraction(small_tvg_path, capsys):
    code, stdout, _ = run(capsys, "churn", str(small_tvg_path))
    assert code == 0
    assert "churn_rate" in stdout


@pytest.mark.parametrize("more_rows", [0, 70_000])
def test_churn_of_an_undecodable_file_is_a_data_error(tmp_path, capsys, more_rows):
    # the byte sits in the first 8 KiB: tvgtext's small-file count stops there, and
    # so do load_tvg's loadtxt and its reread of a file over SMALL_TVG_BYTES
    path = tmp_path / "bad.tvg"
    path.write_bytes(b"tvg v1 4 3\n0 0 1\n\xff 1 2\n" + b"1 0 1\n" * more_rows)
    assert (path.stat().st_size > SMALL_TVG_BYTES) == bool(more_rows)
    code, _, err = run(capsys, "churn", str(path))
    assert (code, err) == (
        2, "data error: 'utf-8' codec can't decode byte 0xff in position 17: invalid start byte\n"
    )


def test_every_command_prints_its_configuration_header(tmp_path, capsys, monkeypatch):
    # generate and the sweeps print what they resolved; the other commands print
    # every parsed argument, in the order the parser declares them
    monkeypatch.chdir(tmp_path)
    (tmp_path / "contacts.csv").write_text("0,ann,bea\n45,bea,cal\n400,ann,cal\n")
    cases = [
        ("generate --nodes 10 --instants 20 --prob 0.3 --seed 7 --out g.tvg",
         "nodes=10 instants=20 prob=0.3 seed=7 out=g.tvg"),
        ("generate --reference-defaults --seed 1 --out r.tvg",
         "nodes=160 instants=800 prob=0.00031719836345211414 seed=1 out=r.tvg"),
        ("ingest contacts.csv --granularity 10 --start 0 --out i.tvg",
         "input=contacts.csv granularity=10 start=0 end=None out=i.tvg"),
        ("ct g.tvg --tau 0.5 --range 0:10 --out ct.csv",
         "input=g.tvg metric=ct tau=1/2 range=0:10 out=ct.csv"),
        ("tcc g.tvg --phi 3 --workers 2 --out tcc.csv",
         "input=g.tvg metric=tcc phi=3 range=0:17 out=tcc.csv"),
        ("compare g.tvg --metric tcc --phi 2 --k 2 --seed 3 --out cmp.csv",
         "input=g.tvg metric=tcc phi=2 k=2 seed=3 range=0:17 out=cmp.csv"),
        ("dist ct.csv --kind ccdf --out d.csv", "table=ct.csv kind=ccdf out=d.csv"),
        ("rank tcc.csv --metric tcc --k 3 --out rk.csv", "table=tcc.csv metric=tcc k=3 out=rk.csv"),
        ("churn g.tvg", "input=g.tvg"),
    ]
    for argv, config in cases:
        code, stdout, _ = run(capsys, *argv.split())
        assert code == 0, argv
        command = argv.split()[0]
        assert stdout.splitlines()[:3] == [
            f"# timecent {timecent.__version__}", f"# command: {command}", f"# config: {config}"
        ], argv


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_module_run_keeps_its_output_and_exit_codes(small_tvg_path, tmp_path, capsys):
    # python -m timecent.cli exits through run(): output to a file is still
    # flushed, and usage and data errors keep their codes and messages
    expected = run(capsys, "churn", str(small_tvg_path))
    with open(tmp_path / "churn.txt", "w") as out:
        child = subprocess.run([sys.executable, "-m", "timecent.cli", "churn", str(small_tvg_path)],
                               env=child_env(), stdout=out, stderr=subprocess.PIPE, text=True,
                               timeout=120)
    assert (child.returncode, (tmp_path / "churn.txt").read_text(), child.stderr) == expected
    assert "\nchurn_rate " in expected[1]
    for argv, code, message in (
        (("rank", "table.csv", "--metric", "ct", "--k", "0", "--out", "r.csv"), 1,
         "error: k must be at least 1\n"),
        (("dist", "missing.csv", "--out", "x.csv"), 2, "data error: "),
    ):
        child = subprocess.run([sys.executable, "-m", "timecent.cli", *argv], cwd=tmp_path,
                               env=child_env(), capture_output=True, text=True, timeout=120)
        assert child.returncode == code, argv
        assert child.stderr.startswith(message), child.stderr


# a fresh child process that runs timecent.cli.run (first argument "run") or the
# module as `python -m timecent.cli` does ("module"), with an exit hook that
# prints whether the garbage collector's objects were frozen at shutdown
RUN_WITH_EXIT_HOOK = """
import atexit, gc, runpy, sys
assert gc.get_freeze_count() == 0
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
if sys.argv.pop(1) == "run":
    from timecent.cli import run
    sys.exit(run())
runpy.run_module("timecent.cli", run_name="__main__", alter_sys=True)
"""


def test_run_freezes_the_collector_before_exit(small_tvg_path, tmp_path):
    version = f"timecent {timecent.__version__}"
    for argv, last_output in ((("run", "churn", str(small_tvg_path)), "churn_rate "),
                              (("run", "--version"), version), (("module", "--version"), version)):
        child = subprocess.run([sys.executable, "-c", RUN_WITH_EXIT_HOOK, *argv], cwd=tmp_path,
                               env=child_env(), capture_output=True, text=True, timeout=120)
        assert (child.returncode, child.stderr) == (0, ""), argv
        *_, output, hook = child.stdout.splitlines()
        assert output.startswith(last_output), argv
        assert hook == "frozen True", argv


def test_main_leaves_the_collector_alone(small_tvg_path, capsys):
    frozen = gc.get_freeze_count()
    assert run(capsys, "churn", str(small_tvg_path))[0] == 0
    with pytest.raises(SystemExit):
        main(["--version"])
    assert gc.get_freeze_count() == frozen


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
# loaded, and on a last line which of dataclasses, inspect, numpy and
# numpy.random it loaded
MODULES_MAIN = """
import sys
from timecent.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # argparse exits after --version
    code = exc.code
print(*sorted(name for name in sys.modules if name.split(".")[0] == "timecent"))
print(*(name for name in ("dataclasses", "inspect", "numpy", "numpy.random") if name in sys.modules))
sys.exit(code)
"""

# commands whose records are all NamedTuples; dist and rank import no numpy
# either, and nothing else they import brings in inspect
NO_DATACLASSES = {"ct", "tcc", "compare", "churn", "dist", "rank"}
NO_INSPECT = {"dist", "rank"}

# a run of each command on the small inputs its test writes, and "churn-large":
# churn of a file padded to the size constant, which it reads with timecent.tvg
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
    "--version": (),
    "churn-large": ("large.tvg",),
}


@pytest.fixture(scope="module")
def numpy_imports_random() -> bool:
    """Whether `import numpy` alone loads numpy.random, as numpy 1.x does."""
    check = "import sys, numpy; print('numpy.random' in sys.modules)"
    child = subprocess.run([sys.executable, "-c", check], env=child_env(),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout.split() == ["True"]


# --version names no module: it loads timecent and timecent.cli only
@pytest.mark.parametrize("case", [*cli._COMMANDS, "--version", "churn-large"])
def test_each_command_imports_exactly_the_modules_it_names(case, tmp_path, numpy_imports_random):
    small = "tvg v1 4 6\n0 0 1\n1 1 2\n2 2 3\n4 0 3\n"
    (tmp_path / "log.csv").write_text("0,a,b\n45,b,c\n")
    (tmp_path / "small.tvg").write_text(small)
    (tmp_path / "large.tvg").write_text(small + "\n" * (SMALL_TVG_BYTES - len(small)))
    (tmp_path / "table.csv").write_text("time_index,value,unreached_starts\n0,1.5,0\n1,inf,1\n")
    command = "churn" if case == "churn-large" else case
    child = subprocess.run([sys.executable, "-c", MODULES_MAIN, command, *COMMAND_ARGS[case]],
                           cwd=tmp_path, env=child_env(), capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    *_, modules, stdlib = child.stdout.splitlines()
    _, homes = cli._COMMANDS.get(command, (None, ()))
    named = {f"timecent.{module}" for module in homes}
    if case == "churn-large":
        named.add("timecent.tvg")
    assert set(modules.split()) == {"timecent", "timecent.cli"} | named
    assert ("numpy" in stdlib.split()) == ("timecent.tvg" in named)
    # only generate draws with numpy's generator; compare's baseline is timecent.pcg's
    loads_random = command == "generate" or numpy_imports_random and "numpy" in stdlib.split()
    assert ("numpy.random" in stdlib.split()) == loads_random
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


def test_cli_resolves_only_public_names():
    for name in ("no_such_name", "_sorted_unique"):  # the latter is private to tvg
        with pytest.raises(AttributeError, match=name):
            getattr(cli, name)


def test_commands_call_what_is_bound_on_the_cli_module(small_tvg_path, tmp_path, capsys,
                                                       monkeypatch):
    table = tmp_path / "tcc.csv"
    assert run(capsys, "tcc", str(small_tvg_path), "--phi", "3", "--out", str(table))[0] == 0
    large = tmp_path / "large.tvg"  # at the size constant, so churn reads it with load_tvg
    text = small_tvg_path.read_text()
    large.write_text(text + "\n" * (SMALL_TVG_BYTES - len(text)))
    churn = ("churn", str(large))
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
    with monkeypatch.context() as patch:  # a small file is counted without either
        for name in ("load_tvg", "churn_rate"):
            patch.setattr(cli, name, None)
        assert run(capsys, "churn", str(small_tvg_path))[0] == 0
