#!/usr/bin/env python3
"""Benchmark of the timecent CLI, one workload per run.

    python3 perfbench/run.py --workload ref-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is used from the
checkout's src/ directory. Workloads are defined in workloads.py.

--trace 0 runs the workload's CLI commands as child processes
(`python -m timecent.cli`, sweeps with `--workers 1`), one at a time: the
set-up command 7 to 25 times, for about SETUP_SECONDS, then the whole
command list again and again, at least MIN_REPEATS times, starting a
repeat only while it is expected to end within --seconds. Wall time, CPU
time and peak RSS of each child come from os.wait4. The benchmark and its
children are pinned to one CPU, whose pace is sampled while each child
runs, and every time is reported at reference pace (pace.py). Each
end-to-end metric is a median over the repeats (setup_s over the
set-ups); the medians of the raw times are printed too.

--trace 1 runs the same commands in-process through `timecent.cli.main`
with the layer functions wrapped in spans (traced.py, through helper.py)
and reports the per-layer metrics, plus the start-up time of
`timecent --version` and the load RSS of the TVG, both from children.

Either way every artifact is checked afterwards, untimed (checks.py,
oraclecheck.py), and the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Metric names and units come
from BENCHMARK.json.

This process imports neither numpy nor timecent, so that it stays small:
a child's reported peak RSS starts from its parent's high-water mark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import pace
from checks import Run, digest, mark_failures, pinned_digests
from workloads import BUILDERS, REPORTS, SWEEPS, Command, Workload, save_printed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1  # the seed digests.json pins artifacts for
# the set-up command runs until SETUP_SECONDS (or --seconds, if less) are
# spent, at least SETUP_MIN and at most SETUP_MAX times
SETUP_SECONDS = 8
SETUP_MIN, SETUP_MAX = 7, 25
MIN_REPEATS = 2  # byte-identity across repeats needs two
STARTUP_REPEATS = 5
# a fixed string-hash seed keeps dict and set layouts, and so timings, alike across runs
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


def spawn(argv: list[str], work: Path) -> pace.Usage:
    """Run `python <argv>` in `work`, to its end.

    The child's stdout and stderr go to work/.stdout.
    """
    with open(work / ".stdout", "wb") as out:
        return pace.run([sys.executable, *argv], cwd=work, env=CHILD_ENV, stdout=out,
                        stderr=subprocess.STDOUT)


def run_command(command: Command, work: Path, seed: int) -> Run:
    """One `timecent` CLI run of `command`."""
    (work / command.artifact).unlink(missing_ok=True)
    use = spawn(["-m", "timecent.cli", *command.resolved(seed)], work)
    save_printed(command, (work / ".stdout").read_text(encoding="utf-8"), work)
    return Run(command, use.code, digest(work / command.artifact), use.wall_s, use.cpu_s,
               use.rss_mb, use.scale)


def helper(task: str, wl: Workload, seed: int, tiny: bool, work: Path) -> dict:
    """Run a helper.py task in a child and return its JSON reply."""
    done = subprocess.run(
        [sys.executable, str(HERE / "helper.py"), task, wl.name, str(seed), str(int(tiny)),
         str(work)],
        env=CHILD_ENV, stdout=subprocess.PIPE, text=True, check=True,
    )
    *lines, reply = done.stdout.splitlines()
    for line in lines:
        print(line)
    return json.loads(reply)


def end_to_end(setups: list[Run], repeats: list[list[Run]], evaluated: int,
               paced: bool = True) -> dict[str, float]:
    """The end-to-end metrics; times at reference pace, or raw if not `paced`."""
    med = statistics.median
    wall = (lambda r: r.paced_wall_s) if paced else (lambda r: r.wall_s)
    cpu = (lambda r: r.paced_cpu_s) if paced else (lambda r: r.cpu_s)

    def per_repeat(fn) -> float:
        return med(fn({r.command.name: r for r in rep}) for rep in repeats)

    setup_s = med(wall(r) for r in setups)
    out = {"setup_s": setup_s}
    for name in SWEEPS:
        out[f"{name}_s"] = per_repeat(lambda by: wall(by[name]))
    out["report_s"] = per_repeat(lambda by: sum(wall(by[n]) for n in REPORTS))
    out["total_s"] = setup_s + per_repeat(lambda by: sum(wall(r) for r in by.values()))
    out["instants_per_s"] = per_repeat(lambda by: evaluated / sum(wall(by[n]) for n in SWEEPS))
    out["cpu_s"] = med(cpu(r) for r in setups) + per_repeat(
        lambda by: sum(cpu(r) for r in by.values()))
    out["peak_rss_mb"] = max(r.rss_mb for r in [*setups, *(r for rep in repeats for r in rep)])
    return out


def _judge(wl: Workload, groups: list[list[Run]], problems: dict, seed: int, tiny: bool) -> None:
    pinned = pinned_digests(wl.name) if seed == DEFAULT_SEED and not tiny else {}
    mark_failures(groups, pinned, problems)
    for name, messages in problems.items():
        for message in messages:
            print(f"# check failed: {message}")
    for group in groups:
        bad = sum(r.failed for r in group)
        if bad:
            print(f"# {group[0].command.name}: {bad} of {len(group)} runs failed")


def timed_run(wl: Workload, work: Path, seed: int, seconds: float, tiny: bool):
    print(f"# pinned to CPU {pace.pin()}")
    setups = []
    start = perf_counter()
    budget = min(SETUP_SECONDS, seconds)
    while len(setups) < SETUP_MIN or (
        len(setups) < SETUP_MAX and perf_counter() - start < budget
    ):
        setups.append(run_command(wl.setup, work, seed))
    repeats = []
    start = perf_counter()
    last = 0.0
    while len(repeats) < MIN_REPEATS or perf_counter() - start + last <= seconds:
        begin = perf_counter()
        repeats.append([run_command(c, work, seed) for c in wl.commands])
        last = perf_counter() - begin
    print(f"# repeats {len(repeats)}, set-ups {len(setups)}")
    groups = [setups] + [list(g) for g in zip(*repeats)]
    reply = helper("check", wl, seed, tiny, work)
    _judge(wl, groups, reply["problems"], seed, tiny)
    raw = end_to_end(setups, repeats, reply["evaluated"], paced=False)
    scales = [r.scale for g in groups for r in g]
    print(f"# pace: reference/actual {min(scales):.3f} to {max(scales):.3f}, median "
          f"{statistics.median(scales):.3f}")
    print("# raw, not paced: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    return groups, end_to_end(setups, repeats, reply["evaluated"])


def traced_run(wl: Workload, work: Path, seed: int, tiny: bool):
    reply = helper("trace", wl, seed, tiny, work)
    commands = (wl.setup, *wl.commands)
    passes = [[Run(c, code, sha) for c, (code, sha) in zip(commands, p)] for p in reply["runs"]]
    groups = [list(g) for g in zip(*passes)]
    _judge(wl, groups, reply["problems"], seed, tiny)

    metrics = reply["metrics"]
    load = "import sys, timecent; timecent.load_tvg(sys.argv[1])"
    with_load = spawn(["-c", load, wl.setup.artifact], work).rss_mb
    import_only = spawn(["-c", "import timecent"], work).rss_mb
    metrics["tvg.load_rss_mb"] = with_load - import_only
    startup = [spawn(["-m", "timecent.cli", "--version"], work).wall_s
               for _ in range(STARTUP_REPEATS)]
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["oracle.check_s"] = reply["check_s"]
    metrics["oracle.values_checked"] = reply["checked"]
    return groups, metrics


def _declared(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return "unavailable"


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the result object (see module doc)."""
    env = {
        "commit": _git_commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_before": _loadavg(),
    }
    print(f"# workload {wl.name}, seed {seed}, seconds {seconds}, trace {int(trace)}")
    for c in (wl.setup, *wl.commands):
        print("# command: timecent " + " ".join(c.resolved(seed)))
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-{seed}-", dir=base))
    try:
        env["numpy"] = helper("prepare", wl, seed, tiny, work)["numpy"]
        if trace:
            groups, values = traced_run(wl, work, seed, tiny)
        else:
            groups, values = timed_run(wl, work, seed, seconds, tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    env["loadavg_after"] = _loadavg()

    units = _declared("per_layer" if trace else "end_to_end")
    if set(values) != set(units):
        differ = sorted(set(values) ^ set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {differ}")
    attempted = sum(len(g) for g in groups)
    failed = sum(r.failed for g in groups for r in g)
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} commands failed)")
    print("# env " + json.dumps(env))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "timecent" / "cli.py").is_file():
        print(f"error: no timecent sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = run_workload(BUILDERS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
