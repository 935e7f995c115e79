"""The benchmark's workloads: the inputs they build and the CLI runs they make.

Every workload runs one command kind of each sort (a set-up command that
builds the TVG, then ct, tcc, compare, dist, rank and churn), so every
end-to-end metric exists on every workload. Sweeps pass `--workers 1`:
the process pool is deliberately not measured.

Argv lists may hold the placeholder `{seed}`, replaced by the workload
seed; every path in them is relative to the run's work directory.
`tiny=True` gives the same command shapes at sizes small enough for the
smoke test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CHURN_OUT = "churn.txt"  # churn prints its result; the runner saves that line here
DAY = 86_400
EPOCH = 1_420_070_400  # 2015-01-01T00:00:00Z, where the synthetic contact log's window opens


@dataclass(frozen=True)
class Command:
    """One CLI run: `timecent <argv>`, writing `artifact` in the work dir."""

    name: str
    argv: tuple[str, ...]
    artifact: str

    def resolved(self, seed: int) -> list[str]:
        return [arg.replace("{seed}", str(seed)) for arg in self.argv]


def save_printed(command: Command, stdout: str, work: Path) -> None:
    """Save the result line of a command that prints its result (churn)."""
    if command.artifact != CHURN_OUT:
        return
    found = [line for line in stdout.splitlines() if line.startswith("churn_rate ")]
    if found:
        (work / CHURN_OUT).write_text(found[0] + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Command
    commands: tuple[Command, ...]
    log_sizes: dict[str, int] | None = None  # sizes of the contact log to write first, if any


def _cmd(name: str, artifact: str, *argv: str) -> Command:
    return Command(name, (name, *argv), artifact)


def _sweep(name: str, tvg: str, out: str, *argv: str) -> Command:
    return _cmd(name, out, tvg, *argv, "--workers", "1", "--out", out)


RANK_TCC = _cmd("rank", "rank.csv", "tcc.csv", "--metric", "tcc", "--k", "10", "--out", "rank.csv")


def ref_sweep(tiny: bool = False) -> Workload:
    gen = ("--reference-defaults",)
    if tiny:
        gen = ("--nodes", "24", "--instants", "60", "--prob", "0.02")
    rng = "0:660" if not tiny else "0:40"
    return Workload(
        "ref-sweep",
        "diffusion does ~95% of the work on the paper's 160x800 reference TVG; ct tau .1 stops"
        " on the slowest start, tcc phi 100 runs a fixed budget; a new engine must win here",
        _cmd("generate", "ref.tvg", *gen, "--seed", "{seed}", "--out", "ref.tvg"),
        (
            _sweep("ct", "ref.tvg", "ct.csv", "--tau", "0.1", "--range", rng),
            _sweep("tcc", "ref.tvg", "tcc.csv", "--phi", "100", "--range", rng),
            _sweep("compare", "ref.tvg", "compare.csv", "--metric", "ct", "--tau", "0.6",
                   "--k", "10", "--seed", "{seed}", "--range", rng),
            _cmd("dist", "dist.csv", "ct.csv", "--out", "dist.csv"),
            RANK_TCC,
            _cmd("churn", CHURN_OUT, "ref.tvg"),
        ),
    )


def log_ingest(tiny: bool = False) -> Workload:
    sizes = {"records": 120_000, "labels": 300, "days": 4}
    ct_rng, cmp_rng = "1440:1560", "0:2880"  # noon to 13:00 of day one; all of day one
    if tiny:
        sizes = {"records": 3_000, "labels": 30, "days": 1}
        ct_rng, cmp_rng = "1440:1470", "0:600"
    return Workload(
        "log-ingest",
        "only workload where ingest and tvg parsing matter: 120k-record diurnal contact log,"
        " 300 labels, 11.5k instants; many cheap instants expose the fixed cost each instant pays",
        _cmd("ingest", "log.tvg", "contacts.csv", "--granularity", "30", "--start", str(EPOCH),
             "--end", str(EPOCH + sizes["days"] * DAY - 1), "--out", "log.tvg"),
        (
            _sweep("tcc", "log.tvg", "tcc.csv", "--phi", "10"),
            _sweep("ct", "log.tvg", "ct.csv", "--tau", "0.1", "--range", ct_rng),
            _sweep("compare", "log.tvg", "compare.csv", "--metric", "tcc", "--phi", "10",
                   "--k", "10", "--seed", "{seed}", "--range", cmp_rng),
            _cmd("churn", CHURN_OUT, "log.tvg"),
            RANK_TCC,
            _cmd("dist", "dist.csv", "tcc.csv", "--kind", "ccdf", "--out", "dist.csv"),
        ),
        log_sizes=sizes,
    )


def wide_dense(tiny: bool = False) -> Workload:
    gen = ("--nodes", "400", "--instants", "120", "--prob", "0.005")
    if tiny:
        gen = ("--nodes", "60", "--instants", "40", "--prob", "0.03")
    return Workload(
        "wide-dense",
        "400 nodes, ~400 contacts per snapshot: floods saturate in ~6 steps, so early stopping"
        " keeps forward work small; an engine costing n^2 per instant loses here",
        _cmd("generate", "wide.tvg", *gen, "--seed", "{seed}", "--out", "wide.tvg"),
        (
            _sweep("ct", "wide.tvg", "ct.csv", "--tau", "0.5"),
            _sweep("tcc", "wide.tvg", "tcc.csv", "--phi", "4"),
            _sweep("compare", "wide.tvg", "compare.csv", "--metric", "tcc", "--phi", "4",
                   "--k", "10", "--seed", "{seed}"),
            _cmd("churn", CHURN_OUT, "wide.tvg"),
            _cmd("dist", "dist.csv", "ct.csv", "--out", "dist.csv"),
            RANK_TCC,
        ),
    )


BUILDERS = {"ref-sweep": ref_sweep, "log-ingest": log_ingest, "wide-dense": wide_dense}

SWEEPS = ("ct", "tcc", "compare")
REPORTS = ("dist", "rank", "churn")


def flag(argv: list[str] | tuple[str, ...], name: str) -> str | None:
    """Value following `name` in argv, or None."""
    for i, arg in enumerate(argv[:-1]):
        if arg == name:
            return argv[i + 1]
    return None
