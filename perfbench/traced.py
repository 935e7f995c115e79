"""Traced in-process run: the per-layer numbers.

The workload's commands run in-process through `timecent.cli.main`, the
program itself, so they write the same artifacts as the CLI children.
For the traced pass the library functions the CLI module calls are
wrapped in spans, from this file only; nothing under src/ is changed.
Two functions are wrapped one level further down: `tvg.format_tvg`, which
`save_tvg` calls, and `centrality.spread_milestones`, which a sweep calls
once per instant. Each `spread_milestones` result is reduced to counts at
once, so no milestone lists are kept (keeping them makes the garbage
collector rescan them and slows the loop down about twofold).

The pass runs twice, untraced and then traced; the difference of their
wall times is the tracing overhead.

Every layer is measured on every workload. The set-up layer a workload
does not use is exercised on a probe built from the workload's own TVG:
on generated TVGs the contacts are written as a contact log and ingested
over a window that leaves out the first and last PROBE_TRIM of the
instants, so records are rejected; on the ingested TVG an Erdos-Renyi TVG
with its node count and contact density (at most 800 instants) is
generated.
"""

from __future__ import annotations

import io
import os
import statistics
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from itertools import accumulate
from pathlib import Path
from time import perf_counter

import timecent.centrality as centrality
import timecent.cli as cli
import timecent.tvg as tvg_module
from timecent import ErTvgSpec, IngestConfig, load_tvg
from timecent.centrality import is_inf

from checks import Run, digest
from workloads import SWEEPS, Command, Workload, save_printed

PROBE_GRANULARITY = 30
PROBE_TRIM = 0.05
PROBE_MAX_INSTANTS = 800

# names bound in timecent.cli that only need a span around each call
CLI_SPANS = {
    "load_tvg": "tvg.parse",
    "churn_rate": "tvg.churn",
    "compare_topk_random": "centrality.compare_topk",
    "empirical_distribution": "centrality.dist",
    "rank_instants": "centrality.rank",
    "read_table_csv": "centrality.csv_read",
    "write_table_csv": "centrality.csv_write",
    "write_distribution_csv": "centrality.csv_write",
    "write_comparison_csv": "centrality.csv_write",
}


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, -1))
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, perf_counter(), parent)
            self._open.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A leaf span timed by the caller."""
        self.spans.append((name, start, end, self._open[-1] if self._open else -1))

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def nested(self, outer: str, inner: str) -> float:
        """Time in `inner` spans whose parent span is named `outer`."""
        return sum(
            end - start
            for n, start, end, parent in self.spans
            if n == inner and parent >= 0 and self.spans[parent][0] == outer
        )


class Layers:
    """Wraps the layer functions the CLI calls in tracer spans while active."""

    def __init__(self, tracer: Tracer) -> None:
        self.tr = tracer
        self.command = ""  # the command being run; names the sweep spans
        self.snapshots = 0
        self.contacts = 0
        self.grew = 0
        self._prefix: list[int] = []

    @contextmanager
    def active(self):
        wraps = [(cli, name, self._timed(span)) for name, span in CLI_SPANS.items()]
        wraps += [
            (cli, "generate_er_tvg", self._generate),
            (cli, "parse_contacts", self._parse_contacts),
            (cli, "discretize_with_stats", self._discretize),
            (cli, "metric_sweep", self._sweep),
            (tvg_module, "format_tvg", self._timed("tvg.format")),
            (centrality, "spread_milestones", self._milestones),
        ]
        saved = [(module, name, getattr(module, name)) for module, name, _ in wraps]
        for module, name, wrap in wraps:
            setattr(module, name, wrap(getattr(module, name)))
        try:
            yield
        finally:
            for module, name, real in saved:
                setattr(module, name, real)

    def _timed(self, span: str):
        def wrap(real):
            def timed(*args, **kwargs):
                with self.tr.span(span):
                    return real(*args, **kwargs)

            return timed

        return wrap

    def _generate(self, real):
        def generate(spec):
            with self.tr.span("synth.generate"):
                tvg = real(spec)
            n = spec.num_nodes
            self.tr.count("synth.draws", spec.num_instants * (n * (n - 1) // 2))
            self.tr.count("synth.contacts", tvg.num_contacts())
            return tvg

        return generate

    def _parse_contacts(self, real):
        def parse(src):  # the records are materialised here, so parsing is timed alone
            with self.tr.span("ingest.parse"):
                return list(real(src))

        return parse

    def _discretize(self, real):
        def discretize(records, cfg):
            with self.tr.span("ingest.discretize"):
                tvg, stats = real(records, cfg)
            self.tr.count("ingest.records", stats.records_read)
            self.tr.count("ingest.rejected", stats.records_rejected)
            self.tr.count("ingest.instants", tvg.num_instants)
            return tvg, stats

        return discretize

    def _sweep(self, real):
        def sweep(tvg, *args, **kwargs):
            self._prefix = list(accumulate((len(s) for s in tvg.snapshots), initial=0))
            with self.tr.span(f"centrality.{self.command}.sweep"):
                table = real(tvg, *args, **kwargs)
            values = table.values.values()
            self.tr.count("centrality.instants", len(table.values))
            self.tr.count("centrality.inf_instants", sum(1 for v in values if is_inf(v)))
            self.tr.count("centrality.unreached_starts", sum(table.unreached_starts.values()))
            return table

        return sweep

    def _milestones(self, real):
        def milestones(tvg, time, *, max_steps=None, stop_count=None):
            start = perf_counter()
            found = real(tvg, time, max_steps=max_steps, stop_count=stop_count)
            self.tr.record(f"diffusion.{self.command}.instant", start, perf_counter())
            with self.tr.span("bench.reduce"):
                self._reduce(found, tvg, time, max_steps, stop_count)
            return found

        return milestones

    def _reduce(self, milestones, tvg, time, max_steps, stop_count) -> None:
        # The engine stops early only when every start saturated or every
        # start reached stop_count; it then stopped at the last milestone.
        if stop_count is not None and stop_count <= 1:
            walked = 0
        else:
            n = tvg.num_nodes
            horizon = tvg.num_instants - time
            if max_steps is not None:
                horizon = min(horizon, max_steps)
            done = all(len(m) == n for m in milestones) or (
                stop_count is not None and all(len(m) >= stop_count for m in milestones)
            )
            walked = max(m[-1] for m in milestones) if done else horizon
        self.snapshots += walked
        self.contacts += self._prefix[time + walked] - self._prefix[time]
        self.grew += len({step for m in milestones for step in m[1:]})


def run_command(command: Command, work: Path, seed: int, layers: Layers | None = None) -> Run:
    """One in-process `timecent` run of `command`; the working directory is `work`."""
    (work / command.artifact).unlink(missing_ok=True)
    if layers is not None:
        layers.command = command.name
    printed = io.StringIO()
    try:
        with redirect_stdout(printed), redirect_stderr(printed):
            code = cli.main(command.resolved(seed))
    except Exception:  # a failing command is counted, not fatal
        traceback.print_exc()
        code = 1
    save_printed(command, printed.getvalue(), work)
    return Run(command, code, digest(work / command.artifact))


def probe(setup: Command, work: Path, seed: int) -> None:
    """Exercise the set-up layer the workload does not use (see module doc)."""
    tvg = load_tvg(str(work / setup.artifact))
    if setup.name == "generate":
        lines = ["timestamp,label_a,label_b"]
        lines += [f"{c.time * PROBE_GRANULARITY},n{c.a},n{c.b}" for c in tvg.contacts()]
        trim = max(1, int(tvg.num_instants * PROBE_TRIM))
        first, end = trim, tvg.num_instants - trim
        cfg = IngestConfig(PROBE_GRANULARITY, first * PROBE_GRANULARITY,
                           end * PROBE_GRANULARITY - 1)
        cli.discretize_with_stats(cli.parse_contacts(lines), cfg)
    else:
        n = tvg.num_nodes
        density = tvg.num_contacts() / tvg.num_instants / (n * (n - 1) / 2)
        cli.generate_er_tvg(ErTvgSpec(n, min(tvg.num_instants, PROBE_MAX_INSTANTS), density, seed))


def cli_pass(wl: Workload, work: Path, seed: int, layers: Layers | None) -> tuple[list[Run], float]:
    """One in-process pass over the workload and the probe; runs and wall time."""
    os.chdir(work)  # argv paths are relative to the work directory
    start = perf_counter()
    with layers.active() if layers else nullcontext():
        runs = [run_command(wl.setup, work, seed, layers)]
        if runs[0].exit_code == 0:
            probe(wl.setup, work, seed)
        runs += [run_command(c, work, seed, layers) for c in wl.commands]
    return runs, perf_counter() - start


def _quantile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer: Tracer, layers: Layers, tvg_path: Path,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer values from the traced pass (names as in BENCHMARK.json)."""
    c = tracer.counts
    tvg = load_tvg(str(tvg_path))
    out: dict[str, float] = {
        "synth.generate_s": tracer.busy("synth.generate"),
        "synth.draws": c["synth.draws"],
        "synth.contacts": c["synth.contacts"],
        "ingest.parse_s": tracer.busy("ingest.parse"),
        "ingest.discretize_s": tracer.busy("ingest.discretize"),
        "ingest.records": c["ingest.records"],
        "ingest.rejected": c["ingest.rejected"],
        "ingest.instants": c["ingest.instants"],
        "tvg.parse_s": tracer.busy("tvg.parse"),
        "tvg.format_s": tracer.busy("tvg.format"),
        "tvg.churn_s": tracer.busy("tvg.churn"),
        "tvg.file_bytes": tvg_path.stat().st_size,
        "tvg.contacts": tvg.num_contacts(),
        "tvg.empty_instants": sum(1 for s in tvg.snapshots if not len(s)),
    }
    for cmd in SWEEPS:
        per_instant = tracer.durations(f"diffusion.{cmd}.instant")
        busy = sum(per_instant)
        sweep = f"centrality.{cmd}.sweep"
        sweep_s = tracer.busy(sweep) - tracer.nested(sweep, "bench.reduce")
        out[f"diffusion.{cmd}.instant_ms.p50"] = 1000 * _quantile(per_instant, 50)
        out[f"diffusion.{cmd}.instant_ms.p98"] = 1000 * _quantile(per_instant, 98)
        out[f"diffusion.{cmd}.busy_s"] = busy
        out[f"centrality.{cmd}.sweep_s"] = sweep_s
        out[f"centrality.{cmd}.aggregate_s"] = sweep_s - busy
    out.update({
        "diffusion.snapshots_scanned": layers.snapshots,
        "diffusion.contacts_scanned": layers.contacts,
        "diffusion.growth_step_ratio": layers.grew / layers.snapshots if layers.snapshots else 0.0,
        "centrality.csv_write_s": tracer.busy("centrality.csv_write"),
        "centrality.csv_read_s": tracer.busy("centrality.csv_read"),
        "centrality.rank_s": tracer.busy("centrality.rank"),
        "centrality.dist_s": tracer.busy("centrality.dist"),
        "centrality.compare_s": tracer.busy("centrality.compare_topk"),
        "centrality.instants": c["centrality.instants"],
        "centrality.inf_instants": c["centrality.inf_instants"],
        "centrality.unreached_starts": c["centrality.unreached_starts"],
        "bench.trace_overhead_s": overhead_s,
    })
    return out
