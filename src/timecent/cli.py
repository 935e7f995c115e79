"""Command-line front end.

Subcommands: generate, ingest, ct, tcc, dist, rank, compare and churn.
Every run prints a reproducibility header (version, full configuration,
seed) to stdout; artifacts are written to files named by --out. Exit
codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Sequence

from . import _HOMES, __version__

# Handlers call the library's names as module globals. __getattr__ binds one
# here from the package on first access from outside (PEP 562), and main()
# binds those of its command's modules before running it; churn binds
# load_tvg and churn_rate through __getattr__ only for a file it does not
# count itself. A name already bound is never replaced, so a caller may
# substitute any of them.


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(sys.modules[__package__], name))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message: str):
        raise _UsageError(message)


def _parse_range(text: str, num_instants: int) -> tuple[int, int]:
    try:
        first_text, last_text = text.split(":")
        first, last = int(first_text), int(last_text)
    except ValueError:
        raise _UsageError(f"invalid range {text!r}, expected FIRST:LAST") from None
    if not (0 <= first < last <= num_instants):
        raise _UsageError(
            f"range [{first},{last}) invalid for {num_instants} instants"
        )
    return first, last


def _print_header(args: argparse.Namespace, config: dict[str, object] | None = None) -> None:
    """Print the run's header. Its config line holds `config`, the
    configuration a command resolved, or else every parsed argument but
    the command, in the order the parser declares them."""
    print(f"# timecent {__version__}")
    print(f"# command: {args.command}")
    if config is None:
        config = {k: v for k, v in vars(args).items() if k != "command"}
    parts = " ".join(f"{k}={v}" for k, v in config.items())
    print(f"# config: {parts}")


def _write_text(path: str, writer) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer(fh)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="timecent", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"timecent {__version__}")
    # metavar keeps the usage line short: "COMMAND", not the list of subcommands
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("generate", help="generate a randomized TVG")
    p.add_argument("--nodes", type=int, help="number of nodes")
    p.add_argument("--instants", type=int, help="number of time instants")
    p.add_argument("--prob", type=float, help="per-pair contact probability")
    p.add_argument(
        "--reference-defaults",
        action="store_true",
        help="use the built-in reference parameterization (160 nodes, 800 instants)",
    )
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    p.add_argument("--out", required=True, help="output tvg v1 path")

    p = sub.add_parser("ingest", help="discretize a contact log into a TVG")
    p.add_argument("input", help="CSV contact log: timestamp,label_a,label_b")
    p.add_argument("--granularity", type=int, default=30, help="bin size in seconds")
    p.add_argument("--start", type=int, default=None, help="first timestamp (default: stream minimum)")
    p.add_argument("--end", type=int, default=None, help="last timestamp (default: stream maximum)")
    p.add_argument("--out", required=True, help="output tvg v1 path")

    for name, help_text in (
        ("ct", "cover-time sweep over an instant range"),
        ("tcc", "time-constrained-coverage sweep over an instant range"),
        ("compare", "top-k instants vs a random baseline"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="tvg v1 file")
        p.add_argument("--tau", help="fraction of nodes to cover (ct), decimal")
        p.add_argument("--phi", type=int, help="step budget (tcc)")
        if name == "compare":
            p.add_argument("--metric", choices=("ct", "tcc"), required=True, help="metric to sweep")
            p.add_argument("--k", type=int, default=10, help="top set size")
            p.add_argument("--seed", type=int, required=True, help="seed for the random baseline")
        p.add_argument("--range", dest="eval_range", help="FIRST:LAST, half open")
        # parsed and never read: a sweep is one single-threaded pass, and old command lines still run
        p.add_argument("--workers", help=argparse.SUPPRESS)
        p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("dist", help="empirical distribution of a metric table")
    p.add_argument("table", help="metric CSV from ct/tcc")
    p.add_argument("--kind", choices=("cdf", "ccdf"), default="cdf", help="distribution flavor")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("rank", help="top-k most central instants of a metric table")
    p.add_argument("table", help="metric CSV from ct/tcc")
    p.add_argument("--metric", choices=("ct", "tcc"), required=True, help="metric kind of the table")
    p.add_argument("--k", type=int, required=True, help="number of instants to keep")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("churn", help="contact churn rate of a TVG")
    p.add_argument("input", help="tvg v1 file")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        if args.reference_defaults:
            if args.nodes is not None or args.instants is not None or args.prob is not None:
                raise _UsageError("--reference-defaults excludes --nodes/--instants/--prob")
            spec = reference_spec(args.seed)
        else:
            if args.nodes is None or args.instants is None or args.prob is None:
                raise _UsageError(
                    "generate needs --nodes, --instants and --prob, or --reference-defaults"
                )
            spec = ErTvgSpec(args.nodes, args.instants, args.prob, args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _print_header(
        args,
        {
            "nodes": spec.num_nodes,
            "instants": spec.num_instants,
            "prob": repr(spec.edge_probability),
            "seed": spec.seed,
            "out": args.out,
        },
    )
    tvg = generate_er_tvg(spec)
    save_tvg(tvg, args.out)
    print(f"wrote {args.out}: {tvg.num_contacts()} contacts")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    try:
        cfg = IngestConfig(args.granularity, args.start, args.end)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _print_header(args)
    with open(args.input, "r", encoding="utf-8-sig") as fh:  # spreadsheets write a BOM
        tvg, stats = discretize_with_stats(parse_contacts(fh), cfg)
    save_tvg(tvg, args.out)
    print(
        f"wrote {args.out}: {tvg.num_nodes} nodes, {tvg.num_instants} instants,"
        f" {tvg.num_contacts()} contacts"
    )
    if stats.records_rejected:
        print(f"rejected {stats.records_rejected} of {stats.records_read} records outside range")
    return 0


def _sweep_args_to_spec(args: argparse.Namespace) -> MetricSpec:
    kind = getattr(args, "metric", args.command)  # compare names it, ct/tcc are it
    own, other = ("tau", "phi") if kind == "ct" else ("phi", "tau")
    if getattr(args, own) is None:
        raise _UsageError(f"{kind} needs --{own}")
    if getattr(args, other) is not None:
        raise _UsageError(f"--{other} does not apply to {kind}")
    try:
        return MetricSpec.ct(args.tau) if kind == "ct" else MetricSpec.tcc(args.phi)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _sweep(args: argparse.Namespace, config: dict[str, object]) -> MetricTable:
    """Load, validate and announce the sweep of a ct/tcc/compare run, then run it.

    `config` holds the command's own header fields, printed after the metric.
    """
    metric = _sweep_args_to_spec(args)
    tvg = load_tvg(args.input)
    eval_range = (
        default_eval_range(tvg.num_instants)
        if args.eval_range is None
        else _parse_range(args.eval_range, tvg.num_instants)
    )
    _print_header(
        args,
        {
            "input": args.input,
            "metric": metric.label(),
            **config,
            "range": f"{eval_range[0]}:{eval_range[1]}",
            "out": args.out,
        },
    )
    if args.command == "compare":  # refused before the sweep, not after it
        check_top_k(args.k, eval_range[1] - eval_range[0])
    return metric_sweep(tvg, metric, eval_range)


def _cmd_sweep(args: argparse.Namespace) -> int:
    table = _sweep(args, {})
    _write_text(args.out, lambda fh: write_table_csv(table, fh))
    print(f"wrote {args.out}: {len(table.values)} rows")
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    _print_header(args)
    with open(args.table, "r", encoding="utf-8") as fh:
        table = read_table_csv(fh)
    dist = empirical_distribution(table, args.kind)
    _write_text(args.out, lambda fh: write_distribution_csv(dist, fh))
    print(f"wrote {args.out}: {len(dist.points)} points")
    if dist.excluded_infinite:
        print(f"excluded {dist.excluded_infinite} infinite entries")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise _UsageError("k must be at least 1")
    _print_header(args)
    with open(args.table, "r", encoding="utf-8") as fh:
        table = read_table_csv(fh)
    ranked = rank_instants(table, args.k, higher_is_better=(args.metric == "tcc"))
    _write_text(args.out, lambda fh: write_ranking_csv(ranked, fh))
    print(f"wrote {args.out}: {len(ranked)} rows")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise _UsageError("k must be at least 1")
    if args.seed < 0:  # the baseline draw (pcg.sample) would refuse it only after the sweep
        raise _UsageError("seed must be non-negative")
    table = _sweep(args, {"k": args.k, "seed": args.seed})
    report = compare_topk_random(table, args.k, args.seed)
    _write_text(args.out, lambda fh: write_comparison_csv(report, fh))
    print(comparison_summary(report))
    print(f"wrote {args.out}")
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    _print_header(args)
    rate = small_file_churn_rate(args.input)
    if rate is None:  # a large file, or one with an error to name: numpy reads it
        rate = __getattr__("churn_rate")(__getattr__("load_tvg")(args.input))
    print(f"churn_rate {format_value(rate)} ({rate.numerator}/{rate.denominator})")
    return 0


# each command's handler and the modules it uses
_COMMANDS = {
    "generate": (_cmd_generate, ("pcg", "synth", "tvg", "tvgtext")),
    "ingest": (_cmd_ingest, ("ingest", "tvg", "tvgtext")),
    "ct": (_cmd_sweep, ("centrality", "tables", "tvg", "tvgtext")),
    "tcc": (_cmd_sweep, ("centrality", "tables", "tvg", "tvgtext")),
    "dist": (_cmd_dist, ("tables",)),
    "rank": (_cmd_rank, ("tables",)),
    "compare": (_cmd_compare, ("centrality", "pcg", "tables", "tvg", "tvgtext")),
    "churn": (_cmd_churn, ("tables", "tvgtext")),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler, modules = _COMMANDS[args.command]
        for name, home in _HOMES.items():
            if home in modules:
                __getattr__(name)
        return handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """main() for a process that ends when it returns: the `timecent` script
    and `python -m timecent.cli`. Freezing the collector's objects, also when
    argparse exits, spares shutdown full collections over what the OS frees."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
