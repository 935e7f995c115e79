"""Exact check of sampled ct/tcc values against the time-expanded oracle.

The oracle (timecent.oracle) only ever expands the window of snapshots
the sampled value depends on: [t, t + phi) for tcc, and for ct [t, t + s)
where s is the last cover step of any start. The engine's per-start cover
steps serve as search hints only: the oracle confirms for every start
that the threshold is met after exactly that many steps and not one step
earlier, and that an unreached start stays short of it up to the last
snapshot.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from timecent import (
    TVG,
    CoverageThreshold,
    TemporalNode,
    TvgFormatError,
    default_eval_range,
    expand,
    load_tvg,
    oracle_reach,
    spread_milestones,
)

from workloads import SWEEPS, Command, Workload, flag


def _window(tvg: TVG, first: int, last: int) -> TVG:
    snaps = tvg.snapshots[first:last]
    return TVG.from_snapshot_pairs(tvg.num_nodes, [s.contact_list for s in snaps])


def oracle_tcc(tvg: TVG, t: int, phi: int) -> tuple[Fraction, int]:
    n = tvg.num_nodes
    g = expand(_window(tvg, t, min(tvg.num_instants, t + phi)))
    total = sum(len(oracle_reach(g, TemporalNode(u, 0), phi)) for u in range(n))
    return Fraction(total, n * n), 0


def oracle_ct(tvg: TVG, t: int, tau: str) -> tuple[Fraction | float, int] | None:
    """Exact ct value and unreached count at t; None if the oracle disagrees
    with the engine about any start's cover step."""
    n = tvg.num_nodes
    need = CoverageThreshold.of(tau, n).required_count
    milestones = spread_milestones(tvg, t, stop_count=need)
    hints = [m[need - 1] if len(m) >= need else None for m in milestones]
    horizon = tvg.num_instants - t
    span = horizon if None in hints else max(hints)
    g = expand(_window(tvg, t, t + max(span, 1)))
    steps = unreached = 0
    for u, s in enumerate(hints):
        start = TemporalNode(u, 0)
        if s is None:
            if len(oracle_reach(g, start, horizon)) >= need:
                return None
            unreached += 1
            continue
        early = s and len(oracle_reach(g, start, s - 1)) >= need
        if early or len(oracle_reach(g, start, s)) < need:
            return None
        steps += s
    return (float("inf") if unreached else Fraction(steps, n)), unreached


def _rows(path: Path) -> list[tuple[int, str, int | None]]:
    """(time_index, value text, unreached or None) of a sweep or compare CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] == "group,time_index,value":
        return [(int(t), v, None) for _, t, v in (line.split(",") for line in lines[1:])]
    return [(int(t), v, int(u)) for t, v, u in (line.split(",") for line in lines[1:])]


def check_sweep(
    tvg: TVG, work: Path, command: Command, rng: random.Random, samples: int
) -> tuple[int, list[str]]:
    """Check `samples` sampled values of a sweep artifact against the oracle.

    Returns the number of values checked and one message per mismatch.
    """
    argv = command.argv
    is_ct = argv[0] == "ct" or flag(argv, "--metric") == "ct"
    try:
        rows = _rows(work / command.artifact)
    except (OSError, ValueError, IndexError) as exc:
        return 0, [f"{command.name}: unreadable artifact ({exc})"]
    problems = []
    picked = rng.sample(rows, min(samples, len(rows)))
    for t, text, unreached in picked:
        try:
            if is_ct:
                exact = oracle_ct(tvg, t, flag(argv, "--tau"))
            else:
                exact = oracle_tcc(tvg, t, int(flag(argv, "--phi")))
        except ValueError as exc:  # e.g. a time index outside the TVG
            problems.append(f"{command.name} t={t}: {exc}")
            continue
        if exact is None:
            problems.append(f"{command.name} t={t}: engine cover steps contradict the oracle")
            continue
        value, count = exact
        want = "inf" if count else repr(float(value))
        if text != want or (unreached is not None and unreached != count):
            problems.append(
                f"{command.name} t={t}: artifact {text},{unreached} != oracle {want},{count}"
            )
    return len(picked), problems


def check_workload(wl: Workload, work: Path, seed: int, samples: int) -> dict:
    """Oracle check of `samples` values of every sweep artifact of `wl`.

    Returns the number of values checked, the mismatches by command, and
    the number of instants the workload's sweeps evaluate.
    """
    try:
        tvg = load_tvg(str(work / wl.setup.artifact))
    except (OSError, TvgFormatError):
        problems = {n: ["no TVG to check against"] for n in SWEEPS}
        return {"checked": 0, "problems": problems, "evaluated": 0}
    rng = random.Random(seed)
    checked = evaluated = 0
    problems: dict[str, list[str]] = {}
    for command in wl.commands:
        if command.name not in SWEEPS:
            continue
        n, found = check_sweep(tvg, work, command, rng, samples)
        checked += n
        if found:
            problems[command.name] = found
        text = flag(command.argv, "--range")
        if text is None:
            first, last = default_eval_range(tvg.num_instants)
        else:
            first, last = map(int, text.split(":"))
        evaluated += last - first
    return {"checked": checked, "problems": problems, "evaluated": evaluated}
