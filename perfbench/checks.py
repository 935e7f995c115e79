"""Correctness checks on a run's artifacts, with the standard library only.

None of this is timed. A command fails when it exits non-zero or when its
artifact
* differs from the artifact of another repeat of the same command,
* differs from the digest pinned in digests.json for the default seed, or
* holds a sampled ct/tcc value that differs from the exact value the
  time-expanded oracle gives for that instant (oraclecheck.py).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from workloads import Command

PINNED = Path(__file__).resolve().parent / "digests.json"


@dataclass
class Run:
    """One execution of a command: CLI child or in-process mirror."""

    command: Command
    exit_code: int
    digest: str | None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    scale: float = 1.0  # turns wall_s and cpu_s into reference pace (pace.py)
    failed: bool = False

    @property
    def paced_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def paced_cpu_s(self) -> float:
        return self.cpu_s * self.scale


def digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def pinned_digests(workload: str) -> dict[str, str]:
    return json.loads(PINNED.read_text(encoding="utf-8")).get(workload, {})


def mark_failures(
    groups: list[list[Run]], pinned: dict[str, str], problems: dict[str, list[str]]
) -> None:
    """Flag failed runs. Each group holds the repeats of one command.

    When the repeats do not all produce the same bytes, or the oracle found
    `problems` in the command's artifact, every repeat of it fails.
    """
    for group in groups:
        name = group[0].command.name
        bad_group = len({r.digest for r in group}) != 1 or name in problems
        want = pinned.get(group[0].command.artifact)
        for r in group:
            r.failed = (
                bad_group
                or r.exit_code != 0
                or r.digest is None
                or (want is not None and r.digest != want)
            )
