"""The pace of the CPU a command runs on, sampled while it runs.

On a shared host the speed of one CPU swings by a third or more within
seconds, with the load of other tenants; the kernel reports no steal
time for it, so the wall and the CPU time of a command swing alike. The
two CPUs of a 2-CPU guest swing independently of each other. So the
benchmark pins itself, and with it every child it starts, to one CPU
(`pin`) and, while a child runs, times a small fixed kernel on that CPU
every SAMPLE_EVERY seconds (`run`). The kernel does what the diffusion
loop does: big-int mask tests and unions, dict updates, bit counts.

A command's time is then reported at reference pace: its wall (or CPU)
time times REFERENCE_S / the mean kernel time over its run, i.e. the
seconds it would take on a CPU on which the kernel takes REFERENCE_S.
Sampling takes about 3 % of the CPU from the child.
"""

from __future__ import annotations

import os
import random
import select
import subprocess
from dataclasses import dataclass
from time import perf_counter

SAMPLE_EVERY = 0.01  # seconds between kernel samples while a child runs
REFERENCE_S = 3.0e-4  # kernel time that defines reference pace
OUTLIER = 3.0  # a sample over OUTLIER x the run's fastest was interrupted; dropped

_rng = random.Random(20150401)
_NODES = 160
_MASKS = [_rng.getrandbits(_NODES) for _ in range(_NODES)]
_PAIRS = [(_rng.randrange(_NODES), _rng.randrange(_NODES)) for _ in range(400)]


def _kernel() -> int:
    spread = _MASKS[:]
    updates: dict[int, int] = {}
    get = updates.get
    for a, b in _PAIRS:
        sa = spread[a]
        sb = spread[b]
        if sb & ~sa:
            updates[a] = get(a, 0) | sb
        if sa & ~sb:
            updates[b] = get(b, 0) | sa
    total = 0
    for v, add in updates.items():
        newly = add & ~spread[v]
        spread[v] |= newly
        total += newly.bit_count()
    return total


def kernel_s() -> float:
    """Wall time of one kernel call, now, on this process's CPU."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def pin() -> int:
    """Pin this process (and so the children it starts later) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def scale(samples: list[float]) -> float:
    """Factor that turns times measured over `samples` into reference pace."""
    fastest = min(samples)
    kept = [s for s in samples if s <= OUTLIER * fastest]
    return REFERENCE_S * len(kept) / sum(kept)


@dataclass(frozen=True)
class Usage:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    scale: float  # reference-pace factor over the child's run


def run(argv: list[str], **popen) -> Usage:
    """Run `argv` to its end, sampling the pace meanwhile."""
    samples = [kernel_s()]
    start = perf_counter()
    proc = subprocess.Popen(argv, **popen)
    try:
        fd = os.pidfd_open(proc.pid)
        try:
            while not select.select([fd], [], [], SAMPLE_EVERY)[0]:
                samples.append(kernel_s())
        finally:
            os.close(fd)
        wall = perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024, scale(samples))
