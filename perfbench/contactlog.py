"""Seeded synthetic contact log for the log-ingest workload (numpy only).

The log mimics a proximity trace: four days of integer-second timestamps,
diurnal activity with no contacts between 02:00 and 06:00 (so night bins
are empty), heavy-tailed per-node activity, and encounters that repeat
the same contact every few seconds (so contacts repeat within a 30 s bin).
One record in a hundred falls in the hour before or after the window of
`days` days that starts at EPOCH, as if the sensors ran a little longer
than the study; the log-ingest workload passes that window to `ingest`,
which rejects them. The first line is the `timestamp,label_a,label_b`
header.
"""

from __future__ import annotations

import numpy as np

from workloads import DAY, EPOCH


def contact_log_lines(
    seed: int, *, records: int = 120_000, labels: int = 300, days: int = 4
) -> list[str]:
    """Lines (without newlines) of a contact log drawn from `seed`."""
    rng = np.random.default_rng(seed)
    # Pareto quantiles: every seed shares one heavy-tailed activity profile
    # and only assigns it to labels, so the work varies little with the seed
    weight = rng.permutation((1.0 - (np.arange(labels) + 0.5) / labels) ** (-1 / 1.2))
    weight /= weight.sum()
    hour = np.arange(DAY) / 3600.0
    intensity = np.where((hour >= 2) & (hour < 6), 0.0, 1.0 + np.cos(2 * np.pi * (hour - 15) / 24))
    intensity /= intensity.sum()

    encounters = records // 3
    length = rng.geometric(1 / 3, encounters)
    a = rng.choice(labels, encounters, p=weight)
    b = rng.choice(labels, encounters, p=weight)
    same = a == b
    b[same] = (a[same] + rng.integers(1, labels, same.sum())) % labels
    start = rng.integers(0, days, encounters) * DAY + rng.choice(DAY, encounters, p=intensity)

    gaps = rng.integers(10, 50, int(length.sum()))
    elapsed = np.cumsum(gaps)
    first = np.concatenate(([0], np.cumsum(length)[:-1]))
    offset = elapsed - np.repeat(elapsed[first], length)
    ts = np.repeat(start, length) + offset
    a = np.repeat(a, length)
    b = np.repeat(b, length)
    keep = ts < days * DAY
    # an hour of records either side of the window, which ingest rejects
    spill = records // 100
    ts_out = rng.integers(-3600, 3600, spill)
    ts_out[ts_out >= 0] += days * DAY
    a_out = rng.choice(labels, spill, p=weight)
    b_out = (a_out + rng.integers(1, labels, spill)) % labels
    ts = np.concatenate((ts[keep], ts_out))
    a = np.concatenate((a[keep], a_out))
    b = np.concatenate((b[keep], b_out))
    flip = rng.random(ts.size) < 0.5
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    order = np.argsort(ts, kind="stable")
    names = [f"p{i:03d}" for i in rng.permutation(labels)]
    lines = ["timestamp,label_a,label_b"]
    lines.extend(
        f"{EPOCH + t},{names[x]},{names[y]}"
        for t, x, y in zip(ts[order].tolist(), a[order].tolist(), b[order].tolist())
    )
    return lines


def write_contact_log(path: str, seed: int, **sizes: int) -> None:
    """Write the log for `seed` to `path`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(contact_log_lines(seed, **sizes)))
        fh.write("\n")
