"""Acceptance criteria for the library, one test per criterion.

Each test prints a PASS/FAIL line (visible with pytest -rA or -s) and
asserts its stated tolerance. The heavy criteria share generated TVGs and
sweep tables through module-scoped fixtures; everything is seeded, so the
whole suite is reproducible run to run.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from timecent import (
    INF,
    CoverageThreshold,
    IngestConfig,
    MetricSpec,
    churn_rate,
    compare_topk_random,
    cover_time,
    discretize_with_stats,
    format_tvg,
    generate_er_tvg,
    load_tvg,
    median,
    metric_sweep,
    parse_contacts,
    parse_tvg,
    reference_spec,
    save_tvg,
    tcc,
)
from timecent.cli import main as cli_main
from timecent.synth import REFERENCE_EDGE_PROBABILITY, REFERENCE_NUM_NODES
from conftest import assert_engines_match_oracle, random_tvg, snapshot_adjacency
from er_chain import expected_hitting_time, expected_informed_fraction

EQUIVALENCE_SEED = 20260808
EQUIVALENCE_TRIALS = 1000
STAT_SEEDS = (1, 2, 3, 4, 5)
CONTRAST_SEEDS = tuple(range(101, 121))
EVAL_RANGE = (0, 660)

_corpus_cache: list = []
_table_cache: dict = {}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")


@pytest.fixture(scope="module")
def corpus():
    """Seeded corpus of small random TVGs shared by criteria 1 and 5."""
    if not _corpus_cache:
        rng = random.Random(EQUIVALENCE_SEED)
        for _ in range(EQUIVALENCE_TRIALS):
            _corpus_cache.append(random_tvg(rng, max_nodes=10, max_instants=12))
    return _corpus_cache


def _reference_tvg(seed: int):
    key = ("tvg", seed)
    if key not in _table_cache:
        _table_cache[key] = generate_er_tvg(reference_spec(seed))
    return _table_cache[key]


def _reference_table(seed: int, metric: MetricSpec):
    key = ("table", seed, metric)
    if key not in _table_cache:
        _table_cache[key] = metric_sweep(_reference_tvg(seed), metric, EVAL_RANGE)
    return _table_cache[key]


def test_criterion_1_oracle_equivalence(corpus):
    """The diffusion engine equals expanded-digraph reachability exactly:
    the backward earliest-arrival pass for every temporal start node and
    every step budget, and the spread_milestones lists derived from it for
    every start node and instant."""
    sets_checked = sum(assert_engines_match_oracle(tvg) for tvg in corpus)
    starts = sum(tvg.num_nodes * tvg.num_instants for tvg in corpus)
    ok = sets_checked > 0
    _report(
        "criterion 1 (oracle equivalence)",
        ok,
        f"{len(corpus)} TVGs, {starts} starts, {sets_checked} step-budget sets"
        " and every milestone list match",
    )
    assert ok


def test_criterion_2_hand_traced_micro_cases(chain4):
    """Exact values on the 4-node chain TVG."""
    ct_half = cover_time(chain4, 0, "0.5")
    tcc_one = tcc(chain4, 0, 1)
    ct_full_t2 = cover_time(chain4, 2, "1.0")
    ok = ct_half == Fraction(7, 4) and tcc_one == Fraction(3, 8) and ct_full_t2 == INF
    _report(
        "criterion 2 (hand-traced micro cases)",
        ok,
        f"ct(t0,0.5)={ct_half} tcc(t0,1)={tcc_one} ct(t2,1.0)={ct_full_t2}",
    )
    assert ct_half == Fraction(7, 4)
    assert tcc_one == Fraction(3, 8)
    assert ct_full_t2 == INF


def test_criterion_3_randomized_tvg_statistics():
    """Reference-regime medians over the first 660 instants, averaged over
    5 seeds, inside bands that hold the ER flooding model's expectation.

    The model is the exact informed-count chain of er_chain.py at the
    generator's n = 160 and p = REFERENCE_EDGE_PROBABILITY. Every band but
    one limit is centred on the chain: the ct bands on E[T_16] = 68.97
    steps (observed: 68.77) and E[T_96] = 121.59 (observed: 121.28), the
    tcc bands on E[K_25]/n = 0.02110 (observed: 0.02079) and E[K_100]/n =
    0.3894 (observed: 0.3908). The test also asserts that each band holds
    the model, so a band that contradicts it fails where it is written. A
    fixed [35, 65] target for tau=0.1 is unattainable here: it needs about
    1.4 p, which puts tcc phi=100 at 0.74, and relaying within a snapshot
    still gives ~67.
    """
    n = REFERENCE_NUM_NODES
    p = REFERENCE_EDGE_PROBABILITY

    def hitting_time(tau: str) -> float:
        return expected_hitting_time(n, p, CoverageThreshold.of(tau, n).required_count)

    ct_01_model = hitting_time("0.1")
    # Per-seed medians of ct tau=0.1 have sd ~1.45 (seeds 1-20), so the
    # 5-seed mean has sd ~0.65 and +-5 % (~3.4 steps) is ~5 sd. The median
    # over instants sits ~0.25 below the chain mean (the per-instant ct is
    # right-skewed). The band excludes E[T_16] at 1.1 p (62.85) and at
    # 0.9 p (76.45), so a generator whose effective p is 10 % off still fails.
    # Per-seed medians of ct tau=0.6 have sd 2.52 (seeds 1-20), so the 5-seed
    # mean has sd 1.13 and +-5 % (~6.1 steps) is ~5.4 sd. The band excludes
    # E[T_96] at 1.1 p (110.76) and at 0.9 p (134.81); the fixed [80, 135]
    # it replaces held the latter.
    ct_06_model = hitting_time("0.6")
    # Per-seed medians of tcc phi=25 have sd 0.00055 and of phi=100 sd 0.0223
    # (seeds 1-20), so the 5-seed means have sd 0.00024 and 0.0100, and each
    # band is the chain's E[K_s]/n +- 5 of those sd. The phi=25 band keeps the
    # fixed lower limit 0.02, which is narrower than the derived 0.0199. The
    # bands exclude the 5-seed means at 1.1 p (0.0233 and 0.480) and at 0.9 p
    # (0.0185 and 0.296); the fixed [0.02, 0.05] and [0.33, 0.55] they
    # replace held both means at 1.1 p.
    tcc_25_model = expected_informed_fraction(n, p, 25)
    tcc_100_model = expected_informed_fraction(n, p, 100)
    tcc_25_sd, tcc_100_sd = (sd / math.sqrt(len(STAT_SEEDS)) for sd in (0.00055, 0.0223))
    specs = {
        "ct tau=0.1": (MetricSpec.ct("0.1"), ct_01_model, 0.95 * ct_01_model, 1.05 * ct_01_model),
        "ct tau=0.6": (MetricSpec.ct("0.6"), ct_06_model, 0.95 * ct_06_model, 1.05 * ct_06_model),
        "tcc phi=25": (MetricSpec.tcc(25), tcc_25_model, Fraction(2, 100),
                       tcc_25_model + 5 * tcc_25_sd),
        "tcc phi=100": (MetricSpec.tcc(100), tcc_100_model, tcc_100_model - 5 * tcc_100_sd,
                        tcc_100_model + 5 * tcc_100_sd),
    }
    failures = []
    for label, (metric, model, lo, hi) in specs.items():
        if not lo <= model <= hi:
            failures.append(f"{label}: model {model:.4g} outside [{float(lo):.4g},{float(hi):.4g}]")
        medians = []
        for seed in STAT_SEEDS:
            table = _reference_table(seed, metric)
            medians.append(median(table.finite_values()))
        avg = sum(medians) / len(medians)
        ok = lo <= avg <= hi
        _report(
            f"criterion 3 ({label})",
            ok,
            f"5-seed mean of medians {float(avg):.4g}, model {model:.4g},"
            f" target [{float(lo):.4g},{float(hi):.4g}]",
        )
        if not ok:
            failures.append(f"{label}: {float(avg):.4g} outside [{float(lo):.4g},{float(hi):.4g}]")
    assert not failures, "; ".join(failures)


def test_tcc_phi_1_mean_matches_its_exact_expectation():
    """tcc(t, 1) = (n + 2 m_t) / n², with m_t ~ Binomial(C(n, 2), p) contacts
    in snapshot t, so E[tcc(t, 1)] = (1 + (n - 1) p) / n exactly. Snapshots
    are independent, so the pooled mean over instants and seeds has the exact
    sd 2 sqrt(C(n, 2) p (1 - p)) / (n² sqrt(instants)); 4 sd is allowed. A
    generator at 1.1 p (z ~ +12) or 0.9 p (z ~ -11) fails."""
    n = REFERENCE_NUM_NODES
    p = REFERENCE_EDGE_PROBABILITY
    values = [
        value
        for seed in STAT_SEEDS
        for value in _reference_table(seed, MetricSpec.tcc(1)).values.values()
    ]
    assert len(values) == len(STAT_SEEDS) * (EVAL_RANGE[1] - EVAL_RANGE[0])
    expected = (1 + (n - 1) * p) / n
    sd = 2 * math.sqrt(math.comb(n, 2) * p * (1 - p)) / (n * n * math.sqrt(len(values)))
    z = (float(sum(values) / len(values)) - expected) / sd
    ok = abs(z) <= 4
    _report("model check (tcc phi=1 mean)", ok, f"expected {expected:.7f}, sd {sd:.3g}, z {z:+.2f}")
    assert ok, f"pooled tcc phi=1 mean is {z:+.2f} sd from {expected:.7f}"


def test_ct_two_nodes_mean_matches_its_geometric_expectation():
    """A start informs nobody until it has a contact, and it has one in a
    snapshot w.p. q = 1 - r, r = (1 - p)^(n - 1). So its cover step at
    tau = 2/n is geometric, and E[ct(t, 2/n)] = 1/q = 20.33 exactly: the
    instants 0-499 have at least 300 steps left, so no start runs out.

    The step from (u, t) is W_u(t) = sum over j >= 0 of [u silent in
    snapshots t .. t+j-1]. u and v are both silent in a snapshot w.p.
    r^2 / (1 - p), as they share one pair, so Cov(W_u(t), W_v(t + d)) =
    r^|d| g, with g = r / q^2 for u = v and g = (r + y) / ((1 - y) q) -
    r / q^2, y = r^2 / (1 - p), for u != v. That gives a per-seed mean an
    sd of 0.530 (seeds 1-20 gave 0.507) and the pooled mean of 5 seeds
    0.237; 4 sd is allowed. A generator at 1.1 p (z ~ -9) or 0.9 p
    (z ~ +8) fails."""
    n = REFERENCE_NUM_NODES
    p = REFERENCE_EDGE_PROBABILITY
    instants = 500
    r = (1 - p) ** (n - 1)
    q = 1 - r
    y = r * r / (1 - p)
    g_same, g_cross = r / q**2, (r + y) / ((1 - y) * q) - r / q**2
    lags = instants + 2 * sum((instants - d) * r**d for d in range(1, instants))
    sd = math.sqrt(lags * (g_same + (n - 1) * g_cross) / (n * instants**2 * len(STAT_SEEDS)))
    values = [
        value
        for seed in STAT_SEEDS
        for value in metric_sweep(
            _reference_tvg(seed), MetricSpec.ct(Fraction(2, n)), (0, instants)
        ).values.values()
    ]
    assert len(values) == len(STAT_SEEDS) * instants
    assert INF not in values
    z = (float(sum(values) / len(values)) - 1 / q) / sd
    ok = abs(z) <= 4
    _report("model check (ct tau=2/n mean)", ok, f"expected {1 / q:.4f}, sd {sd:.3g}, z {z:+.2f}")
    assert ok, f"pooled ct tau=2/n mean is {z:+.2f} sd from {1 / q:.4f}"


def test_tcc_means_match_the_er_chain():
    """The pooled means of tcc phi=25 and phi=100 over instants 0-659 of
    seeds 1-5 lie within 4 sd of the ER chain's E[K_s]/n (er_chain.py; the
    memoryless case of Clementi et al., PODC 2008). Every budget from these
    instants ends inside the 800 snapshots, so no flood is cut short.
    Floods from nearby instants share snapshots, so the sd is measured:
    over seeds 1-20 a seed's mean over instants had sd 0.00059 (phi=25)
    and 0.0226 (phi=100), and the pooled mean of 5 seeds sd / sqrt(5).
    Seeds 1-5 gave 0.02111 against 0.0211 (z = +0.07) and 0.38787 against
    0.3894 (z = -0.15). The chain at 1.1 p gives 0.0237 and 0.485, at
    0.9 p 0.0188 and 0.299, all about 9 sd off, so a generator whose
    effective p is 10 % off fails."""
    n = REFERENCE_NUM_NODES
    p = REFERENCE_EDGE_PROBABILITY
    failures = []
    for phi, seed_sd in ((25, 0.00059), (100, 0.0226)):
        values = [
            value
            for seed in STAT_SEEDS
            for value in _reference_table(seed, MetricSpec.tcc(phi)).values.values()
        ]
        assert len(values) == len(STAT_SEEDS) * (EVAL_RANGE[1] - EVAL_RANGE[0])
        expected = expected_informed_fraction(n, p, phi)
        sd = seed_sd / math.sqrt(len(STAT_SEEDS))
        z = (float(sum(values) / len(values)) - expected) / sd
        ok = abs(z) <= 4
        detail = f"expected {expected:.5f}, sd {sd:.3g}, z {z:+.2f}"
        _report(f"model check (tcc phi={phi} mean)", ok, detail)
        if not ok:
            failures.append(f"pooled tcc phi={phi} mean is {z:+.2f} sd from {expected:.5f}")
    assert not failures, "; ".join(failures)


def test_criterion_4_topk_superiority():
    """Top-10 beats the random baseline on at least 18 of 20 seeds per metric."""
    ct_fail = 0
    tcc_fail = 0
    for seed in CONTRAST_SEEDS:
        tvg = _reference_tvg(seed)
        ct_table = metric_sweep(tvg, MetricSpec.ct("0.1"), EVAL_RANGE)
        report = compare_topk_random(ct_table, 10, seed)
        if not report.top.med < report.random.med:
            ct_fail += 1
        tcc_table = metric_sweep(tvg, MetricSpec.tcc(100), EVAL_RANGE)
        report = compare_topk_random(tcc_table, 10, seed)
        if not report.top.med > report.random.med:
            tcc_fail += 1
    ok = ct_fail <= 2 and tcc_fail <= 2
    _report(
        "criterion 4 (top-k superiority)",
        ok,
        f"ct failures {ct_fail}/20, tcc failures {tcc_fail}/20 (allowed 2 each)",
    )
    assert ct_fail <= 2, f"ct contrast failed on {ct_fail} of 20 seeds"
    assert tcc_fail <= 2, f"tcc contrast failed on {tcc_fail} of 20 seeds"


def test_criterion_5_structural_properties(corpus):
    """Monotonicity and bounds across the TVGs used by criteria 1-4."""
    # small-TVG corpus: full parameter grids through the public metric API,
    # one sweep over every instant per budget and per threshold
    for tvg in corpus:
        n, whole = tvg.num_nodes, (0, tvg.num_instants)
        by_phi = [
            metric_sweep(tvg, MetricSpec.tcc(phi), whole).values
            for phi in range(1, tvg.num_instants + 2)
        ]
        by_tau = [
            metric_sweep(tvg, MetricSpec.ct(Fraction(r, n)), whole).values for r in range(1, n + 1)
        ]
        for t_i in range(tvg.num_instants):
            coverages = [table[t_i] for table in by_phi]
            for prev, cur in zip(coverages, coverages[1:]):
                assert prev <= cur, (tvg, t_i)
            assert all(Fraction(1, n) <= v <= 1 for v in coverages), (tvg, t_i)
            times = [table[t_i] for table in by_tau]
            assert times[0] == 0, (tvg, t_i)
            for prev, cur in zip(times, times[1:]):
                assert prev <= cur, (tvg, t_i)
    # reference tables: per-instant monotonicity across the computed params
    for seed in STAT_SEEDS:
        ct_01 = _reference_table(seed, MetricSpec.ct("0.1")).values
        ct_06 = _reference_table(seed, MetricSpec.ct("0.6")).values
        tcc_25 = _reference_table(seed, MetricSpec.tcc(25)).values
        tcc_100 = _reference_table(seed, MetricSpec.tcc(100)).values
        for t_i in range(*EVAL_RANGE):
            assert tcc_25[t_i] <= tcc_100[t_i]
            assert Fraction(1, 160) <= tcc_25[t_i] <= 1
            assert Fraction(1, 160) <= tcc_100[t_i] <= 1
            if ct_06[t_i] != INF:
                assert ct_01[t_i] <= ct_06[t_i]
    # threshold of one node is met at step zero on the reference regime too
    tvg = _reference_tvg(STAT_SEEDS[0])
    for t_i in (0, 300, 659):
        assert cover_time(tvg, t_i, Fraction(1, 160)) == 0
    _report(
        "criterion 5 (structural properties)",
        True,
        f"{len(corpus)} corpus TVGs on full grids, {len(STAT_SEEDS)} reference seeds pointwise",
    )


def _is_connected(tvg, t_i: int) -> bool:
    adjacent = snapshot_adjacency(tvg, t_i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adjacent[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == tvg.num_nodes


def test_criterion_6_generator_regime():
    """Mean contacts per snapshot, sub-threshold disconnectedness, churn."""
    spec = reference_spec(STAT_SEEDS[0])
    tvg = _reference_tvg(STAT_SEEDS[0])
    expected = spec.edge_probability * (160 * 159 / 2)
    mean = tvg.num_contacts() / tvg.num_instants
    mean_ok = abs(mean - expected) <= 0.15 * expected
    connected = sum(1 for t_i in range(tvg.num_instants) if _is_connected(tvg, t_i))
    churn = churn_rate(tvg)
    churn_ok = churn > Fraction(99, 100)
    ok = mean_ok and connected == 0 and churn_ok
    _report(
        "criterion 6 (generator regime)",
        ok,
        f"mean contacts {mean:.3f} vs {expected:.3f} (±15%), "
        f"connected snapshots {connected}/800, churn {float(churn):.5f}",
    )
    assert mean_ok
    assert connected == 0
    assert churn_ok


def test_criterion_7_ingestion_validation(tmp_path):
    """Contact-log ingestion is validated by round-trip and relabeling
    invariance on synthetic logs; external-dataset medians are out of scope."""
    rng = random.Random(7321)
    labels = [f"p{i:02d}" for i in range(20)]
    records = []
    for _ in range(400):
        a, b = rng.sample(labels, 2)
        records.append((rng.randint(0, 3000), a, b))
    cfg = IngestConfig(30, 0, 3000)
    tvg, stats = discretize_with_stats(parse_contacts(f"{t},{a},{b}" for t, a, b in records), cfg)
    assert stats.records_rejected == 0

    # serialization round trip
    path = tmp_path / "ingested.tvg"
    save_tvg(tvg, str(path))
    reloaded = load_tvg(str(path))
    round_trip_ok = reloaded == tvg

    # relabeling invariance: per-snapshot counts and metric values
    mapping = dict(zip(labels, rng.sample(labels, len(labels))))
    relabeled = parse_contacts(f"{t},{mapping[a]},{mapping[b]}" for t, a, b in records)
    other, _ = discretize_with_stats(relabeled, cfg)
    invariant_ok = [len(s) for s in tvg.snapshots] == [len(s) for s in other.snapshots]
    for t_i in (0, 25, 50, 75, 100):
        invariant_ok &= tcc(tvg, t_i, 5) == tcc(other, t_i, 5)
        invariant_ok &= cover_time(tvg, t_i, "0.5") == cover_time(other, t_i, "0.5")
    ok = round_trip_ok and bool(invariant_ok)
    _report(
        "criterion 7 (ingestion validation)",
        ok,
        "round trip and relabeling invariance hold on synthetic logs; "
        "external-dataset medians not reproduced by design",
    )
    assert round_trip_ok
    assert invariant_ok


def test_criterion_8_determinism(tmp_path, capsys):
    """Identical config and seed give byte-identical artifacts, independent
    of worker count."""
    tvg_path = tmp_path / "d.tvg"
    args = ["generate", "--nodes", "40", "--instants", "120", "--prob", "0.01",
            "--seed", "33", "--out", str(tvg_path)]
    assert cli_main(args) == 0
    first = tvg_path.read_bytes()
    assert cli_main(args) == 0
    generate_ok = tvg_path.read_bytes() == first

    sweep_bytes = []
    for workers in ("1", "2"):
        out = tmp_path / f"ct_w{workers}.csv"
        code = cli_main(["ct", str(tvg_path), "--tau", "0.25", "--range", "0:80",
                         "--workers", workers, "--out", str(out)])
        assert code == 0
        sweep_bytes.append(out.read_bytes())
    sweep_ok = sweep_bytes[0] == sweep_bytes[1]

    compare_bytes = []
    for run in range(2):
        out = tmp_path / f"cmp_{run}.csv"
        code = cli_main(["compare", str(tvg_path), "--metric", "tcc", "--phi", "20",
                         "--k", "8", "--seed", "5", "--range", "0:80", "--out", str(out)])
        assert code == 0
        compare_bytes.append(out.read_bytes())
    compare_ok = compare_bytes[0] == compare_bytes[1]
    capsys.readouterr()

    # library level: same spec, same bytes
    spec_bytes_ok = format_tvg(generate_er_tvg(reference_spec(2))) == format_tvg(
        generate_er_tvg(reference_spec(2))
    )
    parse_round = parse_tvg(first.decode().splitlines())
    parse_ok = format_tvg(parse_round).encode() == first

    ok = generate_ok and sweep_ok and compare_ok and spec_bytes_ok and parse_ok
    _report(
        "criterion 8 (determinism)",
        ok,
        f"generate={generate_ok} sweep workers 1 vs 2={sweep_ok} "
        f"compare={compare_ok} library={spec_bytes_ok and parse_ok}",
    )
    assert ok
