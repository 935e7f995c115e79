"""Time-centrality analytics for time-varying graphs.

Builds snapshot-sequence TVGs from contact logs or randomized generators,
runs flooding diffusions over them, and ranks time instants by the two
time-centrality metrics cover time and time-constrained coverage. A
time-expanded digraph oracle backs the test suite.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .centrality import (
    INF,
    ComparisonReport,
    Distribution,
    MetricSpec,
    MetricTable,
    compare_topk_random,
    cover_time,
    default_eval_range,
    empirical_distribution,
    median,
    metric_sweep,
    rank_instants,
    tcc,
)
from .diffusion import CoverageThreshold, spread_milestones
from .ingest import (
    ContactLogError,
    ContactRecord,
    IngestConfig,
    IngestStats,
    discretize,
    discretize_with_stats,
    parse_contacts,
)
from .oracle import ExpandedDigraph, expand, oracle_reach, reach_profile
from .synth import ErTvgSpec, generate_er_tvg, reference_spec, snapshot_pairs
from .tvg import (
    MAX_INSTANTS,
    TVG,
    Contact,
    Snapshot,
    TemporalNode,
    TvgFormatError,
    build_tvg,
    churn_rate,
    format_tvg,
    load_tvg,
    parse_tvg,
    save_tvg,
)

__all__ = [
    "__version__",
    # model
    "MAX_INSTANTS",
    "TVG",
    "Snapshot",
    "Contact",
    "TemporalNode",
    "TvgFormatError",
    "build_tvg",
    "churn_rate",
    "format_tvg",
    "parse_tvg",
    "save_tvg",
    "load_tvg",
    # ingestion
    "ContactRecord",
    "IngestConfig",
    "IngestStats",
    "ContactLogError",
    "parse_contacts",
    "discretize",
    "discretize_with_stats",
    # generation
    "ErTvgSpec",
    "generate_er_tvg",
    "reference_spec",
    "snapshot_pairs",
    # diffusion
    "CoverageThreshold",
    "spread_milestones",
    # centrality
    "INF",
    "MetricSpec",
    "MetricTable",
    "Distribution",
    "ComparisonReport",
    "cover_time",
    "tcc",
    "metric_sweep",
    "default_eval_range",
    "rank_instants",
    "empirical_distribution",
    "compare_topk_random",
    "median",
    # oracle
    "ExpandedDigraph",
    "expand",
    "oracle_reach",
    "reach_profile",
]
