"""Time-centrality analytics for time-varying graphs.

Builds snapshot-sequence TVGs from contact logs or randomized generators,
runs flooding diffusions over them, and ranks time instants by the two
time-centrality metrics cover time and time-constrained coverage. A
time-expanded digraph oracle backs the test suite.

Each public name is imported from its home module on first use, so
`import timecent` alone imports no numpy.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# public name -> home module, in __all__ order
_HOMES = {
    # model
    "MAX_INSTANTS": "tvg",
    "TVG": "tvg",
    "Contact": "tvg",
    "TemporalNode": "tvg",
    "TvgFormatError": "tvg",
    "churn_rate": "tvg",
    "format_tvg": "tvg",
    "parse_tvg": "tvg",
    "save_tvg": "tvg",
    "load_tvg": "tvg",
    # ingestion
    "ContactColumns": "ingest",
    "IngestConfig": "ingest",
    "IngestStats": "ingest",
    "ContactLogError": "ingest",
    "parse_contacts": "ingest",
    "discretize_with_stats": "ingest",
    # generation
    "ErTvgSpec": "synth",
    "generate_er_tvg": "synth",
    "reference_spec": "synth",
    # centrality and its tables
    "CoverageThreshold": "centrality",
    "spread_milestones": "centrality",
    "INF": "tables",
    "MetricSpec": "centrality",
    "MetricTable": "tables",
    "Distribution": "tables",
    "ComparisonReport": "tables",
    "cover_time": "centrality",
    "tcc": "centrality",
    "metric_sweep": "centrality",
    "default_eval_range": "centrality",
    "rank_instants": "tables",
    "empirical_distribution": "tables",
    "compare_topk_random": "centrality",
    "median": "tables",
    # oracle
    "ExpandedDigraph": "oracle",
    "expand": "oracle",
    "oracle_reach": "oracle",
    "reach_profile": "oracle",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return globals().setdefault(name, value)
