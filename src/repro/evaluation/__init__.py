"""Evaluation metrics and table rendering."""
from .metrics import (
    FusionTaskResult,
    TileTaskResult,
    evaluate_fusion_task,
    evaluate_tile_task,
    geometric_mean,
    kendall_tau,
    mape,
    summarize,
    tile_size_ape,
)
from .plots import bar_chart
from .reports import format_table
from .service import LatencySummary, ServingStats, latency_percentiles

__all__ = [
    "FusionTaskResult",
    "LatencySummary",
    "ServingStats",
    "bar_chart",
    "TileTaskResult",
    "evaluate_fusion_task",
    "evaluate_tile_task",
    "format_table",
    "geometric_mean",
    "kendall_tau",
    "latency_percentiles",
    "mape",
    "summarize",
    "tile_size_ape",
]
