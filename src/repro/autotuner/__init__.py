"""Compiler autotuner: evaluators, search strategies, tile & fusion tuners."""
from .evaluators import (
    AnalyticalEvaluator,
    HardwareEvaluator,
    LearnedEvaluator,
    ProgramCostModel,
    TileScorer,
)
from .fusion_tuner import (
    FusionTuningResult,
    hardware_fusion_autotune,
    model_fusion_autotune,
)
from .search import SearchResult, genetic_search, random_search, simulated_annealing
from .tile import TileTuningResult, exhaustive_tile_autotune, model_tile_autotune

__all__ = [
    "AnalyticalEvaluator",
    "FusionTuningResult",
    "HardwareEvaluator",
    "LearnedEvaluator",
    "ProgramCostModel",
    "SearchResult",
    "TileScorer",
    "TileTuningResult",
    "exhaustive_tile_autotune",
    "genetic_search",
    "hardware_fusion_autotune",
    "model_fusion_autotune",
    "model_tile_autotune",
    "random_search",
    "simulated_annealing",
]
