"""TPU substrate: hardware targets, analytical baseline, ground-truth simulator."""
from .analytical import (
    AnalyticalBreakdown,
    AnalyticalModel,
    CalibratedAnalyticalModel,
    calibrate_kind_scales,
)
from .simulator import SimBreakdown, TpuSimulator
from .specs import TPU_V2, TPU_V3, TpuTarget

__all__ = [
    "TPU_V2",
    "TPU_V3",
    "AnalyticalBreakdown",
    "AnalyticalModel",
    "CalibratedAnalyticalModel",
    "SimBreakdown",
    "TpuSimulator",
    "TpuTarget",
    "calibrate_kind_scales",
]
