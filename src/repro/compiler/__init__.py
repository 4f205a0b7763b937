"""Compiler substrate: fusion, kernel extraction, tiling, static analyses.

This package plays the role of XLA's high-level optimizer for our purposes:
it turns whole programs into kernels (fusion + extraction), enumerates each
kernel's valid tile sizes, and runs the static analyses whose outputs become
the optional performance features of the learned model.
"""
from .analysis import StaticAnalysis, analyze, instruction_flops, operational_intensity
from .fusion import (
    FusionConfig,
    ProgramFuser,
    default_fusion,
    fuse_program,
    fusible_edges,
)
from .layouts import (
    best_output_layout,
    enumerate_output_layouts,
    with_output_layout,
)
from .kernels import KERNEL_KINDS, Kernel, classify_kernel
from .scheduling import (
    ScheduleResult,
    critical_path,
    functional_unit,
    instruction_cycles,
    list_schedule,
    live_tensor_peak,
)
from .tiling import (
    TileConfig,
    candidate_block_sizes,
    default_tile,
    enumerate_tile_sizes,
)

__all__ = [
    "KERNEL_KINDS",
    "FusionConfig",
    "Kernel",
    "ProgramFuser",
    "ScheduleResult",
    "StaticAnalysis",
    "TileConfig",
    "analyze",
    "best_output_layout",
    "candidate_block_sizes",
    "classify_kernel",
    "critical_path",
    "default_fusion",
    "default_tile",
    "enumerate_output_layouts",
    "enumerate_tile_sizes",
    "functional_unit",
    "fuse_program",
    "fusible_edges",
    "instruction_cycles",
    "instruction_flops",
    "list_schedule",
    "live_tensor_peak",
    "operational_intensity",
    "with_output_layout",
]
