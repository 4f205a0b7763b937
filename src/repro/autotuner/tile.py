"""Tile-size autotuner (paper Sec. 7.1-7.2, Figure 4).

Modes:

* **exhaustive** — evaluate every valid tile size of every kernel on
  hardware (the autotuner's default; expensive).
* **model top-k** — a cost model (learned or analytical) ranks candidates
  and only the top ``k`` per kernel run on hardware ('Learned model 10',
  'Analytical 10').
* **model top-1 / in-compiler** — the model's single best tile is used
  directly with no hardware at all ('Learned model 1', and the compiler's
  own behaviour with the analytical model).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compiler.kernels import Kernel
from ..compiler.tiling import TileConfig, default_tile, enumerate_tile_sizes
from .evaluators import HardwareEvaluator, TileScorer


@dataclass
class TileTuningResult:
    """Outcome of tuning one program's kernels.

    Attributes:
        tiles: chosen tile per kernel.
        program_runtime: true total runtime under the chosen tiles.
        default_runtime: true total runtime under the compiler-default
            tiles (speedup denominator in Fig. 4).
        hardware_evaluations: kernel executions spent.
    """

    tiles: list[TileConfig]
    program_runtime: float
    default_runtime: float
    hardware_evaluations: int

    @property
    def speedup(self) -> float:
        """Speedup over the default tile configuration."""
        return self.default_runtime / max(self.program_runtime, 1e-30)


def exhaustive_tile_autotune(
    kernels: list[Kernel],
    hardware: HardwareEvaluator,
) -> TileTuningResult:
    """Evaluate all candidate tiles of every kernel on hardware."""
    chosen: list[TileConfig] = []
    total = 0.0
    default_total = 0.0  # default tiles are measured outside the budget
    for kernel in kernels:
        candidates = enumerate_tile_sizes(kernel)
        runtimes = [hardware.kernel_runtime(kernel, t) for t in candidates]
        best = int(np.argmin(runtimes))
        chosen.append(candidates[best])
        total += hardware.simulator.run(kernel, candidates[best])
        default_total += hardware.simulator.run(kernel, default_tile(kernel))
    return TileTuningResult(
        tiles=chosen,
        program_runtime=total,
        default_runtime=default_total,
        hardware_evaluations=hardware.evaluations,
    )


def model_tile_autotune(
    kernels: list[Kernel],
    model: TileScorer,
    hardware: HardwareEvaluator,
    top_k: int = 10,
) -> TileTuningResult:
    """Model-guided tuning: the model ranks, hardware verifies the top k.

    With ``top_k=1`` this is direct compiler integration: the model's
    choice is used as-is and zero hardware evaluations are spent.

    ``model`` is any :class:`~repro.autotuner.evaluators.TileScorer` —
    learned, analytical, or a serving-layer ``ServiceEvaluator`` sharing
    one warm model across many tuner processes.
    """
    chosen: list[TileConfig] = []
    total = 0.0
    default_total = 0.0  # default tiles are measured outside the budget
    # Population-level scoring: one model forward per distinct kernel's
    # candidate set (and cached graph features for learned evaluators). A
    # kernel repeated in the program reuses the ranking of its fingerprint;
    # hardware verification and the runtime sums stay per kernel.
    ranked: dict[str, tuple[list[TileConfig], np.ndarray, TileConfig]] = {}
    for kernel in kernels:
        fingerprint = kernel.fingerprint()
        if fingerprint not in ranked:
            candidates = enumerate_tile_sizes(kernel)
            scores = np.asarray(model.score_tiles_batched(kernel, candidates))
            order = np.argsort(scores, kind="stable")[: max(top_k, 1)]
            # The default tile rides in the body's candidate memo.
            ranked[fingerprint] = (candidates, order, default_tile(kernel))
        candidates, order, default = ranked[fingerprint]
        if top_k <= 1:
            pick = candidates[int(order[0])]
        else:
            runtimes = [hardware.kernel_runtime(kernel, candidates[int(i)]) for i in order]
            pick = candidates[int(order[int(np.argmin(runtimes))])]
        chosen.append(pick)
        total += hardware.simulator.run(kernel, pick)
        default_total += hardware.simulator.run(kernel, default)
    return TileTuningResult(
        tiles=chosen,
        program_runtime=total,
        default_runtime=default_total,
        hardware_evaluations=hardware.evaluations,
    )
