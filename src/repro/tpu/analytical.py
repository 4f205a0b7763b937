"""The hand-tuned analytical performance model (paper Sec. 2.3, Appendix A).

Estimates a kernel's runtime for a given tile size as

    iterations * max(data_transfer_time, compute_time) + overhead

assuming perfect overlap of compute with copy-in/copy-out. This is the
baseline the learned model is compared against, and it deliberately carries
the blind spots the paper documents:

  (i)   bi-directional transfer contention is not modelled (copy-in and
        copy-out are summed against nominal bandwidth);
  (ii)  instruction scheduling is approximated by the dependence critical
        path, ignoring functional-unit contention;
  (iii) register usage (spills) is not modelled at all;
  (iv)  dynamic issue stalls are not modelled;
  (v)   per-kernel hardware quirks are unknown to it.

For the fusion task, the model's per-kind output scale is calibrated with
:func:`calibrate_kind_scales` exactly as the paper does — by executing each
test program once under a default configuration and fitting one coefficient
per kernel type.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..compiler.kernels import KERNEL_KINDS, Kernel
from ..compiler.scheduling import critical_path
from ..compiler.tiling import TileConfig, default_tile, tile_transfer_bytes
from .specs import TpuTarget, TPU_V2


@dataclass(frozen=True)
class AnalyticalBreakdown:
    """Intermediate quantities of one analytical estimate (for debugging).

    Attributes:
        iterations: number of tile iterations.
        transfer_time: per-iteration data transfer seconds.
        compute_time: per-iteration compute seconds.
        overhead: fixed per-kernel launch overhead seconds.
        total: final runtime estimate in seconds.
    """

    iterations: int
    transfer_time: float
    compute_time: float
    overhead: float
    total: float


class AnalyticalModel:
    """XLA-style analytical tile-size cost model.

    Args:
        target: hardware target the estimates are for.
    """

    #: Heuristic bandwidth efficiency for small transfers: effective
    #: bandwidth = nominal * size / (size + ramp). Tuned once, per the
    #: paper's description of heuristics "chosen by tuning the performance
    #: model on a set of benchmark programs".
    BANDWIDTH_RAMP_BYTES = 64 * 1024
    #: Fixed kernel launch overhead (seconds).
    LAUNCH_OVERHEAD_S = 2e-6

    def __init__(self, target: TpuTarget = TPU_V2) -> None:
        self.target = target
        # Critical path scales linearly with the tile fraction; cache the
        # unit-scale value per kernel across tile sweeps.
        self._cp_cache: dict[str, float] = {}

    def _unit_critical_path(self, kernel: Kernel) -> float:
        fp = kernel.fingerprint()
        if fp not in self._cp_cache:
            self._cp_cache[fp] = critical_path(kernel.graph)
        return self._cp_cache[fp]

    # ------------------------------------------------------------- estimates
    def breakdown(self, kernel: Kernel, tile: TileConfig) -> AnalyticalBreakdown:
        """Full per-component estimate for one (kernel, tile) pair."""
        output = kernel.primary_output().shape
        iterations = tile.iterations(output)
        in_bytes, out_bytes = tile_transfer_bytes(kernel, tile)

        # (i) uni-directional bandwidth assumption: in + out share nothing.
        size = in_bytes + out_bytes
        eff_bw = self.target.hbm_bandwidth_bps * (
            size / (size + self.BANDWIDTH_RAMP_BYTES)
        )
        # Hand-tuned heuristic for narrow tiles: transfers of tiles whose
        # minor extent is small achieve lower bandwidth. This is a smooth
        # approximation of the hardware's lane-padding sawtooth — close
        # enough to work well in practice, wrong in the details (the gap
        # the learned model exploits).
        minor = tile.dims[output.layout.minor_to_major[0]] if tile.dims else 1
        eff_bw *= min(1.0, max(minor / 64.0, 0.125))
        transfer = size / max(eff_bw, 1.0)

        # (ii) compute = dependence critical path of one tile iteration,
        # scaled by tile fraction; no unit contention.
        tile_fraction = tile.volume / max(output.num_elements, 1)
        cp_cycles = self._unit_critical_path(kernel) * tile_fraction
        compute = cp_cycles / (self.target.clock_ghz * 1e9) / self.target.mxu_count

        total = iterations * max(transfer, compute) + self.LAUNCH_OVERHEAD_S
        return AnalyticalBreakdown(
            iterations=iterations,
            transfer_time=transfer,
            compute_time=compute,
            overhead=self.LAUNCH_OVERHEAD_S,
            total=total,
        )

    def estimate(self, kernel: Kernel, tile: TileConfig) -> float:
        """Estimated runtime in seconds for a (kernel, tile) pair.

        Raises:
            ValueError: for kernels without tile-size options — the real
                analytical model does not support them (paper Sec. 5.2).
        """
        if not kernel.has_tile_options():
            raise ValueError(
                "analytical model does not support kernels without tile-size "
                f"options (kind={kernel.kind!r})"
            )
        return self.breakdown(kernel, tile).total

    def best_tile(self, kernel: Kernel, tiles: list[TileConfig]) -> TileConfig:
        """The tile size this model would select (minimum estimate)."""
        return min(tiles, key=lambda t: self.estimate(kernel, t))

    def rank_tiles(self, kernel: Kernel, tiles: list[TileConfig]) -> list[TileConfig]:
        """Tiles sorted from best to worst estimated runtime."""
        return sorted(tiles, key=lambda t: self.estimate(kernel, t))


def calibrate_kind_scales(
    kernels: list[Kernel],
    measured: list[float],
    model: AnalyticalModel,
) -> dict[str, float]:
    """Fit one output-scale coefficient per kernel kind.

    The paper (Sec. 5.2): "we scale the analytical model's output with a
    coefficient associated with the kernel's type ... determined by executing
    each program in the test set with a default fusion configuration, and
    dividing the actual total runtime for all kernels of each type by the
    estimate in its original scale."

    Args:
        kernels: kernels of the calibration (default-config) runs.
        measured: true runtimes aligned with ``kernels``.
        model: the analytical model being calibrated.

    Returns:
        kind -> multiplicative coefficient; kinds with no supported kernels
        get 1.0.
    """
    sums: dict[str, list[float]] = {k: [0.0, 0.0] for k in KERNEL_KINDS}
    for kernel, true_time in zip(kernels, measured):
        if not kernel.has_tile_options():
            continue
        est = model.estimate(kernel, default_tile(kernel))
        sums[kernel.kind][0] += true_time
        sums[kernel.kind][1] += est
    return {
        kind: (acc[0] / acc[1] if acc[1] > 0 else 1.0) for kind, acc in sums.items()
    }


class CalibratedAnalyticalModel:
    """Analytical model with per-kind absolute-scale calibration.

    This is the fusion-task baseline: raw analytical estimates are only
    meaningful for ranking tiles within one kernel; multiplying by the
    calibrated per-kind coefficient turns them into absolute runtimes.
    """

    def __init__(self, model: AnalyticalModel, kind_scales: dict[str, float]) -> None:
        self.model = model
        self.kind_scales = dict(kind_scales)

    def estimate(self, kernel: Kernel, tile: TileConfig | None = None) -> float:
        """Absolute runtime estimate in seconds.

        Raises:
            ValueError: for kernels without tile-size options (unsupported).
        """
        tile = tile or default_tile(kernel)
        raw = self.model.estimate(kernel, tile)
        return raw * self.kind_scales.get(kernel.kind, 1.0)
