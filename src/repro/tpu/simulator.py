"""Ground-truth TPU performance simulator.

This module stands in for the real TPU v2/v3 hardware that the paper
measured kernels on. It prices a (kernel, tile) pair with a richer model
than :mod:`repro.tpu.analytical`, deliberately including every effect the
paper lists as *missing* from the analytical model (Appendix A):

  1. size-dependent effective bandwidth with per-transfer DMA latency;
  2. MXU/VPU utilization losses from tile misalignment to the 128-lane
     vector width and 8-sublane register granularity;
  3. bi-directional transfer contention (copy-in of the next tile competes
     with copy-out of the previous one);
  4. resource-constrained instruction scheduling (functional-unit
     contention and issue stalls) via the list scheduler;
  5. register-pressure spills when the live-tensor peak exceeds the
     architectural vector registers;
  6. imperfect compute/transfer pipelining;
  7. a deterministic per-(kernel, tile-bucket) "hardware quirk" term for
     poorly-understood architectural characteristics (paper Sec. 2.3a).

Runtimes are deterministic given (kernel, tile, target); measurement noise
is added only by :meth:`TpuSimulator.measure`, which mimics the paper's
"minimum runtime from three runs" protocol.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..compiler.kernels import Kernel
from ..compiler.scheduling import VECTOR_LANES, list_schedule, live_tensor_peak
from ..compiler.tiling import TileConfig, default_tile, tile_transfer_bytes
from .specs import TpuTarget, TPU_V2


@dataclass(frozen=True)
class SimBreakdown:
    """Per-component decomposition of one simulated runtime.

    Attributes:
        iterations: tile iterations covering the output.
        transfer_in: per-iteration copy-in seconds (after bandwidth model).
        transfer_out: per-iteration copy-out seconds.
        compute: per-iteration compute seconds (after utilization/spills).
        loop_overhead: per-iteration loop bookkeeping seconds.
        quirk: multiplicative hardware-quirk factor applied at the end.
        total: final runtime in seconds.
    """

    iterations: int
    transfer_in: float
    transfer_out: float
    compute: float
    loop_overhead: float
    quirk: float
    total: float


def _stable_unit_float(*parts: object) -> float:
    """Deterministic float in [0, 1) from a hash of the parts."""
    h = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:8], "little") / 2**64


class TpuSimulator:
    """Deterministic performance simulator for one TPU target.

    Args:
        target: hardware description.
        quirk_amplitude: relative amplitude of the per-kernel hardware
            quirk term (0 disables it).
    """

    #: Imperfect compute/transfer overlap: the shorter phase still costs
    #: this fraction of itself on top of the longer phase.
    PIPELINE_LEAK = 0.15
    #: Fraction of the smaller opposing transfer that contends with the
    #: larger one on the HBM bus.
    BIDIRECTIONAL_CONTENTION = 0.6
    #: Cycles of loop bookkeeping per tile iteration.
    LOOP_OVERHEAD_CYCLES = 220.0
    #: Kernel launch overhead in seconds.
    LAUNCH_OVERHEAD_S = 1.8e-6
    #: Spill penalty per live tensor beyond the register file, as a
    #: fraction of compute time.
    SPILL_PENALTY = 0.03

    def __init__(self, target: TpuTarget = TPU_V2, quirk_amplitude: float = 0.12) -> None:
        self.target = target
        self.quirk_amplitude = quirk_amplitude
        # Schedule length and live-tensor peak scale linearly with (or are
        # independent of) the tile fraction, so the unit-scale results are
        # cached per kernel fingerprint across tile sweeps.
        self._sched_cache: dict[str, tuple[float, int]] = {}

    def _unit_schedule(self, kernel: Kernel) -> tuple[float, int]:
        """(unit-scale schedule length in cycles, live-tensor peak)."""
        fp = kernel.fingerprint()
        hit = self._sched_cache.get(fp)
        if hit is None:
            sched = list_schedule(kernel.graph)
            hit = (sched.length_cycles, live_tensor_peak(kernel.graph))
            self._sched_cache[fp] = hit
        return hit

    # -------------------------------------------------------------- plumbing
    def _effective_bandwidth(self, transfer_bytes: float) -> float:
        """Bytes/s achieved for one transfer of the given size.

        Small transfers are dominated by DMA setup latency, so achieved
        bandwidth ramps up with size (Appendix A point 3: "larger transfers
        are more efficient").
        """
        if transfer_bytes <= 0:
            return self.target.hbm_bandwidth_bps
        latency_s = self.target.transfer_latency_ns * 1e-9
        ideal_t = transfer_bytes / self.target.hbm_bandwidth_bps
        return transfer_bytes / (ideal_t + latency_s)

    def _alignment_utilization(self, kernel: Kernel, tile: TileConfig) -> float:
        """Fraction of peak compute achieved given tile alignment.

        The minor dimension packs into 128-wide lanes and the second-minor
        into 8 sublanes; a tile of 130 x 9 wastes almost half of each
        vector issue. MXU kernels are additionally sensitive to the minor
        dim reaching the 128x128 array width.
        """
        output = kernel.primary_output().shape
        if not tile.dims:
            return 1.0
        order = output.layout.minor_to_major
        minor = tile.dims[order[0]]
        util = minor / (np.ceil(minor / VECTOR_LANES) * VECTOR_LANES)
        if len(order) > 1:
            second = tile.dims[order[1]]
            sub = self.target.sublanes
            util *= second / (np.ceil(second / sub) * sub)
        return float(max(util, 0.05))

    def _quirk(self, kernel: Kernel, tile: TileConfig) -> float:
        """Deterministic multiplicative hardware-quirk factor.

        Composed of a per-kernel component and a smaller per-tile-bucket
        component, so it perturbs both absolute runtimes (hurting the
        analytical fusion baseline) and within-kernel tile rankings
        (hurting the analytical tile baseline) — while remaining a pure
        function of the inputs that a learned model can fit.
        """
        if self.quirk_amplitude <= 0:
            return 1.0
        fp = kernel.fingerprint()
        per_kernel = _stable_unit_float(self.target.name, fp)
        bucket = tuple(int(np.log2(max(d, 1))) for d in tile.dims)
        per_tile = _stable_unit_float(self.target.name, fp, bucket)
        amp = self.quirk_amplitude
        return float(
            (1.0 + amp * (2.0 * per_kernel - 1.0))
            * (1.0 + 0.5 * amp * (2.0 * per_tile - 1.0))
        )

    def _transfer_alignment(self, kernel: Kernel, tile: TileConfig) -> float:
        """Fraction of DMA bandwidth achieved given tile alignment.

        Scratchpad is written in lane-width words: a tile whose minor
        extent is not a multiple of the 128-lane width pads every row of
        the transfer, wasting bandwidth. The analytical model does not
        know this (Appendix A limitation (i)/(iv) territory), so it is one
        of the tile-dependent behaviours only visible in measurements.
        """
        output = kernel.primary_output().shape
        if not tile.dims:
            return 1.0
        order = output.layout.minor_to_major
        minor_idx = order[0]
        minor = tile.dims[minor_idx]
        full = output.dims[minor_idx]
        if minor >= full:
            return 1.0  # whole rows stream contiguously
        eff = minor / (np.ceil(minor / VECTOR_LANES) * VECTOR_LANES)
        # Padding wastes bandwidth sub-linearly (the DMA engine coalesces
        # neighbouring rows); sqrt softens the raw ratio, floored so tiny
        # tiles stay clearly costly without being absurd.
        return float(max(np.sqrt(eff), 0.3))

    # -------------------------------------------------------------- interface
    def breakdown(self, kernel: Kernel, tile: TileConfig) -> SimBreakdown:
        """Full per-component simulation of one (kernel, tile) pair."""
        output = kernel.primary_output().shape
        iterations = tile.iterations(output)
        in_bytes, out_bytes = tile_transfer_bytes(kernel, tile)

        dma_eff = self._transfer_alignment(kernel, tile)
        t_in = in_bytes / (self._effective_bandwidth(in_bytes) * dma_eff)
        t_out = out_bytes / (self._effective_bandwidth(out_bytes) * dma_eff)
        # (3) bidirectional contention: in and out DMAs share the HBM bus.
        transfer = max(t_in, t_out) + self.BIDIRECTIONAL_CONTENTION * min(t_in, t_out)

        # (4) resource-constrained schedule of one tile iteration.
        tile_fraction = tile.volume / max(output.num_elements, 1)
        unit_cycles, peak = self._unit_schedule(kernel)
        clock_hz = self.target.clock_ghz * 1e9
        util = self._alignment_utilization(kernel, tile)
        compute = unit_cycles * tile_fraction / clock_hz / util / self.target.mxu_count

        # (5) register spills.
        excess = max(0, peak - self.target.vector_registers)
        compute *= 1.0 + self.SPILL_PENALTY * excess

        loop = self.LOOP_OVERHEAD_CYCLES / clock_hz
        # (6) imperfect pipelining of compute with transfers.
        per_iter = (
            max(compute, transfer)
            + self.PIPELINE_LEAK * min(compute, transfer)
            + loop
        )
        quirk = self._quirk(kernel, tile)
        total = (iterations * per_iter + self.LAUNCH_OVERHEAD_S) * quirk
        return SimBreakdown(
            iterations=iterations,
            transfer_in=t_in,
            transfer_out=t_out,
            compute=compute,
            loop_overhead=loop,
            quirk=quirk,
            total=total,
        )

    def run(self, kernel: Kernel, tile: TileConfig | None = None) -> float:
        """Noise-free runtime in seconds (deterministic).

        A pure function of the body, the simulator and the tile, so it is
        memoised per kernel body (shared by every :meth:`Kernel.shell`),
        keyed on (simulator class, target, quirk amplitude, tile): a fusion
        search that meets a body again in another configuration does not
        simulate it again.
        """
        tile = tile or default_tile(kernel)
        runs = kernel._body_memo.setdefault("simulated", {})
        key = (type(self), self.target, self.quirk_amplitude, tile)
        total = runs.get(key)
        if total is None:
            total = runs[key] = self.breakdown(kernel, tile).total
        return total

    def measure(
        self,
        kernel: Kernel,
        tile: TileConfig | None = None,
        rng: np.random.Generator | None = None,
        runs: int = 3,
        noise_sigma: float = 0.02,
    ) -> float:
        """Measured runtime: minimum of ``runs`` noisy executions.

        Mirrors the paper's data-collection protocol ("the runtime target
        for each sample is the minimum runtime from three runs").
        """
        base = self.run(kernel, tile)
        if rng is None or runs <= 0 or noise_sigma <= 0:
            return base
        noise = rng.lognormal(mean=0.0, sigma=noise_sigma, size=runs)
        return float(base * noise.min())

    def run_program(
        self,
        kernels: list[Kernel],
        tiles: list[TileConfig] | None = None,
    ) -> float:
        """Whole-program runtime: the sum of kernel runtimes.

        TPUs execute one kernel at a time with no inter-kernel caching, so
        program runtime is additive over kernels (paper Sec. 2.1).

        Raises:
            ValueError: ``tiles`` is not one tile per kernel.
        """
        if tiles is None:
            tiles = [default_tile(k) for k in kernels]
        elif len(tiles) != len(kernels):
            raise ValueError(f"{len(tiles)} tiles for {len(kernels)} kernels")
        return sum(self.run(k, t) for k, t in zip(kernels, tiles))
