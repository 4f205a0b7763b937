"""TPU hardware target descriptions.

Parameters approximate one core of TPU v2 and v3 at the level of detail the
cost models need: clock, HBM bandwidth, number of 128x128 systolic-array
matrix units and vector register file size (the scratchpad capacity is
the compiler's, ``repro.compiler.tiling.SCRATCHPAD_BYTES``, and so is the
VPU lane count, ``repro.compiler.scheduling.VECTOR_LANES``).
TPU v3 has higher memory bandwidth and twice as many matrix units as v2
(paper Sec. 2.1), which is exactly how the two specs below differ.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TpuTarget:
    """One TPU core as seen by the performance models.

    Attributes:
        name: target identifier ("tpu_v2", "tpu_v3").
        clock_ghz: core clock in GHz.
        hbm_bandwidth_gbps: nominal HBM bandwidth in GB/s.
        mxu_count: number of 128x128 systolic matrix units.
        sublanes: vector register sublane count (second-minor granularity).
        vector_registers: architectural 2D vector registers available to the
            register allocator (drives the spill model).
        transfer_latency_ns: fixed DMA setup latency per tile transfer.
    """

    name: str
    clock_ghz: float
    hbm_bandwidth_gbps: float
    mxu_count: int
    sublanes: int = 8
    vector_registers: int = 64
    transfer_latency_ns: float = 500.0

    @property
    def peak_matmul_flops(self) -> float:
        """Peak MXU FLOP/s (2 flops per MAC per cell per cycle)."""
        return self.mxu_count * 2.0 * 128 * 128 * self.clock_ghz * 1e9

    @property
    def hbm_bandwidth_bps(self) -> float:
        """Nominal HBM bandwidth in bytes/second."""
        return self.hbm_bandwidth_gbps * 1e9


TPU_V2 = TpuTarget(
    name="tpu_v2",
    clock_ghz=0.70,
    hbm_bandwidth_gbps=300.0,
    mxu_count=1,
)

TPU_V3 = TpuTarget(
    name="tpu_v3",
    clock_ghz=0.94,
    hbm_bandwidth_gbps=450.0,
    mxu_count=2,
)

TARGETS: dict[str, TpuTarget] = {t.name: t for t in (TPU_V2, TPU_V3)}


def get_target(name: str) -> TpuTarget:
    """Look up a target by name.

    Raises:
        KeyError: if the name is unknown.
    """
    return TARGETS[name]
