"""TPU hardware target descriptions.

A target holds what TPU v2 and v3 differ in, and nothing else: its name,
clock, HBM bandwidth and number of 128x128 systolic-array matrix units.
TPU v3 has higher memory bandwidth and twice as many matrix units as v2
(paper Sec. 2.1), which is exactly how the two specs below differ. What
the two cores share is a constant beside its one reader: the simulator's
sublane count, vector register file and DMA setup latency
(``repro.tpu.simulator.SUBLANES``, ``VECTOR_REGISTERS``,
``TRANSFER_LATENCY_NS``), the compiler's scratchpad capacity
(``repro.compiler.tiling.SCRATCHPAD_BYTES``) and VPU lane count
(``repro.compiler.scheduling.VECTOR_LANES``).
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
    """

    name: str
    clock_ghz: float
    hbm_bandwidth_gbps: float
    mxu_count: int

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
