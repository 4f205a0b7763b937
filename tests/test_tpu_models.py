"""Tests for the TPU targets, analytical model and simulator."""
from unittest import mock

import numpy as np
import pytest

from repro.compiler import Kernel, TileConfig, default_tile, enumerate_tile_sizes
from repro.hlo import GraphBuilder
from repro.tpu import (
    TPU_V2,
    TPU_V3,
    AnalyticalModel,
    CalibratedAnalyticalModel,
    TpuSimulator,
    calibrate_kind_scales,
)


def dense_kernel(m=256, k=128, n=512):
    b = GraphBuilder("dense")
    x = b.parameter((m, k))
    w = b.constant((k, n))
    y = b.dot(x, w)
    b.tanh(y)
    return Kernel(graph=b.build(), kind="fusion")


def formatting_kernel():
    b = GraphBuilder("fmt")
    x = b.parameter((32, 16))
    b.transpose(x, (1, 0))
    return Kernel(graph=b.build(), kind="data_formatting")


class TestSpecs:
    def test_v3_has_more_compute_and_bandwidth(self):
        assert TPU_V3.mxu_count == 2 * TPU_V2.mxu_count
        assert TPU_V3.hbm_bandwidth_gbps > TPU_V2.hbm_bandwidth_gbps


class TestAnalyticalModel:
    def test_estimate_positive(self):
        m = AnalyticalModel()
        k = dense_kernel()
        assert m.estimate(k, default_tile(k)) > 0

    def test_breakdown_total_consistent(self):
        m = AnalyticalModel()
        k = dense_kernel()
        t = default_tile(k)
        bd = m.breakdown(k, t)
        expected = bd.iterations * max(bd.transfer_time, bd.compute_time) + bd.overhead
        assert bd.total == pytest.approx(expected)

    def test_rejects_kernels_without_tile_options(self):
        m = AnalyticalModel()
        k = formatting_kernel()
        with pytest.raises(ValueError):
            m.estimate(k, TileConfig((16, 32)))

    def test_deterministic(self):
        m = AnalyticalModel()
        k = dense_kernel()
        t = default_tile(k)
        assert m.estimate(k, t) == m.estimate(k, t)


class TestCalibration:
    def test_calibrated_scales_match_ratio(self):
        model = AnalyticalModel()
        k = dense_kernel()
        t = default_tile(k)
        raw = model.estimate(k, t)
        scales = calibrate_kind_scales([k], [raw * 2.0], model)
        assert scales["fusion"] == pytest.approx(2.0)
        cal = CalibratedAnalyticalModel(model, scales)
        assert cal.estimate(k, t) == pytest.approx(raw * 2.0)

    def test_unseen_kind_defaults_to_one(self):
        model = AnalyticalModel()
        scales = calibrate_kind_scales([], [], model)
        assert all(v == 1.0 for v in scales.values())


class TestSimulator:
    def test_deterministic(self):
        sim = TpuSimulator()
        k = dense_kernel()
        t = default_tile(k)
        assert sim.run(k, t) == sim.run(k, t)

    def test_noise_min_of_runs_below_or_equal_single(self):
        sim = TpuSimulator()
        k = dense_kernel()
        t = default_tile(k)
        base = sim.run(k, t)
        rng = np.random.default_rng(0)
        with mock.patch("repro.tpu.simulator.MEASURE_NOISE_SIGMA", 0.05):
            vals = [sim.measure(k, t, rng=rng) for _ in range(20)]
        # min-of-3 lognormal: most samples cluster near (slightly below) base.
        assert np.median(vals) < base * 1.05
        assert all(v > 0 for v in vals)

    def test_measure_is_the_minimum_of_measure_runs_draws(self):
        """The paper's protocol, read from the module constants at call time:
        the fastest of ``MEASURE_RUNS`` log-normal executions."""
        sim = TpuSimulator()
        k = dense_kernel()
        base = sim.run(k)
        for runs, sigma in ((3, 0.02), (1, 0.1)):
            with mock.patch.multiple(
                "repro.tpu.simulator", MEASURE_RUNS=runs, MEASURE_NOISE_SIGMA=sigma
            ):
                got = sim.measure(k, rng=np.random.default_rng(7))
            draws = np.random.default_rng(7).lognormal(0.0, sigma, size=runs)
            assert got == base * draws.min()

    def test_measure_without_rng_is_noise_free(self):
        sim = TpuSimulator()
        k = dense_kernel()
        assert sim.measure(k) == sim.run(k)

    def test_v3_faster_on_large_kernels(self):
        k = dense_kernel(m=512, k=256, n=1024)
        t = default_tile(k)
        assert TpuSimulator(TPU_V3, quirk_amplitude=0).run(k, t) < TpuSimulator(
            TPU_V2, quirk_amplitude=0
        ).run(k, t)

    def test_quirk_amplitude_zero_is_clean(self):
        k = dense_kernel()
        t = default_tile(k)
        sim = TpuSimulator(quirk_amplitude=0.0)
        assert sim.breakdown(k, t).quirk == 1.0

    def test_quirk_bounded(self):
        sim = TpuSimulator(quirk_amplitude=0.12)
        k = dense_kernel()
        for t in enumerate_tile_sizes(k)[:10]:
            q = sim.breakdown(k, t).quirk
            assert 0.8 < q < 1.25

    def test_breakdown_total_positive_components(self):
        sim = TpuSimulator()
        k = dense_kernel()
        bd = sim.breakdown(k, default_tile(k))
        assert bd.total > 0
        assert bd.compute > 0
        assert bd.transfer_out > 0
        assert bd.iterations >= 1

    def test_program_runtime_additive(self):
        sim = TpuSimulator()
        k1, k2 = dense_kernel(), dense_kernel(m=128)
        total = sim.run_program([k1, k2])
        assert total == pytest.approx(sim.run(k1) + sim.run(k2))

    def test_program_runtime_rejects_mismatched_tiles(self):
        sim = TpuSimulator()
        k1, k2 = dense_kernel(), dense_kernel(m=128)
        with pytest.raises(ValueError, match="1 tiles for 2 kernels"):
            sim.run_program([k1, k2], [default_tile(k1)])

    def test_tiny_tiles_slower_than_default(self):
        sim = TpuSimulator(quirk_amplitude=0)
        k = dense_kernel()
        tiny = TileConfig((1, 1))
        assert sim.run(k, tiny) > sim.run(k, default_tile(k))

    def test_misaligned_minor_tile_penalized(self):
        sim = TpuSimulator(quirk_amplitude=0)
        k = dense_kernel(m=256, k=128, n=512)
        aligned = TileConfig((64, 128))
        misaligned = TileConfig((64, 144))  # same-ish volume, off-lane minor
        per_aligned = sim.breakdown(k, aligned)
        per_mis = sim.breakdown(k, misaligned)
        # Per-element cost should be worse for the misaligned tile.
        assert per_mis.transfer_in / misaligned.volume > per_aligned.transfer_in / aligned.volume * 0.9

    def test_schedule_cache_consistency(self):
        sim = TpuSimulator()
        k = dense_kernel()
        tiles = enumerate_tile_sizes(k)[:5]
        first = [sim.run(k, t) for t in tiles]
        second = [sim.run(k, t) for t in tiles]  # cached path
        assert first == second

    def test_runs_memoised_per_body_and_simulator(self):
        """A body's simulated runtimes are kept in its memo, shared by its
        shells, and keyed on everything the answer depends on besides the
        body: another target, quirk amplitude or tile is simulated afresh."""
        body = dense_kernel()
        shell = body.shell("g.k1", 1)
        tiles = enumerate_tile_sizes(body)[:3]
        sims = [TpuSimulator(), TpuSimulator(quirk_amplitude=0.0), TpuSimulator(TPU_V3)]
        for sim in sims:
            for t in tiles:
                expected = sim.breakdown(dense_kernel(), t).total
                assert sim.run(shell, t) == expected
                assert sim.run(body, t) == expected
        assert len(body._body_memo["simulated"]) == len(sims) * len(tiles)
        assert len({sim.run(body, tiles[0]) for sim in sims}) == len(sims)
