"""Additional dataset-structure tests: record containers and provenance."""
from unittest import mock

import numpy as np
import pytest

from repro.data import (
    FusionDataset,
    FusionRecord,
    TileRecord,
    TileSizeDataset,
    build_fusion_dataset,
    build_tile_dataset,
    extract_kernel_features,
    tile_features,
)
from repro.compiler import TileConfig, fuse_program
from repro.tpu import TPU_V3, TpuSimulator
from repro.workloads import vision


def measure_noise(sigma):
    """Measurement noise of every simulated execution, for one ``with``."""
    return mock.patch("repro.tpu.simulator.MEASURE_NOISE_SIGMA", sigma)


@pytest.fixture(scope="module")
def kernel():
    p = vision.image_embed(0)
    return fuse_program(p.graph, program_name=p.name)[1]


class TestRecordContainers:
    def test_tile_dataset_aggregates(self, kernel):
        feats = extract_kernel_features(kernel)
        tiles = [TileConfig((2, 2)), TileConfig((4, 4))]
        rec = TileRecord(
            kernel=kernel,
            features=feats,
            tiles=tiles,
            tile_feats=np.stack([tile_features(t) for t in tiles]),
            runtimes=np.array([1e-5, 2e-5]),
            program="p",
            family="f",
        )
        ds = TileSizeDataset(records=[rec, rec])
        assert ds.num_kernels == 2
        assert ds.num_samples == 4
        assert set(ds.by_program()) == {"p"}

    def test_fusion_dataset_aggregates(self, kernel):
        feats = extract_kernel_features(kernel)
        rec = FusionRecord(kernel=kernel, features=feats, runtime=1e-5, program="p", family="f")
        ds = FusionDataset(records=[rec])
        assert ds.num_samples == 1
        assert ds.by_program()["p"] == [rec]


class TestSimulatorTargetPlumbing:
    def test_tile_dataset_respects_simulator_target(self):
        """Datasets built against the v3 simulator have (mostly) faster
        targets than v2 for the same kernels."""
        p = vision.image_embed(0)
        kwargs = dict(max_kernels_per_program=4, max_tiles_per_kernel=4, seed=0)
        with measure_noise(0.0):
            v2 = build_tile_dataset([p], simulator=TpuSimulator(), **kwargs)
            v3 = build_tile_dataset([p], simulator=TpuSimulator(TPU_V3), **kwargs)
        v2_all = np.concatenate([r.runtimes for r in v2.records])
        v3_all = np.concatenate([r.runtimes for r in v3.records])
        assert v3_all.mean() < v2_all.mean()

    def test_zero_noise_matches_simulator_exactly(self):
        p = vision.image_embed(0)
        sim = TpuSimulator()
        with measure_noise(0.0):
            ds = build_tile_dataset(
                [p], simulator=sim, max_kernels_per_program=3,
                max_tiles_per_kernel=4, seed=1,
            )
        for rec in ds.records:
            expected = [sim.run(rec.kernel, t) for t in rec.tiles]
            np.testing.assert_allclose(rec.runtimes, expected, rtol=1e-12)

    def test_fusion_noise_perturbs_measurements_boundedly(self):
        p = vision.image_embed(0)
        with measure_noise(0.0):
            clean = build_fusion_dataset([p], configs_per_program=0, seed=1)
        with measure_noise(0.05):
            noisy = build_fusion_dataset([p], configs_per_program=0, seed=1)
        by_fp = {r.kernel.fingerprint(): r.runtime for r in clean.records}
        pairs = [
            (by_fp[r.kernel.fingerprint()], r.runtime)
            for r in noisy.records
            if r.kernel.fingerprint() in by_fp
        ]
        assert pairs
        clean_vals = np.array([a for a, _ in pairs])
        noisy_vals = np.array([b for _, b in pairs])
        assert not np.allclose(clean_vals, noisy_vals)
        np.testing.assert_allclose(clean_vals, noisy_vals, rtol=0.3)
