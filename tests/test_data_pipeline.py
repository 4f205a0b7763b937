"""Tests for dataset generation, batching and balanced sampling."""
import numpy as np
import pytest

from repro.data import (
    FusionBatchSampler,
    Scalers,
    TileBatchSampler,
    assemble_batch,
    build_fusion_dataset,
    build_tile_dataset,
)
from repro.workloads import sequence, vision


@pytest.fixture(scope="module")
def programs():
    return [vision.image_embed(0), sequence.feats2wave(0), vision.ssd(0)]


@pytest.fixture(scope="module")
def tile_ds(programs):
    return build_tile_dataset(
        programs, max_kernels_per_program=6, max_tiles_per_kernel=8, seed=0
    )


@pytest.fixture(scope="module")
def fusion_ds(programs):
    return build_fusion_dataset(programs, configs_per_program=2, seed=0)


class TestTileDataset:
    def test_nonempty_with_expected_counts(self, tile_ds, programs):
        assert tile_ds.num_kernels > 0
        assert tile_ds.num_samples >= 2 * tile_ds.num_kernels
        assert set(tile_ds.by_program()) == {p.name for p in programs}

    def test_every_record_has_multiple_tiles(self, tile_ds):
        for r in tile_ds.records:
            assert r.num_samples >= 2
            assert len(r.tiles) == len(r.runtimes) == len(r.tile_feats)

    def test_runtimes_positive(self, tile_ds):
        for r in tile_ds.records:
            assert (r.runtimes > 0).all()

    def test_kernel_cap_respected(self, programs):
        ds = build_tile_dataset(programs[:1], max_kernels_per_program=3, max_tiles_per_kernel=4)
        assert ds.num_kernels <= 3
        assert all(r.num_samples <= 4 for r in ds.records)

    def test_deterministic(self, programs):
        a = build_tile_dataset(programs[:1], max_kernels_per_program=4, max_tiles_per_kernel=4, seed=5)
        b = build_tile_dataset(programs[:1], max_kernels_per_program=4, max_tiles_per_kernel=4, seed=5)
        assert a.num_samples == b.num_samples
        np.testing.assert_allclose(a.records[0].runtimes, b.records[0].runtimes)


class TestFusionDataset:
    def test_deduplication(self, fusion_ds):
        fps = [r.kernel.fingerprint() for r in fusion_ds.records]
        assert len(fps) == len(set(fps))

    def test_provenance(self, fusion_ds, programs):
        assert set(fusion_ds.by_program()) <= {p.name for p in programs}
        for r in fusion_ds.records:
            assert r.runtime > 0
            assert r.family

    def test_more_configs_more_samples(self, programs):
        small = build_fusion_dataset(programs[:1], configs_per_program=1, seed=0)
        large = build_fusion_dataset(programs[:1], configs_per_program=5, seed=0)
        assert large.num_samples >= small.num_samples


class TestAssembleBatch:
    def test_alignment(self, tile_ds):
        recs = tile_ds.records[:3]
        items = [(r.features, r.tile_feats[0], float(r.runtimes[0]), g) for g, r in enumerate(recs)]
        batch = assemble_batch(items)
        assert batch.size == 3
        assert batch.context.num_graphs == 3
        total = sum(r.features.num_nodes for r in recs)
        assert batch.opcodes.shape == (total,)
        assert batch.node_feats.shape[0] == total
        assert batch.tile_feats.shape == (3, recs[0].tile_feats.shape[1])

    def test_pad_mask_matches_sizes(self, tile_ds):
        recs = tile_ds.records[:2]
        items = [(r.features, None, 1.0, i) for i, r in enumerate(recs)]
        batch = assemble_batch(items)
        for row, r in enumerate(recs):
            assert batch.pad_mask[row].sum() == r.features.num_nodes

    def test_pad_index_points_to_own_graph(self, tile_ds):
        recs = tile_ds.records[:3]
        items = [(r.features, None, 1.0, i) for i, r in enumerate(recs)]
        batch = assemble_batch(items)
        for row in range(3):
            valid = batch.pad_index[row][batch.pad_mask[row]]
            assert (batch.context.graph_ids[valid] == row).all()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            assemble_batch([])

    def test_scaling_applied(self, tile_ds):
        recs = tile_ds.records
        scalers = Scalers.fit_tile(recs)
        items = [(r.features, r.tile_feats[0], 1.0, i) for i, r in enumerate(recs[:4])]
        batch = assemble_batch(items, scalers)
        assert batch.node_feats.min() >= 0.0 and batch.node_feats.max() <= 1.0
        assert batch.tile_feats.min() >= 0.0 and batch.tile_feats.max() <= 1.0

    def test_none_tile_becomes_zeros(self, fusion_ds):
        r = fusion_ds.records[0]
        batch = assemble_batch([(r.features, None, r.runtime, 0)])
        assert (batch.tile_feats == 0).all()


class TestSamplers:
    def test_tile_sampler_groups(self, tile_ds):
        sampler = TileBatchSampler(tile_ds.records, kernels_per_batch=4, tiles_per_kernel=3, seed=0)
        items = sampler.draw_items()
        groups = [g for _, _, _, g in items]
        assert set(groups) == {0, 1, 2, 3}
        # All items of one group share identical features object.
        by_group = {}
        for f, t, y, g in items:
            by_group.setdefault(g, set()).add(id(f))
        assert all(len(v) == 1 for v in by_group.values())

    def test_tile_sampler_balances_families(self, tile_ds):
        sampler = TileBatchSampler(tile_ds.records, kernels_per_batch=8, tiles_per_kernel=2, seed=1)
        fams = {r.family for r in tile_ds.records}
        for _ in range(30):
            for f, _, _, _ in sampler.draw_items():
                pass
        # family buckets must cover all families present.
        assert set(sampler.family_names) == fams

    def test_fusion_sampler_batch_size(self, fusion_ds):
        sampler = FusionBatchSampler(fusion_ds.records, batch_size=10, seed=0)
        items = sampler.draw_items()
        assert len(items) == 10
        assert all(t is None for _, t, _, _ in items)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            TileBatchSampler([], kernels_per_batch=8, tiles_per_kernel=4, seed=0)
        with pytest.raises(ValueError):
            FusionBatchSampler([], batch_size=32, seed=0)
