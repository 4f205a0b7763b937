"""Integration test: the layout axis composes with the learned model.

The learned model's node features include the layout block, so a model can
in principle distinguish layout variants of a kernel; this test checks the
plumbing end to end (features differ, predictions differ, and the layout
pass can be driven by a learned evaluator's tile scores).
"""
import numpy as np
import pytest

from repro.autotuner import LearnedEvaluator
from repro.compiler import (
    Kernel,
    best_output_layout,
    default_tile,
    enumerate_output_layouts,
    with_output_layout,
)
from repro.data import build_fusion_dataset, build_tile_dataset, extract_kernel_features
from repro.hlo import GraphBuilder, Layout
from repro.models import ModelConfig, TrainConfig, train_fusion_model, train_tile_model
from repro.workloads import vision


def skinny_kernel() -> Kernel:
    b = GraphBuilder("skinny")
    x = b.parameter((8, 128))
    w = b.constant((128, 2048))
    y = b.dot(x, w)
    b.tanh(y)
    return Kernel(graph=b.build(), kind="fusion")


@pytest.fixture(scope="module")
def tile_model():
    ds = build_tile_dataset(
        [vision.image_embed(0)], max_kernels_per_program=4,
        max_tiles_per_kernel=6, seed=0,
    )
    cfg = ModelConfig(
        task="tile", reduction="column-wise",
        hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2,
    )
    return train_tile_model(ds.records, cfg, TrainConfig(steps=20, log_every=10))


@pytest.fixture(scope="module")
def fusion_model():
    ds = build_fusion_dataset([vision.image_embed(0)], configs_per_program=2, seed=0)
    cfg = ModelConfig(
        task="fusion", reduction="column-wise", loss="mse",
        hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2,
    )
    return train_fusion_model(ds.records, cfg, TrainConfig(steps=10, log_every=10))


class TestLayoutModelIntegration:
    def test_layout_changes_node_features(self):
        k = skinny_kernel()
        flipped = with_output_layout(k, Layout((0, 1)))
        f1 = extract_kernel_features(k)
        f2 = extract_kernel_features(flipped)
        assert not np.allclose(f1.node_feats, f2.node_feats)

    def test_learned_evaluator_scores_layout_variants(self, tile_model):
        ev = LearnedEvaluator(tile_model.model, tile_model.scalers)
        k = skinny_kernel()
        layout, cost = best_output_layout(
            k, lambda kk: float(ev.score_tiles_batched(kk, [default_tile(kk)])[0]), cap=2
        )
        assert np.isfinite(cost)
        assert layout in (Layout((1, 0)), Layout((0, 1)))


class TestLayoutVariantsAreDistinctKernels:
    """Every fingerprint-keyed memo (evaluator features and predictions,
    the serving result cache, worker kernel interning) must see a relaid-out
    kernel as another kernel: a warm evaluator answers what fresh ones do."""

    def variants(self):
        k = skinny_kernel()
        return [with_output_layout(k, layout) for layout in enumerate_output_layouts(k)]

    def test_each_layout_has_its_own_fingerprint(self):
        variants = self.variants()
        assert len(variants) == 2
        assert len({v.fingerprint() for v in variants}) == len(variants)
        assert variants[0].fingerprint() == skinny_kernel().fingerprint()  # the default layout

    def test_warm_evaluator_scores_tiles_like_fresh_ones(self, tile_model):
        warm = LearnedEvaluator(tile_model.model, tile_model.scalers)
        scores = []
        for variant in self.variants():
            tiles = [default_tile(variant)]
            fresh = LearnedEvaluator(tile_model.model, tile_model.scalers)
            scores.append(fresh.score_tiles_batched(variant, tiles))
            assert warm.score_tiles_batched(variant, tiles).tobytes() == scores[-1].tobytes()
        assert scores[0][0] != scores[1][0]  # the layouts really do score differently

    def test_warm_evaluator_prices_kernels_like_fresh_ones(self, fusion_model):
        warm = LearnedEvaluator(fusion_model.model, fusion_model.scalers)
        priced = []
        for variant in self.variants():
            fresh = LearnedEvaluator(fusion_model.model, fusion_model.scalers)
            priced.append(fresh.kernel_runtime(variant))
            assert warm.kernel_runtime(variant) == priced[-1]
        assert priced[0] != priced[1]
