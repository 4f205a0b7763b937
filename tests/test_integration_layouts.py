"""Integration test: the layout axis composes with the learned model.

The learned model's node features include the layout block, so a model can
in principle distinguish layout variants of a kernel; this test checks the
plumbing end to end (features differ, predictions differ, and the layout
pass can be driven by a learned evaluator's tile scores).
"""
import numpy as np

from repro.autotuner import LearnedEvaluator
from repro.compiler import (
    Kernel,
    best_output_layout,
    default_tile,
    with_output_layout,
)
from repro.data import build_tile_dataset, extract_kernel_features
from repro.hlo import GraphBuilder, Layout
from repro.models import ModelConfig, TrainConfig, train_tile_model
from repro.workloads import vision


def skinny_kernel() -> Kernel:
    b = GraphBuilder("skinny")
    x = b.parameter((8, 128))
    w = b.constant((128, 2048))
    y = b.dot(x, w)
    b.tanh(y)
    return Kernel(graph=b.build(), kind="fusion")


class TestLayoutModelIntegration:
    def test_layout_changes_node_features(self):
        k = skinny_kernel()
        flipped = with_output_layout(k, Layout((0, 1)))
        f1 = extract_kernel_features(k)
        f2 = extract_kernel_features(flipped)
        assert not np.allclose(f1.node_feats, f2.node_feats)

    def test_learned_evaluator_scores_layout_variants(self):
        ds = build_tile_dataset(
            [vision.image_embed(0)], max_kernels_per_program=4,
            max_tiles_per_kernel=6, seed=0,
        )
        cfg = ModelConfig(
            task="tile", reduction="column-wise",
            hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2,
        )
        res = train_tile_model(ds.records, cfg, TrainConfig(steps=20, log_every=10))
        ev = LearnedEvaluator(res.model, res.scalers)
        k = skinny_kernel()
        layout, cost = best_output_layout(
            k, lambda kk: float(ev.score_tiles_batched(kk, [default_tile(kk)])[0]), cap=2
        )
        assert np.isfinite(cost)
        assert layout in (Layout((1, 0)), Layout((0, 1)))
