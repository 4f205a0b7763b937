"""End-to-end integration tests: corpus -> datasets -> training -> evaluation
-> autotuning, exercising the same paths as the benchmark harness (smaller)."""
import numpy as np
import pytest

from repro.autotuner import (
    HardwareEvaluator,
    LearnedEvaluator,
    model_fusion_autotune,
    model_tile_autotune,
)
from repro.data import build_fusion_dataset, build_tile_dataset
from repro.evaluation import evaluate_fusion_task, evaluate_tile_task
from repro.models import (
    LearnedPerformanceModel,
    ModelConfig,
    TrainConfig,
    predict_fusion_runtimes,
    predict_tile_scores,
    train_fusion_model,
    train_tile_model,
)
from repro.tpu import TpuSimulator
from repro.workloads import sequence, vision

SMALL = dict(hidden_dim=24, opcode_embedding_dim=12, gnn_layers=2, lstm_hidden=24)


@pytest.fixture(scope="module")
def tile_setup():
    train_progs = [vision.image_embed(0), vision.image_embed(1), vision.ssd(1), sequence.feats2wave(1)]
    test_progs = [vision.ssd(0)]
    train_ds = build_tile_dataset(train_progs, max_kernels_per_program=8, max_tiles_per_kernel=10, seed=0)
    test_ds = build_tile_dataset(test_progs, max_kernels_per_program=6, max_tiles_per_kernel=10, seed=1)
    cfg = ModelConfig(task="tile", reduction="column-wise", **SMALL)
    res = train_tile_model(
        train_ds.records, cfg,
        TrainConfig(steps=400, kernels_per_batch=6, tiles_per_kernel=5, log_every=100),
    )
    return train_ds, test_ds, res


class TestTileEndToEnd:
    def test_learned_model_learns_to_rank(self, tile_setup):
        train_ds, test_ds, res = tile_setup
        recs = train_ds.records[:8]
        truths = [r.runtimes for r in recs]
        scores = [predict_tile_scores(res.model, res.scalers, r) for r in recs]
        result = evaluate_tile_task(truths, scores)
        assert result.kendall > 0.5  # clearly better than random on train data

    def test_generalizes_to_unseen_program(self, tile_setup):
        _, test_ds, res = tile_setup
        recs = test_ds.records
        truths = [r.runtimes for r in recs]
        scores = [predict_tile_scores(res.model, res.scalers, r) for r in recs]
        result = evaluate_tile_task(truths, scores)
        assert result.kendall > 0.3
        assert result.ape < 60.0

    def test_learned_autotuner_top_k(self, tile_setup):
        _, test_ds, res = tile_setup
        kernels = [r.kernel for r in test_ds.records][:4]
        ev = LearnedEvaluator(res.model, res.scalers)
        hw = HardwareEvaluator(TpuSimulator())
        out = model_tile_autotune(kernels, ev, hw, top_k=5)
        assert out.program_runtime > 0
        assert out.hardware_evaluations == 4 * 5


@pytest.fixture(scope="module")
def fusion_setup():
    train_progs = [sequence.char2feats(0), sequence.char2feats(1), vision.image_embed(1), sequence.feats2wave(0)]
    test_prog = sequence.char2feats(2)
    train_ds = build_fusion_dataset(train_progs, configs_per_program=4, seed=0)
    test_ds = build_fusion_dataset([test_prog], configs_per_program=4, seed=1)
    cfg = ModelConfig(task="fusion", reduction="column-wise", loss="mse", **SMALL)
    res = train_fusion_model(
        train_ds.records, cfg, TrainConfig(steps=500, batch_size=16, log_every=100)
    )
    return train_ds, test_ds, res, test_prog


class TestFusionEndToEnd:
    def test_absolute_predictions_in_right_ballpark(self, fusion_setup):
        _, test_ds, res, _ = fusion_setup
        truths = np.array([r.runtime for r in test_ds.records])
        preds = predict_fusion_runtimes(res.model, res.scalers, test_ds.records)
        result = evaluate_fusion_task(truths, preds, min_runtime=0.0)
        assert result.mape < 80.0
        assert result.kendall > 0.3

    def test_fusion_autotuner_with_learned_model(self, fusion_setup):
        _, _, res, test_prog = fusion_setup
        ev = LearnedEvaluator(res.model, res.scalers)
        hw = HardwareEvaluator(TpuSimulator())
        out = model_fusion_autotune(
            test_prog, ev, hw, model_budget=40, hardware_budget=3, seed=0
        )
        # With verification on hardware, result should not be much worse
        # than the default configuration.
        assert out.runtime <= out.default_runtime * 1.10


class TestModelPersistence:
    def test_trained_model_roundtrip(self, tile_setup):
        train_ds, _, res = tile_setup
        clone = LearnedPerformanceModel(res.model.config, seed=123)
        clone.load_state_dict(res.model.state_dict())
        r = train_ds.records[0]
        a = predict_tile_scores(res.model, res.scalers, r)
        b = predict_tile_scores(clone, res.scalers, r)
        np.testing.assert_allclose(a, b, rtol=1e-5)
