"""Tests for the learned performance model: config, forward pass, training."""
import numpy as np
import pytest

from repro.data import Scalers, TileBatchSampler, assemble_batch, build_tile_dataset
from repro.models import (
    LearnedPerformanceModel,
    ModelConfig,
    TrainConfig,
    predict_tile_scores,
    train_tile_model,
)
from repro.models import trainer
from repro.workloads import vision


@pytest.fixture(scope="module")
def tile_ds():
    return build_tile_dataset(
        [vision.image_embed(0), vision.ssd(0)],
        max_kernels_per_program=5,
        max_tiles_per_kernel=6,
        seed=0,
    )


@pytest.fixture(scope="module")
def batch(tile_ds):
    sampler = TileBatchSampler(tile_ds.records, kernels_per_batch=3, tiles_per_kernel=2, seed=0)
    scalers = Scalers.fit_tile(tile_ds.records)
    return assemble_batch(sampler.draw_items(), scalers)


class TestModelConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(task="training")
        with pytest.raises(ValueError):
            ModelConfig(gnn="gcn")
        with pytest.raises(ValueError):
            ModelConfig(reduction="attention-pool")
        with pytest.raises(ValueError):
            ModelConfig(loss="mae")
        with pytest.raises(ValueError):
            ModelConfig(static_placement="edge")
        with pytest.raises(ValueError):
            ModelConfig(hidden_dim=0)

    def test_presets(self):
        t = ModelConfig.paper_best_tile()
        assert t.task == "tile" and t.gnn == "graphsage" and t.reduction == "lstm"
        f = ModelConfig.paper_best_fusion()
        assert f.task == "fusion" and f.reduction == "transformer" and f.loss == "mse"
        v = ModelConfig.vanilla("tile")
        assert v.reduction == "per-node" and not v.use_static_features

    def test_with_overrides(self):
        c = ModelConfig().with_overrides(gnn="gat", hidden_dim=16)
        assert c.gnn == "gat" and c.hidden_dim == 16


SMALL = dict(hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2, lstm_hidden=16)


class TestForwardPass:
    @pytest.mark.parametrize("gnn", ["graphsage", "gat", "none"])
    @pytest.mark.parametrize("reduction", ["per-node", "column-wise", "lstm", "transformer"])
    def test_all_architecture_combinations(self, batch, gnn, reduction):
        cfg = ModelConfig(task="tile", gnn=gnn, reduction=reduction, **SMALL)
        model = LearnedPerformanceModel(cfg, seed=0)
        out = model(batch)
        assert out.shape == (batch.size,)
        assert np.isfinite(out.numpy()).all()

    def test_undirected_variant(self, batch):
        cfg = ModelConfig(task="tile", directed=False, **SMALL)
        out = LearnedPerformanceModel(cfg)(batch)
        assert out.shape == (batch.size,)

    @pytest.mark.parametrize("tile_placement", ["node", "kernel"])
    @pytest.mark.parametrize("static_placement", ["node", "kernel"])
    def test_feature_placements(self, batch, tile_placement, static_placement):
        cfg = ModelConfig(
            task="tile",
            tile_placement=tile_placement,
            static_placement=static_placement,
            **SMALL,
        )
        out = LearnedPerformanceModel(cfg)(batch)
        assert np.isfinite(out.numpy()).all()

    def test_per_node_with_kernel_features_gets_correction(self, batch):
        cfg = ModelConfig(task="tile", reduction="per-node", tile_placement="kernel", **SMALL)
        model = LearnedPerformanceModel(cfg)
        assert model.kernel_correction is not None
        assert np.isfinite(model(batch).numpy()).all()

    def test_no_static_features(self, batch):
        cfg = ModelConfig(task="tile", use_static_features=False, **SMALL)
        assert np.isfinite(LearnedPerformanceModel(cfg)(batch).numpy()).all()

    def test_tile_features_affect_prediction(self, batch, tile_ds):
        cfg = ModelConfig(task="tile", **SMALL)
        model = LearnedPerformanceModel(cfg, seed=3)
        r = tile_ds.records[0]
        scalers = Scalers.fit_tile(tile_ds.records)
        b1 = assemble_batch([(r.features, r.tile_feats[0], 0.0, 0)], scalers)
        b2 = assemble_batch([(r.features, r.tile_feats[-1], 0.0, 0)], scalers)
        assert model.predict(b1)[0] != model.predict(b2)[0]

    def test_predict_is_deterministic_and_gradient_free(self, batch):
        cfg = ModelConfig(task="tile", **SMALL)
        model = LearnedPerformanceModel(cfg)
        a = model.predict(batch)
        b = model.predict(batch)
        np.testing.assert_allclose(a, b)
        assert all(p.grad is None for p in model.parameters())

    def test_predict_runtimes_positive(self, batch):
        cfg = ModelConfig(task="fusion", reduction="column-wise", loss="mse", **SMALL)
        model = LearnedPerformanceModel(cfg)
        assert (model.predict_runtimes(batch) > 0).all()

    def test_parameter_count_grows_with_width(self):
        small = LearnedPerformanceModel(ModelConfig(task="tile", **SMALL))
        big = LearnedPerformanceModel(ModelConfig(task="tile", hidden_dim=64))
        assert big.num_parameters() > small.num_parameters()


class TestTraining:
    def test_loss_decreases(self, tile_ds):
        cfg = ModelConfig(task="tile", reduction="column-wise", **SMALL)
        res = train_tile_model(
            tile_ds.records,
            cfg,
            TrainConfig(steps=80, kernels_per_batch=4, tiles_per_kernel=3, log_every=10),
        )
        first = res.loss_history[0][1]
        last = np.mean([v for _, v in res.loss_history[-3:]])
        assert last < first

    def test_task_mismatch_rejected(self, tile_ds):
        with pytest.raises(ValueError):
            train_tile_model(tile_ds.records, ModelConfig(task="fusion", loss="mse"))

    def test_predict_tile_scores_shape(self, tile_ds):
        cfg = ModelConfig(task="tile", reduction="column-wise", **SMALL)
        res = train_tile_model(
            tile_ds.records, cfg, TrainConfig(steps=5, log_every=5)
        )
        r = tile_ds.records[0]
        scores = predict_tile_scores(res.model, res.scalers, r)
        assert scores.shape == (r.num_samples,)

    def test_predict_tile_scores_do_not_depend_on_the_chunk(self, tile_ds, monkeypatch):
        """Scores are per sample: cutting a kernel's samples into forwards
        of ``PREDICT_CHUNK`` moves none of them."""
        cfg = ModelConfig(task="tile", reduction="column-wise", **SMALL)
        res = train_tile_model(tile_ds.records, cfg, TrainConfig(steps=5, log_every=5))
        r = max(tile_ds.records, key=lambda rec: rec.num_samples)
        whole = predict_tile_scores(res.model, res.scalers, r)
        monkeypatch.setattr(trainer, "PREDICT_CHUNK", 4)
        assert r.num_samples > 4
        np.testing.assert_allclose(
            predict_tile_scores(res.model, res.scalers, r), whole, rtol=1e-6
        )

    def test_state_dict_roundtrip_preserves_predictions(self, tile_ds, batch):
        cfg = ModelConfig(task="tile", **SMALL)
        m1 = LearnedPerformanceModel(cfg, seed=0)
        m2 = LearnedPerformanceModel(cfg, seed=99)
        m2.load_state_dict(m1.state_dict())
        np.testing.assert_allclose(m1.predict(batch), m2.predict(batch), rtol=1e-6)
