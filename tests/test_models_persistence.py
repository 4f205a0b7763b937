"""Tests for model save/load and fine-tuning."""
import io
import json
import zipfile

import numpy as np
import pytest

from repro.data import build_fusion_dataset, build_tile_dataset
from repro.models import (
    LearnedPerformanceModel,
    ModelBlobError,
    ModelConfig,
    TrainConfig,
    TrainResult,
    fine_tune,
    load_model_bytes,
    predict_fusion_runtimes,
    predict_tile_scores,
    save_model_bytes,
    train_fusion_model,
    train_tile_model,
    validate_model_blob,
)
from repro.models import serialize
from repro.workloads import sequence, vision

SMALL = dict(hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2, lstm_hidden=16)


@pytest.fixture(scope="module")
def tile_result():
    ds = build_tile_dataset(
        [vision.image_embed(0)], max_kernels_per_program=5, max_tiles_per_kernel=6, seed=0
    )
    cfg = ModelConfig(task="tile", reduction="column-wise", **SMALL)
    res = train_tile_model(ds.records, cfg, TrainConfig(steps=40, log_every=20))
    return ds, res


@pytest.fixture(scope="module")
def fusion_result():
    ds = build_fusion_dataset([sequence.char2feats(0)], configs_per_program=2, seed=0)
    cfg = ModelConfig(task="fusion", reduction="column-wise", loss="mse", **SMALL)
    res = train_fusion_model(ds.records, cfg, TrainConfig(steps=40, batch_size=8, log_every=20))
    return ds, res


class TestSaveLoad:
    def test_tile_roundtrip(self, tile_result, tmp_path):
        ds, res = tile_result
        path = tmp_path / "tile_model.npz"
        path.write_bytes(save_model_bytes(res))
        loaded = load_model_bytes(path.read_bytes())
        assert loaded.model.config == res.model.config
        r = ds.records[0]
        np.testing.assert_allclose(
            predict_tile_scores(res.model, res.scalers, r),
            predict_tile_scores(loaded.model, loaded.scalers, r),
            rtol=1e-3, atol=1e-6,
        )

    def test_fusion_roundtrip(self, fusion_result, tmp_path):
        ds, res = fusion_result
        path = tmp_path / "fusion_model.npz"
        path.write_bytes(save_model_bytes(res))
        loaded = load_model_bytes(path.read_bytes())
        np.testing.assert_allclose(
            predict_fusion_runtimes(res.model, res.scalers, ds.records[:4]),
            predict_fusion_runtimes(loaded.model, loaded.scalers, ds.records[:4]),
            rtol=1e-3, atol=1e-6,
        )

    def test_bytes_roundtrip_no_disk(self, tile_result):
        ds, res = tile_result
        blob = save_model_bytes(res)
        loaded = load_model_bytes(blob)
        assert loaded.model.config == res.model.config
        for name, arr in res.model.state_dict().items():
            np.testing.assert_allclose(
                arr, loaded.model.state_dict()[name], rtol=1e-5, atol=1e-8
            )
        r = ds.records[0]
        np.testing.assert_allclose(
            predict_tile_scores(res.model, res.scalers, r),
            predict_tile_scores(loaded.model, loaded.scalers, r),
            rtol=1e-3, atol=1e-6,
        )

    def test_bytes_and_file_forms_are_interchangeable(self, tile_result, tmp_path):
        _, res = tile_result
        path = tmp_path / "m.npz"
        path.write_bytes(save_model_bytes(res))
        via_file = load_model_bytes(path.read_bytes())
        via_bytes = load_model_bytes(save_model_bytes(res))
        # The two transports must agree exactly — same archive format.
        for name, arr in via_bytes.model.state_dict().items():
            np.testing.assert_array_equal(arr, via_file.model.state_dict()[name])

    def test_model_file_is_the_sealed_blob(self, tile_result, tmp_path):
        _, res = tile_result
        path = tmp_path / "m.ckpt"
        path.write_bytes(save_model_bytes(res))
        data = bytearray(path.read_bytes())
        validate_model_blob(bytes(data))
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ModelBlobError, match="checksum"):
            load_model_bytes(path.read_bytes())

    def test_scaler_state_preserved(self, tile_result, tmp_path):
        _, res = tile_result
        path = tmp_path / "m.npz"
        path.write_bytes(save_model_bytes(res))
        loaded = load_model_bytes(path.read_bytes())
        np.testing.assert_allclose(res.scalers.node.lo, loaded.scalers.node.lo)
        np.testing.assert_allclose(res.scalers.tile.hi, loaded.scalers.tile.hi)


def _assert_same_checkpoint(a, b):
    assert a.model.config == b.model.config
    want, got = a.model.state_dict(), b.model.state_dict()
    assert want.keys() == got.keys()
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype and got[name].tobytes() == arr.tobytes(), name
    for block in ("node", "tile", "static"):
        for key, arr in getattr(a.scalers, block).state().items():
            other = getattr(b.scalers, block).state()[key]
            assert other.dtype == arr.dtype and other.tobytes() == arr.tobytes(), (block, key)


class TestPayloadFormat:
    def test_payload_is_stored_uncompressed(self, tile_result):
        _, res = tile_result
        blob = save_model_bytes(res)
        payload = blob[len(serialize.BLOB_MAGIC) + serialize._BLOB_HEADER.size:]
        with zipfile.ZipFile(io.BytesIO(payload)) as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}

    @pytest.mark.parametrize("which", ["tile", "fusion"])
    def test_compressed_blobs_still_load_bitwise(self, which, tile_result, fusion_result):
        """Blobs sealed before the payload stopped being deflated (a
        ``savez_compressed`` archive in the same envelope) load to the same
        state dict and scalers, bit for bit."""
        _, res = {"tile": tile_result, "fusion": fusion_result}[which]
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **serialize._payload(res))
        old_blob = serialize._seal_blob(buffer.getvalue())
        validate_model_blob(old_blob)
        from_old = load_model_bytes(old_blob)
        _assert_same_checkpoint(res, from_old)
        _assert_same_checkpoint(load_model_bytes(save_model_bytes(res)), from_old)


#: The ``ModelConfig`` fields that became constants, at the values every
#: checkpoint written while they were fields stored.
RETIRED_FIELDS = dict(
    node_final_layers=2, transformer_layers=1, transformer_heads=4, gat_heads=2, dropout=0.0
)


def _sealed_with_config_fields(res, **fields) -> bytes:
    """``res`` sealed with ``fields`` added to its config JSON."""
    payload = serialize._payload(res)
    config = json.loads(bytes(payload["config"]).decode())
    payload["config"] = np.frombuffer(json.dumps({**config, **fields}).encode(), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    return serialize._seal_blob(buffer.getvalue())


class TestRetiredConfigFields:
    @pytest.fixture(scope="class")
    def results(self, tile_result, fusion_result):
        """A trained tile model, and paper-best fusion and GAT models (the
        head counts shape no parameter)."""
        (tile_ds, tile), (fusion_ds, fusion) = tile_result, fusion_result
        models = {
            "tile": tile,
            "fusion_transformer": TrainResult(
                LearnedPerformanceModel(ModelConfig.paper_best_fusion(), seed=1), fusion.scalers
            ),
            "gat": TrainResult(
                LearnedPerformanceModel(ModelConfig(gnn="gat", **SMALL), seed=2), tile.scalers
            ),
        }
        return tile_ds, fusion_ds, models

    def test_old_checkpoints_load_and_score_bitwise(self, results):
        tile_ds, fusion_ds, models = results
        for name, res in models.items():
            fresh = load_model_bytes(save_model_bytes(res))
            old = load_model_bytes(_sealed_with_config_fields(res, **RETIRED_FIELDS))
            assert old.model.config == fresh.model.config == res.model.config
            _assert_same_checkpoint(fresh, old)
            if res.model.config.task == "tile":
                got = predict_tile_scores(old.model, old.scalers, tile_ds.records[0])
                want = predict_tile_scores(fresh.model, fresh.scalers, tile_ds.records[0])
            else:
                got = predict_fusion_runtimes(old.model, old.scalers, fusion_ds.records[:4])
                want = predict_fusion_runtimes(fresh.model, fresh.scalers, fusion_ds.records[:4])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize(
        "field, value",
        [
            ("node_final_layers", 1),
            ("transformer_layers", 2),
            ("transformer_heads", 2),
            ("gat_heads", 4),
            ("dropout", 0.1),
        ],
    )
    def test_another_value_fails_typed_naming_the_field(self, results, field, value):
        _, _, models = results
        blob = _sealed_with_config_fields(
            models["fusion_transformer"], **{**RETIRED_FIELDS, field: value}
        )
        validate_model_blob(blob)  # the envelope is intact
        with pytest.raises(ModelBlobError, match=f"{field}={value!r}"):
            load_model_bytes(blob)


class TestFineTune:
    def test_fine_tune_improves_on_new_program(self, tile_result):
        ds, res = tile_result
        new_ds = build_tile_dataset(
            [vision.ssd(0)], max_kernels_per_program=5, max_tiles_per_kernel=6, seed=2
        )
        from repro.evaluation import evaluate_tile_task

        def quality(model_result):
            truths = [r.runtimes for r in new_ds.records]
            scores = [
                predict_tile_scores(model_result.model, model_result.scalers, r)
                for r in new_ds.records
            ]
            return evaluate_tile_task(truths, scores).kendall

        before = quality(res)
        tuned = fine_tune(res, new_ds.records, TrainConfig(steps=120, log_every=40))
        after = quality(tuned)
        assert after >= before - 0.05  # typically improves; never collapses

    def test_fine_tune_keeps_scalers(self, tile_result):
        ds, res = tile_result
        tuned = fine_tune(res, ds.records, TrainConfig(steps=10, log_every=10))
        assert tuned.scalers is res.scalers

    def test_fine_tune_extends_history(self, fusion_result):
        ds, res = fusion_result
        n = len(res.loss_history)
        tuned = fine_tune(res, ds.records, TrainConfig(steps=20, batch_size=8, log_every=10))
        assert len(tuned.loss_history) > n
