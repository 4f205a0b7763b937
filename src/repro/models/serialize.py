"""Persistence for trained performance models.

A trained model is (config, parameters, feature scalers); all three are
saved into one npz archive so a model trained once can be shipped to the
compiler/autotuner without retraining — the deployment mode the paper
targets (the model is trained offline and queried at compile time).

There is one checkpoint format, the sealed blob of
:func:`save_model_bytes` / :func:`load_model_bytes`: the npz archive in an
integrity envelope of a magic tag, the payload length and a SHA-256
digest. A checkpoint file holds exactly those bytes. The in-memory form
is what the serving layer's model registry uses to hold versioned
checkpoints, hot-swap them, spill them to disk, and ship them to worker
processes and remote nodes.

Because checkpoints cross sockets, pipes and disk, every load
(and :func:`validate_model_blob`) detects truncated or corrupted bytes up
front and raises the typed :class:`ModelBlobError` instead of failing
deep inside npz deserialization.
"""
from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import struct

import numpy as np

from ..data.batching import Scalers
from ..data.features import FeatureScaler
from ..nn.attention import ENCODER_LAYERS, HEADS
from ..nn.graph_layers import GAT_HEADS
from .config import ModelConfig
from .model import NODE_FINAL_LAYERS, LearnedPerformanceModel
from .trainer import TrainResult


#: Envelope tag of a checkpoint blob; the trailing byte is a format version.
BLOB_MAGIC = b"RPRMDL\x01"

#: Envelope layout after the magic: payload length (u64 BE) + SHA-256 digest.
_BLOB_HEADER = struct.Struct(">Q32s")

#: ``ModelConfig`` fields that checkpoints written before they became
#: constants still carry, with the one value this build can load.
_RETIRED_FIELDS = {
    "node_final_layers": NODE_FINAL_LAYERS,
    "transformer_layers": ENCODER_LAYERS,
    "transformer_heads": HEADS,
    "gat_heads": GAT_HEADS,
    "dropout": 0.0,
}


class ModelBlobError(ValueError):
    """Checkpoint bytes are not a valid model blob.

    Raised on a missing/unknown envelope, a truncated payload, a checksum
    mismatch, or an archive that fails to decode — the typed failure a
    registry, socket peer, or disk loader can catch without knowing npz
    internals.
    """


def _seal_blob(payload: bytes) -> bytes:
    """Wrap npz payload bytes in the magic + length + digest envelope."""
    digest = hashlib.sha256(payload).digest()
    return BLOB_MAGIC + _BLOB_HEADER.pack(len(payload), digest) + payload


def _unseal_blob(data: bytes) -> bytes:
    """Validate the envelope and return the npz payload."""
    if data[: len(BLOB_MAGIC)] != BLOB_MAGIC:
        raise ModelBlobError("not a model blob: missing checkpoint envelope")
    offset = len(BLOB_MAGIC)
    if len(data) < offset + _BLOB_HEADER.size:
        raise ModelBlobError(
            f"truncated model blob: {len(data)} bytes is shorter than the envelope"
        )
    length, digest = _BLOB_HEADER.unpack_from(data, offset)
    payload = data[offset + _BLOB_HEADER.size:]
    if len(payload) != length:
        raise ModelBlobError(
            f"truncated model blob: envelope declares {length} payload bytes, "
            f"got {len(payload)}"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise ModelBlobError("corrupt model blob: SHA-256 checksum mismatch")
    return payload


def validate_model_blob(data: bytes) -> None:
    """Check blob integrity (envelope, length, checksum) without decoding.

    Raises:
        ModelBlobError: if the bytes cannot possibly hold a checkpoint.
    """
    _unseal_blob(bytes(data))


def _payload(result: TrainResult) -> dict[str, np.ndarray]:
    """Flatten (config, parameters, scalers) into one npz-able dict."""
    payload: dict[str, np.ndarray] = {}
    for name, arr in result.model.state_dict().items():
        payload[f"param/{name}"] = arr
    for block in ("node", "tile", "static"):
        scaler: FeatureScaler = getattr(result.scalers, block)
        state = scaler.state()
        payload[f"scaler/{block}/lo"] = state["lo"]
        payload[f"scaler/{block}/hi"] = state["hi"]
    config_json = json.dumps(dataclasses.asdict(result.model.config))
    payload["config"] = np.frombuffer(config_json.encode(), dtype=np.uint8)
    return payload


def _config_from_json(fields: dict) -> ModelConfig:
    """The :class:`ModelConfig` a checkpoint's config JSON describes.

    A retired field at this build's value is dropped. At any other value
    the checkpoint is a different architecture (a head count changes no
    parameter shape, so it would load and score wrong) and is refused.
    """
    for name, value in _RETIRED_FIELDS.items():
        stored = fields.pop(name, value)
        if stored != value:
            raise ModelBlobError(
                f"model blob has retired config field {name}={stored!r}; "
                f"this build loads only {name}={value!r}"
            )
    return ModelConfig(**fields)


def _from_archive(archive) -> TrainResult:
    """Rebuild a :class:`TrainResult` from a loaded npz archive."""
    config = _config_from_json(json.loads(bytes(archive["config"]).decode()))
    model = LearnedPerformanceModel(config)
    state = {
        name[len("param/"):]: archive[name]
        for name in archive.files
        if name.startswith("param/")
    }
    model.load_state_dict(state)
    scalers = Scalers(
        node=FeatureScaler.from_state(
            {"lo": archive["scaler/node/lo"], "hi": archive["scaler/node/hi"]}
        ),
        tile=FeatureScaler.from_state(
            {"lo": archive["scaler/tile/lo"], "hi": archive["scaler/tile/hi"]}
        ),
        static=FeatureScaler.from_state(
            {"lo": archive["scaler/static/lo"], "hi": archive["scaler/static/hi"]}
        ),
    )
    return TrainResult(model=model, scalers=scalers, loss_history=[])


def save_model_bytes(result: TrainResult) -> bytes:
    """Serialize a trained model + scalers to checkpoint bytes (no disk I/O).

    The bytes are an npz archive sealed in the integrity envelope
    (:data:`BLOB_MAGIC` + length + SHA-256), so truncation or corruption in
    transit is caught at load time instead of surfacing as an opaque npz
    decode failure. The archive is stored, not deflated: float32 weights
    barely compress (the payload is ≈ 8 % larger), and every load would
    pay for inflating them. Blobs written compressed still load —
    ``np.load`` reads both.
    """
    buffer = io.BytesIO()
    np.savez(buffer, **_payload(result))
    return _seal_blob(buffer.getvalue())


def load_model_bytes(data: bytes) -> TrainResult:
    """Load a model serialized by :func:`save_model_bytes`.

    Raises:
        ModelBlobError: on truncated, corrupted, or undecodable bytes.
    """
    payload = _unseal_blob(bytes(data))
    try:
        with np.load(io.BytesIO(payload)) as archive:
            return _from_archive(archive)
    except ModelBlobError:
        raise
    except Exception as exc:
        raise ModelBlobError(f"undecodable model blob: {exc}") from exc
