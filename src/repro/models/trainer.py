"""Training loop for the learned performance model.

Each step draws a family-balanced batch, composes it through a
:class:`~repro.data.batching.KernelCache` (every unique kernel is
precomputed once, on first sight), and takes one optimizer step. Numerics
are bitwise-identical to assembling each batch from scratch (the cache's
composition invariant).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..data.batching import (
    BatchItem,
    FusionBatchSampler,
    GraphBatch,
    KernelCache,
    Scalers,
    TileBatchSampler,
)
from ..data.dataset import FusionRecord, TileRecord
from ..nn.losses import log_mse_loss, pairwise_rank_loss
from ..nn.optim import Adam, clip_global_norm
from ..nn.tensor import Tensor
from .config import ModelConfig, TrainConfig
from .model import LearnedPerformanceModel

#: Records (or tile samples) per forward of the ``predict_*`` helpers.
PREDICT_CHUNK = 64


@dataclass
class TrainResult:
    """Artifacts of one training run.

    Attributes:
        model: the trained model.
        scalers: feature scalers fitted on the training set (must be reused
            at evaluation time).
        loss_history: (step, loss) samples.
    """

    model: LearnedPerformanceModel
    scalers: Scalers
    loss_history: list[tuple[int, float]] = field(default_factory=list)


def _loss_fn(config: ModelConfig, pred: Tensor, targets: np.ndarray, groups: np.ndarray) -> Tensor:
    if config.loss == "mse":
        return log_mse_loss(pred, targets)
    phi = "hinge" if config.loss == "rank_hinge" else "logistic"
    return pairwise_rank_loss(pred, targets, groups, phi=phi)


def _sampler(
    config: ModelConfig,
    train: TrainConfig,
    records: list[TileRecord] | list[FusionRecord],
) -> TileBatchSampler | FusionBatchSampler:
    """The batch sampler for ``config.task``, seeded with ``train.seed``."""
    if config.task == "tile":
        return TileBatchSampler(
            records,  # type: ignore[arg-type]
            kernels_per_batch=train.kernels_per_batch,
            tiles_per_kernel=train.tiles_per_kernel,
            seed=train.seed,
        )
    return FusionBatchSampler(
        records, batch_size=train.batch_size, seed=train.seed  # type: ignore[arg-type]
    )


def train_tile_model(
    records: list[TileRecord],
    config: ModelConfig | None = None,
    train: TrainConfig | None = None,
    verbose: bool = False,
) -> TrainResult:
    """Train a tile-size model on tile records.

    Args:
        records: training records (one per kernel, with tile sweeps).
        config: model configuration; defaults to the paper's best tile model.
        train: optimization settings.
        verbose: print loss every ``train.log_every`` steps.
    """
    return _train("tile", records, config or ModelConfig.paper_best_tile(), train, verbose)


def train_fusion_model(
    records: list[FusionRecord],
    config: ModelConfig | None = None,
    train: TrainConfig | None = None,
    verbose: bool = False,
) -> TrainResult:
    """Train a fusion (absolute runtime) model on fusion records."""
    return _train("fusion", records, config or ModelConfig.paper_best_fusion(), train, verbose)


def _train(
    task: str,
    records: list[TileRecord] | list[FusionRecord],
    config: ModelConfig,
    train: TrainConfig | None,
    verbose: bool,
) -> TrainResult:
    if config.task != task:
        raise ValueError(f"train_{task}_model requires a task='{task}' config")
    train = train or TrainConfig()
    scalers = Scalers.fit_tile(records) if task == "tile" else Scalers.fit_fusion(records)
    model = LearnedPerformanceModel(config, seed=train.seed)
    return _run_loop(model, train, scalers, records, verbose)


def _run_loop(
    model: LearnedPerformanceModel,
    train: TrainConfig,
    scalers: Scalers,
    records: list[TileRecord] | list[FusionRecord],
    verbose: bool,
) -> TrainResult:
    config = model.config
    sampler = _sampler(config, train, records)
    opt = Adam(
        model.parameters(),
        lr=train.learning_rate,
        decay=train.lr_decay,
        decay_every=train.lr_decay_every,
    )
    history: list[tuple[int, float]] = []
    cache = KernelCache(scalers, neighbor_cap=config.neighbor_cap)
    for step in range(train.steps):
        batch = cache.assemble(sampler.draw_items())
        pred = model(batch)
        loss = _loss_fn(config, pred, batch.targets, batch.group_ids)
        opt.zero_grad()
        loss.backward()
        clip_global_norm(opt.params, train.grad_clip)
        opt.step()
        if step % train.log_every == 0 or step == train.steps - 1:
            history.append((step, float(loss.item())))
            if verbose:
                print(f"  step {step:>6}  loss {loss.item():.4f}  lr {opt.lr:.2e}")
    return TrainResult(model=model, scalers=scalers, loss_history=history)


def fine_tune(
    result: TrainResult,
    records: list[TileRecord] | list[FusionRecord],
    train: TrainConfig | None = None,
) -> TrainResult:
    """Continue training an existing model on additional records.

    The paper highlights this as a key advantage over the analytical model
    (Sec. 7.1): "if the learned model does not perform well on some
    benchmarks, we can re-train or fine-tune the model on similar
    benchmarks". The original feature scalers are kept (features must stay
    on the scale the network was trained with).

    Args:
        result: a previous :class:`TrainResult` (modified in place: the
            same model object keeps training).
        records: new tile or fusion records matching the model's task.
        train: optimization settings; defaults to a short schedule.
    """
    train = train or TrainConfig(steps=300)
    tuned = _run_loop(result.model, train, result.scalers, records, False)
    return TrainResult(
        model=tuned.model,
        scalers=result.scalers,
        loss_history=result.loss_history + tuned.loss_history,
    )


# ------------------------------------------------- continuous learning
def feedback_to_tile_records(samples) -> list[TileRecord]:
    """Convert served-feedback samples into trainable tile records.

    ``samples`` are the joined (prediction, measurement) observations a
    :class:`~repro.serving.feedback.FeedbackCollector` retains: a tile
    sample carries the kernel, the candidate tiles the service priced,
    and the runtimes the (simulated) hardware measured for them. Samples
    of the same kernel are merged (last measurement wins per tile), so a
    kernel queried many times contributes one record with its union of
    measured tiles — exactly the shape :func:`fine_tune` consumes.

    Non-tile samples (program-runtime traffic) are skipped.
    """
    from ..compiler.tiling import TileConfig
    from ..data.dataset import TileRecord
    from ..data.features import extract_kernel_features, tile_features
    from ..serving.feedback import is_tile_sample

    by_kernel: dict[str, tuple] = {}
    for sample in samples:
        if not is_tile_sample(sample):
            continue
        request = sample.request
        measured = np.asarray(sample.measured, dtype=np.float64).reshape(-1)
        if measured.size != len(request.tiles):
            continue
        fingerprint = request.kernel.fingerprint()
        entry = by_kernel.get(fingerprint)
        if entry is None:
            entry = (request.kernel, {})
            by_kernel[fingerprint] = entry
        _, tile_runtimes = entry
        for tile, runtime in zip(request.tiles, measured):
            tile_runtimes[tile.dims] = float(runtime)

    records: list[TileRecord] = []
    for kernel, tile_runtimes in by_kernel.values():
        tiles = [TileConfig(dims=dims) for dims in tile_runtimes]
        records.append(
            TileRecord(
                kernel=kernel,
                features=extract_kernel_features(kernel),
                tiles=tiles,
                tile_feats=np.stack([tile_features(t) for t in tiles]),
                runtimes=np.asarray(list(tile_runtimes.values()), dtype=np.float64),
                program="feedback",
                family="feedback",
            )
        )
    return records


def fine_tune_on_feedback(
    result: TrainResult,
    samples,
    train: TrainConfig | None = None,
) -> TrainResult | None:
    """Fine-tune a tile model on the serving tier's collected feedback.

    The continuous-learning hook: the serving layer collects joined
    (prediction, measured-runtime) samples while it serves; this turns
    them into records and runs the standard :func:`fine_tune` short
    schedule. Returns ``None`` when the samples contain no usable tile
    observations (the caller then simply skips this retraining round).
    The resulting checkpoint is *not* published anywhere — the caller
    stages it through the rollout controller, which is the entire point
    of the control plane.
    """
    records = feedback_to_tile_records(samples)
    if not records:
        return None
    return fine_tune(result, records, train=train)


# --------------------------------------------------------------- prediction
def predict_tile_scores(
    model: LearnedPerformanceModel,
    scalers: Scalers,
    record: TileRecord,
) -> np.ndarray:
    """Rank scores for every tile sample of one kernel (lower = faster)."""
    items = [
        (record.features, tile, float(runtime), 0)
        for tile, runtime in zip(record.tile_feats, record.runtimes)
    ]
    return _predict_chunked(model, scalers, items, model.predict)


def predict_fusion_runtimes(
    model: LearnedPerformanceModel,
    scalers: Scalers,
    records: list[FusionRecord],
) -> np.ndarray:
    """Absolute runtime predictions (seconds) for fusion records."""
    items = [(r.features, None, r.runtime, i) for i, r in enumerate(records)]
    return _predict_chunked(model, scalers, items, model.predict_runtimes)


def _predict_chunked(
    model: LearnedPerformanceModel,
    scalers: Scalers,
    items: list[BatchItem],
    predict: Callable[[GraphBatch], np.ndarray],
) -> np.ndarray:
    """``predict`` over ``items``, :data:`PREDICT_CHUNK` per forward."""
    cache = KernelCache(scalers, neighbor_cap=model.config.neighbor_cap)
    return np.concatenate(
        [
            predict(cache.assemble(items[lo : lo + PREDICT_CHUNK]))
            for lo in range(0, len(items), PREDICT_CHUNK)
        ]
    )
