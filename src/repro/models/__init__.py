"""The learned performance model: configuration, architecture, training."""
from .config import (
    GNN_CHOICES,
    LOSS_CHOICES,
    PLACEMENT_CHOICES,
    REDUCTION_CHOICES,
    ModelConfig,
    TrainConfig,
)
from .model import LearnedPerformanceModel
from .serialize import (
    ModelBlobError,
    load_model_bytes,
    save_model_bytes,
    validate_model_blob,
)
from .trainer import (
    TrainResult,
    feedback_to_tile_records,
    fine_tune,
    fine_tune_on_feedback,
    predict_fusion_runtimes,
    predict_tile_scores,
    train_fusion_model,
    train_tile_model,
)

__all__ = [
    "GNN_CHOICES",
    "LOSS_CHOICES",
    "PLACEMENT_CHOICES",
    "REDUCTION_CHOICES",
    "LearnedPerformanceModel",
    "ModelBlobError",
    "ModelConfig",
    "TrainConfig",
    "TrainResult",
    "feedback_to_tile_records",
    "fine_tune",
    "fine_tune_on_feedback",
    "load_model_bytes",
    "predict_fusion_runtimes",
    "predict_tile_scores",
    "save_model_bytes",
    "train_fusion_model",
    "train_tile_model",
    "validate_model_blob",
]
