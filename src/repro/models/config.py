"""Model and training configuration (paper Sec. 3, Appendix B).

Every ablation axis of the paper is a field here:

* ``gnn``: GraphSAGE / GAT / none (Table 4 columns);
* ``reduction``: per-node / column-wise / LSTM / Transformer (Table 4 rows);
* ``directed``: separate aggregators per edge direction ('Undirected'
  ablation of Table 3);
* ``use_static_features`` + ``static_placement``: the optional static
  performance features, injected at node level or into the kernel
  embedding (Table 3);
* ``tile_placement``: tile size appended to node features (Fig. 3 option 1)
  or to the kernel embedding (option 2, the 'Move tile-size' ablation);
* ``loss``: pairwise rank (hinge/logistic) vs MSE (Table 3 'MSE loss').

The widths (``opcode_embedding_dim``, ``hidden_dim``, ``gnn_layers``,
``lstm_hidden``) and the neighbor cap are fields too. Every other
hyperparameter of App. B Table 5 is fixed, as in the paper, and is a
module constant next to the code that reads it:

* ``models.model.NODE_FINAL_LAYERS``: feedforward layers after the GNN;
* ``nn.attention.ENCODER_LAYERS`` / ``HEADS`` / ``FF_MULTIPLIER``: the
  Transformer reduction's blocks, attention heads and feed-forward width;
* ``nn.graph_layers.GAT_HEADS``: the GAT layer's attention heads;
* ``nn.layers.LAYER_NORM_EPS`` and ``nn.optim.BETA1`` / ``BETA2`` /
  ``EPS``: the layer-norm and Adam constants.

No layer has a bias or dropout, and a module has no train/eval mode.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

GNN_CHOICES = ("graphsage", "gat", "none")
REDUCTION_CHOICES = ("per-node", "column-wise", "lstm", "transformer")
LOSS_CHOICES = ("rank_hinge", "rank_logistic", "mse")
PLACEMENT_CHOICES = ("node", "kernel")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture + objective configuration of the learned model.

    Defaults are a scaled-down analogue of the paper's fixed hyperparameters
    (App. B Table 5): the paper uses a 256-wide opcode embedding, 512/1024
    hidden units and 3 GNN layers on a V100; we default to widths that train
    in seconds on a CPU while preserving every structural choice.
    """

    task: str = "tile"  # "tile" | "fusion"
    gnn: str = "graphsage"
    reduction: str = "column-wise"
    loss: str = "rank_hinge"

    opcode_embedding_dim: int = 32
    hidden_dim: int = 64
    gnn_layers: int = 3
    directed: bool = True
    neighbor_cap: int = 20

    use_static_features: bool = True
    static_placement: str = "node"
    tile_placement: str = "node"

    lstm_hidden: int = 64

    def __post_init__(self) -> None:
        if self.task not in ("tile", "fusion"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.gnn not in GNN_CHOICES:
            raise ValueError(f"unknown gnn {self.gnn!r}")
        if self.reduction not in REDUCTION_CHOICES:
            raise ValueError(f"unknown reduction {self.reduction!r}")
        if self.loss not in LOSS_CHOICES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.static_placement not in PLACEMENT_CHOICES:
            raise ValueError(f"bad static_placement {self.static_placement!r}")
        if self.tile_placement not in PLACEMENT_CHOICES:
            raise ValueError(f"bad tile_placement {self.tile_placement!r}")
        if self.hidden_dim <= 0 or self.opcode_embedding_dim <= 0:
            raise ValueError("dims must be positive")

    def with_overrides(self, **kwargs) -> "ModelConfig":
        """Functional update (used heavily by the ablation benchmarks)."""
        return replace(self, **kwargs)

    @staticmethod
    def paper_best_tile() -> "ModelConfig":
        """Best tile-task model of Table 4: GraphSAGE + LSTM, rank loss."""
        return ModelConfig(task="tile", gnn="graphsage", reduction="lstm", loss="rank_hinge")

    @staticmethod
    def paper_best_fusion() -> "ModelConfig":
        """Best fusion-task model of Table 4: GraphSAGE + Transformer, MSE."""
        return ModelConfig(task="fusion", gnn="graphsage", reduction="transformer", loss="mse")

    @staticmethod
    def vanilla(task: str = "tile") -> "ModelConfig":
        """The Table 3 'vanilla' configuration: GraphSAGE + per-node, no
        static features, directed edges, rank loss (tile) / MSE (fusion)."""
        return ModelConfig(
            task=task,
            gnn="graphsage",
            reduction="per-node",
            loss="rank_hinge" if task == "tile" else "mse",
            use_static_features=False,
        )


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings (paper App. B training hyperparameters)."""

    steps: int = 1500
    learning_rate: float = 1e-3
    lr_decay: float = 0.98
    lr_decay_every: int = 500
    grad_clip: float | None = 5.0
    kernels_per_batch: int = 8
    tiles_per_kernel: int = 4
    batch_size: int = 32  # fusion task
    seed: int = 0
    log_every: int = 250
