"""From-scratch NumPy neural-network framework (autodiff, layers, optim)."""
from .attention import MultiHeadAttention, TransformerEncoder, TransformerEncoderLayer
from .graph_layers import BatchedGraphContext, GATLayer, GraphSAGELayer
from .layers import (
    MLP,
    Dense,
    Embedding,
    LayerNorm,
    Module,
    glorot,
)
from .losses import log_mse_loss, pairwise_rank_loss
from .optim import Adam, clip_global_norm
from .rnn import LSTM, LSTMCell
from .sparse import normalized_adjacency, segment_softmax, segment_sum, spmm
from .tensor import Tensor, no_grad

__all__ = [
    "MLP",
    "Adam",
    "BatchedGraphContext",
    "Dense",
    "Embedding",
    "GATLayer",
    "GraphSAGELayer",
    "LSTM",
    "LSTMCell",
    "LayerNorm",
    "Module",
    "MultiHeadAttention",
    "Tensor",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "clip_global_norm",
    "glorot",
    "log_mse_loss",
    "no_grad",
    "normalized_adjacency",
    "pairwise_rank_loss",
    "segment_softmax",
    "segment_sum",
    "spmm",
]
