"""Multi-head attention and Transformer encoder (paper's global reduction)."""
from __future__ import annotations

import math

import numpy as np

from .layers import Dense, LayerNorm, Module
from .tensor import Tensor

#: Attention heads per layer (paper App. B fixes 4).
HEADS = 4
#: Feed-forward width of an encoder block, as a multiple of the model width.
FF_MULTIPLIER = 2
#: Encoder blocks of :class:`TransformerEncoder`.
ENCODER_LAYERS = 1


class MultiHeadAttention(Module):
    """Masked multi-head self-attention over :data:`HEADS` heads.

    Args:
        dim: model width (split across heads).
    """

    def __init__(self, dim: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if dim % HEADS != 0:
            raise ValueError(f"dim {dim} not divisible by heads {HEADS}")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.head_dim = dim // HEADS
        self.wq = Dense(dim, dim, rng=rng)
        self.wk = Dense(dim, dim, rng=rng)
        self.wv = Dense(dim, dim, rng=rng)
        self.wo = Dense(dim, dim, rng=rng)

    def _split(self, x: Tensor, batch: int, time: int) -> Tensor:
        # [b, t, d] -> [b, h, t, hd]
        return x.reshape(batch, time, HEADS, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """Attend over padded node sequences.

        Args:
            x: [batch, time, dim].
            mask: [batch, time] boolean validity mask.
        """
        batch, time, _ = x.shape
        q = self._split(self.wq(x), batch, time)
        k = self._split(self.wk(x), batch, time)
        v = self._split(self.wv(x), batch, time)
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(self.head_dim))
        attn_mask = mask[:, None, None, :] & mask[:, None, :, None]
        attn = scores.softmax(axis=-1, mask=np.broadcast_to(attn_mask, scores.shape))
        ctx = attn @ v  # [b, h, t, hd]
        merged = ctx.transpose(0, 2, 1, 3).reshape(batch, time, self.dim)
        return self.wo(merged)


class TransformerEncoderLayer(Module):
    """Pre-norm Transformer encoder block."""

    def __init__(self, dim: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.ff1 = Dense(dim, dim * FF_MULTIPLIER, activation="relu", rng=rng)
        self.ff2 = Dense(dim * FF_MULTIPLIER, dim, rng=rng)

    def forward(self, x: Tensor, mask: np.ndarray) -> Tensor:
        x = x + self.attn(self.norm1(x), mask)
        return x + self.ff2(self.ff1(self.norm2(x)))


class TransformerEncoder(Module):
    """Stack of :data:`ENCODER_LAYERS` encoder blocks + masked-sum pooling.

    The paper's Transformer reduction applies an encoder to node embeddings
    and reduces with a sum (App. B: "Transformer reduction: sum"). A final
    LayerNorm stabilizes the pooled embedding — the raw sum's magnitude
    scales with the kernel's node count (1..~64 here), which otherwise
    dominates the prediction head's early training.
    """

    def __init__(self, dim: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.blocks = [TransformerEncoderLayer(dim, rng=rng) for _ in range(ENCODER_LAYERS)]
        self.final_norm = LayerNorm(dim)

    def forward(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """Encode and pool: [batch, time, dim] -> [batch, dim]."""
        for block in self.blocks:
            x = block(x, mask)
        m = Tensor(mask[:, :, None].astype(np.float32))
        return self.final_norm((x * m).sum(axis=1))
