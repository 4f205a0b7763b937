"""Neural-network modules: parameter containers and core layers."""
from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, relu_inplace

#: :class:`LayerNorm`'s variance epsilon.
LAYER_NORM_EPS = 1e-5


class Module:
    """Base class: tracks parameters and sub-modules for optimizers/serialization."""

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}
        self._modules: dict[str, Module] = {}

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_params", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        elif isinstance(value, (list, tuple)) and value and all(
            isinstance(v, Module) for v in value
        ):
            for i, v in enumerate(value):
                self.__dict__.setdefault("_modules", {})[f"{name}.{i}"] = v
        object.__setattr__(self, name, value)

    def parameters(self) -> list[Tensor]:
        """All trainable parameters, depth-first, deterministic order."""
        out = list(self._params.values())
        for m in self._modules.values():
            out.extend(m.parameters())
        return out

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        """(dotted name, parameter) pairs in :meth:`parameters` order."""
        out = [(f"{prefix}{k}", v) for k, v in self._params.items()]
        for name, m in self._modules.items():
            out.extend(m.named_parameters(prefix=f"{prefix}{name}."))
        return out

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Name -> array snapshot of all parameters."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load a snapshot produced by :meth:`state_dict`.

        Raises:
            KeyError: if a parameter is missing from ``state``.
            ValueError: on shape mismatch.
        """
        for name, p in self.named_parameters():
            if name not in state:
                raise KeyError(f"missing parameter {name!r} in state dict")
            arr = np.asarray(state[name], dtype=np.float32)
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: {arr.shape} vs {p.data.shape}"
                )
            p.data = arr.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> Tensor:
    """Glorot/Xavier-uniform initialized parameter."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    shape = shape or (fan_in, fan_out)
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def dense(x: np.ndarray, weight: np.ndarray, activation: str | None = None) -> np.ndarray:
    """``activation(x @ weight)`` on plain arrays: the forward of
    :class:`Dense` on the tape and on the inference path."""
    y = x @ weight  # fresh, so the relu writes over it
    if activation == "relu":
        return relu_inplace(y)
    return y


def dense_backward(
    grad: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    y: np.ndarray,
    activation: str | None,
    want_x: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of :func:`dense` for the output ``y`` it returned.

    Every product is the one the chain rule over the separate matmul and
    activation tape ops computes, in the same order, so the bits are
    theirs. The weight gradient comes back unreduced (for a 3-D ``x``, one
    [dim, out] slice per batch row): ``Tensor._dispatch`` sums it to the
    parameter's shape exactly as it summed the separate ops' contributions.

    Returns:
        ``(dx, dweight)``; ``dx`` is ``None`` unless ``want_x``.
    """
    if activation == "relu":
        grad = grad * (y > 0)  # y > 0 exactly where the pre-activation is
    dx = grad @ np.swapaxes(weight, -1, -2) if want_x else None
    return dx, np.swapaxes(x, -1, -2) @ grad


class Dense(Module):
    """Linear layer ``x @ W`` with an optional ReLU, and no bias (the
    paper's fixed hyperparameters, App. B, use no per-layer biases).

    One tape node: the forward is :func:`dense`, which ``predict`` calls
    too, and the backward is :func:`dense_backward`. Inputs are 2-D or
    batched (``[..., in_features]``).

    Args:
        in_features / out_features: matrix dimensions.
        activation: None or "relu".
        rng: parameter-initialization generator.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = glorot(rng, in_features, out_features)
        if activation not in (None, "relu"):
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        x_data, weight, activation, want_x = x.data, self.weight.data, self.activation, x.requires_grad
        y = self.apply(x_data)
        return x._make(
            y, (x, self.weight), lambda g: dense_backward(g, x_data, weight, y, activation, want_x)
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The forward on a plain array (what ``predict`` runs)."""
        return dense(x, self.weight.data, self.activation)


class MLP(Module):
    """Stack of :class:`Dense` layers with ReLU between hidden layers.

    Args:
        widths: [in, hidden..., out] layer widths.
        final_activation: activation after the last layer (None = linear).
    """

    def __init__(
        self,
        widths: list[int],
        final_activation: str | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        layers = []
        for i in range(len(widths) - 1):
            act = "relu" if i < len(widths) - 2 else final_activation
            layers.append(Dense(widths[i], widths[i + 1], activation=act, rng=rng))
        self.layers = layers

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    Used for the opcode embedding (paper: opcode ids are mapped to a
    256-dimensional embedding vector learned jointly).
    """

    def __init__(
        self, num_embeddings: int, dim: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        scale = 1.0 / math.sqrt(dim)
        self.table = Tensor(
            rng.normal(0.0, scale, size=(num_embeddings, dim)), requires_grad=True
        )

    def forward(self, ids: np.ndarray) -> Tensor:
        return self.table.take_rows(np.asarray(ids, dtype=np.int64))


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, dim: int) -> None:
        super().__init__()
        self.gain = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.shift = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv = (var + LAYER_NORM_EPS) ** -0.5
        return centered * inv * self.gain + self.shift

