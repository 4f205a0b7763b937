"""Reverse-mode automatic differentiation over NumPy arrays.

A :class:`Tensor` wraps an ``np.ndarray`` and records the operations applied
to it on a tape (the ``_parents`` / ``_backward`` fields); calling
:meth:`Tensor.backward` propagates gradients to every tensor with
``requires_grad=True``. The op set is exactly what the paper's models need:
dense algebra, elementwise nonlinearities, reductions, indexing/gather,
concatenation and masked softmax.

Broadcasting follows NumPy; gradients are un-broadcast by summing over the
broadcast axes.
"""
from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Sequence

import numpy as np

from .csr import CSR, index_dtype

# Thread-local so a serving thread running inference under no_grad() never
# turns off tape recording for a training loop on another thread (the
# train-while-serving flow of the hot-swap workflow).
_grad_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape recording (inference / evaluation).

    The flag is per-thread: disabling gradients on one thread leaves
    concurrent training on other threads unaffected.
    """
    prev = _grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = prev


def recording(*tensors: "Tensor") -> bool:
    """Whether an op on ``tensors`` goes on the tape: gradients are enabled
    on this thread and one of them requires a gradient. An op whose
    backward needs state its forward would otherwise drop keeps that state
    only when this holds."""
    return _grad_enabled() and any(t.requires_grad for t in tensors)


_ZERO = np.float32(0.0)


def relu_array(x: np.ndarray) -> np.ndarray:
    """``np.where(x > 0, x, 0.0)`` for every float32 bit pattern, a fresh
    array, at a tenth of the cost on a large array. Adding +0.0 turns -0.0
    into the +0.0 ``where`` writes and quiets a signalling NaN (which
    ``fmax`` would return) while changing nothing else; ``fmax`` then drops
    every NaN as ``NaN > 0`` does. The forward of :meth:`Tensor.relu` and
    of the tape-free inference path."""
    y = x + _ZERO
    np.fmax(y, _ZERO, out=y)
    return y


def relu_inplace(y: np.ndarray) -> np.ndarray:
    """:func:`relu_array` written over ``y`` (the same ``+0.0`` then
    ``fmax``, so the same bits) for a fresh array nothing else holds: the
    forward of :func:`~repro.nn.layers.dense` and of a GraphSAGE hop, which
    would otherwise allocate a second array per activation."""
    np.add(y, _ZERO, out=y)
    np.fmax(y, _ZERO, out=y)
    return y


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """The logistic function: the forward of the LSTM gates, on the tape
    and on the tape-free inference path."""
    return 1.0 / (1.0 + np.exp(-x))


def scatter_add_rows(index: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """``np.add.at(zeros, index, values)`` into ``num_rows`` rows, bit for
    bit, as one sparse product.

    ``np.add.at`` adds the entries of ``values`` into their rows one at a
    time in index order, each row starting from +0.0. A 0/1
    :class:`~repro.nn.csr.CSR` matrix whose row r lists, ascending, the
    positions k with ``index[k] == r`` makes SciPy's ``@`` kernel do the
    same additions in the same order (it accumulates each output row left
    to right from zero, and ``1.0 * v`` is exact) — without ``ufunc.at``'s
    per-element cost. The backward of :meth:`Tensor.take_rows` and
    ``Tensor.__getitem__``, and the forward of ``segment_sum`` on both the
    tape and the inference path.

    Args:
        index: non-negative row numbers, any shape.
        values: ``index.shape + trailing``.
        num_rows: rows of the result.

    Returns:
        A fresh ``[num_rows, *trailing]`` array of ``values``' dtype.
    """
    index = np.asarray(index)
    trailing = values.shape[index.ndim :]
    rows = scatter_matrix(index.reshape(-1), num_rows, values.dtype)
    return (rows @ values.reshape(index.size, math.prod(trailing))).reshape(num_rows, *trailing)


def scatter_matrix(index: np.ndarray, num_rows: int, dtype: np.dtype) -> CSR:
    """The 0/1 ``[num_rows, len(index)]`` operator of :func:`scatter_add_rows`:
    row r holds ones of ``dtype`` at the positions k with ``index[k] == r``,
    ascending, and int32 index arrays whenever they fit."""
    itype = index_dtype(num_rows, index.size)
    indptr = np.zeros(num_rows + 1, dtype=itype)
    np.cumsum(np.bincount(index, minlength=num_rows), out=indptr[1:])
    return CSR(
        np.ones(index.size, dtype=dtype),
        np.argsort(index, kind="stable").astype(itype, copy=False),
        indptr,
        (num_rows, index.size),
    )


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum axes that were size-1 in the original shape.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A differentiable array.

    Args:
        data: array or nested sequence; converted to float32 unless already
            an integer array (integer tensors are index carriers and never
            require gradients).
        requires_grad: whether to accumulate gradients into ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    __array_priority__ = 100  # so np scalars defer to Tensor dunders

    def __init__(self, data, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind not in "iu":
            arr = arr.astype(np.float32, copy=False)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad) and _grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------- plumbing
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """Python scalar from a 1-element tensor."""
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """A view of the same data cut off from the tape."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        if recording(*parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float32), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------- backward
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Args:
            grad: incoming gradient; defaults to ones (scalar outputs).
        """
        if grad is None:
            grad = np.ones_like(self.data, dtype=np.float32)
        # Topological order over the tape.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.asarray(grad, dtype=np.float32)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node._accumulate(g)
                continue
            node._dispatch(g, grads)

    def _dispatch(self, grad: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        """Run this node's backward fn, routing parent grads into ``grads``."""
        contributions = self._backward(grad)  # type: ignore[misc]
        for parent, contrib in zip(self._parents, contributions):
            if contrib is None or not parent.requires_grad:
                continue
            contrib = _unbroadcast(
                np.asarray(contrib, dtype=np.float32), parent.data.shape
            )
            if parent._backward is None:
                # Leaf: accumulate into .grad immediately.
                parent._accumulate(contrib)
                # Also allow multiple paths through the same leaf.
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data
        return self._make(out_data, (self, other), lambda g: (g, g))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self._make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other) -> "Tensor":
        other = self._lift(other)
        return self._make(self.data - other.data, (self, other), lambda g: (g, -g))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        a, b = self.data, other.data
        return self._make(a * b, (self, other), lambda g: (g * b, g * a))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        a, b = self.data, other.data
        return self._make(
            a / b, (self, other), lambda g: (g / b, -g * a / (b * b))
        )

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        a = self.data
        out = a**exponent
        return self._make(out, (self,), lambda g: (g * exponent * a ** (exponent - 1),))

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        a, b = self.data, other.data
        out = a @ b

        def backward(g: np.ndarray):
            if b.ndim == 1:
                ga = np.outer(g, b) if a.ndim == 2 else g[..., None] * b
                gb = a.T @ g if a.ndim == 2 else (a * g[..., None]).sum(0)
            elif a.ndim == 1:
                ga = g @ b.T if b.ndim == 2 else None
                gb = np.outer(a, g)
            else:
                ga = g @ np.swapaxes(b, -1, -2)
                gb = np.swapaxes(a, -1, -2) @ g
            return ga, gb

        return self._make(out, (self, other), backward)

    # ---------------------------------------------------------- elementwise
    def exp(self) -> "Tensor":
        out = np.exp(self.data)
        return self._make(out, (self,), lambda g: (g * out,))

    def log(self) -> "Tensor":
        a = self.data
        return self._make(np.log(a), (self,), lambda g: (g / a,))

    def relu(self) -> "Tensor":
        a = self.data
        return self._make(relu_array(a), (self,), lambda g: (g * (a > 0),))

    def abs(self) -> "Tensor":
        a = self.data
        return self._make(np.abs(a), (self,), lambda g: (g * np.sign(a),))

    def maximum(self, other) -> "Tensor":
        other = self._lift(other)
        a, b = self.data, other.data

        def backward(g: np.ndarray):
            mask = a >= b
            return g * mask, g * ~mask

        return self._make(np.maximum(a, b), (self, other), backward)

    # ------------------------------------------------------------ reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g: np.ndarray):
            if axis is None:
                return (np.broadcast_to(g, shape).astype(np.float32),)
            gg = g
            if not keepdims:
                gg = np.expand_dims(g, axis)
            return (np.broadcast_to(gg, shape).astype(np.float32),)

        return self._make(out, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray):
            expanded = out if keepdims else np.expand_dims(out, axis)
            gg = g if keepdims else np.expand_dims(g, axis)
            mask = self.data == expanded
            # Split gradient among ties.
            counts = mask.sum(axis=axis, keepdims=True)
            return (gg * mask / counts,)

        return self._make(out, (self,), backward)

    # ------------------------------------------------------------- reshaping
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape
        return self._make(
            self.data.reshape(shape), (self,), lambda g: (g.reshape(orig),)
        )

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(range(self.ndim))[::-1]
        return self._make(
            self.data.transpose(axes), (self,), lambda g: (g.transpose(np.argsort(axes)),)
        )

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out = self.data[key]
        shape = self.data.shape

        def backward(g: np.ndarray):
            # The flat position of every selected element, in the order
            # np.add.at would visit them.
            size = math.prod(shape)
            positions = np.arange(size).reshape(shape)[key]
            return (scatter_add_rows(positions, g, size).reshape(shape),)

        return self._make(out, (self,), backward)

    # --------------------------------------------------------- constructions
    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._lift(t) for t in tensors]
        datas = [t.data for t in tensors]
        out = np.concatenate(datas, axis=axis)

        def backward(g: np.ndarray):
            splits = np.cumsum([d.shape[axis] for d in datas])[:-1]
            return tuple(np.split(g, splits, axis=axis))

        proto = tensors[0]
        return proto._make(out, tuple(tensors), backward)

    # ------------------------------------------------------------- indexing
    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows (axis 0) at non-negative ``indices``; the gradient
        scatter-adds back (embeddings, the padded node view)."""
        idx = np.asarray(indices)
        rows = len(self.data)
        return self._make(
            self.data[idx], (self,), lambda g: (scatter_add_rows(idx, g, rows),)
        )

    # -------------------------------------------------------------- softmax
    def softmax(self, axis: int = -1, mask: np.ndarray | None = None) -> "Tensor":
        """Softmax along ``axis``; positions where ``mask`` is False get 0."""
        x = self.data
        if mask is not None:
            x = np.where(mask, x, -1e30)
        x = x - x.max(axis=axis, keepdims=True)
        e = np.exp(x)
        if mask is not None:
            e = np.where(mask, e, 0.0)
        denom = e.sum(axis=axis, keepdims=True)
        out = e / np.maximum(denom, 1e-30)

        def backward(g: np.ndarray):
            dot = (g * out).sum(axis=axis, keepdims=True)
            return (out * (g - dot),)

        return self._make(out, (self,), backward)
