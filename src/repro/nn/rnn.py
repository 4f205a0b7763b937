"""LSTM sequence modules (kernel-embedding reduction option 2 in the paper).

:func:`lstm_final_state` is the reduction's one implementation: on the tape,
:class:`LSTM` records it as a single node whose backward is
:func:`lstm_final_state_backward`, and under
:func:`~repro.nn.tensor.array_run` it calls it directly, so inference and
training run the same arithmetic on the same shapes and agree bit for bit
on every batch.
"""
from __future__ import annotations

import numpy as np

from .layers import Dense, Module
from .tensor import _run, recording, sigmoid_array


def lstm_final_state(
    weight: np.ndarray, x: np.ndarray, mask: np.ndarray, record: bool = False
) -> tuple[np.ndarray, tuple | None]:
    """Final hidden state of each row of a padded batch of sequences.

    Each row is stepped only through its own elements. Rows are taken
    longest first, so the rows still inside their sequence at step ``t`` are
    a prefix that shrinks with ``t``; a row whose sequence has ended is
    written to the result (in input order) and dropped. When every row has
    the same length no row is ever dropped and every step sees the whole
    batch. Each step is one LSTM cell: ``[x_t, h] @ weight`` split into
    input, forget (bias 1), cell and output gates.

    Args:
        weight: [dim + hidden, 4 * hidden] gate projection.
        x: [batch, time, dim] padded inputs; pad slots are never read.
        mask: [batch, time] boolean, True on a prefix of each row (the
            row's sequence).
        record: keep the per-step activations
            :func:`lstm_final_state_backward` needs; off, nothing outlives
            its step.

    Returns:
        ``(h, saved)``: a fresh float32 [batch, hidden] array, and the
        backward's state (``None`` unless ``record``).
    """
    hd = weight.shape[1] // 4
    order = np.argsort(-mask.sum(axis=1), kind="stable")
    x = x[order]
    out = np.empty((len(order), hd), dtype=np.float32)
    h = np.zeros((len(order), hd), dtype=np.float32)
    c = np.zeros((len(order), hd), dtype=np.float32)
    steps = []
    for t, n in enumerate(mask.sum(axis=0).tolist()):  # n rows reach step t
        if n < len(h):
            out[order[n : len(h)]] = h[n:]
            h, c = h[:n], c[:n]
        xh = np.concatenate([x[:n, t, :], h], axis=-1)
        z = xh @ weight
        z[:, hd : 2 * hd] += 1.0  # forget-gate bias of 1
        # One sigmoid over the whole block: the i, f and o gates (the g
        # columns are computed and never read).
        s = sigmoid_array(z)
        i, f, o = s[:, :hd], s[:, hd : 2 * hd], s[:, 3 * hd :]
        g = np.tanh(z[:, 2 * hd : 3 * hd])
        c_prev, c = c, f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        if record:
            steps.append((xh, s, g, c_prev, tc))
    out[order[: len(h)]] = h
    return out, ((weight, x.shape, order, steps) if record else None)


def lstm_final_state_backward(saved: tuple, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagation through time for :func:`lstm_final_state`.

    Args:
        saved: the second value :func:`lstm_final_state` returned under
            ``record=True``.
        grad: [batch, hidden] gradient of the final states.

    Returns:
        ``(dx, dweight)``: [batch, time, dim], zero on pad slots, and the
        gate projection's [dim + hidden, 4 * hidden].
    """
    weight, shape, order, steps = saved
    dim = shape[2]
    hd = weight.shape[1] // 4
    dh = np.asarray(grad, dtype=np.float32)[order]
    dc = np.zeros_like(dh)
    dx = np.zeros(shape, dtype=np.float32)
    dweight = np.zeros(weight.shape, dtype=np.float32)
    for t in reversed(range(len(steps))):
        xh, s, g, c_prev, tc = steps[t]
        i, f, o = s[:, :hd], s[:, hd : 2 * hd], s[:, 3 * hd :]
        n = len(xh)
        dh_t = dh[:n]
        # Every product runs in the order the chain rule over a stepwise
        # tape LSTM (a sigmoid or tanh node per gate) multiplies, so
        # equal-length batches get its bits: a sigmoid gate's is
        # (a * s) * (1 - s), taken over the whole block, and the g columns
        # are then overwritten with tanh's.
        dc_t = dc[:n] + dh_t * o * (1.0 - tc * tc)
        a = np.concatenate([dc_t * g, dc_t * c_prev, dc_t * i, dh_t * tc], axis=-1)
        dz = a * s
        dz *= 1.0 - s
        np.multiply(a[:, 2 * hd : 3 * hd], 1.0 - g * g, out=dz[:, 2 * hd : 3 * hd])
        dweight += xh.T @ dz
        dxh = dz @ weight.T
        dx[:n, t, :] = dxh[:, :dim]
        dh[:n] = dxh[:, dim:]
        dc[:n] = dc_t * f
    unsorted = np.empty_like(dx)
    unsorted[order] = dx
    return unsorted, dweight


class LSTMCell(Module):
    """The LSTM's fused gate projection, ``gates``: [x_t, h] → the four
    gates' pre-activations. The step itself is :func:`lstm_final_state`;
    this module holds the weight (checkpoint key
    ``lstm.cell.gates.weight``)."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.hidden_dim = hidden_dim
        self.gates = Dense(input_dim + hidden_dim, 4 * hidden_dim, rng=rng)


class LSTM(Module):
    """Batched LSTM over padded sequences, returning the final state.

    The paper's LSTM reduction runs over topologically sorted node
    embeddings and keeps the final state as the kernel embedding. One tape
    node: the forward is :func:`lstm_final_state` over ``cell``'s gate
    weight, which steps each sequence only through its own elements, and
    the backward is :func:`lstm_final_state_backward`.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.cell = LSTMCell(input_dim, hidden_dim, rng=rng)
        self.hidden_dim = hidden_dim

    def forward(self, x, mask: np.ndarray):
        """Run over a padded batch.

        Args:
            x: [batch, time, dim] padded inputs (a plain array under
                ``array_run``).
            mask: [batch, time] boolean; True where a real element exists
                (a prefix of each row).

        Returns:
            [batch, hidden] final hidden state of each sequence.
        """
        weight = self.cell.gates.weight
        if _run.arrays:
            return lstm_final_state(weight.data, x, mask)[0]
        h, saved = lstm_final_state(
            weight.data, x.data, mask, record=recording(x, weight)
        )
        return x._make(h, (x, weight), lambda g: lstm_final_state_backward(saved, g))
