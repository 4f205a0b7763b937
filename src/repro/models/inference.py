"""Tape-free forward of the learned performance model.

:func:`forward` computes exactly what
:meth:`~repro.models.model.LearnedPerformanceModel.forward` computes in eval
mode under ``no_grad()`` — same scores, same dtype, bitwise, with the one
exception stated below — but on plain ``ndarray``s: no
:class:`~repro.nn.tensor.Tensor` per intermediate, no backward closure per
op, no mode flip on the module. It is what
``LearnedPerformanceModel.predict`` runs; the tape ``forward`` stays for
training and as the oracle the tests compare this module against.

The functions are stateless and read every parameter's ``.data`` at call
time, so an optimizer step or a ``load_state_dict`` needs no invalidation.

Bitwise equality is by construction, and constrains how this file may be
edited: every matmul, reduction and transcendental (``exp``, ``tanh``,
``**``) is applied to an array of the same shape, dtype and memory layout as
on the tape, in the same order, because BLAS kernels, pairwise summation and
SIMD math routines may round differently for a different layout. Only
exactly-rounded elementwise arithmetic (``+ - * /``) and pure data movement
are free to be hoisted or shared. There is one exception, and it is the only
place the rule does not hold: the LSTM reduction on a batch whose graphs
differ in node count. The tape steps every row to the longest graph;
:func:`_lstm` steps a row only through its own nodes, so the gate matmul of
a late step sees fewer rows than on the tape and BLAS may round it
differently — scores there agree with the tape to ``rtol=1e-5``, not bit
for bit. A batch whose graphs all have one node count (every single-kernel
forward: tile search, a served batch holding one kernel) keeps the tape's
shapes at every step, and every other reduction keeps them always. Python scalars the tape lifts to float32
tensors are float32 constants here. Parameters are not always float32 —
``Adam.step`` leaves them float64 until the next ``load_state_dict`` — and
the tape rounds every op result back to float32, so each op that reads a
parameter is followed by the same rounding (:func:`_f32`, free when the
parameter is float32 already). Dropout is the identity in eval mode and does
not appear.
"""
from __future__ import annotations

import math

import numpy as np

_ZERO = np.float32(0.0)
_ONE = np.float32(1.0)
_LEAKY_SLOPE = np.float32(0.2)  # GATLayer's LeakyReLU
_L2_EPS = np.float32(1e-12)  # nn.layers.l2_normalize default


def _f32(x: np.ndarray) -> np.ndarray:
    """What ``Tensor(x).data`` holds for a float array."""
    return x.astype(np.float32, copy=False)


# ------------------------------------------------------------------ nn.layers
def _relu(x: np.ndarray) -> np.ndarray:
    """``np.where(x > 0, x, 0.0)`` — the tape's relu — for every float32 bit
    pattern, at a tenth of the cost on a large array: ``fmax`` drops NaN
    as ``NaN > 0`` does, and adding +0.0 turns a surviving -0.0 into the
    +0.0 ``where`` writes while changing nothing else."""
    y = np.fmax(x, _ZERO)
    y += _ZERO
    return y


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _dense(layer, x: np.ndarray) -> np.ndarray:
    y = _f32(x @ layer.weight.data)
    if layer.bias is not None:
        y = _f32(y + layer.bias.data)
    if layer.activation == "relu":
        return _relu(y)
    if layer.activation == "tanh":
        return np.tanh(y)
    if layer.activation == "sigmoid":
        return _sigmoid(y)
    return y


def _mean_last(x: np.ndarray) -> np.ndarray:
    return x.sum(axis=-1, keepdims=True) * np.float32(1.0 / x.shape[-1])


def _layer_norm(layer, x: np.ndarray) -> np.ndarray:
    centered = x - _mean_last(x)
    var = _mean_last(centered * centered)
    inv = (var + np.float32(layer.eps)) ** -0.5
    return _f32(_f32(centered * inv * layer.gain.data) + layer.shift.data)


# ------------------------------------------------------------------ nn.sparse
def _segment_sum(x: np.ndarray, ids: np.ndarray, num_segments: int) -> np.ndarray:
    out = np.zeros((num_segments,) + x.shape[1:], dtype=np.float32)
    np.add.at(out, ids, x)
    return out


def _segment_softmax(scores: np.ndarray, ids: np.ndarray, num_segments: int) -> np.ndarray:
    shape = (num_segments,) + scores.shape[1:]
    seg_max = np.full(shape, -np.inf, dtype=np.float32)
    np.maximum.at(seg_max, ids, scores)
    e = np.exp(scores - seg_max[ids])
    denom = np.zeros(shape, dtype=np.float32)
    np.add.at(denom, ids, e)
    return e / np.maximum(denom[ids], 1e-30)


# ------------------------------------------------------------ nn.graph_layers
def _graphsage(layer, x: np.ndarray, adj_in, adj_out) -> np.ndarray:
    parts = [x, np.asarray(adj_in @ _dense(layer.agg_in, x), dtype=np.float32)]
    if layer.directed:
        parts.append(np.asarray(adj_out @ _dense(layer.agg_out, x), dtype=np.float32))
    h = _dense(layer.update, np.concatenate(parts, axis=-1))
    if layer.l2_norm:
        sq = (h * h).sum(axis=-1, keepdims=True)
        h = h * ((sq + _L2_EPS) ** -0.5)
    return h


def _gat(layer, x: np.ndarray, edges: np.ndarray, num_nodes: int) -> np.ndarray:
    h = _dense(layer.proj, x)
    if len(edges) == 0:
        return _relu(h)
    src, dst = edges[:, 0], edges[:, 1]
    scores = _dense(layer.attn_src, x)[src] + _dense(layer.attn_dst, x)[dst]
    scores = np.maximum(scores, scores * _LEAKY_SLOPE)
    alpha = _segment_softmax(scores, dst, num_nodes)
    src_h = h[src].reshape(len(edges), layer.heads, layer.head_dim)
    weighted = src_h * alpha.reshape(len(edges), layer.heads, 1)
    agg = _segment_sum(
        weighted.reshape(len(edges), layer.heads * layer.head_dim), dst, num_nodes
    )
    return _relu(agg)


# ----------------------------------------------------------------- reductions
def _lstm(lstm, nodes: np.ndarray, batch) -> np.ndarray:
    """Final hidden state of ``nn.rnn.LSTM`` over each graph's node sequence.

    The tape pads every graph to the longest one and freezes a row's state
    once its sequence has ended, so a step only has to run the rows still
    inside theirs. ``pad_mask`` rows are prefixes (True for a graph's
    ``n`` nodes); gathered longest first, the rows alive at step ``t`` are
    a prefix that shrinks with ``t``. Rows that have ended are written to
    the result (in input order) and dropped; the loop body is the tape's on
    the rows that remain. When every graph has the same node count no row
    is ever dropped: the tape's shapes, the tape's bits.
    """
    cell = lstm.cell
    hd = cell.hidden_dim
    order = np.argsort(-batch.pad_mask.sum(axis=1), kind="stable")
    mask = batch.pad_mask[order]
    x = nodes[batch.pad_index[order]]  # [b, t, d]; pad slots repeat node 0
    keep = mask.astype(np.float32)
    drop = _ONE - keep
    out = np.empty((len(order), hd), dtype=np.float32)
    h = np.zeros((len(order), hd), dtype=np.float32)
    c = np.zeros((len(order), hd), dtype=np.float32)
    for t, n in enumerate(mask.sum(axis=0).tolist()):  # n rows reach step t
        if n < len(h):
            out[order[n : len(h)]] = h[n:]
            x, keep, drop, h, c = x[:n], keep[:n], drop[:n], h[:n], c[:n]
        z = _dense(cell.gates, np.concatenate([x[:, t, :], h], axis=-1))
        i = _sigmoid(z[:, 0 * hd : 1 * hd])
        f = _sigmoid(z[:, 1 * hd : 2 * hd] + _ONE)  # forget-gate bias of 1
        g = np.tanh(z[:, 2 * hd : 3 * hd])
        o = _sigmoid(z[:, 3 * hd : 4 * hd])
        c_next = f * c + i * g
        h_next = o * np.tanh(c_next)
        # All ones and all zeros on the rows that remain; kept because
        # ``h * 0`` carries h's sign (and NaN) into the sum as on the tape.
        step, frozen = keep[:, t : t + 1], drop[:, t : t + 1]
        h = h_next * step + h * frozen
        c = c_next * step + c * frozen
    out[order[: len(h)]] = h
    return out


def _masked_softmax(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    x = np.where(mask, x, -1e30)
    x = x - x.max(axis=-1, keepdims=True)
    e = np.where(mask, np.exp(x), 0.0)
    return e / np.maximum(e.sum(axis=-1, keepdims=True), 1e-30)


def _attention(attn, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    batch, time, _ = x.shape

    def split(y: np.ndarray) -> np.ndarray:  # [b, t, d] -> [b, h, t, hd]
        return y.reshape(batch, time, attn.heads, attn.head_dim).transpose(0, 2, 1, 3)

    q = split(_dense(attn.wq, x))
    k = split(_dense(attn.wk, x))
    v = split(_dense(attn.wv, x))
    scores = (q @ k.transpose(0, 1, 3, 2)) * np.float32(1.0 / math.sqrt(attn.head_dim))
    pair_mask = mask[:, None, None, :] & mask[:, None, :, None]
    weights = _masked_softmax(scores, np.broadcast_to(pair_mask, scores.shape))
    merged = (weights @ v).transpose(0, 2, 1, 3).reshape(batch, time, attn.dim)
    return _dense(attn.wo, merged)


def _transformer(encoder, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``nn.attention.TransformerEncoder``: blocks, masked sum, final norm."""
    for block in encoder.blocks:
        x = x + _attention(block.attn, _layer_norm(block.norm1, x), mask)
        x = x + _dense(block.ff2, _dense(block.ff1, _layer_norm(block.norm2, x)))
    pooled = (x * mask[:, :, None].astype(np.float32)).sum(axis=1)
    return _layer_norm(encoder.final_norm, pooled)


def _padded_view(nodes: np.ndarray, batch) -> np.ndarray:
    """Node embeddings gathered into [batch, max_nodes, h] (pad rows repeat
    node 0; every consumer masks them)."""
    b, t = batch.pad_index.shape
    return nodes[batch.pad_index.reshape(-1)].reshape(b, t, nodes.shape[-1])


# --------------------------------------------------------------------- model
def forward(model, batch) -> np.ndarray:
    """Scores of ``model`` on ``batch``: float32 [batch], a fresh array.

    Args:
        model: a :class:`~repro.models.model.LearnedPerformanceModel`; its
            ``training`` flag is neither read nor written.
        batch: a :class:`~repro.data.batching.GraphBatch`.
    """
    cfg = model.config
    ctx = batch.context
    gids = ctx.graph_ids
    nb = ctx.num_graphs
    tile = cfg.task == "tile"
    static = cfg.use_static_features

    parts = [
        _f32(model.opcode_embedding.table.data[np.asarray(batch.opcodes, dtype=np.int64)]),
        batch.node_feats,
    ]
    if tile and cfg.tile_placement == "node":
        parts.append(batch.tile_feats[gids])
    if static and cfg.static_placement == "node":
        parts.append(batch.static_feats[gids])
    x = _dense(model.input_proj, np.concatenate(parts, axis=-1, dtype=np.float32))

    for layer in model.gnn_layers:
        if cfg.gnn == "gat":
            x = _gat(layer, x, ctx.edges, ctx.num_nodes)
        elif cfg.directed:
            x = _graphsage(layer, x, ctx.adj_in, ctx.adj_out)
        else:
            x = _graphsage(layer, x, ctx.adj_sym, ctx.adj_sym)
    for layer in model.node_final.layers:
        x = _dense(layer, x)

    extras = []
    if tile and cfg.tile_placement == "kernel":
        extras.append(batch.tile_feats)
    if static and cfg.static_placement == "kernel":
        extras.append(batch.static_feats)

    if cfg.reduction == "per-node":
        pred = _segment_sum(_dense(model.node_head, x), gids, nb).reshape(nb)
        if extras:
            kernel_feats = np.concatenate(extras, axis=-1, dtype=np.float32)
            pred = pred + _dense(model.kernel_correction, kernel_feats).reshape(nb)
        return pred

    if cfg.reduction == "column-wise":
        counts = np.bincount(gids, minlength=nb).astype(np.float32)
        mean = _segment_sum(x, gids, nb) * (1.0 / counts[:, None])
        floor = np.where(batch.pad_mask[:, :, None], 0.0, -1e30).astype(np.float32)
        kernel_emb = np.concatenate(
            [mean, (_padded_view(x, batch) + floor).max(axis=1)], axis=-1
        )
    elif cfg.reduction == "lstm":
        kernel_emb = _lstm(model.lstm, x, batch)
    else:
        kernel_emb = _transformer(model.encoder, _padded_view(x, batch), batch.pad_mask)

    if extras:
        kernel_emb = np.concatenate([kernel_emb, *extras], axis=-1, dtype=np.float32)
    return _dense(model.head, kernel_emb).reshape(nb)
