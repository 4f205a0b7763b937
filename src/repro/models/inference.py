"""Tape-free forward of the learned performance model.

:func:`forward` computes exactly what
:meth:`~repro.models.model.LearnedPerformanceModel.forward` computes under
``no_grad()`` — same scores, same dtype, bitwise — but on plain
``ndarray``s: no :class:`~repro.nn.tensor.Tensor` per intermediate and no
backward closure per op. It is what
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
are free to be hoisted or shared. Where the tape runs one ndarray function,
this module calls that function rather than restating it: every ``Dense``
(``Dense.apply`` → ``nn.layers.dense``), every GraphSAGE hop
(``GraphSAGELayer.apply`` → ``nn.graph_layers.graphsage_hop``), the whole
LSTM reduction (``nn.rnn.lstm_final_state``, which steps each graph only
through its own nodes on both paths), the segment sum
(``nn.tensor.scatter_add_rows``) and the relu kernel
(``nn.tensor.relu_array``). What is restated here — layer norm, the GAT
hop, attention, the reductions' glue — is checked against the tape by
``tests/test_models_inference.py``. Python scalars the tape lifts to float32
tensors are float32 constants here.
"""
from __future__ import annotations

import math

import numpy as np

from ..nn.attention import HEADS
from ..nn.graph_layers import GAT_HEADS
from ..nn.layers import LAYER_NORM_EPS
from ..nn.rnn import lstm_final_state
from ..nn.tensor import relu_array, scatter_add_rows

_LEAKY_SLOPE = np.float32(0.2)  # GATLayer's LeakyReLU


# ------------------------------------------------------------------ nn.layers
def _mean_last(x: np.ndarray) -> np.ndarray:
    return x.sum(axis=-1, keepdims=True) * np.float32(1.0 / x.shape[-1])


def _layer_norm(layer, x: np.ndarray) -> np.ndarray:
    centered = x - _mean_last(x)
    var = _mean_last(centered * centered)
    inv = (var + np.float32(LAYER_NORM_EPS)) ** -0.5
    return centered * inv * layer.gain.data + layer.shift.data


# ------------------------------------------------------------------ nn.sparse
def _segment_softmax(scores: np.ndarray, ids: np.ndarray, num_segments: int) -> np.ndarray:
    shape = (num_segments,) + scores.shape[1:]
    seg_max = np.full(shape, -np.inf, dtype=np.float32)
    np.maximum.at(seg_max, ids, scores)
    e = np.exp(scores - seg_max[ids])
    denom = np.zeros(shape, dtype=np.float32)
    np.add.at(denom, ids, e)
    return e / np.maximum(denom[ids], 1e-30)


# ------------------------------------------------------------ nn.graph_layers
def _gat(layer, x: np.ndarray, edges: np.ndarray, num_nodes: int) -> np.ndarray:
    h = layer.proj.apply(x)
    if len(edges) == 0:
        return relu_array(h)
    src, dst = edges[:, 0], edges[:, 1]
    scores = layer.attn_src.apply(x)[src] + layer.attn_dst.apply(x)[dst]
    scores = np.maximum(scores, scores * _LEAKY_SLOPE)
    alpha = _segment_softmax(scores, dst, num_nodes)
    src_h = h[src].reshape(len(edges), GAT_HEADS, layer.head_dim)
    weighted = src_h * alpha.reshape(len(edges), GAT_HEADS, 1)
    agg = scatter_add_rows(
        dst, weighted.reshape(len(edges), GAT_HEADS * layer.head_dim), num_nodes
    )
    return relu_array(agg)


# ----------------------------------------------------------------- reductions
def _masked_softmax(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    x = np.where(mask, x, -1e30)
    x = x - x.max(axis=-1, keepdims=True)
    e = np.where(mask, np.exp(x), 0.0)
    return e / np.maximum(e.sum(axis=-1, keepdims=True), 1e-30)


def _attention(attn, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    batch, time, _ = x.shape

    def split(y: np.ndarray) -> np.ndarray:  # [b, t, d] -> [b, h, t, hd]
        return y.reshape(batch, time, HEADS, attn.head_dim).transpose(0, 2, 1, 3)

    q = split(attn.wq.apply(x))
    k = split(attn.wk.apply(x))
    v = split(attn.wv.apply(x))
    scores = (q @ k.transpose(0, 1, 3, 2)) * np.float32(1.0 / math.sqrt(attn.head_dim))
    pair_mask = mask[:, None, None, :] & mask[:, None, :, None]
    weights = _masked_softmax(scores, np.broadcast_to(pair_mask, scores.shape))
    merged = (weights @ v).transpose(0, 2, 1, 3).reshape(batch, time, attn.dim)
    return attn.wo.apply(merged)


def _transformer(encoder, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``nn.attention.TransformerEncoder``: blocks, masked sum, final norm."""
    for block in encoder.blocks:
        x = x + _attention(block.attn, _layer_norm(block.norm1, x), mask)
        x = x + block.ff2.apply(block.ff1.apply(_layer_norm(block.norm2, x)))
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
        model: a :class:`~repro.models.model.LearnedPerformanceModel`;
            nothing on it is written.
        batch: a :class:`~repro.data.batching.GraphBatch`.
    """
    cfg = model.config
    ctx = batch.context
    gids = ctx.graph_ids
    nb = ctx.num_graphs
    tile = cfg.task == "tile"
    static = cfg.use_static_features

    parts = [
        model.opcode_embedding.table.data[np.asarray(batch.opcodes, dtype=np.int64)],
        batch.node_feats,
    ]
    if tile and cfg.tile_placement == "node":
        parts.append(batch.tile_feats[gids])
    if static and cfg.static_placement == "node":
        parts.append(batch.static_feats[gids])
    x = model.input_proj.apply(np.concatenate(parts, axis=-1, dtype=np.float32))

    for layer in model.gnn_layers:
        if cfg.gnn == "gat":
            x = _gat(layer, x, ctx.edges, ctx.num_nodes)
        elif cfg.directed:
            x = layer.apply(x, ctx.adj_in, ctx.adj_out)
        else:
            x = layer.apply(x, ctx.adj_sym, ctx.adj_sym)
    for layer in model.node_final.layers:
        x = layer.apply(x)

    extras = []
    if tile and cfg.tile_placement == "kernel":
        extras.append(batch.tile_feats)
    if static and cfg.static_placement == "kernel":
        extras.append(batch.static_feats)

    if cfg.reduction == "per-node":
        pred = scatter_add_rows(gids, model.node_head.apply(x), nb).reshape(nb)
        if extras:
            kernel_feats = np.concatenate(extras, axis=-1, dtype=np.float32)
            pred = pred + model.kernel_correction.apply(kernel_feats).reshape(nb)
        return pred

    if cfg.reduction == "column-wise":
        counts = np.bincount(gids, minlength=nb).astype(np.float32)
        mean = scatter_add_rows(gids, x, nb) * (1.0 / counts[:, None])
        floor = np.where(batch.pad_mask[:, :, None], 0.0, -1e30).astype(np.float32)
        kernel_emb = np.concatenate(
            [mean, (_padded_view(x, batch) + floor).max(axis=1)], axis=-1
        )
    elif cfg.reduction == "lstm":
        kernel_emb, _ = lstm_final_state(
            model.lstm.cell.gates.weight.data, _padded_view(x, batch), batch.pad_mask
        )
    else:
        kernel_emb = _transformer(model.encoder, _padded_view(x, batch), batch.pad_mask)

    if extras:
        kernel_emb = np.concatenate([kernel_emb, *extras], axis=-1, dtype=np.float32)
    return model.head.apply(kernel_emb).reshape(nb)
