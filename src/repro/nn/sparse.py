"""Sparse adjacency support for graph neural networks.

Batched GNN layers multiply node-feature matrices by (block-diagonal)
adjacency matrices. Those matrices are constants of a batch — they carry no
gradient — so they are kept as ``scipy.sparse`` CSR matrices and wrapped in
a differentiable ``spmm`` whose backward multiplies by the transpose.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .tensor import Tensor


def spmm(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """Differentiable ``matrix @ x`` for a constant sparse ``matrix``.

    Args:
        matrix: [m, n] scipy sparse matrix (no gradient).
        x: [n, d] dense tensor.

    Returns:
        [m, d] tensor; gradient w.r.t. ``x`` is ``matrix.T @ grad``.
    """
    csr = matrix.tocsr()
    out = csr @ x.data

    def backward(g: np.ndarray):
        # Transposed only when a gradient is asked for: a forward that
        # records no tape never pays for it.
        return (csr.T.tocsr() @ g,)

    return x._make(np.asarray(out, dtype=np.float32), (x,), backward)


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets.

    Args:
        x: [n, d] values.
        segment_ids: [n] bucket index per row.
        num_segments: number of output rows.

    Returns:
        [num_segments, d]; gradient gathers back per row.
    """
    ids = np.asarray(segment_ids)
    out = np.zeros((num_segments,) + x.data.shape[1:], dtype=np.float32)
    np.add.at(out, ids, x.data)

    def backward(g: np.ndarray):
        return (g[ids],)

    return x._make(out, (x,), backward)


def segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over variable-size segments (per-destination attention).

    Args:
        scores: [n] or [n, h] per-edge scores.
        segment_ids: [n] destination node of each edge.
        num_segments: node count.

    Returns:
        Normalized weights with the same shape as ``scores``.
    """
    ids = np.asarray(segment_ids)
    data = scores.data
    # Stabilize per segment.
    seg_max = np.full((num_segments,) + data.shape[1:], -np.inf, dtype=np.float32)
    np.maximum.at(seg_max, ids, data)
    shifted = data - seg_max[ids]
    e = np.exp(shifted)
    denom = np.zeros((num_segments,) + data.shape[1:], dtype=np.float32)
    np.add.at(denom, ids, e)
    out = e / np.maximum(denom[ids], 1e-30)

    def backward(g: np.ndarray):
        # d softmax: out * (g - sum_seg(g * out)).
        dot = np.zeros((num_segments,) + data.shape[1:], dtype=np.float32)
        np.add.at(dot, ids, g * out)
        return (out * (g - dot[ids]),)

    return scores._make(out, (scores,), backward)


def stack_csr(blocks: list[sp.csr_matrix]) -> sp.csr_matrix:
    """Block-diagonal stack of CSR matrices by direct index arithmetic.

    Equivalent to ``sp.block_diag(blocks, format="csr")`` but built from the
    blocks' ``data``/``indices``/``indptr`` arrays directly, with no
    intermediate COO conversion. Each block's per-row stored entry order is
    preserved verbatim (scipy products such as ``normalized_adjacency``'s
    ``d @ m`` emit *unsorted* per-row layouts — the flag is left for scipy
    to determine), so downstream ``@`` products traverse entries in the
    same order as the ``block_diag``-then-normalize path and produce
    bitwise-identical results. The result never aliases a block's arrays:
    callers may mutate it without corrupting cached inputs.
    """
    if not blocks:
        raise ValueError("stack_csr needs at least one block")
    if len(blocks) == 1:
        return blocks[0].copy()
    n_rows = sum(b.shape[0] for b in blocks)
    n_cols = sum(b.shape[1] for b in blocks)
    data = np.concatenate([b.data for b in blocks])
    col_offsets = np.cumsum([0] + [b.shape[1] for b in blocks[:-1]])
    indices = np.concatenate(
        [b.indices + off for b, off in zip(blocks, col_offsets)]
    )
    nnz_offsets = np.cumsum([0] + [b.nnz for b in blocks[:-1]])
    indptr = np.concatenate(
        [np.asarray([0], dtype=np.int64)]
        + [b.indptr[1:].astype(np.int64) + off for b, off in zip(blocks, nnz_offsets)]
    )
    return sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))


def normalized_adjacency(
    adjacency: sp.spmatrix, direction: str = "in", cap: int | None = 20
) -> sp.csr_matrix:
    """Mean-aggregation operator from a 0/1 adjacency matrix.

    Args:
        adjacency: [n, n] with ``A[i, j] = 1`` iff edge i -> j.
        direction: "in" aggregates from operands (incoming edges), "out"
            from users (outgoing edges), "both" from the union.
        cap: maximum neighbors per node (the paper truncates neighbor lists
            at 20); degree normalization uses the capped degree.

    Returns:
        CSR matrix ``M`` with ``(M @ H)[i]`` = mean over i's neighbors of H.
    """
    a = adjacency.tocsr().astype(np.float32)
    if direction == "in":
        m = a.T.tocsr()
    elif direction == "out":
        m = a
    elif direction == "both":
        m = (a + a.T).tocsr()
        m.data = np.minimum(m.data, 1.0)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    m = m.tolil()
    if cap is not None:
        for i, row in enumerate(m.rows):
            if len(row) > cap:
                keep = row[:cap]  # deterministic truncation (paper App. B)
                vals = [1.0] * cap
                m.rows[i] = keep
                m.data[i] = vals
    m = m.tocsr()
    deg = np.asarray(m.sum(axis=1)).reshape(-1)
    inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
    d = sp.diags(inv.astype(np.float32))
    return (d @ m).tocsr()
