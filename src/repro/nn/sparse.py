"""Sparse adjacency support for graph neural networks.

Batched GNN layers multiply node-feature matrices by (block-diagonal)
adjacency matrices. Those matrices are constants of a batch — they carry no
gradient — so they are kept as :class:`~repro.nn.csr.CSR` matrices and
wrapped in a differentiable ``spmm`` whose backward multiplies by the
transpose.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .csr import CSR, index_dtype
from .tensor import Tensor, scatter_add_rows

if TYPE_CHECKING:
    import scipy.sparse as sp


def spmm(matrix: CSR, x: Tensor) -> Tensor:
    """Differentiable ``matrix @ x`` for a constant sparse ``matrix``.

    Args:
        matrix: [m, n] CSR matrix (no gradient).
        x: [n, d] dense tensor.

    Returns:
        [m, d] tensor; gradient w.r.t. ``x`` is ``matrix.T @ grad``.
    """
    out = matrix @ x.data
    return x._make(np.asarray(out, dtype=np.float32), (x,), lambda g: (matrix.T @ g,))


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
    out = scatter_add_rows(ids, x.data, num_segments)
    return x._make(out, (x,), lambda g: (g[ids],))


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


def stack_csr(blocks: list[CSR]) -> CSR:
    """Block-diagonal stack of CSR matrices by direct index arithmetic.

    Equivalent to ``sp.block_diag(blocks, format="csr")`` but built from the
    blocks' ``data``/``indices``/``indptr`` arrays directly: one
    ``np.concatenate`` per array, then one ``np.repeat`` offset add each
    for the columns and the row pointers, whatever the number of blocks —
    no COO conversion and no per-block Python arithmetic. Each block's per-row
    stored entry order is preserved verbatim (:func:`mean_aggregation_csr`
    and ``normalized_adjacency``'s ``d @ m`` both emit *descending* columns
    within a row), so downstream ``@`` products traverse entries in the
    same order as the ``block_diag``-then-normalize path and produce
    bitwise-identical results. The same block may appear several times. The result never
    aliases a block's arrays: callers may mutate it without corrupting
    cached inputs.
    """
    if not blocks:
        raise ValueError("stack_csr needs at least one block")
    if len(blocks) == 1:
        b = blocks[0]
        return CSR(b.data.copy(), b.indices.copy(), b.indptr.copy(), b.shape)
    rows = np.asarray([b.shape[0] for b in blocks])
    cols = np.asarray([b.shape[1] for b in blocks])
    nnz = np.asarray([len(b.data) for b in blocks])
    shape = (int(rows.sum()), int(cols.sum()))
    data = np.concatenate([b.data for b in blocks])
    dtype = index_dtype(*shape, len(data))
    indices = np.concatenate([b.indices for b in blocks]).astype(dtype, copy=False)
    indices += np.repeat((np.cumsum(cols) - cols).astype(dtype), nnz)
    indptr = np.zeros(shape[0] + 1, dtype=dtype)
    np.concatenate([b.indptr[1:] for b in blocks], out=indptr[1:])
    indptr[1:] += np.repeat(np.cumsum(nnz) - nnz, rows)
    return CSR(data, indices, indptr, shape)


def mean_aggregation_csr(neighbors: np.ndarray, cap: int | None) -> CSR:
    """Mean-aggregation operator of one small graph, by index arithmetic.

    What :func:`normalized_adjacency` computes through ``tocsr`` / ``tolil``
    / ``diags @ m``, built from ``np.nonzero`` and ``bincount`` into a
    :class:`CSR` — for a kernel-sized graph the SciPy constructors, not the
    arithmetic, were the cost. The result equals the oracle's in
    ``indptr``, stored ``indices`` order (descending column within a row,
    as SciPy's ``d @ m`` emits), ``data`` bits and dtypes, so ``M @ x`` is
    bitwise the same.

    Args:
        neighbors: [n, n] boolean, ``neighbors[i, j]`` iff j is aggregated
            into i (the adjacency transposed for "in", as is for "out",
            symmetrised for "both").
        cap: keep the ``cap`` lowest-numbered neighbors per row (``None``
            keeps all); the mean is over the kept ones.
    """
    n = neighbors.shape[0]
    # Row-major nonzeros of the column-reversed mask: columns come out
    # descending within a row, the order the oracle stores.
    rows, reversed_cols = np.nonzero(neighbors[:, ::-1])
    degree = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(degree, out=indptr[1:])
    if cap is not None and degree.max() > cap:
        # The lowest-numbered neighbors are the last ``cap`` of each row.
        keep = indptr[rows + 1] - np.arange(len(rows)) <= cap
        rows, reversed_cols = rows[keep], reversed_cols[keep]
        degree = np.minimum(degree, cap)
        np.cumsum(degree, out=indptr[1:])
    data = np.float32(1.0) / degree[rows].astype(np.float32)
    indices = (n - 1 - reversed_cols).astype(np.int32)
    return CSR(data, indices, indptr, (n, n))


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
        ``csr_matrix`` ``M`` with ``(M @ H)[i]`` = mean over i's neighbors
        of H. SciPy is imported here: this is the reference the per-kernel
        builder :func:`mean_aggregation_csr` must equal, not a model path.
    """
    import scipy.sparse as sp

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
