"""Graph neural-network layers: GraphSAGE and GAT.

Both operate on a *batched* graph: node features of all graphs in a batch
are stacked into one [total_nodes, dim] matrix, and adjacency is a
block-diagonal sparse matrix, so a batch is processed with two sparse
matmuls per layer regardless of graph count.

GraphSAGE follows the paper's equation:

    eps_i^k = l2(f3^k(concat(eps_i^{k-1}, sum_{j in N(i)} f2^k(eps_j^{k-1}))))

with the aggregation direction(s) selectable: the paper's 'vanilla' model
distinguishes incoming from outgoing edges (separate feedforward nets per
direction), and the 'Undirected' ablation shares them.

A hop is one function on plain arrays, :func:`graphsage_hop`: the tape's
:class:`GraphSAGELayer` records it as a single node whose backward is
:func:`graphsage_hop_backward`, and ``models.inference`` calls it directly.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .csr import CSR
from .layers import Dense, Module
from .sparse import (
    mean_aggregation_csr,
    normalized_adjacency,
    segment_softmax,
    segment_sum,
    stack_csr,
)
from .tensor import Tensor, recording, relu_inplace

if TYPE_CHECKING:
    import scipy.sparse as sp

_L2_EPS = np.float32(1e-12)  # the per-row L2 step's epsilon

#: Attention heads of :class:`GATLayer`.
GAT_HEADS = 2


def graphsage_hop(
    x: np.ndarray,
    adj_in: CSR,
    adj_out: CSR,
    weights: list[np.ndarray],
    record: bool = False,
) -> tuple[np.ndarray, tuple | None]:
    """One GraphSAGE hop on plain arrays.

    ``u = relu(concat(x, adj_in @ relu(x @ w_in), adj_out @ relu(x @ w_out))
    @ w_update)``, then ``u * (sum(u * u) + eps) ** -0.5`` per row (the L2
    step of the GraphSAGE equation). Each array op is the one the
    composite tape (``Dense`` → ``spmm`` → ``concat`` → ``Dense`` → L2
    step) ran, on the same shapes, so the bits are the same.

    Args:
        x: [n, dim] node embeddings.
        adj_in / adj_out: [n, n] CSR mean-aggregation operators.
        weights: ``[w_in, w_out, w_update]`` directed; ``[w_in, w_update]``
            undirected, which has no ``adj_out`` term.
        record: keep what :func:`graphsage_hop_backward` needs.

    Returns:
        ``(out, saved)``: the fresh float32 [n, out_dim] embeddings, and the
        backward's state (``None`` unless ``record``).
    """
    # Each intermediate the backward does not keep is dropped as soon as it
    # is used: on a 64-row batch, holding them to the return made the hop
    # ≈ 8 % slower than the composite forward it replaced.
    *aggregators, w_update = weights
    parts, branches = [x], []
    for adj, weight in zip((adj_in, adj_out), aggregators):
        agg = relu_inplace(x @ weight)
        parts.append(np.asarray(adj @ agg, dtype=np.float32))
        if record:
            branches.append((adj, weight, agg > 0))
        del agg
    h = np.concatenate(parts, axis=-1)
    del parts
    u = relu_inplace(h @ w_update)
    if not record:
        del h
    sq_eps = (u * u).sum(axis=-1, keepdims=True) + _L2_EPS
    scale = sq_eps**-0.5
    # The backward keeps u, so only a forward alone scales it in place.
    out = u * scale if record else np.multiply(u, scale, out=u)
    return out, ((x, branches, h, w_update, u, scale, sq_eps) if record else None)


def graphsage_hop_backward(saved: tuple, grad: np.ndarray) -> tuple[np.ndarray, ...]:
    """The gradients of :func:`graphsage_hop`, as the composite tape forms them.

    The tape's backward visited the L2 step, the update, the incoming
    branch and then the outgoing one; every product, sum and accumulation
    below is the one it made, in that order, so the bits are its bits.

    Args:
        saved: the second value :func:`graphsage_hop` returned under
            ``record=True``.
        grad: [n, out_dim] gradient of the hop's output.

    Returns:
        ``(dx, dw_in, dw_update)`` undirected, ``(dx, dw_in, dw_out,
        dw_update)`` directed.
    """
    x, branches, h, w_update, u, scale, sq_eps = saved
    # out = u * scale, scale = (sum(u * u) + eps) ** -0.5: u gets
    # grad * scale from the product, then the u * u term twice.
    dscale = (grad * u).sum(axis=1, keepdims=True)
    dsq = (dscale * -0.5) * sq_eps**-1.5
    twice = dsq * u
    grad = (grad * scale + twice) + twice
    dpre = grad * (u > 0)
    dh = dpre @ w_update.T
    dw_update = h.T @ dpre
    dim = x.shape[1]
    dx = dh[:, :dim]
    dweights = []
    for k, (adj, weight, positive) in enumerate(branches, start=1):
        dagg = (adj.T @ dh[:, k * dim : (k + 1) * dim]) * positive
        dx = dx + dagg @ weight.T
        dweights.append(x.T @ dagg)
    return (dx, *dweights, dw_update)


class GraphOperators:
    """Pre-normalized structural operators of a *single* graph.

    Built from the dense 0/1 adjacency by plain index arithmetic
    (:func:`repro.nn.sparse.mean_aggregation_csr`: ``np.nonzero``,
    ``bincount`` degrees, neighbor-cap truncation, ``1/deg`` data, the
    three arrays held by a :class:`~repro.nn.csr.CSR`) — no SciPy
    constructor, format conversion or sparse product. Each operator equals
    :func:`~repro.nn.sparse.normalized_adjacency` of the same graph in
    stored entry order and ``data`` bits, which is what keeps the cached
    and the cold paths bitwise-identical.

    Normalization (neighbor-cap truncation + degree scaling) is row-local,
    so the normalized operators of individual graphs compose exactly into
    the batch-level block-diagonal operators: stacking per-graph normalized
    blocks equals normalizing the stacked raw blocks, bitwise. This is the
    invariant :class:`repro.data.batching.KernelCache` relies on. All three
    operators are built eagerly and never mutated, so one instance can be
    shared between threads.

    Args:
        adjacency: dense [n, n] array, nonzero at ``[i, j]`` iff edge i -> j.
        neighbor_cap: neighbor-list truncation (paper App. B: 20).

    Attributes:
        adj_in / adj_out / adj_sym: normalized single-graph CSR operators.
        edges: [e, 2] local (src, dst) pairs of raw forward edges, in
            row-major order.
        num_nodes: node count of this graph.
        neighbor_cap: the truncation the operators were built with.
    """

    __slots__ = ("adj_in", "adj_out", "adj_sym", "edges", "num_nodes", "neighbor_cap")

    def __init__(self, adjacency: np.ndarray, neighbor_cap: int | None = 20) -> None:
        out = np.asarray(adjacency) != 0
        self.adj_in = mean_aggregation_csr(out.T, neighbor_cap)
        self.adj_out = mean_aggregation_csr(out, neighbor_cap)
        self.adj_sym = mean_aggregation_csr(out | out.T, neighbor_cap)
        self.edges = np.argwhere(out)
        self.num_nodes = int(out.shape[0])
        self.neighbor_cap = neighbor_cap


class GraphSAGELayer(Module):
    """One GraphSAGE hop with mean aggregation.

    One tape node: the forward is :func:`graphsage_hop` over the weights of
    ``agg_in`` / ``agg_out`` / ``update`` (bias-free ReLU ``Dense`` layers),
    which ``predict`` calls too, and the backward is
    :func:`graphsage_hop_backward`.

    Args:
        in_dim / out_dim: embedding widths.
        directed: if True, incoming and outgoing neighborhoods get separate
            aggregator networks (the paper's edge-direction ablation knob).
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        directed: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.directed = directed
        self.agg_in = Dense(in_dim, in_dim, activation="relu", rng=rng)
        self.agg_out = (
            Dense(in_dim, in_dim, activation="relu", rng=rng) if directed else None
        )
        concat_dim = in_dim * (3 if directed else 2)
        self.update = Dense(concat_dim, out_dim, activation="relu", rng=rng)

    def forward(
        self, x: Tensor, adj_in: CSR, adj_out: CSR
    ) -> Tensor:
        """One message-passing hop.

        Args:
            x: [n, in_dim] node embeddings.
            adj_in: normalized aggregation operator over incoming edges.
            adj_out: same for outgoing edges (used when directed; the
                undirected variant receives the symmetrized operator in
                ``adj_in`` and ignores ``adj_out``).
        """
        weights = self._weights()
        out, saved = graphsage_hop(
            x.data,
            adj_in,
            adj_out,
            [w.data for w in weights],
            record=recording(x, *weights),
        )
        return x._make(out, (x, *weights), lambda g: graphsage_hop_backward(saved, g))

    def apply(self, x: np.ndarray, adj_in: CSR, adj_out: CSR) -> np.ndarray:
        """The hop on a plain array (what ``predict`` runs)."""
        weights = [w.data for w in self._weights()]
        return graphsage_hop(x, adj_in, adj_out, weights)[0]

    def _weights(self) -> list[Tensor]:
        if self.directed:
            return [self.agg_in.weight, self.agg_out.weight, self.update.weight]
        return [self.agg_in.weight, self.update.weight]


class GATLayer(Module):
    """Graph attention layer with :data:`GAT_HEADS` heads over the edge list.

    Attention coefficients are computed per edge and normalized with a
    per-destination segment softmax, then used to weight source features.
    """

    def __init__(
        self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        if out_dim % GAT_HEADS != 0:
            raise ValueError(f"out_dim {out_dim} not divisible by heads {GAT_HEADS}")
        rng = rng or np.random.default_rng(0)
        self.head_dim = out_dim // GAT_HEADS
        self.proj = Dense(in_dim, out_dim, rng=rng)
        self.attn_src = Dense(in_dim, GAT_HEADS, rng=rng)
        self.attn_dst = Dense(in_dim, GAT_HEADS, rng=rng)

    def forward(self, x: Tensor, edges: np.ndarray, num_nodes: int) -> Tensor:
        """One attention hop.

        Args:
            x: [n, in_dim] node embeddings.
            edges: [e, 2] int array of (src, dst) pairs (both directions
                should be present for undirected attention).
            num_nodes: n.

        Returns:
            [n, out_dim] embeddings (heads concatenated).
        """
        if len(edges) == 0:
            return self.proj(x).relu()
        src, dst = edges[:, 0], edges[:, 1]
        h = self.proj(x)  # [n, heads*hd]
        a_src = self.attn_src(x)  # [n, heads]
        a_dst = self.attn_dst(x)
        scores = a_src.take_rows(src) + a_dst.take_rows(dst)  # [e, heads]
        # LeakyReLU(0.2) as in the GAT paper.
        scores = scores.maximum(scores * 0.2)
        alpha = segment_softmax(scores, dst, num_nodes)  # [e, heads]
        src_h = h.take_rows(src).reshape(len(edges), GAT_HEADS, self.head_dim)
        weighted = src_h * alpha.reshape(len(edges), GAT_HEADS, 1)
        agg = segment_sum(
            weighted.reshape(len(edges), GAT_HEADS * self.head_dim), dst, num_nodes
        )
        return agg.relu()


class BatchedGraphContext:
    """Precomputed structural operators for a batch of graphs.

    Attributes:
        adj_in: block-diagonal normalized in-neighborhood operator.
        adj_out: same over outgoing edges.
        adj_sym: symmetrized operator (undirected ablation).
        edges: [e, 2] global-index edge list (src, dst), both directions
            included for GAT.
        graph_ids: [n] graph index of each node.
        num_graphs: batch size.

    A context built by :meth:`compose` stacks each of ``adj_in`` /
    ``adj_out`` / ``adj_sym`` / ``edges`` the first time it is read and
    keeps it; one built by the constructor (the cold SciPy reference path)
    holds all four from the start. Either way the operators are
    :class:`~repro.nn.csr.CSR` matrices.
    """

    def __init__(
        self,
        adjacencies: list[sp.spmatrix],
        neighbor_cap: int | None = 20,
    ) -> None:
        import scipy.sparse as sp

        if not adjacencies:
            raise ValueError("empty batch")
        block = sp.block_diag([a.tocsr() for a in adjacencies], format="csr")
        for name, direction in (("adj_in", "in"), ("adj_out", "out"), ("adj_sym", "both")):
            m = normalized_adjacency(block, direction, cap=neighbor_cap)
            setattr(self, name, CSR(m.data, m.indices, m.indptr, m.shape))
        coo = block.tocoo()
        fwd = np.stack([coo.row, coo.col], axis=1)
        rev = fwd[:, ::-1]
        self.edges = np.concatenate([fwd, rev], axis=0).astype(np.int64)
        sizes = [a.shape[0] for a in adjacencies]
        self.graph_ids = np.repeat(np.arange(len(sizes)), sizes)
        self.num_graphs = len(sizes)
        self.num_nodes = int(block.shape[0])
        self.sizes = sizes

    @classmethod
    def compose(cls, operators: list[GraphOperators]) -> "BatchedGraphContext":
        """Compose pre-normalized single-graph operators into a batch context.

        Zero-copy fast path: no ``sp.block_diag`` and no re-normalization —
        a batch operator is stacked from the per-graph normalized CSR
        blocks by direct ``indptr``/``indices`` arithmetic (normalization is
        row-local, so the result is bitwise-identical to normalizing the
        full block-diagonal matrix). The same :class:`GraphOperators` object
        may appear several times (e.g. one kernel scored under many tiles).

        Each of ``adj_in`` / ``adj_out`` / ``adj_sym`` / ``edges`` is
        stacked on first read and then kept on the context: a directed
        GraphSAGE model reads only ``adj_in`` / ``adj_out``, an undirected
        one only ``adj_sym``, GAT only ``edges``. A field is a pure
        function of the (immutable) operators, so two threads racing on a
        shared context's first read store equal values.
        """
        if not operators:
            raise ValueError("empty batch")
        ctx = cls.__new__(cls)
        ctx._operators = list(operators)
        sizes = [op.num_nodes for op in operators]
        ctx.graph_ids = np.repeat(np.arange(len(sizes)), sizes)
        ctx.num_graphs = len(sizes)
        ctx.num_nodes = int(sum(sizes))
        ctx.sizes = sizes
        return ctx

    def __getattr__(self, name: str):
        # Reached only for an attribute not set yet: the lazily stacked
        # fields of a composed context.
        if name not in ("adj_in", "adj_out", "adj_sym", "edges"):
            raise AttributeError(name)
        operators = self._operators
        if name == "edges":
            counts = [len(op.edges) for op in operators]
            fwd = np.concatenate([op.edges for op in operators], axis=0)
            fwd += np.repeat(np.cumsum(self.sizes) - self.sizes, counts)[:, None]
            value = np.concatenate([fwd, fwd[:, ::-1]], axis=0)
        else:
            value = stack_csr([getattr(op, name) for op in operators])
        setattr(self, name, value)
        return value
