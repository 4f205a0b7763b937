"""Tests for LSTM, Transformer and GNN layers (masking and invariances)."""
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from oracles import lstm_cell
from repro.nn import (
    LSTM,
    LSTMCell,
    BatchedGraphContext,
    GATLayer,
    GraphSAGELayer,
    MultiHeadAttention,
    Tensor,
    TransformerEncoder,
    no_grad,
)
from repro.nn import attention
from repro.nn.graph_layers import GraphOperators

rng = np.random.default_rng(3)


def _tape_lstm(lstm, x, mask):
    """The stepwise tape LSTM: :func:`oracles.lstm_cell` looped over every
    time step of the padded batch, (h, c) frozen by a mask blend after a
    row's end. The one-node :class:`LSTM` is checked against it."""
    batch, time, _ = x.shape
    h = Tensor(np.zeros((batch, lstm.hidden_dim), dtype=np.float32))
    c = Tensor(np.zeros((batch, lstm.hidden_dim), dtype=np.float32))
    for t in range(time):
        xt = x[:, t, :]
        h_new, c_new = lstm_cell(lstm.cell, xt, h, c)
        step = Tensor(mask[:, t : t + 1].astype(np.float32))
        h = h_new * step + h * (1.0 - step)
        c = c_new * step + c * (1.0 - step)
    return h


def _tape_spmm(matrix, x):
    """``matrix @ x`` as one tape op on SciPy's own matrix of the same
    arrays, whose backward builds ``matrix.T`` afresh."""
    ref = sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
    return x._make(
        np.asarray(ref @ x.data, dtype=np.float32), (x,), lambda g: (ref.T.tocsr() @ g,)
    )


def _tape_graphsage(layer, x, adj_in, adj_out):
    """The composite tape hop: each of the layer's bias-free ReLU ``Dense``
    layers as a matmul node and a relu node, an spmm node per direction,
    concat, and the L2 step's five nodes. The one-node
    :class:`GraphSAGELayer` is checked against it."""
    branches = [(adj_in, layer.agg_in)] + ([(adj_out, layer.agg_out)] if layer.directed else [])
    messages = [_tape_spmm(adj, (x @ dense.weight).relu()) for adj, dense in branches]
    h = (Tensor.concat([x, *messages], axis=-1) @ layer.update.weight).relu()
    return h * (((h * h).sum(axis=-1, keepdims=True) + 1e-12) ** -0.5)


def _same_bits(got, want):
    assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _padded(lengths, dim, seed):
    """Random [batch, max(lengths), dim] inputs and their prefix mask; pad
    slots hold values of their own, which no output may see."""
    r = np.random.default_rng(seed)
    lengths = np.asarray(lengths)
    x = r.normal(size=(len(lengths), int(lengths.max()), dim)).astype(np.float32)
    mask = np.arange(x.shape[1])[None, :] < lengths[:, None]
    return x, mask


def _grad(p):
    return p.grad if p.grad is not None else np.zeros_like(p.data)


class TestLSTM:
    def test_cell_shapes(self):
        cell = LSTMCell(8, 16)
        h, c = lstm_cell(
            cell,
            Tensor(rng.normal(size=(4, 8))),
            Tensor(np.zeros((4, 16))),
            Tensor(np.zeros((4, 16))),
        )
        assert h.shape == (4, 16)
        assert c.shape == (4, 16)

    def test_final_state_ignores_padding(self):
        lstm = LSTM(4, 8)
        x = rng.normal(size=(2, 5, 4)).astype(np.float32)
        mask = np.array([[True] * 5, [True, True, False, False, False]])
        out_padded = lstm(Tensor(x), mask).numpy()
        # Same result if the padding region contains garbage.
        x2 = x.copy()
        x2[1, 2:] = 99.0
        out_garbage = lstm(Tensor(x2), mask).numpy()
        np.testing.assert_allclose(out_padded[1], out_garbage[1], rtol=1e-5)

    def test_short_sequence_equals_truncated_run(self):
        lstm = LSTM(4, 8)
        x = rng.normal(size=(1, 6, 4)).astype(np.float32)
        mask_short = np.zeros((1, 6), dtype=bool)
        mask_short[0, :3] = True
        out_short = lstm(Tensor(x), mask_short).numpy()
        out_trunc = lstm(Tensor(x[:, :3]), np.ones((1, 3), dtype=bool)).numpy()
        np.testing.assert_allclose(out_short, out_trunc, rtol=1e-5)

    def test_gradients_flow(self):
        lstm = LSTM(4, 8)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        lstm(x, np.ones((2, 3), dtype=bool)).sum().backward()
        assert x.grad is not None
        assert any(p.grad is not None for p in lstm.parameters())


class TestLstmAgainstTheStepwiseTape:
    """:class:`LSTM` against :func:`_tape_lstm`: forward bitwise when every
    row has one length (the same matmul shapes at every step), within
    float32 rounding otherwise; ``x.grad`` and the gate weight's gradient
    within float32 rounding always."""

    @given(
        lengths=st.one_of(
            st.lists(st.integers(0, 23), min_size=1, max_size=9),
            st.tuples(st.integers(0, 23), st.integers(1, 9)).map(lambda nb: [nb[0]] * nb[1]),
        ),
        traced=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_stepwise_tape(self, lengths, traced, seed):
        dim, hidden = 5, 6
        x_data, mask = _padded(lengths, dim, seed)
        upstream = np.random.default_rng(seed + 1).normal(size=(len(lengths), hidden))
        outs, grads = [], []
        for run in (lambda lstm, x: lstm(x, mask), lambda lstm, x: _tape_lstm(lstm, x, mask)):
            lstm = LSTM(dim, hidden, rng=np.random.default_rng(seed))
            x = Tensor(x_data, requires_grad=True)
            if traced:
                out = run(lstm, x)
                (out * Tensor(upstream)).sum().backward()
                grads.append((_grad(x), _grad(lstm.cell.gates.weight)))
            else:
                with no_grad():
                    out = run(lstm, x)
                assert not out.requires_grad
            outs.append(out.numpy())
        (got, want) = outs
        assert got.dtype == want.dtype == np.float32
        if len(set(lengths)) == 1:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)
        for row, n in enumerate(lengths):
            if n == 0:  # never stepped: the initial state
                assert not got[row].any()
        if traced:
            (dx, dw), (dx_want, dw_want) = grads
            assert dx.dtype == dw.dtype == np.float32
            np.testing.assert_allclose(dx, dx_want, rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(dw, dw_want, rtol=1e-5, atol=1e-6)
            assert not dx[~mask].any()  # pad slots get no gradient

    def test_gradients_match_central_differences(self):
        lengths, dim, hidden = (3, 1, 2), 3, 4
        x_data, mask = _padded(lengths, dim, seed=17)
        upstream = np.random.default_rng(18).normal(size=(len(lengths), hidden))
        lstm = LSTM(dim, hidden, rng=np.random.default_rng(19))
        weight = lstm.cell.gates.weight
        x = Tensor(x_data, requires_grad=True)
        (lstm(x, mask) * Tensor(upstream)).sum().backward()

        def loss():
            with no_grad():
                out = lstm(Tensor(x_data), mask).numpy()
            return float((out.astype(np.float64) * upstream).sum())

        eps = 1e-2
        for array, grad in ((x_data, x.grad), (weight.data, weight.grad)):
            numeric = np.zeros(array.shape)
            for idx in np.ndindex(array.shape):
                old = array[idx]
                array[idx] = old + eps
                plus = loss()
                array[idx] = old - eps
                minus = loss()
                array[idx] = old
                numeric[idx] = (plus - minus) / (2 * eps)
            np.testing.assert_allclose(grad, numeric, rtol=1e-2, atol=1e-3)
        assert not x.grad[~mask].any()


class TestAttention:
    def test_mha_shapes(self):
        mha = MultiHeadAttention(16)
        x = Tensor(rng.normal(size=(2, 5, 16)))
        out = mha(x, np.ones((2, 5), dtype=bool))
        assert out.shape == (2, 5, 16)

    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10)

    def test_padding_does_not_affect_valid_positions(self):
        enc = TransformerEncoder(8)
        x = rng.normal(size=(1, 6, 8)).astype(np.float32)
        mask = np.zeros((1, 6), dtype=bool)
        mask[0, :4] = True
        out1 = enc(Tensor(x), mask).numpy()
        x2 = x.copy()
        x2[0, 4:] = -50.0
        out2 = enc(Tensor(x2), mask).numpy()
        np.testing.assert_allclose(out1, out2, rtol=1e-4, atol=1e-5)

    def test_masked_sum_pooling(self):
        """Pooling is the masked sum followed by the final LayerNorm."""
        enc = pooling_only(8)
        x = rng.normal(size=(1, 3, 8)).astype(np.float32)
        mask = np.array([[True, True, False]])
        out = enc(Tensor(x), mask).numpy()
        summed = x[0, :2].sum(axis=0)
        expected = (summed - summed.mean()) / np.sqrt(summed.var() + 1e-5)
        np.testing.assert_allclose(out[0], expected, rtol=1e-4, atol=1e-5)

    def test_pooling_ignores_masked_positions(self):
        enc = pooling_only(8)
        x = rng.normal(size=(1, 3, 8)).astype(np.float32)
        mask = np.array([[True, True, False]])
        out1 = enc(Tensor(x), mask).numpy()
        x2 = x.copy()
        x2[0, 2] = 123.0
        out2 = enc(Tensor(x2), mask).numpy()
        np.testing.assert_allclose(out1, out2, rtol=1e-6)


def pooling_only(dim):
    """A :class:`TransformerEncoder` built with no encoder block: its
    masked-sum pooling and final LayerNorm alone."""
    with mock.patch.object(attention, "ENCODER_LAYERS", 0):
        return TransformerEncoder(dim)


def random_contexts(sizes, seed=0):
    r = np.random.default_rng(seed)
    adjs = []
    for n in sizes:
        a = np.triu((r.random((n, n)) < 0.4).astype(np.float32), 1)
        adjs.append(sp.csr_matrix(a))
    return adjs


class TestBatchedGraphContext:
    def test_block_structure(self):
        adjs = random_contexts([3, 4, 2])
        ctx = BatchedGraphContext(adjs)
        assert ctx.num_nodes == 9
        assert ctx.num_graphs == 3
        np.testing.assert_array_equal(ctx.graph_ids, [0, 0, 0, 1, 1, 1, 1, 2, 2])

    def test_edges_within_blocks(self):
        adjs = random_contexts([3, 4])
        ctx = BatchedGraphContext(adjs)
        blocks = np.array([0, 0, 0, 1, 1, 1, 1])
        for src, dst in ctx.edges:
            assert blocks[src] == blocks[dst]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchedGraphContext([])


class TestGraphSAGE:
    def test_output_shape(self):
        ctx = BatchedGraphContext(random_contexts([5, 6]))
        layer = GraphSAGELayer(8, 12)
        out = layer(Tensor(rng.normal(size=(11, 8))), ctx.adj_in, ctx.adj_out)
        assert out.shape == (11, 12)

    def test_l2_normalized_rows(self):
        ctx = BatchedGraphContext(random_contexts([6]))
        layer = GraphSAGELayer(8, 8)
        out = layer(Tensor(rng.normal(size=(6, 8))), ctx.adj_in, ctx.adj_out).numpy()
        norms = np.linalg.norm(out, axis=-1)
        # relu can zero a row entirely; others must be unit.
        assert np.all((np.abs(norms - 1.0) < 1e-4) | (norms < 1e-6))

    def test_batching_invariance(self):
        """Processing two graphs in one batch == processing them separately."""
        adjs = random_contexts([4, 5], seed=9)
        x1 = rng.normal(size=(4, 8)).astype(np.float32)
        x2 = rng.normal(size=(5, 8)).astype(np.float32)
        layer = GraphSAGELayer(8, 8)
        ctx_joint = BatchedGraphContext(adjs)
        joint = layer(Tensor(np.concatenate([x1, x2])), ctx_joint.adj_in, ctx_joint.adj_out).numpy()
        c1 = BatchedGraphContext([adjs[0]])
        c2 = BatchedGraphContext([adjs[1]])
        s1 = layer(Tensor(x1), c1.adj_in, c1.adj_out).numpy()
        s2 = layer(Tensor(x2), c2.adj_in, c2.adj_out).numpy()
        np.testing.assert_allclose(joint, np.concatenate([s1, s2]), rtol=1e-4, atol=1e-5)

    def test_undirected_variant_parameter_count(self):
        directed = GraphSAGELayer(8, 8, directed=True)
        undirected = GraphSAGELayer(8, 8, directed=False)
        assert len(directed.parameters()) > len(undirected.parameters())

    def test_isolated_nodes_keep_self_information(self):
        a = sp.csr_matrix(np.zeros((3, 3), dtype=np.float32))
        ctx = BatchedGraphContext([a])
        layer = GraphSAGELayer(4, 4)
        x = rng.normal(size=(3, 4)).astype(np.float32)
        out = layer(Tensor(x), ctx.adj_in, ctx.adj_out).numpy()
        assert np.isfinite(out).all()


class TestGraphSageHopAgainstTheCompositeTape:
    """The one-node hop against :func:`_tape_graphsage`, bit for bit: the
    output, ``x.grad`` and every weight's gradient, directed or not, on
    batches of random graphs with isolated
    nodes and neighbor lists the cap truncates."""

    @given(
        sizes=st.lists(st.integers(1, 25), min_size=1, max_size=3),
        density=st.sampled_from((0.0, 0.15, 0.5, 0.95)),
        cap=st.sampled_from((1, 3, 20, None)),
        directed=st.booleans(),
        dims=st.tuples(st.integers(1, 7), st.integers(1, 7)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_composite_tape(self, sizes, density, cap, directed, dims, seed):
        r = np.random.default_rng(seed)
        ctx = BatchedGraphContext.compose(
            [
                GraphOperators((r.random((n, n)) < density) & ~np.eye(n, dtype=bool), cap)
                for n in sizes
            ]
        )
        adj_in, adj_out = (ctx.adj_in, ctx.adj_out) if directed else (ctx.adj_sym, ctx.adj_sym)
        in_dim, out_dim = dims
        x_data = r.normal(size=(ctx.num_nodes, in_dim)).astype(np.float32)
        upstream = r.normal(size=(ctx.num_nodes, out_dim)).astype(np.float32)
        upstream[r.random(upstream.shape) < 0.2] = -0.0
        runs = []
        for hop in (GraphSAGELayer.__call__, _tape_graphsage):
            layer = GraphSAGELayer(in_dim, out_dim, directed=directed, rng=np.random.default_rng(seed))
            x = Tensor(x_data, requires_grad=True)
            out = hop(layer, x, adj_in, adj_out)
            (out * Tensor(upstream)).sum().backward()
            runs.append([out.numpy(), x.grad, *(_grad(p) for p in layer.parameters())])
        (got, want) = runs
        assert len(got) == len(want) == (5 if directed else 4)
        for a, b in zip(got, want):
            _same_bits(a, b)
        # predict's path runs the same function.
        _same_bits(layer.apply(x_data, adj_in, adj_out), want[0])
        with no_grad():
            _same_bits(layer(Tensor(x_data), adj_in, adj_out).numpy(), want[0])


class TestGAT:
    def test_output_shape(self):
        ctx = BatchedGraphContext(random_contexts([5, 4]))
        layer = GATLayer(8, 8)
        out = layer(Tensor(rng.normal(size=(9, 8))), ctx.edges, ctx.num_nodes)
        assert out.shape == (9, 8)

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            GATLayer(8, 9)

    def test_no_edges_fallback(self):
        layer = GATLayer(4, 4)
        out = layer(Tensor(rng.normal(size=(3, 4))), np.zeros((0, 2), dtype=np.int64), 3)
        assert out.shape == (3, 4)

    def test_gradients_flow(self):
        ctx = BatchedGraphContext(random_contexts([6]))
        layer = GATLayer(8, 8)
        x = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
        layer(x, ctx.edges, ctx.num_nodes).sum().backward()
        assert x.grad is not None
