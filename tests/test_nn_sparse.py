"""Tests for sparse GNN support: spmm, segment ops, adjacency normalization."""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.nn import (
    Tensor,
    no_grad,
    normalized_adjacency,
    segment_softmax,
    segment_sum,
    spmm,
)

from repro.nn.graph_layers import BatchedGraphContext, GraphOperators
from repro.nn.sparse import mean_aggregation_csr, stack_csr

rng = np.random.default_rng(7)


class TestSpmm:
    def test_matches_dense(self):
        a = sp.random(6, 5, density=0.5, random_state=0, format="csr")
        x = Tensor(rng.normal(size=(5, 3)))
        out = spmm(a, x)
        np.testing.assert_allclose(out.numpy(), a.toarray() @ x.numpy(), rtol=1e-5)

    def test_gradient_is_transpose(self):
        a = sp.random(4, 4, density=0.6, random_state=1, format="csr")
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        spmm(a, x).sum().backward()
        expected = a.T.toarray() @ np.ones((4, 2))
        np.testing.assert_allclose(x.grad, expected, rtol=1e-5)


    def test_gradient_is_bitwise_the_transposed_product(self):
        a = sp.random(9, 7, density=0.4, random_state=2, format="csr", dtype=np.float32)
        x = Tensor(rng.normal(size=(7, 5)), requires_grad=True)
        g = rng.normal(size=(9, 5)).astype(np.float32)
        spmm(a, x).backward(g)
        np.testing.assert_array_equal(x.grad, a.T.tocsr() @ g)

    def test_forward_without_tape_builds_no_transpose(self):
        class CountingCSR(sp.csr_matrix):
            transposes = 0

            def transpose(self, axes=None, copy=False):
                CountingCSR.transposes += 1
                return super().transpose(axes=axes, copy=copy)

        a = CountingCSR(sp.random(6, 6, density=0.5, random_state=3, format="csr"))
        x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        with no_grad():
            spmm(a, x)
        spmm(a, Tensor(x.data))  # nothing upstream requires a gradient
        out = spmm(a, x)
        assert CountingCSR.transposes == 0
        out.sum().backward()
        assert CountingCSR.transposes == 1


class TestSegmentSum:
    def test_forward(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        out = segment_sum(x, np.array([0, 0, 1, 1]), 2)
        np.testing.assert_allclose(out.numpy(), [[3.0], [7.0]])

    def test_empty_segment_is_zero(self):
        x = Tensor(np.array([[1.0]]))
        out = segment_sum(x, np.array([2]), 3)
        np.testing.assert_allclose(out.numpy(), [[0.0], [0.0], [1.0]])

    def test_gradient_gathers(self):
        x = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        ids = np.array([0, 1, 0, 2, 1])
        (segment_sum(x, ids, 3) * Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))).sum().backward()
        expected = np.array([[1, 2], [3, 4], [1, 2], [5, 6], [3, 4]], dtype=np.float64)
        np.testing.assert_allclose(x.grad, expected, rtol=1e-5)


class TestSegmentSoftmax:
    def test_sums_to_one_per_segment(self):
        scores = Tensor(rng.normal(size=(6,)))
        ids = np.array([0, 0, 0, 1, 1, 2])
        out = segment_softmax(scores, ids, 3).numpy()
        assert out[:3].sum() == pytest.approx(1.0, abs=1e-5)
        assert out[3:5].sum() == pytest.approx(1.0, abs=1e-5)
        assert out[5] == pytest.approx(1.0, abs=1e-5)

    def test_matches_plain_softmax_single_segment(self):
        scores = rng.normal(size=(5,))
        out = segment_softmax(Tensor(scores), np.zeros(5, dtype=int), 1).numpy()
        ref = np.exp(scores - scores.max())
        ref /= ref.sum()
        np.testing.assert_allclose(out, ref, rtol=1e-5)

    def test_gradient_against_finite_differences(self):
        ids = np.array([0, 0, 1, 1, 1])
        base = rng.normal(size=(5,))
        w = rng.normal(size=(5,))

        def f(arr):
            return float((segment_softmax(Tensor(arr), ids, 2).numpy() * w).sum())

        x = Tensor(base.copy(), requires_grad=True)
        (segment_softmax(x, ids, 2) * Tensor(w)).sum().backward()
        eps = 1e-3
        num = np.zeros(5)
        for i in range(5):
            up, dn = base.copy(), base.copy()
            up[i] += eps
            dn[i] -= eps
            num[i] = (f(up) - f(dn)) / (2 * eps)
        np.testing.assert_allclose(x.grad, num, atol=2e-2)

    def test_multihead_scores(self):
        scores = Tensor(rng.normal(size=(4, 2)))
        ids = np.array([0, 0, 1, 1])
        out = segment_softmax(scores, ids, 2).numpy()
        np.testing.assert_allclose(out[:2].sum(axis=0), [1.0, 1.0], rtol=1e-5)


class TestNormalizedAdjacency:
    def chain(self):
        a = sp.csr_matrix(np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.float32))
        return a

    def test_in_direction_averages_operands(self):
        m = normalized_adjacency(self.chain(), "in")
        h = np.array([[1.0], [2.0], [3.0]])
        out = m @ h
        # Node 1's operand is node 0; node 2's operand is node 1.
        np.testing.assert_allclose(out, [[0.0], [1.0], [2.0]])

    def test_out_direction_averages_users(self):
        m = normalized_adjacency(self.chain(), "out")
        h = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_allclose(m @ h, [[2.0], [3.0], [0.0]])

    def test_both_symmetrizes(self):
        m = normalized_adjacency(self.chain(), "both")
        h = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_allclose(m @ h, [[2.0], [2.0], [2.0]])

    def test_rows_sum_to_one_or_zero(self):
        a = sp.random(10, 10, density=0.3, random_state=3, format="csr")
        a.data[:] = 1.0
        m = normalized_adjacency(a, "in")
        sums = np.asarray(m.sum(axis=1)).reshape(-1)
        assert np.all((np.abs(sums - 1.0) < 1e-5) | (np.abs(sums) < 1e-8))

    def test_neighbor_cap(self):
        # Node 0 feeds everyone: in-aggregation rows capped at 2 neighbors.
        n = 8
        a = np.zeros((n, n), dtype=np.float32)
        a[0, 1:] = 1.0
        m = normalized_adjacency(sp.csr_matrix(a), "out", cap=2)
        assert m[0].nnz <= 2

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            normalized_adjacency(self.chain(), "sideways")


@st.composite
def adjacencies(draw, max_nodes=80):
    """Dense 0/1 adjacency: a DAG (strict upper triangle) or a general
    digraph with cycles and self-loops; density 0 gives the edgeless graph."""
    n = draw(st.integers(1, max_nodes))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]))
    seed = draw(st.integers(0, 2**31 - 1))
    a = (np.random.default_rng(seed).random((n, n)) < density).astype(np.float32)
    return np.triu(a, 1) if draw(st.booleans()) else a


def assert_same_csr(got, want):
    """Equal as stored: row pointers, per-row entry order, value bits, dtypes."""
    assert got.shape == want.shape and got.dtype == want.dtype == np.float32
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data.view(np.uint32), want.data.view(np.uint32))


def stack_block_by_block(blocks):
    """Reference for ``stack_csr``: one Python-level offset add per block."""
    data = np.concatenate([b.data for b in blocks])
    col_offsets = np.cumsum([0] + [b.shape[1] for b in blocks[:-1]])
    indices = np.concatenate([b.indices + off for b, off in zip(blocks, col_offsets)])
    nnz_offsets = np.cumsum([0] + [b.nnz for b in blocks[:-1]])
    indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64)]
        + [b.indptr[1:].astype(np.int64) + off for b, off in zip(blocks, nnz_offsets)]
    )
    shape = (sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks))
    return sp.csr_matrix((data, indices, indptr), shape=shape)


class TestOperatorBuilderEqualsOracle:
    """The index-arithmetic builder against ``normalized_adjacency`` (SciPy
    ``tolil`` / ``diags @ m``), and lazy ``compose`` against the cold
    ``BatchedGraphContext``."""

    @given(adjacencies(), st.sampled_from([None, 1, 2, 20]), st.integers(0, 2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_single_graph_operators(self, a, cap, seed):
        ops = GraphOperators(a, neighbor_cap=cap)
        x = np.random.default_rng(seed).standard_normal((len(a), 5)).astype(np.float32)
        masks = {"in": a.T != 0, "out": a != 0, "both": (a != 0) | (a.T != 0)}
        for direction, got in (("in", ops.adj_in), ("out", ops.adj_out), ("both", ops.adj_sym)):
            want = normalized_adjacency(sp.csr_matrix(a), direction, cap=cap)
            assert_same_csr(got, want)
            assert_same_csr(mean_aggregation_csr(masks[direction], cap), want)
            assert got.indices.dtype == want.indices.dtype
            assert got.indptr.dtype == want.indptr.dtype
            np.testing.assert_array_equal(
                (got @ x).view(np.uint32), (want @ x).view(np.uint32)
            )
        coo = sp.csr_matrix(a).tocoo()
        np.testing.assert_array_equal(ops.edges, np.stack([coo.row, coo.col], axis=1))
        assert ops.edges.dtype == np.int64 and ops.num_nodes == len(a)

    @given(
        st.lists(adjacencies(max_nodes=24), min_size=1, max_size=5),
        st.sampled_from([None, 1, 2, 20]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_lazy_compose(self, graphs, cap, data):
        unique = [GraphOperators(a, neighbor_cap=cap) for a in graphs]
        picks = data.draw(
            st.lists(st.integers(0, len(unique) - 1), min_size=1, max_size=8)
        )
        operators = [unique[i] for i in picks]  # repeats allowed
        fields = ["adj_in", "adj_out", "adj_sym", "edges"]
        order = data.draw(st.permutations(fields))
        cold = BatchedGraphContext(
            [sp.csr_matrix(graphs[i]) for i in picks], neighbor_cap=cap
        )
        ctx = BatchedGraphContext.compose(operators)
        assert not set(fields) & set(vars(ctx))
        x = np.random.default_rng(0).standard_normal((cold.num_nodes, 3)).astype(np.float32)
        for name in order:
            got = getattr(ctx, name)
            assert getattr(ctx, name) is got  # kept, not stacked again
            if name == "edges":
                np.testing.assert_array_equal(got, cold.edges)
                assert got.dtype == cold.edges.dtype
                continue
            blocks = [getattr(op, name) for op in operators]
            assert_same_csr(got, stack_csr(blocks))
            assert_same_csr(got, stack_block_by_block(blocks))
            want = getattr(cold, name)
            assert_same_csr(got, want)
            np.testing.assert_array_equal(
                (got @ x).view(np.uint32), (want @ x).view(np.uint32)
            )
            assert not any(np.shares_memory(got.data, b.data) for b in blocks)
        np.testing.assert_array_equal(ctx.graph_ids, cold.graph_ids)
        assert (ctx.sizes, ctx.num_nodes, ctx.num_graphs) == (
            cold.sizes, cold.num_nodes, cold.num_graphs
        )

    def test_unknown_attribute_still_raises(self):
        ctx = BatchedGraphContext.compose([GraphOperators(np.zeros((2, 2)))])
        with pytest.raises(AttributeError):
            ctx.adj_typo
