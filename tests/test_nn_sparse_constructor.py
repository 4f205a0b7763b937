"""The operators' owned CSR type: SciPy's O(1) format checks, the dtypes
SciPy's constructor picked, and SciPy's products and transposes, bit for bit.

``mean_aggregation_csr``, ``stack_csr`` and ``scatter_add_rows`` build
``nn.csr.CSR`` matrices instead of ``csr_matrix((data, indices, indptr))``.
The bitwise equality of the operators with the SciPy oracle is
``test_nn_sparse.py``'s; this file pins what the constructor used to give
besides the numbers — a ``ValueError`` on malformed arrays and the dtypes —
and that ``A @ X`` and ``A.T`` are what SciPy computes from the same arrays.
"""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.nn.csr import CSR
from repro.nn.sparse import mean_aggregation_csr, stack_csr
from repro.nn.tensor import scatter_matrix


def arrays():
    """A valid 3 x 3 operator: (data, indices, indptr)."""
    return (
        np.ones(3, dtype=np.float32),
        np.array([0, 1, 2], dtype=np.int32),
        np.array([0, 1, 2, 3], dtype=np.int32),
    )


def corrupt(case):
    data, indices, indptr = arrays()
    if case == "2-D data":
        data = data.reshape(3, 1)
    elif case == "2-D indices":
        indices = indices.reshape(3, 1)
    elif case == "float indices":
        indices = indices.astype(np.float64)
    elif case == "float indptr":
        indptr = indptr.astype(np.float64)
    elif case == "short indptr":
        indptr = indptr[:-1]
    elif case == "indptr not from 0":
        indptr = np.array([1, 1, 2, 3], dtype=np.int32)
    elif case == "fewer values than indices":
        data = data[:2]
    elif case == "indptr past the entries":
        indptr = np.array([0, 1, 2, 4], dtype=np.int32)
    elif case == "indptr short of the entries":
        indptr = np.array([0, 1, 2, 2], dtype=np.int32)
    return data, indices, indptr


#: Corruptions SciPy's constructor rejected too; it cast float indices
#: and trimmed surplus entries instead of raising on the other three.
SCIPY_RAISES = {
    "2-D data", "2-D indices", "short indptr", "indptr not from 0",
    "fewer values than indices", "indptr past the entries",
}


class TestChecks:
    @pytest.mark.parametrize("case", [
        "2-D data", "2-D indices", "float indices", "float indptr", "short indptr",
        "indptr not from 0", "fewer values than indices", "indptr past the entries",
        "indptr short of the entries",
    ])
    def test_each_check_raises_value_error(self, case):
        data, indices, indptr = corrupt(case)
        with pytest.raises(ValueError):
            CSR(data, indices, indptr, (3, 3))
        if case in SCIPY_RAISES:
            with pytest.raises(ValueError):
                sp.csr_matrix((data, indices, indptr), shape=(3, 3))

    def test_valid_arrays_are_wrapped_not_copied(self):
        data, indices, indptr = arrays()
        m = CSR(data, indices, indptr, (3, 3))
        assert m.data is data and m.indices is indices and m.indptr is indptr
        assert m.shape == (3, 3) and m.nnz == 3 and m.dtype == np.float32


def scipy_built(m):
    """The same arrays through SciPy's constructor, as the operators were."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def assert_dtypes_like_scipy(m):
    ref = scipy_built(m)
    assert (m.data.dtype, m.indices.dtype, m.indptr.dtype) == (
        ref.data.dtype, ref.indices.dtype, ref.indptr.dtype
    )


def random_neighbors(n, seed):
    rng = np.random.default_rng(seed)
    return rng.random((n, n)) < 0.3


class TestDtypes:
    @pytest.mark.parametrize("cap", [None, 2])
    def test_mean_aggregation(self, cap):
        m = mean_aggregation_csr(random_neighbors(9, 0), cap)
        assert (m.data.dtype, m.indices.dtype, m.indptr.dtype) == (
            np.float32, np.int32, np.int32
        )
        assert_dtypes_like_scipy(m)

    def test_isolated_nodes(self):
        m = mean_aggregation_csr(np.zeros((4, 4), dtype=bool), None)
        assert m.nnz == 0
        assert_dtypes_like_scipy(m)

    @pytest.mark.parametrize("count", [1, 3])
    def test_stack(self, count):
        blocks = [mean_aggregation_csr(random_neighbors(5 + k, k), 20) for k in range(count)]
        m = stack_csr(blocks)
        assert (m.data.dtype, m.indices.dtype, m.indptr.dtype) == (
            np.float32, np.int32, np.int32
        )
        assert_dtypes_like_scipy(m)
        assert all(m.data is not b.data and m.indptr is not b.indptr for b in blocks)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_scatter(self, index_dtype):
        m = scatter_matrix(np.array([2, 0, 2], dtype=index_dtype), 4, np.float32)
        assert (m.data.dtype, m.indices.dtype, m.indptr.dtype) == (
            np.float32, np.int32, np.int32
        )
        assert_dtypes_like_scipy(m)


@st.composite
def neighbors(draw, max_nodes=12):
    n = draw(st.integers(1, max_nodes))
    density = draw(st.sampled_from([0.0, 0.1, 0.4, 1.0]))
    seed = draw(st.integers(0, 2**31 - 1))
    return np.random.default_rng(seed).random((n, n)) < density


@st.composite
def operators(draw):
    """Every way the model builds a CSR: one graph's mean aggregation, with
    and without a neighbor cap; a stack of 1-4 of them; the 0/1 scatter
    operator, whose rows may repeat an index, miss one or be empty."""
    kind = draw(st.sampled_from(["mean", "stack", "scatter"]))
    cap = draw(st.sampled_from([None, 1, 3]))
    if kind == "mean":
        return mean_aggregation_csr(draw(neighbors()), cap)
    if kind == "stack":
        masks = draw(st.lists(neighbors(max_nodes=8), min_size=1, max_size=4))
        return stack_csr([mean_aggregation_csr(mask, cap) for mask in masks])
    num_rows = draw(st.integers(1, 10))
    index = draw(st.lists(st.integers(0, num_rows - 1), min_size=0, max_size=24))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    values = draw(st.sampled_from([np.float32, np.float64]))
    return scatter_matrix(np.asarray(index, dtype=dtype), num_rows, values)


def same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestProductsAndTransposeAreSciPys:
    @given(
        operators(),
        st.sampled_from([0, 1, 2, 5]),  # 0 = a 1-D operand
        st.sampled_from([np.float32, np.float64]),
        st.booleans(),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matmul_and_transpose(self, a, width, dtype, strided, seed):
        ref = scipy_built(a)
        rng = np.random.default_rng(seed)
        cols = a.shape[1]
        shape = (cols,) if width == 0 else (cols, width)
        if strided:  # every other row of a twice-as-tall array: not contiguous
            x = rng.standard_normal((2 * cols,) + shape[1:]).astype(dtype)[::2]
        else:
            x = rng.standard_normal(shape).astype(dtype)
        same_bits(a @ x, ref @ x)

        t, want = a.T, ref.T.tocsr()
        assert a.T is t and t.shape == want.shape
        for field in ("data", "indices", "indptr"):
            same_bits(getattr(t, field), getattr(want, field))
        y = rng.standard_normal((a.shape[0], max(width, 1))).astype(dtype)
        same_bits(t @ y, want @ y)
