"""The operators' CSR wrapper: SciPy's O(1) format checks, without its
generic constructor, and the dtypes SciPy's constructor picked.

``mean_aggregation_csr`` and ``stack_csr`` wrap their arrays with
``nn.sparse._csr`` instead of ``csr_matrix((data, indices, indptr))``. The
bitwise equality of the operators with the SciPy oracle is
``test_nn_sparse.py``'s; this file pins what the constructor used to give
besides the numbers: a ``ValueError`` on malformed arrays, the dtypes, and a
matrix SciPy treats as its own.
"""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn.sparse import _csr, mean_aggregation_csr, stack_csr


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
            _csr(data, indices, indptr, (3, 3))
        if case in SCIPY_RAISES:
            with pytest.raises(ValueError):
                sp.csr_matrix((data, indices, indptr), shape=(3, 3))

    def test_valid_arrays_are_wrapped_not_copied(self):
        data, indices, indptr = arrays()
        m = _csr(data, indices, indptr, (3, 3))
        assert m.data is data and m.indices is indices and m.indptr is indptr
        assert m.shape == (3, 3) and m.nnz == 3


def scipy_built(m):
    """The same arrays through SciPy's constructor, as the operators were."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def assert_like_scipy(m):
    ref = scipy_built(m)
    assert type(m) is sp.csr_matrix
    assert (m.data.dtype, m.indices.dtype, m.indptr.dtype) == (
        ref.data.dtype, ref.indices.dtype, ref.indptr.dtype
    )
    assert vars(m).keys() == vars(ref).keys()
    assert m.maxprint == ref.maxprint and repr(m) == repr(ref)
    # SciPy's own machinery accepts it: a full format check, a transpose,
    # a product, a copy.
    m.copy().check_format(full_check=True)
    x = np.arange(m.shape[1] * 2, dtype=np.float32).reshape(m.shape[1], 2)
    assert (m @ x).tobytes() == (ref @ x).tobytes()
    assert (m.T.tocsr() != ref.T.tocsr()).nnz == 0


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
        assert_like_scipy(m)

    def test_isolated_nodes(self):
        m = mean_aggregation_csr(np.zeros((4, 4), dtype=bool), None)
        assert m.nnz == 0
        assert_like_scipy(m)

    @pytest.mark.parametrize("count", [1, 3])
    def test_stack(self, count):
        blocks = [mean_aggregation_csr(random_neighbors(5 + k, k), 20) for k in range(count)]
        m = stack_csr(blocks)
        assert (m.data.dtype, m.indices.dtype, m.indptr.dtype) == (
            np.float32, np.int32, np.int32
        )
        assert_like_scipy(m)
        assert all(m.data is not b.data and m.indptr is not b.indptr for b in blocks)
