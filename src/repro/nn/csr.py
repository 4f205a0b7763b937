"""The constant sparse operators of the graph layers, on SciPy's kernels.

A :class:`CSR` holds a matrix's ``data`` / ``indices`` / ``indptr`` arrays
and multiplies through SciPy's compiled ``_sparsetools`` routines — the ones
``csr_matrix @ x`` and ``csr.T.tocsr()`` call, on the same arrays — so every
product and transpose is bitwise SciPy's. Only that extension is loaded:
importing the ``scipy.sparse`` package would also clone NumPy's namespace
through ``array_api_compat`` (``numpy.f2py``, ``numpy.testing``,
``numpy.ma``...), ≈ 20 MiB in every process, for nothing the model uses.
The extension is registered in ``sys.modules`` under its own name, so a
later ``import scipy.sparse`` uses the same module.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import sys

import numpy as np


def _load_sparsetools():
    name = "scipy.sparse._sparsetools"
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy_spec = importlib.util.find_spec("scipy")  # locates, runs nothing
    if scipy_spec is None:
        raise ImportError(f"{name} needs SciPy, which is not installed")
    path = [f"{location}/sparse" for location in scipy_spec.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(name, path)
    if spec is None:
        raise ImportError(f"no {name} extension in {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_sparsetools = _load_sparsetools()

_INT32_MAX = np.iinfo(np.int32).max


def index_dtype(*bounds: int) -> type:
    """The index dtype SciPy's constructor picks for a matrix whose shape
    and entry count are ``bounds``: int32 whenever they all fit."""
    return np.int32 if max(bounds) <= _INT32_MAX else np.int64


class CSR:
    """A compressed-sparse-row matrix: what ``csr_matrix((data, indices,
    indptr), shape=shape)`` holds, without SciPy's generic constructor.

    The arrays are stored as given: no index-dtype selection, no copy, no
    cast (each builder picks the dtypes SciPy's constructor would). The
    O(1) checks of SciPy's ``check_format(full_check=False)`` stay, each a
    ``ValueError``: 1-D arrays, integer index dtypes, ``len(indptr) ==
    rows + 1``, ``indptr[0] == 0`` and ``len(indices) == len(data) ==
    indptr[-1]``.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "_transpose")

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        if data.ndim != 1 or indices.ndim != 1 or indptr.ndim != 1:
            raise ValueError("data, indices, and indptr should be 1-D")
        if indices.dtype.kind != "i" or indptr.dtype.kind != "i":
            raise ValueError(
                f"index arrays need integer dtypes, got {indices.dtype} and {indptr.dtype}"
            )
        if len(indptr) != shape[0] + 1:
            raise ValueError(f"index pointer size {len(indptr)} should be {shape[0] + 1}")
        if indptr[0] != 0:
            raise ValueError("index pointer should start with 0")
        if not len(indices) == len(data) == indptr[-1]:
            raise ValueError(
                f"{len(indices)} indices and {len(data)} values for {indptr[-1]} stored entries"
            )
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = (int(shape[0]), int(shape[1]))
        self._transpose = None

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "CSR":
        """The transpose, as ``csr.T.tocsr()`` builds it (``csr_tocsc``),
        on the first read; later reads return the same matrix. The backward
        of every GraphSAGE hop multiplies by it, so an operator that sees
        no backward never builds one. Two threads racing on the first read
        store equal transposes."""
        transpose = self._transpose
        if transpose is None:
            rows, cols = self.shape
            # SciPy's pick: int32 unless an index array is int64.
            dtype = np.result_type(self.indptr, self.indices, np.int32)
            indptr = np.empty(cols + 1, dtype=dtype)
            indices = np.empty(self.nnz, dtype=dtype)
            data = np.empty(self.nnz, dtype=self.dtype)
            _sparsetools.csr_tocsc(
                rows, cols,
                self.indptr.astype(dtype, copy=False),
                self.indices.astype(dtype, copy=False),
                self.data, indptr, indices, data,
            )
            transpose = self._transpose = CSR(data, indices, indptr, (cols, rows))
        return transpose

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """``self @ x`` for a 1-D or 2-D ``x``, as ``csr_matrix @ x``: the
        same routine (``csr_matvec`` for a vector or one column,
        ``csr_matvecs`` otherwise) on a C-contiguous ``x``, into a result
        of SciPy's dtype."""
        rows, cols = self.shape
        if x.ndim not in (1, 2) or x.shape[0] != cols:
            raise ValueError(f"cannot multiply a {self.shape} matrix by {x.shape}")
        dtype = np.result_type(self.dtype, x.dtype)
        flat = x.ravel()
        if x.ndim == 1 or x.shape[1] == 1:
            out = np.zeros(rows, dtype=dtype)
            _sparsetools.csr_matvec(rows, cols, self.indptr, self.indices, self.data, flat, out)
            return out if x.ndim == 1 else out.reshape(rows, 1)
        out = np.zeros((rows, x.shape[1]), dtype=dtype)
        _sparsetools.csr_matvecs(
            rows, cols, x.shape[1], self.indptr, self.indices, self.data, flat, out.ravel()
        )
        return out
