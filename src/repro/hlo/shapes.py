"""Tensor shapes, element dtypes and physical layouts.

A :class:`Shape` is the logical n-dimensional extent of a tensor plus its
element type and a physical :class:`Layout` (a minor-to-major dimension
order, as in XLA). Layout matters for performance: the analytical model and
the simulator both consult it when estimating transfer efficiency, and it is
part of the node features consumed by the learned model.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class DType(enum.Enum):
    """Element type of a tensor."""

    F32 = "f32"
    BF16 = "bf16"
    S32 = "s32"
    PRED = "pred"

    @property
    def byte_size(self) -> int:
        """Bytes occupied by one element of this type."""
        return _DTYPE_BYTES[self]


_DTYPE_BYTES = {DType.F32: 4, DType.BF16: 2, DType.S32: 4, DType.PRED: 1}


@dataclass(frozen=True)
class Layout:
    """Physical layout as a minor-to-major permutation of dimension indices.

    ``minor_to_major[0]`` is the fastest-varying (innermost) dimension.
    The default layout for rank ``r`` is ``(r-1, ..., 1, 0)`` (row-major).
    """

    minor_to_major: tuple[int, ...]

    @staticmethod
    def default(rank: int) -> "Layout":
        """Row-major layout for a tensor of the given rank."""
        return Layout(tuple(range(rank - 1, -1, -1)))

    def is_default(self) -> bool:
        """True if this is the row-major layout for its rank."""
        return self.minor_to_major == tuple(range(len(self.minor_to_major) - 1, -1, -1))

    def validate(self, rank: int) -> None:
        """Check the permutation is valid for the given rank.

        Raises:
            ValueError: if the layout is not a permutation of ``range(rank)``.
        """
        if sorted(self.minor_to_major) != list(range(rank)):
            raise ValueError(
                f"layout {self.minor_to_major} is not a permutation of range({rank})"
            )


@dataclass(frozen=True)
class Shape:
    """Logical dimensions + dtype + physical layout of one tensor.

    Args:
        dims: extent of each logical dimension; may be empty (scalar).
        dtype: element type.
        layout: physical layout; defaults to row-major.
    """

    dims: tuple[int, ...]
    dtype: DType = DType.F32
    layout: Layout = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if self.layout is None:
            object.__setattr__(self, "layout", Layout.default(self.rank))
        self.layout.validate(self.rank)
        for d in self.dims:
            if d < 0:
                raise ValueError(f"negative dimension in shape {self.dims}")

    @property
    def rank(self) -> int:
        """Number of logical dimensions."""
        return len(self.dims)

    @property
    def num_elements(self) -> int:
        """Total element count (1 for scalars)."""
        return int(math.prod(self.dims)) if self.dims else 1

    @property
    def byte_size(self) -> int:
        """Total bytes occupied by the tensor."""
        return self.num_elements * self.dtype.byte_size

    def minor_dim(self) -> int | None:
        """Extent of the innermost (fastest-varying) dimension, if any."""
        if not self.dims:
            return None
        return self.dims[self.layout.minor_to_major[0]]

    def with_dtype(self, dtype: DType) -> "Shape":
        """Same dims/layout with a different element type."""
        return Shape(self.dims, dtype, self.layout)

    def with_layout(self, layout: Layout) -> "Shape":
        """Same dims/dtype with a different physical layout."""
        return Shape(self.dims, self.dtype, layout)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dims = ",".join(str(d) for d in self.dims)
        return f"{self.dtype.value}[{dims}]"


def scalar(dtype: DType = DType.F32) -> Shape:
    """Convenience constructor for a rank-0 shape."""
    return Shape((), dtype)
