"""Feature extraction for kernels (paper Sec. 3.1).

A model input is a kernel represented as *node features* (per instruction:
opcode id plus scalar descriptors of shape, layout, striding, padding,
filter size...), *kernel features* (tile size and the optional static
performance features), and an *adjacency matrix*.

Variable-length features (shape dims, layout, tile dims) are encoded as
fixed-size sub-vectors, padded or truncated, followed by their sum and
product — the product is the tensor volume and remains informative when the
sub-vector was truncated (paper: "including the product is critical").

Magnitudes span many orders (elements, bytes, FLOPs), so those entries are
log1p-compressed before the dataset-level min-max scaling to [0, 1] that
the paper applies using training-set statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..compiler.analysis import StaticAnalysis, analyze
from ..compiler.kernels import Kernel
from ..compiler.tiling import TileConfig
from ..hlo.instruction import Instruction
from ..hlo.opcodes import Opcode

#: Fixed sub-vector length for per-dimension features.
MAX_DIMS = 6

#: Width of the scalar node-feature vector (excluding the opcode id).
NODE_FEATURE_DIM = 2 * (MAX_DIMS + 2) + 12

#: Width of the tile-size kernel-feature block.
TILE_FEATURE_DIM = MAX_DIMS + 2

#: Number of optional static performance features.
STATIC_FEATURE_DIM = 4


def encode_varlen(values: tuple[int, ...] | list[int], length: int = MAX_DIMS) -> list[float]:
    """Fixed-size encoding of a variable-length integer list.

    Pads with zeros / truncates to ``length`` entries and appends the sum
    and the product of *all* original values.
    """
    vals = [float(v) for v in values]
    head = vals[:length] + [0.0] * max(0, length - len(vals))
    total = sum(vals)
    prod = float(math.prod(vals)) if vals else 0.0
    return head + [total, prod]


def _write_varlen(
    row: np.ndarray, at: int, values, length: int = MAX_DIMS, compress: bool = False
) -> None:
    """Write :func:`encode_varlen` of ``values`` into ``row[at:at+length+2]``,
    optionally log1p-compressing the trailing sum/product slots (done for
    the output-dims block, whose volume spans many orders of magnitude)."""
    vals = [float(v) for v in values]
    k = min(len(vals), length)
    if k:
        row[at : at + k] = vals[:k]
    total = sum(vals)
    prod = float(math.prod(vals)) if vals else 0.0
    row[at + length] = math.log1p(total) if compress else total
    row[at + length + 1] = math.log1p(prod) if compress else prod


def _write_node_features(row: np.ndarray, inst: Instruction) -> None:
    """Fill one preallocated row with the instruction's scalar features."""
    s = inst.shape
    _write_varlen(row, 0, s.dims, compress=True)
    _write_varlen(row, MAX_DIMS + 2, s.layout.minor_to_major)
    window = inst.attr("window", ())
    strides = inst.attr("strides", ())
    base = 2 * (MAX_DIMS + 2)
    row[base] = math.log1p(s.byte_size)
    row[base + 1] = float(s.dtype.byte_size)
    row[base + 2] = 1.0 if inst.is_root else 0.0
    row[base + 3] = 1.0 if inst.opcode is Opcode.PARAMETER else 0.0
    row[base + 4] = float(inst.arity)
    row[base + 5] = float(window[0]) if len(window) > 0 else 0.0
    row[base + 6] = float(window[1]) if len(window) > 1 else 0.0
    row[base + 7] = float(strides[0]) if len(strides) > 0 else 0.0
    row[base + 8] = float(strides[1]) if len(strides) > 1 else 0.0
    row[base + 9] = 1.0 if inst.attr("padding") == "same" else 0.0
    row[base + 10] = float(len(inst.attr("dims", ())))  # reduce dimensions
    row[base + 11] = math.log1p(float(inst.attr("flops", 0.0)))


def node_feature_matrix(instructions: list[Instruction]) -> np.ndarray:
    """Scalar node features of a whole kernel as one matrix.

    Builds a single preallocated ``[n, NODE_FEATURE_DIM]`` float32 array
    and writes each instruction's features into its row — no per-node
    Python lists, per-node array allocations, or ``np.stack``; a row does
    not depend on the other instructions. Contents: output dims (padded,
    +sum, +product), layout minor-to-major (padded, +sum, +product), log
    bytes, dtype width, output flag, parameter flag, arity, convolution
    window/striding/padding, reduction arity, contraction FLOPs,
    transcendental flag and per-element cost.
    """
    out = np.zeros((len(instructions), NODE_FEATURE_DIM), dtype=np.float32)
    for i, inst in enumerate(instructions):
        _write_node_features(out[i], inst)
    return out


def tile_features(tile: TileConfig) -> np.ndarray:
    """Kernel-feature block for one tile size (padded dims + sum + product)."""
    feats = encode_varlen(tile.dims)
    feats[MAX_DIMS] = math.log1p(feats[MAX_DIMS])
    feats[MAX_DIMS + 1] = math.log1p(feats[MAX_DIMS + 1])
    return np.asarray(feats, dtype=np.float32)


def static_features(analysis: StaticAnalysis) -> np.ndarray:
    """The four optional static performance features, log-compressed."""
    return np.asarray(
        [math.log1p(v) for v in analysis.as_tuple()], dtype=np.float32
    )


@dataclass(eq=False)
class KernelFeatures:
    """Extracted features of one kernel (tile-independent parts).

    Compares and hashes by identity, so one object can key a cache.

    Attributes:
        opcodes: [n] integer opcode per node (topological order).
        node_feats: [n, NODE_FEATURE_DIM] scalar node features.
        adjacency: [n, n] dense 0/1 adjacency (i feeds j), topological order.
        static_feats: [STATIC_FEATURE_DIM] static performance features.
    """

    opcodes: np.ndarray
    node_feats: np.ndarray
    adjacency: np.ndarray
    static_feats: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.opcodes)


def extract_kernel_features(kernel: Kernel) -> KernelFeatures:
    """Compute all tile-independent features of one kernel."""
    order = kernel.graph.topological_order()
    opcodes = np.asarray([int(inst.opcode) for inst in order], dtype=np.int64)
    feats = node_feature_matrix(order)
    adjacency = kernel.graph.adjacency_matrix(order)
    static = static_features(analyze(kernel.graph))
    return KernelFeatures(opcodes, feats, adjacency, static)


class FeatureScaler:
    """Min-max scaler to [0, 1] fit on training data (paper footnote 1).

    Integer-derived features are cast to reals and independently scaled
    using the minimum and maximum observed in the training set; test-time
    values are clipped into the training range.
    """

    def __init__(self) -> None:
        self.lo: np.ndarray | None = None
        self.hi: np.ndarray | None = None

    def fit(self, rows: np.ndarray) -> "FeatureScaler":
        """Record per-column min/max from [n, d] training rows."""
        rows = np.asarray(rows, dtype=np.float32)
        if rows.ndim != 2:
            raise ValueError(f"expected 2-D rows, got shape {rows.shape}")
        self.lo = rows.min(axis=0)
        self.hi = rows.max(axis=0)
        return self

    def transform(self, rows: np.ndarray) -> np.ndarray:
        """Scale rows into [0, 1]; constant columns map to 0.

        Raises:
            RuntimeError: if the scaler was never fit.
        """
        if self.lo is None or self.hi is None:
            raise RuntimeError("FeatureScaler.transform called before fit")
        rows = np.asarray(rows, dtype=np.float32)
        span = self.hi - self.lo
        span = np.where(span > 0, span, 1.0)
        return np.clip((rows - self.lo) / span, 0.0, 1.0)

    def state(self) -> dict[str, np.ndarray]:
        """Serializable snapshot (for saving trained models)."""
        if self.lo is None or self.hi is None:
            raise RuntimeError("FeatureScaler.state called before fit")
        return {"lo": self.lo, "hi": self.hi}

    @staticmethod
    def from_state(state: dict[str, np.ndarray]) -> "FeatureScaler":
        sc = FeatureScaler()
        sc.lo = np.asarray(state["lo"], dtype=np.float32)
        sc.hi = np.asarray(state["hi"], dtype=np.float32)
        return sc
