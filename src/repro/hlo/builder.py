"""Graph construction API with shape inference.

:class:`GraphBuilder` provides a method for each primitive opcode the
workloads build (plus composite helpers such as ``relu``/``softmax``/
``layer_norm`` that expand into primitives), with full shape inference and
attribute validation. All workload generators are written against it.

Methods return instruction ids (ints), which are accepted wherever an
operand is expected.
"""
from __future__ import annotations

import math
from typing import Sequence

from .graph import Graph, GraphError
from .instruction import Instruction
from .opcodes import Opcode
from .shapes import DType, Shape


class GraphBuilder:
    """Incrementally builds a validated :class:`Graph`.

    Args:
        name: name of the graph under construction.
    """

    def __init__(self, name: str = "graph") -> None:
        self.graph = Graph(name)
        self._next_id = 0

    # ----------------------------------------------------------------- infra
    def _emit(
        self,
        opcode: Opcode,
        shape: Shape,
        operands: Sequence[int] = (),
        attrs: dict | None = None,
        name: str = "",
    ) -> int:
        inst = Instruction(
            id=self._next_id,
            opcode=opcode,
            shape=shape,
            operands=tuple(operands),
            attrs=attrs or {},
            name=name,
        )
        self.graph.add(inst)
        self._next_id += 1
        return inst.id

    def shape_of(self, inst_id: int) -> Shape:
        """Shape of an already-built instruction."""
        return self.graph.get(inst_id).shape

    def build(self, roots: Sequence[int] | None = None) -> Graph:
        """Finalize: mark roots, validate, and return the graph.

        Args:
            roots: ids to mark as program outputs; defaults to all sinks.
        """
        if roots:
            for r in roots:
                self.graph.get(r).is_root = True
        else:
            for inst in self.graph.roots():
                inst.is_root = True
        self.graph.validate()
        return self.graph

    # ------------------------------------------------------------- leaf nodes
    def parameter(self, dims: Sequence[int], dtype: DType = DType.F32, name: str = "") -> int:
        """A program input tensor."""
        return self._emit(Opcode.PARAMETER, Shape(tuple(dims), dtype), name=name)

    def constant(self, dims: Sequence[int], dtype: DType = DType.F32, name: str = "") -> int:
        """A compile-time constant tensor (weights, biases, scalars)."""
        return self._emit(Opcode.CONSTANT, Shape(tuple(dims), dtype), name=name)

    def iota(self, dims: Sequence[int], dim: int = 0, dtype: DType = DType.S32) -> int:
        """Tensor filled with indices along ``dim``."""
        return self._emit(Opcode.IOTA, Shape(tuple(dims), dtype), attrs={"iota_dim": dim})

    # ------------------------------------------------------------ elementwise
    def _unary(self, opcode: Opcode, x: int, dtype: DType | None = None) -> int:
        s = self.shape_of(x)
        out = s if dtype is None else s.with_dtype(dtype)
        return self._emit(opcode, out, [x])

    def _binary(self, opcode: Opcode, a: int, b: int, dtype: DType | None = None) -> int:
        sa, sb = self.shape_of(a), self.shape_of(b)
        if sa.dims != sb.dims:
            raise GraphError(
                f"{opcode.name}: operand shapes {sa.dims} vs {sb.dims} differ; "
                "insert an explicit broadcast"
            )
        out = sa if dtype is None else sa.with_dtype(dtype)
        return self._emit(opcode, out, [a, b])

    def exp(self, x: int) -> int:
        return self._unary(Opcode.EXP, x)

    def tanh(self, x: int) -> int:
        return self._unary(Opcode.TANH, x)

    def rsqrt(self, x: int) -> int:
        return self._unary(Opcode.RSQRT, x)

    def logistic(self, x: int) -> int:
        return self._unary(Opcode.LOGISTIC, x)

    def convert(self, x: int, dtype: DType) -> int:
        return self._unary(Opcode.CONVERT, x, dtype=dtype)

    def add(self, a: int, b: int) -> int:
        return self._binary(Opcode.ADD, a, b)

    def subtract(self, a: int, b: int) -> int:
        return self._binary(Opcode.SUBTRACT, a, b)

    def multiply(self, a: int, b: int) -> int:
        return self._binary(Opcode.MULTIPLY, a, b)

    def divide(self, a: int, b: int) -> int:
        return self._binary(Opcode.DIVIDE, a, b)

    def maximum(self, a: int, b: int) -> int:
        return self._binary(Opcode.MAXIMUM, a, b)

    def compare(self, a: int, b: int, direction: str = "GT") -> int:
        s = self.shape_of(a)
        if s.dims != self.shape_of(b).dims:
            raise GraphError("compare: shape mismatch")
        return self._emit(
            Opcode.COMPARE,
            s.with_dtype(DType.PRED),
            [a, b],
            attrs={"direction": direction},
        )

    def select(self, pred: int, on_true: int, on_false: int) -> int:
        sp, st, sf = (self.shape_of(i) for i in (pred, on_true, on_false))
        if not (sp.dims == st.dims == sf.dims):
            raise GraphError("select: shape mismatch")
        return self._emit(Opcode.SELECT, st, [pred, on_true, on_false])

    # ---------------------------------------------------------- data movement
    def broadcast(self, x: int, dims: Sequence[int], broadcast_dims: Sequence[int] = ()) -> int:
        """Broadcast ``x`` into shape ``dims``.

        Args:
            x: operand id.
            dims: target dimensions.
            broadcast_dims: for each operand dimension, the index of the
                output dimension it maps to. Empty means operand is scalar.
        """
        s = self.shape_of(x)
        bdims = tuple(broadcast_dims)
        if len(bdims) != s.rank:
            raise GraphError(
                f"broadcast: got {len(bdims)} broadcast_dims for rank-{s.rank} operand"
            )
        for od, d in zip(bdims, s.dims):
            if od >= len(dims) or dims[od] != d:
                raise GraphError(
                    f"broadcast: operand dim {d} does not match output dim "
                    f"{od} of {tuple(dims)}"
                )
        return self._emit(
            Opcode.BROADCAST,
            Shape(tuple(dims), s.dtype),
            [x],
            attrs={"broadcast_dims": bdims},
        )

    def broadcast_scalar(self, x: int, dims: Sequence[int]) -> int:
        """Broadcast a rank-0 tensor to ``dims``."""
        return self.broadcast(x, dims, ())

    def broadcast_in_dim(self, x: int, dims: Sequence[int], axis: int) -> int:
        """Broadcast a rank-1 tensor along ``axis`` of an output of ``dims``."""
        return self.broadcast(x, dims, (axis,))

    def reshape(self, x: int, dims: Sequence[int]) -> int:
        s = self.shape_of(x)
        if math.prod(dims) != s.num_elements:
            raise GraphError(
                f"reshape: cannot reshape {s.dims} ({s.num_elements} elems) "
                f"to {tuple(dims)}"
            )
        return self._emit(Opcode.RESHAPE, Shape(tuple(dims), s.dtype), [x])

    def transpose(self, x: int, permutation: Sequence[int]) -> int:
        s = self.shape_of(x)
        perm = tuple(permutation)
        if sorted(perm) != list(range(s.rank)):
            raise GraphError(f"transpose: bad permutation {perm} for rank {s.rank}")
        dims = tuple(s.dims[p] for p in perm)
        return self._emit(
            Opcode.TRANSPOSE, Shape(dims, s.dtype), [x], attrs={"permutation": perm}
        )

    def slice(self, x: int, starts: Sequence[int], limits: Sequence[int]) -> int:
        s = self.shape_of(x)
        starts, limits = tuple(starts), tuple(limits)
        if len(starts) != s.rank or len(limits) != s.rank:
            raise GraphError("slice: starts/limits rank mismatch")
        dims = []
        for st, li, d in zip(starts, limits, s.dims):
            if not (0 <= st <= li <= d):
                raise GraphError(f"slice: bounds [{st}, {li}) invalid for dim {d}")
            dims.append(li - st)
        return self._emit(
            Opcode.SLICE,
            Shape(tuple(dims), s.dtype),
            [x],
            attrs={"starts": starts, "limits": limits},
        )

    def concatenate(self, xs: Sequence[int], dim: int) -> int:
        shapes = [self.shape_of(x) for x in xs]
        if not xs:
            raise GraphError("concatenate: needs at least one operand")
        base = shapes[0]
        total = 0
        for s in shapes:
            if s.rank != base.rank:
                raise GraphError("concatenate: rank mismatch")
            for i, (a, b) in enumerate(zip(s.dims, base.dims)):
                if i != dim and a != b:
                    raise GraphError("concatenate: non-concat dims must match")
            total += s.dims[dim]
        dims = list(base.dims)
        dims[dim] = total
        return self._emit(
            Opcode.CONCATENATE,
            Shape(tuple(dims), base.dtype),
            list(xs),
            attrs={"dim": dim},
        )

    def pad(self, x: int, pad_value: int, low: Sequence[int], high: Sequence[int]) -> int:
        s = self.shape_of(x)
        low, high = tuple(low), tuple(high)
        dims = tuple(d + l + h for d, l, h in zip(s.dims, low, high))
        return self._emit(
            Opcode.PAD,
            Shape(dims, s.dtype),
            [x, pad_value],
            attrs={"low": low, "high": high},
        )

    # -------------------------------------------------------------- reductions
    def reduce(self, x: int, dims: Sequence[int], kind: str = "sum") -> int:
        """Reduce over ``dims`` with ``kind`` in {sum, max, min, mean}."""
        s = self.shape_of(x)
        rdims = set(dims)
        out_dims = tuple(d for i, d in enumerate(s.dims) if i not in rdims)
        return self._emit(
            Opcode.REDUCE,
            Shape(out_dims, s.dtype),
            [x],
            attrs={"dims": tuple(sorted(rdims)), "kind": kind},
        )

    def reduce_window(
        self,
        x: int,
        window: Sequence[int],
        strides: Sequence[int],
        kind: str = "max",
        padding: str = "valid",
    ) -> int:
        """Sliding-window reduction (pooling) over all dimensions.

        ``window``/``strides`` have one entry per dimension; use 1 for
        batch/feature dimensions.
        """
        s = self.shape_of(x)
        if len(window) != s.rank or len(strides) != s.rank:
            raise GraphError("reduce_window: window/strides rank mismatch")
        dims = []
        for d, w, st in zip(s.dims, window, strides):
            if padding == "same":
                dims.append(-(-d // st))
            else:
                if w > d:
                    raise GraphError(f"reduce_window: window {w} > dim {d}")
                dims.append((d - w) // st + 1)
        return self._emit(
            Opcode.REDUCE_WINDOW,
            Shape(tuple(dims), s.dtype),
            [x],
            attrs={
                "window": tuple(window),
                "strides": tuple(strides),
                "kind": kind,
                "padding": padding,
            },
        )

    def argmax(self, x: int, dim: int) -> int:
        s = self.shape_of(x)
        out_dims = tuple(d for i, d in enumerate(s.dims) if i != dim)
        return self._emit(
            Opcode.ARGMAX, Shape(out_dims, DType.S32), [x], attrs={"dim": dim}
        )

    # ------------------------------------------------------------ contractions
    def dot(self, a: int, b: int) -> int:
        """Matrix product contracting the last dim of ``a`` with the
        second-to-last (or only) dim of ``b``. Supports [m,k]x[k,n],
        [b,m,k]x[k,n] and [b,m,k]x[b,k,n].
        """
        sa, sb = self.shape_of(a), self.shape_of(b)
        if sa.rank == 2 and sb.rank == 2:
            m, k = sa.dims
            k2, n = sb.dims
            batch: tuple[int, ...] = ()
        elif sa.rank == 3 and sb.rank == 2:
            bdim, m, k = sa.dims
            k2, n = sb.dims
            batch = (bdim,)
        elif sa.rank == 3 and sb.rank == 3:
            bdim, m, k = sa.dims
            b2, k2, n = sb.dims
            if b2 != bdim:
                raise GraphError("dot: batch dims mismatch")
            batch = (bdim,)
        else:
            raise GraphError(f"dot: unsupported ranks {sa.rank}x{sb.rank}")
        if k != k2:
            raise GraphError(f"dot: contracting dims {k} vs {k2} differ")
        flops = 2.0 * math.prod(batch + (m, n)) * k
        return self._emit(
            Opcode.DOT,
            Shape(batch + (m, n), sa.dtype),
            [a, b],
            attrs={"contracting": k, "flops": flops},
        )

    def conv2d(
        self,
        x: int,
        kernel: int,
        strides: tuple[int, int] = (1, 1),
        padding: str = "same",
    ) -> int:
        """2-D convolution, NHWC input and HWIO kernel.

        Args:
            x: input of shape [n, h, w, c_in].
            kernel: filter of shape [kh, kw, c_in, c_out].
            strides: spatial strides.
            padding: "same" or "valid".
        """
        sx, sk = self.shape_of(x), self.shape_of(kernel)
        if sx.rank != 4 or sk.rank != 4:
            raise GraphError("conv2d: expects rank-4 input and kernel")
        n, h, w, cin = sx.dims
        kh, kw, kcin, cout = sk.dims
        if cin != kcin:
            raise GraphError(f"conv2d: input channels {cin} != kernel {kcin}")
        sh, sw = strides
        if padding == "same":
            oh, ow = -(-h // sh), -(-w // sw)
        elif padding == "valid":
            if kh > h or kw > w:
                raise GraphError("conv2d: kernel larger than input under valid padding")
            oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
        else:
            raise GraphError(f"conv2d: unknown padding {padding!r}")
        flops = 2.0 * n * oh * ow * cout * kh * kw * cin
        return self._emit(
            Opcode.CONVOLUTION,
            Shape((n, oh, ow, cout), sx.dtype),
            [x, kernel],
            attrs={
                "window": (kh, kw),
                "strides": (sh, sw),
                "padding": padding,
                "flops": flops,
            },
        )

    def gather(self, table: int, indices: int) -> int:
        """Embedding-style gather: rows of ``table`` selected by ``indices``."""
        st, si = self.shape_of(table), self.shape_of(indices)
        if st.rank != 2:
            raise GraphError("gather: table must be rank 2 [vocab, dim]")
        out_dims = si.dims + (st.dims[1],)
        return self._emit(Opcode.GATHER, Shape(out_dims, st.dtype), [table, indices])

    # ------------------------------------------------------ composite helpers
    def relu(self, x: int) -> int:
        """max(x, 0) expanded to constant + broadcast + maximum."""
        zero = self.constant((), self.shape_of(x).dtype, name="zero")
        zb = self.broadcast_scalar(zero, self.shape_of(x).dims)
        return self.maximum(x, zb)

    def add_bias(self, x: int, feature_dim: int = -1) -> int:
        """Add a learned bias vector along ``feature_dim``."""
        s = self.shape_of(x)
        dim = feature_dim % s.rank
        bias = self.constant((s.dims[dim],), s.dtype, name="bias")
        bb = self.broadcast_in_dim(bias, s.dims, dim)
        return self.add(x, bb)

    def scale_shift(self, x: int, feature_dim: int = -1) -> int:
        """Per-feature scale and shift (folded batch-norm / layer-norm tail)."""
        s = self.shape_of(x)
        dim = feature_dim % s.rank
        scale = self.constant((s.dims[dim],), s.dtype, name="scale")
        shift = self.constant((s.dims[dim],), s.dtype, name="shift")
        xs = self.multiply(x, self.broadcast_in_dim(scale, s.dims, dim))
        return self.add(xs, self.broadcast_in_dim(shift, s.dims, dim))

    def softmax(self, x: int, dim: int = -1) -> int:
        """Numerically-stable softmax expanded into primitives."""
        s = self.shape_of(x)
        dim = dim % s.rank
        mx = self.reduce(x, [dim], kind="max")
        mxb = self._rebroadcast(mx, s.dims, skip_dim=dim)
        shifted = self.subtract(x, mxb)
        ex = self.exp(shifted)
        denom = self.reduce(ex, [dim], kind="sum")
        denomb = self._rebroadcast(denom, s.dims, skip_dim=dim)
        return self.divide(ex, denomb)

    def layer_norm(self, x: int, dim: int = -1) -> int:
        """Layer normalization expanded into primitives."""
        s = self.shape_of(x)
        dim = dim % s.rank
        mean = self.reduce(x, [dim], kind="mean")
        meanb = self._rebroadcast(mean, s.dims, skip_dim=dim)
        centered = self.subtract(x, meanb)
        sq = self.multiply(centered, centered)
        var = self.reduce(sq, [dim], kind="mean")
        eps = self.constant((), s.dtype, name="eps")
        epsb = self.broadcast_scalar(eps, self.shape_of(var).dims)
        inv = self.rsqrt(self.add(var, epsb))
        invb = self._rebroadcast(inv, s.dims, skip_dim=dim)
        return self.scale_shift(self.multiply(centered, invb), dim)

    def _rebroadcast(self, x: int, dims: tuple[int, ...], skip_dim: int) -> int:
        """Broadcast a reduced tensor back to ``dims`` (inverse of reduce)."""
        bdims = tuple(i for i in range(len(dims)) if i != skip_dim)
        return self.broadcast(x, dims, bdims)

    def dense(self, x: int, out_features: int, activation: str | None = "relu") -> int:
        """Fully connected layer: dot + bias + optional activation."""
        s = self.shape_of(x)
        w = self.constant((s.dims[-1], out_features), s.dtype, name="weight")
        y = self.dot(x, w)
        y = self.add_bias(y)
        if activation == "relu":
            y = self.relu(y)
        elif activation == "tanh":
            y = self.tanh(y)
        elif activation == "sigmoid":
            y = self.logistic(y)
        elif activation is not None:
            raise GraphError(f"dense: unknown activation {activation!r}")
        return y
