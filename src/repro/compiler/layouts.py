"""Layout assignment: choosing physical minor-to-major orders for tensors.

Layout assignment is one of the optimization axes the paper's autotuner
searches (Fig. 1: "data/model parallelism, layout assignment, operator
fusion, ..."). Physical layout matters to both cost models here: the
simulator's DMA and vector-lane alignment terms key off the *minor*
dimension of the kernel's output, so transposing the layout of a [8, 4096]
output from minor=4096 to minor=8 changes its measured runtime.

This module provides layout enumeration for a kernel's primary output and a
model-guided selection pass, mirroring tile-size selection's structure.
"""
from __future__ import annotations

from itertools import permutations

from ..hlo.graph import Graph
from ..hlo.instruction import Instruction
from ..hlo.shapes import Layout
from .kernels import Kernel

#: Most candidate layouts :func:`enumerate_output_layouts` returns.
MAX_LAYOUTS = 6


def enumerate_output_layouts(kernel: Kernel) -> list[Layout]:
    """Candidate physical layouts for the kernel's primary output.

    All permutations for rank <= 3; for higher ranks, rotations of the
    default minor-to-major order (full enumeration would be rank! and real
    compilers only consider a handful), at most :data:`MAX_LAYOUTS` of
    them. The default layout is always first.
    """
    rank = kernel.primary_output().shape.rank
    if rank <= 1:
        return [Layout.default(rank)]
    default = Layout.default(rank)
    candidates = [default]
    if rank <= 3:
        for perm in permutations(range(rank)):
            layout = Layout(tuple(perm))
            if layout != default:
                candidates.append(layout)
    else:
        base = default.minor_to_major
        for shift in range(1, rank):
            rotated = base[shift:] + base[:shift]
            candidates.append(Layout(rotated))
    return candidates[:MAX_LAYOUTS]


def with_output_layout(kernel: Kernel, layout: Layout) -> Kernel:
    """A copy of the kernel whose primary output uses ``layout``.

    Only the primary output's physical layout changes; logical dims and the
    rest of the graph are untouched (XLA inserts copies at kernel
    boundaries when layouts disagree — that copy cost is captured by the
    changed transfer-alignment behaviour of the relaid-out kernel itself in
    our model).
    """
    target = kernel.primary_output()
    layout.validate(target.shape.rank)
    g = Graph(kernel.graph.name)
    for inst in kernel.graph.topological_order():
        shape = inst.shape
        if inst.id == target.id:
            shape = shape.with_layout(layout)
        g.add(
            Instruction(
                id=inst.id,
                opcode=inst.opcode,
                shape=shape,
                operands=inst.operands,
                attrs=dict(inst.attrs),
                name=inst.name,
                is_root=inst.is_root,
            )
        )
    return Kernel(
        graph=g,
        kind=kernel.kind,
        program_name=kernel.program_name,
        index=kernel.index,
    )


def best_output_layout(kernel: Kernel, cost_fn) -> tuple[Layout, float]:
    """Pick the output layout minimizing ``cost_fn(kernel_variant)``.

    Args:
        kernel: kernel to lay out.
        cost_fn: maps a kernel variant to a scalar cost — typically
            ``lambda k: simulator.run(k, default_tile(k))`` or a learned
            evaluator's prediction.

    Returns:
        (best layout, its cost).
    """
    best: tuple[Layout, float] | None = None
    for layout in enumerate_output_layouts(kernel):
        variant = with_output_layout(kernel, layout)
        cost = float(cost_fn(variant))
        if best is None or cost < best[1]:
            best = (layout, cost)
    assert best is not None
    return best
