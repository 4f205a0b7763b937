"""Kernels: the unit of execution, costing and learning.

After the fusion pass partitions a program graph into groups, each group is
extracted (by :class:`repro.compiler.fusion.ProgramFuser`) into a
:class:`Kernel` — a small self-contained graph whose inputs are PARAMETER
nodes and whose outputs are marked ``is_root`` (paper Fig. 2). The learned
model, the analytical model and the simulator all consume kernels.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from ..hlo.graph import Graph
from ..hlo.opcodes import OpCategory, Opcode, opcode_info
from ..hlo.serialize import graph_from_dict, graph_to_dict


KERNEL_KINDS = ("fusion", "convolution", "data_formatting", "other")
"""Kernel type taxonomy, mirroring the paper's fusion-baseline scaling
(per-kernel-type coefficients) and the 'kernels without tile-size options'
carve-out (data formatting)."""


@dataclass
class Kernel:
    """One executable kernel.

    A kernel body is immutable after extraction: :meth:`fingerprint` caches
    on that assumption, and kernels that different fusion configurations of
    one program have in common share one body (the same ``Instruction``
    objects under per-kernel ``Graph`` names, see :meth:`shell`). To change
    a kernel, build a new one (as ``with_output_layout`` does); never assign
    into ``kernel.graph.instructions`` or an instruction of it.

    Attributes:
        graph: the kernel body; inputs are PARAMETER nodes, outputs are
            nodes with ``is_root=True``.
        kind: one of :data:`KERNEL_KINDS`.
        program_name: owning program (for bookkeeping / grouping).
        index: position of this kernel within its program's kernel sequence.
    """

    graph: Graph
    kind: str = "other"
    program_name: str = ""
    index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        self._fingerprint: str | None = None
        # Results that depend on the body only (the default tile and the
        # footprint terms, see ``tiling``; simulated runtimes, see
        # ``TpuSimulator.run``); one dict per body, shared by its shells.
        self._body_memo: dict[str, Any] = {}

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the kernel body."""
        return len(self.graph)

    def output_shapes(self):
        """Shapes of all kernel outputs."""
        return [inst.shape for inst in self.graph.roots()]

    def primary_output(self):
        """The largest output instruction — the one tiling is applied to."""
        roots = self.graph.roots()
        return max(roots, key=lambda i: (i.shape.num_elements, -i.id))

    def fingerprint(self) -> str:
        """Stable content hash of the kernel (opcodes, shapes, edges, attrs).

        Used for duplicate elimination in dataset generation and as the seed
        of the simulator's per-kernel hardware-quirk term. Computed once and
        cached (kernel graphs are immutable after extraction).

        ``str(shape)`` omits the layout, so a non-default layout is hashed
        after it (XLA's ``f32[16,8192]{0,1}``); a default layout adds
        nothing, which keeps every row-major kernel's fingerprint as it was.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            for inst in self.graph.topological_order():
                shape, layout = str(inst.shape), inst.shape.layout
                if not layout.is_default():
                    shape += "{" + ",".join(map(str, layout.minor_to_major)) + "}"
                h.update(
                    f"{inst.opcode}|{shape}|{inst.operands}|"
                    f"{sorted(inst.attrs.items())!r}|{inst.is_root}".encode()
                )
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def shell(self, graph_name: str, index: int) -> "Kernel":
        """This kernel at another position of its program's kernel sequence.

        The new kernel has its own ``index`` and graph name but *shares*
        this kernel's body, and carries what is a function of the body
        only: its fingerprint, instead of hashing the body again, and the
        body memo (one dict shared by every shell of a body), so the
        default tile, the footprint terms and each simulated runtime are
        computed once per body whichever shell asks first.
        """
        other = Kernel(
            graph=Graph(graph_name, self.graph.instructions),
            kind=self.kind,
            program_name=self.program_name,
            index=index,
        )
        other._fingerprint = self.fingerprint()
        other._body_memo = self._body_memo
        return other

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form of the kernel (graph + metadata).

        The inverse, :meth:`from_dict`, rebuilds a kernel whose
        :meth:`fingerprint` is identical — this pair is what the serving
        layer's wire protocol ships across process and machine boundaries.
        """
        return {
            "graph": graph_to_dict(self.graph),
            "kind": self.kind,
            "program_name": self.program_name,
            "index": self.index,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Kernel":
        """Rebuild a kernel serialized by :meth:`to_dict`."""
        return cls(
            graph=graph_from_dict(data["graph"]),
            kind=data["kind"],
            program_name=data["program_name"],
            index=data["index"],
        )

    def has_tile_options(self) -> bool:
        """Whether this kernel supports tile-size selection.

        Mirrors the paper: data-formatting kernels have no tile-size options
        (about 1% of kernels) and are unsupported by the analytical model.
        """
        return self.kind != "data_formatting"


def classify_kernel(graph: Graph) -> str:
    """Assign a kernel kind from its body.

    A kernel containing a convolution is a convolution kernel; a kernel of
    only data-movement ops is data formatting; multi-op kernels are fusions;
    the rest are 'other'.
    """
    opcodes = [inst.opcode for inst in graph.instructions.values()]
    non_leaf = [
        op for op in opcodes if op not in (Opcode.PARAMETER, Opcode.CONSTANT)
    ]
    if any(op is Opcode.CONVOLUTION for op in non_leaf):
        return "convolution"
    if non_leaf and all(
        opcode_info(op).category is OpCategory.DATA_MOVEMENT for op in non_leaf
    ):
        return "data_formatting"
    if len(non_leaf) > 1:
        return "fusion"
    return "other"
