"""Kernels: the unit of execution, costing and learning.

After the fusion pass partitions a program graph into groups, each group is
extracted into a :class:`Kernel` — a small self-contained graph whose inputs
are PARAMETER nodes and whose outputs are marked ``is_root`` (paper Fig. 2).
The learned model, the analytical model and the simulator all consume
kernels.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

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
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            for inst in self.graph.topological_order():
                h.update(
                    f"{inst.opcode}|{inst.shape}|{inst.operands}|"
                    f"{sorted(inst.attrs.items())!r}|{inst.is_root}".encode()
                )
            self._fingerprint = h.hexdigest()
        return self._fingerprint

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


def extract_kernels(
    graph: Graph,
    groups: Sequence[Iterable[int]],
    program_name: str = "",
) -> list[Kernel]:
    """Extract one kernel per fusion group, in topological group order.

    Args:
        graph: the whole-program graph.
        groups: a partition of (a subset of) instruction ids. Groups made
            solely of PARAMETER/CONSTANT nodes are skipped — they do not
            execute.
        program_name: recorded on every kernel.

    Returns:
        Kernels ordered by the earliest topological position of any member.
    """
    topo_pos = {inst.id: k for k, inst in enumerate(graph.topological_order())}
    material: list[tuple[int, set[int]]] = []
    for group in groups:
        ids = set(group)
        if not ids:
            continue
        executes = any(
            graph.get(i).opcode not in (Opcode.PARAMETER, Opcode.CONSTANT)
            for i in ids
        )
        if not executes:
            continue
        material.append((min(topo_pos[i] for i in ids), ids))
    material.sort(key=lambda t: t[0])
    kernels = []
    for index, (_, ids) in enumerate(material):
        sub = graph.subgraph(ids, name=f"{graph.name}.k{index}")
        kernels.append(
            Kernel(
                graph=sub,
                kind=classify_kernel(sub),
                program_name=program_name or graph.name,
                index=index,
            )
        )
    return kernels
