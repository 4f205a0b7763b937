"""Tensor computation graphs (directed acyclic dataflow graphs).

A :class:`Graph` holds instructions keyed by id; edges are implied by each
instruction's operand list (operand -> instruction is a dataflow edge).
Graphs are the unit the compiler substrate operates on, and — after the
fusion pass decomposes a program into kernels — also the model input unit.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator

import numpy as np

from .instruction import Instruction
from .opcodes import Opcode


class GraphError(ValueError):
    """Raised when a graph violates a structural invariant."""


@dataclass
class Graph:
    """A DAG of :class:`Instruction` nodes.

    Attributes:
        name: human-readable graph name.
        instructions: id -> instruction mapping. Ids need not be contiguous.
    """

    name: str = "graph"
    instructions: dict[int, Instruction] = field(default_factory=dict)

    # ------------------------------------------------------------------ core
    def add(self, instruction: Instruction) -> Instruction:
        """Insert an instruction; operands must already be present.

        Raises:
            GraphError: on duplicate id or missing operand.
        """
        if instruction.id in self.instructions:
            raise GraphError(f"duplicate instruction id {instruction.id}")
        for op in instruction.operands:
            if op not in self.instructions:
                raise GraphError(
                    f"instruction {instruction.id} references missing operand {op}"
                )
        self.instructions[instruction.id] = instruction
        return instruction

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions.values())

    def __contains__(self, inst_id: int) -> bool:
        return inst_id in self.instructions

    def get(self, inst_id: int) -> Instruction:
        """Fetch an instruction by id (KeyError if absent)."""
        return self.instructions[inst_id]

    def operands_of(self, inst_id: int) -> list[Instruction]:
        """Producer instructions of the given instruction."""
        return [self.instructions[o] for o in self.instructions[inst_id].operands]

    # ----------------------------------------------------------- derived maps
    def users(self) -> dict[int, list[int]]:
        """Map from instruction id to ids of instructions that consume it."""
        out: dict[int, list[int]] = {i: [] for i in self.instructions}
        for inst in self.instructions.values():
            for op in inst.operands:
                out[op].append(inst.id)
        return out

    def roots(self) -> list[Instruction]:
        """Instructions with no users, or explicitly marked ``is_root``."""
        users = self.users()
        out = [
            inst
            for inst in self.instructions.values()
            if not users[inst.id] or inst.is_root
        ]
        # Deduplicate while preserving order.
        seen: set[int] = set()
        result = []
        for inst in out:
            if inst.id not in seen:
                seen.add(inst.id)
                result.append(inst)
        return result

    def parameters(self) -> list[Instruction]:
        """All PARAMETER instructions in id order."""
        return sorted(
            (i for i in self.instructions.values() if i.opcode is Opcode.PARAMETER),
            key=lambda i: i.id,
        )

    # -------------------------------------------------------------- ordering
    def topological_order(self) -> list[Instruction]:
        """Kahn topological sort; stable with respect to instruction ids.

        Raises:
            GraphError: if the graph contains a cycle.
        """
        indegree = {i: len(inst.operands) for i, inst in self.instructions.items()}
        users = self.users()
        ready = sorted(i for i, d in indegree.items() if d == 0)
        queue: deque[int] = deque(ready)
        order: list[Instruction] = []
        while queue:
            nid = queue.popleft()
            order.append(self.instructions[nid])
            for user in users[nid]:
                indegree[user] -= 1
                if indegree[user] == 0:
                    queue.append(user)
        if len(order) != len(self.instructions):
            raise GraphError(f"graph '{self.name}' contains a cycle")
        return order

    def validate(self) -> None:
        """Check all structural invariants.

        Invariants: operand references resolve, the graph is acyclic, and
        ids are non-negative and match their dict keys.

        Raises:
            GraphError: on any violation.
        """
        for key, inst in self.instructions.items():
            if key != inst.id:
                raise GraphError(f"key {key} != instruction id {inst.id}")
            if inst.id < 0:
                raise GraphError(f"negative instruction id {inst.id}")
            for op in inst.operands:
                if op not in self.instructions:
                    raise GraphError(
                        f"instruction {inst.id} references missing operand {op}"
                    )
        self.topological_order()  # raises on cycles

    # ------------------------------------------------------------- structure
    def adjacency_matrix(self, order: list[Instruction] | None = None) -> np.ndarray:
        """Dense adjacency matrix ``A[i, j] = 1`` iff node i feeds node j.

        Args:
            order: node ordering defining matrix indices; defaults to
                topological order.
        """
        order = order or self.topological_order()
        index = {inst.id: k for k, inst in enumerate(order)}
        a = np.zeros((len(order), len(order)), dtype=np.float32)
        for inst in order:
            for op in inst.operands:
                if op in index:
                    a[index[op], index[inst.id]] = 1.0
        return a

    def induced_subgraph(
        self,
        members: Iterable[Instruction],
        ids: Collection[int],
        users: dict[int, list[int]],
        name: str | None = None,
    ) -> "Graph":
        """The induced subgraph over ``members``, cut with graph-wide views
        the caller already holds.

        Cross-boundary operands become fresh PARAMETER nodes, exactly like
        XLA kernel extraction ("kernel's inputs are expressed by nodes with
        the parameter opcode"). Node ids are renumbered densely in
        topological order; outputs (nodes whose users are all outside, or
        graph roots) get ``is_root=True``.

        A caller that cuts many subgraphs out of one graph (kernel
        extraction) computes the graph-wide views once and passes them in,
        so each cut costs the size of the cut, not of the graph.

        Args:
            members: the instructions to extract, in a topological order of
                this graph.
            ids: their ids, as a set (membership is tested per operand).
            users: this graph's :meth:`users` map.
            name: name of the result.
        """
        remap: dict[int, int] = {}
        sub = Graph(name or f"{self.name}.sub")
        next_id = 0
        for inst in members:
            new_operands = []
            for op in inst.operands:
                if op in ids:
                    new_operands.append(remap[op])
                else:
                    # Import as a parameter node carrying the producer shape.
                    key = -op - 1  # stable pseudo-id per external producer
                    if key not in remap:
                        param = Instruction(
                            id=next_id,
                            opcode=Opcode.PARAMETER,
                            shape=self.instructions[op].shape,
                            attrs={"imported_from": op},
                        )
                        sub.add(param)
                        remap[key] = next_id
                        next_id += 1
                    new_operands.append(remap[key])
            is_out = inst.is_root or any(u not in ids for u in users[inst.id]) or not users[inst.id]
            clone = Instruction(
                id=next_id,
                opcode=inst.opcode,
                shape=inst.shape,
                operands=tuple(new_operands),
                attrs=dict(inst.attrs),
                name=inst.name,
                is_root=is_out,
            )
            sub.add(clone)
            remap[inst.id] = next_id
            next_id += 1
        return sub

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"graph {self.name} {{"]
        for inst in self.topological_order():
            lines.append(f"  {inst}")
        lines.append("}")
        return "\n".join(lines)


class Program:
    """A named whole tensor program: one computation graph plus metadata.

    ``Program(name, graph, family)`` holds a graph built by the caller. A
    program made by :meth:`deferred` knows its name and family up front and
    generates its graph when :attr:`graph` is first read, then keeps it, so
    grouping or splitting programs by name and family builds no graph.

    Attributes:
        name: program name (e.g. ``resnet_v1_50``).
        family: application family used for dataset balancing and splits
            (e.g. ``resnet``); many programs may share a family.
        graph: the (unfused) computation graph of primitive operations.
    """

    def __init__(self, name: str, graph: Graph, family: str = "") -> None:
        self.name = name
        self.family = family or name
        self._graph: Graph | None = graph
        self._build: Callable[[], Program] | None = None

    @classmethod
    def deferred(cls, name: str, family: str, build: Callable[[], Program]) -> Program:
        """A program whose graph is ``build().graph``, generated on first read."""
        program = cls.__new__(cls)
        program.name, program.family = name, family
        program._graph, program._build = None, build
        return program

    @property
    def graph(self) -> Graph:
        if self._graph is None:
            self._graph = self._build().graph
        return self._graph

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.graph, self.family) == (other.name, other.graph, other.family)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Program(name={self.name!r}, family={self.family!r})"
