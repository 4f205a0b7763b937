"""Operator fusion: the configuration space and the default heuristic pass.

A *fusion configuration* assigns a boolean to every fusible producer->consumer
edge of a program graph; fused edges induce groups (connected components)
that become kernels. This is the space the paper's fusion autotuner searches
(up to 2^40000 configurations per program). The compiler's *default* fusion
is a greedy priority heuristic that fuses when doing so saves memory traffic,
mirroring XLA's description in Sec. 2.3.

Program runtime is additive over kernels (one kernel executes at a time on a
TPU), so group convexity does not affect costing; the default heuristic
nevertheless produces convex groups by only fusing producers whose users all
land in the same consumer group.

The program, not the configuration, is the unit of compilation: a
:class:`ProgramFuser` derives a program's graph-wide views once and turns
any number of configurations into kernels. :func:`fuse_program` and
:func:`default_fusion` are one-shot calls into it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable

import numpy as np

from ..hlo.graph import Graph
from ..hlo.instruction import Instruction
from ..hlo.opcodes import OpCategory, Opcode, opcode_info
from .kernels import Kernel, classify_kernel
from .tiling import SCRATCHPAD_BYTES


#: Cap on non-leaf ops in one kernel.
MAX_OPS_PER_KERNEL = 64
#: MXU ops allowed per kernel (XLA fuses elementwise ops into a conv/dot
#: kernel but never two MXU ops).
MAX_CONTRACTIONS_PER_KERNEL = 1


def fusible_edges(graph: Graph) -> list[tuple[int, int]]:
    """All producer->consumer edges eligible for fusion, in stable order.

    Edges out of PARAMETER nodes are not fusible (parameters are kernel
    inputs by definition). Everything else is a candidate; legality of the
    resulting *groups* is enforced when a configuration is applied.
    """
    return _fusible_edges(graph.topological_order(), graph.users())


def _fusible_edges(
    order: list[Instruction], users: dict[int, list[int]]
) -> list[tuple[int, int]]:
    """:func:`fusible_edges` over views of the graph already in hand."""
    edges: list[tuple[int, int]] = []
    for inst in order:
        if not opcode_info(inst.opcode).fusible:
            continue
        for user in sorted(users[inst.id]):
            edges.append((inst.id, user))
    return edges


@dataclass(frozen=True)
class FusionConfig:
    """A point in the fusion search space.

    Attributes:
        decisions: one boolean per edge of :func:`fusible_edges` (same
            order); True means "fuse this edge".
    """

    decisions: tuple[bool, ...]

    @staticmethod
    def none(num_edges: int) -> "FusionConfig":
        """The fully-unfused configuration."""
        return FusionConfig((False,) * num_edges)

    @staticmethod
    def all(num_edges: int) -> "FusionConfig":
        """The maximally-fused configuration (before legalization)."""
        return FusionConfig((True,) * num_edges)

    @staticmethod
    def random(num_edges: int, rng: np.random.Generator, p: float = 0.5) -> "FusionConfig":
        """Independent Bernoulli(p) decision per edge."""
        return FusionConfig(tuple(bool(b) for b in rng.random(num_edges) < p))

    def flip(self, index: int) -> "FusionConfig":
        """Return a neighbour with one decision toggled (for local search)."""
        d = list(self.decisions)
        d[index] = not d[index]
        return FusionConfig(tuple(d))

    def mutate(self, rng: np.random.Generator, num_flips: int = 1) -> "FusionConfig":
        """Return a neighbour with ``num_flips`` random decisions toggled."""
        d = list(self.decisions)
        if not d:
            return self
        for idx in rng.integers(0, len(d), size=num_flips):
            d[idx] = not d[idx]
        return FusionConfig(tuple(d))


class _UnionFind:
    """Union-find over dense instruction indices with legality bookkeeping.

    Index ``k`` stands for the fuser's ``k``-th instruction; parent, size
    and contraction count are plain lists, copied from the fuser's once
    per configuration. With ``members`` (the instruction id of each index)
    it also keeps each root's member ids, so a caller can read one group
    without scanning the program. Legality is :data:`MAX_OPS_PER_KERNEL`
    and :data:`MAX_CONTRACTIONS_PER_KERNEL`.
    """

    __slots__ = ("parent", "size", "contractions", "members")

    def __init__(
        self,
        sizes: list[int],
        contractions: list[int],
        members: list[int] | None = None,
    ) -> None:
        self.parent = list(range(len(sizes)))
        self.size = sizes.copy()
        self.contractions = contractions.copy()
        self.members = None if members is None else [[i] for i in members]

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def roots(self) -> list[int]:
        """The root of every index, by pointer jumping over whole lists."""
        roots = self.parent
        while True:
            jumped = [roots[r] for r in roots]
            if jumped == roots:
                return roots
            roots = jumped

    def can_union(self, ra: int, rb: int) -> bool:
        """Whether the groups rooted at ``ra`` and ``rb`` may merge."""
        return ra == rb or (
            self.size[ra] + self.size[rb] <= MAX_OPS_PER_KERNEL
            and self.contractions[ra] + self.contractions[rb] <= MAX_CONTRACTIONS_PER_KERNEL
        )

    def union(self, a: int, b: int) -> None:
        """Merge the groups of ``a`` and ``b`` if legal; the larger group's
        root survives, ``a``'s on a tie. Union by size keeps the trees
        shallow, so :meth:`find` needs no path compression."""
        parent = self.parent
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a == b or not self.can_union(a, b):
            return
        size = self.size
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
        self.contractions[a] += self.contractions[b]
        if self.members is not None:
            self.members[a] += self.members[b]


class ProgramFuser:
    """Turns fusion configurations of *one* program into kernels.

    Everything that depends on the program alone is derived once, at
    construction: the fusible edges, topological order and positions, the
    ``users`` map, the leaf set, each constant's first user, and the
    union-find's dense indices and starting sizes. A group's extracted
    body depends only on its member set, so bodies are memoised by member
    set: a search move that flips a few edges re-extracts only the groups
    those edges touch, and every other kernel of the new configuration is
    a :meth:`Kernel.shell` over a body (and fingerprint) already in hand.

    Hold one fuser for all the configurations of a search or a dataset
    build; for a single configuration use :func:`fuse_program`. The memo
    lives and dies with the fuser, so it is unbounded by design. The graph
    must not be mutated while a fuser over it is in use.

    Args:
        graph: whole-program graph.
        program_name: recorded on kernels; defaults to the graph's name.
    """

    def __init__(self, graph: Graph, program_name: str = "") -> None:
        self.graph = graph
        self.program_name = program_name or graph.name
        self._order = graph.topological_order()
        self._users = graph.users()
        self._position = {inst.id: k for k, inst in enumerate(self._order)}
        self.edges = _fusible_edges(self._order, self._users)
        leaf_opcodes = (Opcode.PARAMETER, Opcode.CONSTANT)
        self._leaves = frozenset(i.id for i in self._order if i.opcode in leaf_opcodes)
        # The union-find runs on dense indices: index k is the k-th id of
        # ``graph.instructions``.
        self._ids = list(graph.instructions)
        index = {i: k for k, i in enumerate(self._ids)}
        self._index = index
        self._edge_pairs = [(index[p], index[c]) for p, c in self.edges]
        self._sizes = [int(i not in self._leaves) for i in self._ids]
        self._contractions = [
            int(opcode_info(inst.opcode).category is OpCategory.CONTRACTION)
            for inst in graph.instructions.values()
        ]
        # A constant joins the group of one consumer (its lowest-id user) so
        # that kernel holds it; extraction imports it into any other kernel
        # it feeds as a fresh parameter automatically.
        self._constant_first_user = [
            (index[inst.id], index[min(self._users[inst.id])])
            for inst in self._order
            if inst.opcode is Opcode.CONSTANT and self._users[inst.id]
        ]
        self._bodies: dict[frozenset[int], Kernel] = {}

    def groups(self, config: FusionConfig) -> list[set[int]]:
        """Realize ``config`` into legal groups.

        Chosen edges are processed in stable order; an edge whose union would
        break a legality constraint (kernel size cap, one-contraction cap) is
        silently dropped, making every configuration in the search space
        legal — the autotuner can therefore mutate freely.

        Returns:
            A partition of all instruction ids (leaf-only groups included;
            :meth:`extract` skips those).
        """
        if len(config.decisions) != len(self.edges):
            raise ValueError(
                f"config has {len(config.decisions)} decisions for {len(self.edges)} edges"
            )
        uf = _UnionFind(self._sizes, self._contractions)
        union = uf.union
        for producer, consumer in compress(self._edge_pairs, config.decisions):
            union(producer, consumer)
        for constant, user in self._constant_first_user:
            union(constant, user)
        ids = self._ids
        by_root: dict[int, list[int]] = {}
        for inst_id, root in zip(ids, uf.roots()):
            by_root.setdefault(root, []).append(inst_id)
        return [set(by_root[root]) for root in sorted(by_root, key=ids.__getitem__)]

    def default_config(self) -> FusionConfig:
        """The compiler's greedy heuristic (see :func:`default_fusion`)."""
        index = self._index
        edge_index = {e: k for k, e in enumerate(self.edges)}
        decisions = [False] * len(self.edges)
        uf = _UnionFind(self._sizes, self._contractions, members=self._ids)
        users = self._users
        for inst in reversed(self._order):
            info = opcode_info(inst.opcode)
            if not info.fusible or inst.opcode is Opcode.CONSTANT:
                continue
            consumer_ids = users[inst.id]
            if not consumer_ids or inst.is_root:
                continue  # outputs must be materialized anyway
            # All users must already share one group for a traffic saving.
            roots = {uf.find(index[u]) for u in consumer_ids}
            if len(roots) != 1:
                continue
            producer, target = index[inst.id], index[consumer_ids[0]]
            ra, rb = uf.find(producer), uf.find(target)
            if not uf.can_union(ra, rb):
                continue
            # Scratchpad footprint guard: group inputs + outputs must fit.
            merged = uf.members[ra] if ra == rb else uf.members[ra] + uf.members[rb]
            if self._footprint(merged) > SCRATCHPAD_BYTES:
                continue
            uf.union(producer, target)
            for u in consumer_ids:
                key = (inst.id, u)
                if key in edge_index:
                    decisions[edge_index[key]] = True
        return FusionConfig(tuple(decisions))

    def _footprint(self, members: list[int]) -> int:
        """Bytes the group of instruction ids ``members`` would move across HBM.

        Counts the boundary tensors of the group: operands produced outside
        it plus group outputs consumed outside (or program roots). This is
        the working set the tiling machinery must stream through
        scratchpad; one full tile of each boundary tensor being resident is
        the constraint the default heuristic guards.
        """
        instructions, users = self.graph.instructions, self._users
        inside = set(members)
        footprint = 0
        for i in members:
            inst = instructions[i]
            for op in inst.operands:
                if op not in inside:
                    footprint += instructions[op].shape.byte_size
            if inst.is_root or any(u not in inside for u in users[i]):
                footprint += inst.shape.byte_size
        return footprint

    def extract(self, groups: Iterable[Iterable[int]]) -> list[Kernel]:
        """Extract one kernel per fusion group, in topological group order.

        Args:
            groups: a partition of (a subset of) instruction ids. Groups made
                solely of PARAMETER/CONSTANT nodes are skipped — they do not
                execute.

        Returns:
            Kernels ordered by the earliest topological position of any
            member, each recorded under the fuser's ``program_name``.
        """
        position = self._position
        material: list[tuple[int, frozenset[int]]] = []
        for group in groups:
            ids = frozenset(group)
            if ids <= self._leaves:  # nothing to execute (or empty)
                continue
            material.append((min(position[i] for i in ids), ids))
        material.sort(key=lambda t: t[0])
        kernels = []
        for index, (_, ids) in enumerate(material):
            name = f"{self.graph.name}.k{index}"
            body = self._bodies.get(ids)
            if body is None:
                members = [self.graph.get(i) for i in sorted(ids, key=position.__getitem__)]
                sub = self.graph.induced_subgraph(members, ids, self._users, name)
                kernel = Kernel(sub, classify_kernel(sub), self.program_name, index)
                self._bodies[ids] = kernel
            else:
                kernel = body.shell(name, index)
            kernels.append(kernel)
        return kernels

    def fuse(self, config: FusionConfig | None = None) -> list[Kernel]:
        """Kernels of ``config`` (default: :meth:`default_config`)."""
        if config is None:
            config = self.default_config()
        return self.extract(self.groups(config))


def default_fusion(graph: Graph) -> FusionConfig:
    """The compiler's greedy priority-based fusion heuristic.

    Walks producers in reverse topological order and fuses a producer into
    its consumers when (a) all the producer's users can land in the same
    group, so its output no longer round-trips through HBM, (b) legality
    holds, and (c) the merged group's boundary tensors fit the scratchpad
    (:data:`~repro.compiler.tiling.SCRATCHPAD_BYTES`). This mirrors XLA's
    "will it save memory access time" estimate (Sec. 2.3).
    """
    return ProgramFuser(graph).default_config()


def fuse_program(
    graph: Graph,
    config: FusionConfig | None = None,
    program_name: str = "",
) -> list[Kernel]:
    """Fuse and extract kernels in one step — the one-shot form.

    Builds a :class:`ProgramFuser`, fuses one configuration and drops it.
    Code that fuses many configurations of the same program (a search, a
    dataset build) should hold one ``ProgramFuser`` instead and call
    :meth:`ProgramFuser.fuse` per configuration: the kernels are equal, and
    the program-wide views and unchanged group bodies are not recomputed.

    Args:
        graph: whole-program graph.
        config: fusion configuration; defaults to :func:`default_fusion`.
        program_name: recorded on kernels.
    """
    return ProgramFuser(graph, program_name).fuse(config)
