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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hlo.graph import Graph
from ..hlo.opcodes import OpCategory, Opcode, opcode_info
from .kernels import Kernel, extract_kernels


@dataclass(frozen=True)
class FusionParams:
    """Legality and heuristic knobs for the fusion pass.

    Attributes:
        max_ops_per_kernel: cap on non-leaf ops in one kernel.
        max_contractions_per_kernel: MXU ops allowed per kernel (XLA fuses
            elementwise ops into a conv/dot kernel but never two MXU ops).
        scratchpad_bytes: scratchpad capacity; a group whose parameter +
            output footprint exceeds a fraction of it will not be fused
            further by the default heuristic.
        min_saved_bytes: default heuristic fuses an edge only if it saves at
            least this much HBM traffic.
    """

    max_ops_per_kernel: int = 64
    max_contractions_per_kernel: int = 1
    scratchpad_bytes: int = 16 * 1024 * 1024
    min_saved_bytes: int = 0


def fusible_edges(graph: Graph) -> list[tuple[int, int]]:
    """All producer->consumer edges eligible for fusion, in stable order.

    Edges out of PARAMETER nodes are not fusible (parameters are kernel
    inputs by definition). Everything else is a candidate; legality of the
    resulting *groups* is enforced when a configuration is applied.
    """
    edges: list[tuple[int, int]] = []
    users = graph.users()
    for inst in graph.topological_order():
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
    """Union-find over instruction ids with legality bookkeeping."""

    def __init__(self, graph: Graph, params: FusionParams) -> None:
        self.parent = {i: i for i in graph.instructions}
        self.size = {
            i: (0 if inst.opcode in (Opcode.PARAMETER, Opcode.CONSTANT) else 1)
            for i, inst in graph.instructions.items()
        }
        self.contractions = {
            i: (1 if opcode_info(inst.opcode).category is OpCategory.CONTRACTION else 0)
            for i, inst in graph.instructions.items()
        }
        self.params = params

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def can_union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        if self.size[ra] + self.size[rb] > self.params.max_ops_per_kernel:
            return False
        if (
            self.contractions[ra] + self.contractions[rb]
            > self.params.max_contractions_per_kernel
        ):
            return False
        return True

    def union(self, a: int, b: int) -> bool:
        if not self.can_union(a, b):
            return False
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.contractions[ra] += self.contractions[rb]
        return True

    def groups(self) -> list[set[int]]:
        by_root: dict[int, set[int]] = {}
        for i in self.parent:
            by_root.setdefault(self.find(i), set()).add(i)
        return [by_root[k] for k in sorted(by_root)]


def apply_fusion(
    graph: Graph,
    config: FusionConfig,
    params: FusionParams | None = None,
) -> list[set[int]]:
    """Realize a fusion configuration into legal groups.

    Chosen edges are processed in stable order; an edge whose union would
    break a legality constraint (kernel size cap, one-contraction cap) is
    silently dropped, making every configuration in the search space legal —
    the autotuner can therefore mutate freely.

    Returns:
        A partition of all instruction ids (leaf-only groups included; the
        kernel extractor skips those).
    """
    params = params or FusionParams()
    edges = fusible_edges(graph)
    if len(config.decisions) != len(edges):
        raise ValueError(
            f"config has {len(config.decisions)} decisions for {len(edges)} edges"
        )
    uf = _UnionFind(graph, params)
    for (producer, consumer), fuse in zip(edges, config.decisions):
        if fuse:
            uf.union(producer, consumer)
    # Attach leaf nodes (params/constants) to the group of one consumer so
    # kernels receive their inputs; a leaf feeding several groups stays where
    # the first (topological) consumer put it — extraction imports it into
    # other kernels as a fresh parameter automatically.
    users = graph.users()
    for inst in graph.topological_order():
        if inst.opcode is Opcode.CONSTANT:
            for user in sorted(users[inst.id]):
                uf.union(inst.id, user)
                break
    return uf.groups()


def default_fusion(
    graph: Graph,
    params: FusionParams | None = None,
) -> FusionConfig:
    """The compiler's greedy priority-based fusion heuristic.

    Walks producers in reverse topological order and fuses a producer into
    its consumers when (a) all the producer's users can land in the same
    group, (b) legality holds, and (c) the estimated HBM traffic saved (the
    producer's output no longer round-trips through HBM) beats
    ``min_saved_bytes``. This mirrors XLA's "will it save memory access
    time" estimate (Sec. 2.3).
    """
    params = params or FusionParams()
    edges = fusible_edges(graph)
    edge_index = {e: k for k, e in enumerate(edges)}
    decisions = [False] * len(edges)
    uf = _UnionFind(graph, params)
    users = graph.users()
    order = graph.topological_order()
    for inst in reversed(order):
        info = opcode_info(inst.opcode)
        if not info.fusible or inst.opcode is Opcode.CONSTANT:
            continue
        consumer_ids = users[inst.id]
        if not consumer_ids or inst.is_root:
            continue  # outputs must be materialized anyway
        # All users must already share one group for a traffic saving.
        roots = {uf.find(u) for u in consumer_ids}
        if len(roots) != 1:
            continue
        saved = inst.shape.byte_size
        if saved < params.min_saved_bytes:
            continue
        target = consumer_ids[0]
        if not uf.can_union(inst.id, target):
            continue
        # Scratchpad footprint guard: group inputs + outputs must fit.
        if _group_footprint(graph, uf, inst.id, target) > params.scratchpad_bytes:
            continue
        uf.union(inst.id, target)
        for u in consumer_ids:
            key = (inst.id, u)
            if key in edge_index:
                decisions[edge_index[key]] = True
    return FusionConfig(tuple(decisions))


def _group_footprint(graph: Graph, uf: _UnionFind, a: int, b: int) -> int:
    """Bytes the merged group of ``a`` and ``b`` would move across HBM.

    Counts the boundary tensors of the merged group: operands produced
    outside the group plus group outputs consumed outside (or program
    roots). This is the working set the tiling machinery must stream
    through scratchpad; one full tile of each boundary tensor being
    resident is the constraint the default heuristic guards.
    """
    ra, rb = uf.find(a), uf.find(b)
    members = {i for i in graph.instructions if uf.find(i) in (ra, rb)}
    users = graph.users()
    footprint = 0
    for i in members:
        inst = graph.get(i)
        for op in inst.operands:
            if op not in members:
                footprint += graph.get(op).shape.byte_size
        if inst.is_root or any(u not in members for u in users[i]):
            footprint += inst.shape.byte_size
    return footprint


def fuse_program(
    graph: Graph,
    config: FusionConfig | None = None,
    params: FusionParams | None = None,
    program_name: str = "",
) -> list[Kernel]:
    """Fuse and extract kernels in one step.

    Args:
        graph: whole-program graph.
        config: fusion configuration; defaults to :func:`default_fusion`.
        params: legality knobs.
        program_name: recorded on kernels.
    """
    params = params or FusionParams()
    if config is None:
        config = default_fusion(graph, params)
    groups = apply_fusion(graph, config, params)
    return extract_kernels(graph, groups, program_name=program_name or graph.name)
