"""Tests for the fusion configuration space and default heuristic."""
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import (
    FusionConfig,
    ProgramFuser,
    default_fusion,
    fuse_program,
    fusible_edges,
    fusion,
)
from repro.hlo import GraphBuilder, OpCategory, Opcode, opcode_info
from repro.workloads import build_corpus, vision


def mlp_graph():
    b = GraphBuilder("mlp")
    x = b.parameter((8, 16))
    y = b.dense(x, 32)
    b.dense(y, 4, activation="tanh")
    return b.build()


class Limits(NamedTuple):
    """The fusion pass's legality constants, as explicit values."""

    max_ops: int = 64
    max_contractions: int = 1
    scratchpad_bytes: int = 16 * 1024 * 1024


def fusion_limits(limits):
    """Set the fusion constants to ``limits`` for the block's duration."""
    return mock.patch.multiple(
        fusion,
        MAX_OPS_PER_KERNEL=limits.max_ops,
        MAX_CONTRACTIONS_PER_KERNEL=limits.max_contractions,
        SCRATCHPAD_BYTES=limits.scratchpad_bytes,
    )


class TestFusibleEdges:
    def test_no_parameter_edges(self):
        g = mlp_graph()
        edges = fusible_edges(g)
        for producer, _ in edges:
            assert g.get(producer).opcode is not Opcode.PARAMETER

    def test_edges_are_real_graph_edges(self):
        g = mlp_graph()
        for producer, consumer in fusible_edges(g):
            assert producer in g.get(consumer).operands

    def test_deterministic_order(self):
        g = mlp_graph()
        assert fusible_edges(g) == fusible_edges(g)


class TestFusionConfig:
    def test_none_and_all(self):
        assert not any(FusionConfig.none(5).decisions)
        assert all(FusionConfig.all(5).decisions)

    def test_flip(self):
        c = FusionConfig.none(4).flip(2)
        assert c.decisions == (False, False, True, False)

    def test_mutate_changes_some_bits(self):
        rng = np.random.default_rng(0)
        c = FusionConfig.none(16)
        m = c.mutate(rng, num_flips=3)
        assert sum(a != b for a, b in zip(c.decisions, m.decisions)) in (1, 2, 3)

    def test_random_respects_probability(self):
        rng = np.random.default_rng(0)
        c = FusionConfig.random(1000, rng, p=0.0)
        assert not any(c.decisions)
        c = FusionConfig.random(1000, rng, p=1.0)
        assert all(c.decisions)

    def test_wrong_length_rejected(self):
        g = mlp_graph()
        with pytest.raises(ValueError):
            ProgramFuser(g).groups(FusionConfig.none(1))


class TestFuserGroups:
    def test_groups_partition_all_nodes(self):
        g = mlp_graph()
        edges = fusible_edges(g)
        groups = ProgramFuser(g).groups(FusionConfig.all(len(edges)))
        all_ids = sorted(i for grp in groups for i in grp)
        assert all_ids == sorted(g.instructions)

    def test_none_config_gives_singleton_compute_groups(self):
        g = mlp_graph()
        edges = fusible_edges(g)
        groups = ProgramFuser(g).groups(FusionConfig.none(len(edges)))
        # Non-leaf nodes stay alone (constants may attach to consumers).
        for grp in groups:
            non_leaf = [
                i
                for i in grp
                if g.get(i).opcode not in (Opcode.PARAMETER, Opcode.CONSTANT)
            ]
            assert len(non_leaf) <= 1

    def test_contraction_cap_enforced(self):
        g = mlp_graph()
        edges = fusible_edges(g)
        groups = ProgramFuser(g).groups(FusionConfig.all(len(edges)))
        from repro.hlo import is_contraction

        for grp in groups:
            n = sum(1 for i in grp if is_contraction(g.get(i).opcode))
            assert n <= fusion.MAX_CONTRACTIONS_PER_KERNEL == 1

    def test_size_cap_enforced(self):
        g = mlp_graph()
        edges = fusible_edges(g)
        with fusion_limits(Limits(max_ops=3)):
            groups = ProgramFuser(g).groups(FusionConfig.all(len(edges)))
        for grp in groups:
            non_leaf = [
                i
                for i in grp
                if g.get(i).opcode not in (Opcode.PARAMETER, Opcode.CONSTANT)
            ]
            assert len(non_leaf) <= 3


class TestDefaultFusion:
    def test_default_fusion_reduces_kernel_count(self):
        g = vision.resnet_v1(0).graph
        unfused = fuse_program(g, config=FusionConfig.none(len(fusible_edges(g))))
        fused = fuse_program(g)
        assert len(fused) < len(unfused)

    def test_default_fusion_keeps_outputs_materialized(self):
        g = mlp_graph()
        config = default_fusion(g)
        ProgramFuser(g).groups(config)
        kernels = fuse_program(g, config=config)
        # Every program root appears as a root of some kernel.
        assert kernels

    def test_default_fusion_deterministic(self):
        g = vision.image_embed(0).graph
        assert default_fusion(g).decisions == default_fusion(g).decisions


class TestFuseProgram:
    def test_kernels_validate_and_have_kinds(self):
        p = vision.resnet_v1(1)
        for k in fuse_program(p.graph, program_name=p.name):
            k.graph.validate()
            assert k.program_name == p.name
            assert k.kind in ("fusion", "convolution", "data_formatting", "other")

    def test_kernel_indices_sequential(self):
        p = vision.ssd(0)
        kernels = fuse_program(p.graph, program_name=p.name)
        assert [k.index for k in kernels] == list(range(len(kernels)))

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.floats(0.1, 0.9))
    @settings(max_examples=10, deadline=None)
    def test_random_configs_always_legal(self, seed, p):
        g = mlp_graph()
        rng = np.random.default_rng(seed)
        config = FusionConfig.random(len(fusible_edges(g)), rng, p=p)
        kernels = fuse_program(g, config=config)
        for k in kernels:
            k.graph.validate()
        # All compute is preserved: total non-leaf ops match the program.
        total = sum(
            1
            for k in kernels
            for i in k.graph
            if i.opcode not in (Opcode.PARAMETER, Opcode.CONSTANT)
        )
        program_total = sum(
            1 for i in g if i.opcode not in (Opcode.PARAMETER, Opcode.CONSTANT)
        )
        assert total == program_total


class _ReferenceUnionFind:
    """The fuser's original union-find over instruction ids (dicts, path
    compression): the reference :class:`ProgramFuser` must equal."""

    def __init__(self, sizes, contractions, limits):
        self.parent = {i: i for i in sizes}
        self.size = dict(sizes)
        self.contractions = dict(contractions)
        self.limits = limits

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def can_union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        if self.size[ra] + self.size[rb] > self.limits.max_ops:
            return False
        return self.contractions[ra] + self.contractions[rb] <= self.limits.max_contractions

    def union(self, a, b):
        if not self.can_union(a, b):
            return
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.contractions[ra] += self.contractions[rb]

    def groups(self):
        by_root = {}
        for i in self.parent:
            by_root.setdefault(self.find(i), set()).add(i)
        return [by_root[k] for k in sorted(by_root)]


def _reference_union_find(graph, limits):
    leaves = {i.id for i in graph if i.opcode in (Opcode.PARAMETER, Opcode.CONSTANT)}
    sizes = {i: int(i not in leaves) for i in graph.instructions}
    contractions = {
        i: int(opcode_info(inst.opcode).category is OpCategory.CONTRACTION)
        for i, inst in graph.instructions.items()
    }
    return _ReferenceUnionFind(sizes, contractions, limits)


def reference_groups(graph, config, limits):
    """Groups of ``config`` as the dict union-find formed them."""
    users = graph.users()
    uf = _reference_union_find(graph, limits)
    for (producer, consumer), fuse in zip(fusible_edges(graph), config.decisions):
        if fuse:
            uf.union(producer, consumer)
    for inst in graph.topological_order():
        if inst.opcode is Opcode.CONSTANT and users[inst.id]:
            uf.union(inst.id, min(users[inst.id]))
    return uf.groups()


def _reference_footprint(graph, users, uf, a, b):
    """Boundary bytes of the merged group, found by scanning every node."""
    ra, rb = uf.find(a), uf.find(b)
    members = {i for i in graph.instructions if uf.find(i) in (ra, rb)}
    footprint = 0
    for i in members:
        inst = graph.get(i)
        for op in inst.operands:
            if op not in members:
                footprint += graph.get(op).shape.byte_size
        if inst.is_root or any(u not in members for u in users[i]):
            footprint += inst.shape.byte_size
    return footprint


def reference_default_config(graph, limits):
    """The greedy heuristic over the dict union-find and a whole-program
    footprint scan per candidate."""
    edges = fusible_edges(graph)
    edge_index = {e: k for k, e in enumerate(edges)}
    decisions = [False] * len(edges)
    uf = _reference_union_find(graph, limits)
    users = graph.users()
    for inst in reversed(graph.topological_order()):
        if not opcode_info(inst.opcode).fusible or inst.opcode is Opcode.CONSTANT:
            continue
        consumer_ids = users[inst.id]
        if not consumer_ids or inst.is_root:
            continue
        if len({uf.find(u) for u in consumer_ids}) != 1:
            continue
        target = consumer_ids[0]
        if not uf.can_union(inst.id, target):
            continue
        if _reference_footprint(graph, users, uf, inst.id, target) > limits.scratchpad_bytes:
            continue
        uf.union(inst.id, target)
        for u in consumer_ids:
            if (inst.id, u) in edge_index:
                decisions[edge_index[(inst.id, u)]] = True
    return FusionConfig(tuple(decisions))


@pytest.fixture(scope="module")
def reference_programs():
    """Five corpus programs of different families, 69 to 438 nodes."""
    names = ("dlrm_0", "char2feats_0", "resnet_v1_0", "transformer_1", "inception_3")
    programs = [p for p in build_corpus() if p.name in names]
    assert len(programs) == len(names)
    return programs


limit_sets = st.builds(
    Limits,
    max_ops=st.sampled_from([1, 2, 3, 5, 8, 64]),
    max_contractions=st.integers(0, 2),
    scratchpad_bytes=st.sampled_from([1 << 12, 1 << 16, 1 << 20, 16 * 1024 * 1024]),
)


class TestFuserEqualsReferenceUnionFind:
    """The dense union-find forms the partitions, and the default heuristic
    the decisions, that the dict union-find formed — tight legality caps
    (which reject unions) included."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), limits=limit_sets)
    def test_groups_and_default_config(self, reference_programs, data, limits):
        program = data.draw(st.sampled_from(reference_programs), label="program")
        graph = program.graph
        with fusion_limits(limits):
            fuser = ProgramFuser(graph)
            default = fuser.default_config()
            assert default == reference_default_config(graph, limits)
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
            configs = [default, FusionConfig.all(len(fuser.edges))] + [
                FusionConfig.random(len(fuser.edges), rng, p=p) for p in (0.2, 0.5, 0.9)
            ]
            for config in configs:
                got, want = fuser.groups(config), reference_groups(graph, config, limits)
                assert got == want
                assert [list(g) for g in got] == [list(g) for g in want]  # iteration order too
