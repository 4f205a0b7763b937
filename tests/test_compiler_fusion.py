"""Tests for the fusion configuration space and default heuristic."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import (
    FusionConfig,
    FusionParams,
    apply_fusion,
    default_fusion,
    fuse_program,
    fusible_edges,
)
from repro.hlo import GraphBuilder, Opcode
from repro.workloads import vision


def mlp_graph():
    b = GraphBuilder("mlp")
    x = b.parameter((8, 16))
    y = b.dense(x, 32)
    b.dense(y, 4, activation="tanh")
    return b.build()


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
            apply_fusion(g, FusionConfig.none(1))


class TestApplyFusion:
    def test_groups_partition_all_nodes(self):
        g = mlp_graph()
        edges = fusible_edges(g)
        groups = apply_fusion(g, FusionConfig.all(len(edges)))
        all_ids = sorted(i for grp in groups for i in grp)
        assert all_ids == sorted(g.instructions)

    def test_none_config_gives_singleton_compute_groups(self):
        g = mlp_graph()
        edges = fusible_edges(g)
        groups = apply_fusion(g, FusionConfig.none(len(edges)))
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
        params = FusionParams(max_contractions_per_kernel=1)
        groups = apply_fusion(g, FusionConfig.all(len(edges)), params)
        from repro.hlo import is_contraction

        for grp in groups:
            n = sum(1 for i in grp if is_contraction(g.get(i).opcode))
            assert n <= 1

    def test_size_cap_enforced(self):
        g = mlp_graph()
        edges = fusible_edges(g)
        params = FusionParams(max_ops_per_kernel=3)
        groups = apply_fusion(g, FusionConfig.all(len(edges)), params)
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
        apply_fusion(g, config)
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
