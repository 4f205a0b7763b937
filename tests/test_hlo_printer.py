"""Tests for graph rendering."""
from repro.compiler import apply_fusion, default_fusion
from repro.hlo import GraphBuilder, to_dot
from repro.workloads import vision


def small_graph():
    b = GraphBuilder("g")
    x = b.parameter((4, 8))
    b.dense(x, 16)
    return b.build()


class TestToDot:
    def test_contains_all_nodes_and_edges(self):
        g = small_graph()
        dot = to_dot(g)
        for inst in g:
            assert f"n{inst.id}" in dot
        edges = sum(len(i.operands) for i in g)
        assert dot.count("->") == edges

    def test_roots_rendered_distinctly(self):
        g = small_graph()
        assert "doubleoctagon" in to_dot(g)

    def test_contraction_colored(self):
        g = small_graph()
        assert "lightgreen" in to_dot(g)

    def test_fusion_groups_become_clusters(self):
        p = vision.image_embed(0)
        groups = apply_fusion(p.graph, default_fusion(p.graph))
        dot = to_dot(p.graph, groups=groups)
        assert "subgraph cluster_" in dot
        assert "kernel" in dot

    def test_valid_dot_structure(self):
        dot = to_dot(small_graph())
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert dot.count("{") == dot.count("}")

    def test_graph_str_lists_instructions(self):
        g = small_graph()
        s = str(g)
        assert "graph g {" in s
        assert s.count("%") >= len(g)
