"""Tests for graphs: construction, validation, topology, subgraphs."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import clone, subgraph
from repro.hlo import Graph, GraphError, Instruction, Opcode, Program, Shape


def make_inst(i, opcode=Opcode.PARAMETER, operands=(), dims=(4,), **kw):
    return Instruction(id=i, opcode=opcode, shape=Shape(dims), operands=operands, **kw)


def chain_graph(n=4):
    """param -> tanh -> tanh -> ... chain of n nodes."""
    g = Graph("chain")
    g.add(make_inst(0))
    for i in range(1, n):
        g.add(make_inst(i, Opcode.TANH, (i - 1,)))
    return g


class TestGraphBasics:
    def test_add_and_get(self):
        g = Graph()
        inst = g.add(make_inst(0))
        assert g.get(0) is inst
        assert len(g) == 1
        assert 0 in g

    def test_duplicate_id_rejected(self):
        g = Graph()
        g.add(make_inst(0))
        with pytest.raises(GraphError):
            g.add(make_inst(0))

    def test_missing_operand_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add(make_inst(1, Opcode.TANH, (0,)))

    def test_operands_of(self):
        g = chain_graph(3)
        ops = g.operands_of(2)
        assert [o.id for o in ops] == [1]

    def test_users_map(self):
        g = chain_graph(3)
        users = g.users()
        assert users[0] == [1]
        assert users[1] == [2]
        assert users[2] == []

    def test_roots_are_sinks(self):
        g = chain_graph(3)
        assert [r.id for r in g.roots()] == [2]

    def test_explicit_root_marking(self):
        g = chain_graph(3)
        g.get(1).is_root = True
        assert sorted(r.id for r in g.roots()) == [1, 2]

    def test_parameters_listed_in_order(self):
        g = Graph()
        g.add(make_inst(3))
        g.add(make_inst(1))
        g.add(make_inst(2, Opcode.ADD, (3, 1), dims=(4,)))
        assert [p.id for p in g.parameters()] == [1, 3]

    def test_str_lists_instructions(self):
        g = chain_graph(3)
        s = str(g)
        assert s.startswith("graph chain {") and s.endswith("}")
        assert s.count("%") >= len(g)


class TestTopology:
    def test_topological_order_respects_edges(self):
        g = chain_graph(5)
        order = [i.id for i in g.topological_order()]
        assert order == [0, 1, 2, 3, 4]

    def test_cycle_detected(self):
        g = Graph()
        # Build a cycle by hand (bypassing add()'s operand check).
        g.instructions[0] = Instruction(0, Opcode.TANH, Shape((4,)), (1,))
        g.instructions[1] = Instruction(1, Opcode.TANH, Shape((4,)), (0,))
        with pytest.raises(GraphError):
            g.topological_order()

    def test_validate_passes_for_valid_graph(self):
        chain_graph(4).validate()

    def test_validate_rejects_key_mismatch(self):
        g = chain_graph(2)
        g.instructions[5] = g.instructions.pop(1)
        with pytest.raises(GraphError):
            g.validate()

    def test_adjacency_matrix(self):
        g = chain_graph(3)
        a = g.adjacency_matrix()
        expected = np.zeros((3, 3), dtype=np.float32)
        expected[0, 1] = expected[1, 2] = 1.0
        assert np.array_equal(a, expected)

    def test_adjacency_upper_triangular_in_topo_order(self):
        g = chain_graph(6)
        a = g.adjacency_matrix()
        assert np.allclose(a, np.triu(a, 1))


class TestSubgraph:
    def diamond(self):
        g = Graph("diamond")
        g.add(make_inst(0))
        g.add(make_inst(1, Opcode.TANH, (0,)))
        g.add(make_inst(2, Opcode.EXP, (0,)))
        g.add(make_inst(3, Opcode.ADD, (1, 2)))
        return g

    def test_subgraph_imports_external_operands_as_parameters(self):
        g = self.diamond()
        sub = subgraph(g, {3})
        params = sub.parameters()
        assert len(params) == 2
        assert all(p.attr("imported_from") in (1, 2) for p in params)

    def test_subgraph_marks_outputs(self):
        g = self.diamond()
        sub = subgraph(g, {1, 2})
        roots = sub.roots()
        assert len(roots) == 2  # both feed node 3 outside

    def test_subgraph_ids_dense_topological(self):
        g = self.diamond()
        sub = subgraph(g, {0, 1, 2, 3})
        assert sorted(sub.instructions) == list(range(len(sub)))
        sub.validate()

    def test_subgraph_shares_external_producer_parameter(self):
        g = self.diamond()
        sub = subgraph(g, {1, 2})  # both consume node 0 from outside
        assert len(sub.parameters()) == 1

    def test_clone_is_independent(self):
        g = chain_graph(3)
        c = clone(g)
        c.get(0).attrs["x"] = 1
        assert "x" not in g.get(0).attrs
        assert len(c) == len(g)


class TestProgram:
    def test_family_defaults_to_name(self):
        p = Program("net", chain_graph(2))
        assert p.family == "net"
        p2 = Program("net_1", chain_graph(2), family="net")
        assert p2.family == "net"

    def test_compares_by_fields_and_is_unhashable(self):
        g = chain_graph(2)
        assert Program("net", g) == Program("net", chain_graph(2), family="net")
        assert Program("net", g) != Program("net", chain_graph(3))
        assert Program("net", g).graph is g
        with pytest.raises(TypeError):
            hash(Program("net", g))


@st.composite
def random_dag(draw):
    """Random DAG: each node consumes up to 2 earlier nodes."""
    n = draw(st.integers(min_value=1, max_value=12))
    g = Graph("rand")
    g.add(make_inst(0))
    for i in range(1, n):
        arity = draw(st.integers(min_value=0, max_value=min(2, i)))
        if arity == 0:
            g.add(make_inst(i))
        elif arity == 1:
            op = draw(st.integers(min_value=0, max_value=i - 1))
            g.add(make_inst(i, Opcode.TANH, (op,)))
        else:
            a = draw(st.integers(min_value=0, max_value=i - 1))
            b = draw(st.integers(min_value=0, max_value=i - 1))
            g.add(make_inst(i, Opcode.ADD, (a, b)))
    return g


class TestGraphProperties:
    @given(random_dag())
    @settings(max_examples=40)
    def test_topological_order_property(self, g):
        order = g.topological_order()
        pos = {inst.id: k for k, inst in enumerate(order)}
        assert len(order) == len(g)
        for inst in g:
            for op in inst.operands:
                assert pos[op] < pos[inst.id]

    @given(random_dag())
    @settings(max_examples=40)
    def test_subgraph_always_validates(self, g):
        ids = [i for i in g.instructions if i % 2 == 0]
        if not ids:
            return
        sub = subgraph(g, ids)
        sub.validate()

    @given(random_dag())
    @settings(max_examples=40)
    def test_adjacency_edge_count(self, g):
        a = g.adjacency_matrix()
        edges = sum(len(inst.operands) for inst in g)
        assert a.sum() <= edges  # duplicate operands collapse to one cell
        assert a.sum() >= len({(o, i.id) for i in g for o in i.operands})
