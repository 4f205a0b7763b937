"""Round-trip tests for graph serialization."""
import json

from repro.hlo import GraphBuilder, graph_from_dict, graph_to_dict
from repro.workloads import vision


def sample_graph():
    b = GraphBuilder("sample")
    x = b.parameter((2, 8, 8, 3), name="img")
    k = b.constant((3, 3, 3, 8))
    y = b.conv2d(x, k, strides=(2, 2), padding="same")
    y = b.scale_shift(y)
    z = b.reduce(y, [1, 2], kind="mean")
    return b.build([z])


class TestGraphRoundTrip:
    def test_roundtrip_preserves_structure(self):
        g = sample_graph()
        g2 = graph_from_dict(graph_to_dict(g))
        assert len(g2) == len(g)
        assert g2.name == g.name
        for a, c in zip(g.topological_order(), g2.topological_order()):
            assert a.id == c.id
            assert a.opcode == c.opcode
            assert a.shape == c.shape
            assert a.operands == c.operands
            assert a.is_root == c.is_root

    def test_roundtrip_preserves_attrs_as_tuples(self):
        g = sample_graph()
        g2 = graph_from_dict(graph_to_dict(g))
        conv = next(i for i in g2 if i.attr("window") is not None)
        assert conv.attr("window") == (3, 3)
        assert conv.attr("strides") == (2, 2)
        assert isinstance(conv.attr("window"), tuple)

    def test_roundtrip_is_stable(self):
        g = sample_graph()
        d1 = graph_to_dict(g)
        d2 = graph_to_dict(graph_from_dict(d1))
        assert d1 == d2


def json_roundtrip(graph):
    """Through JSON text, so every value ``graph_to_dict`` emits must be JSON-safe."""
    return graph_from_dict(json.loads(json.dumps(graph_to_dict(graph))))


class TestJsonRoundTrip:
    def test_graph_json(self):
        g = sample_graph()
        g2 = json_roundtrip(g)
        assert g2.name == "sample"
        assert len(g2) == len(g)
        assert graph_to_dict(g2) == graph_to_dict(g)

    def test_real_workload_roundtrip(self):
        p = vision.resnet_v1(0)
        g2 = json_roundtrip(p.graph)
        assert len(g2) == len(p.graph)
        a1 = p.graph.adjacency_matrix()
        a2 = g2.adjacency_matrix()
        assert (a1 == a2).all()
