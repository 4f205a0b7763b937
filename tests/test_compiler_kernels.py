"""Tests for kernel extraction, classification and fingerprints."""
import hashlib

import pytest

from oracles import subgraph
from repro.compiler import Kernel, ProgramFuser, classify_kernel, fuse_program
from repro.hlo import GraphBuilder, Opcode
from repro.workloads import build_corpus


def conv_graph():
    b = GraphBuilder("g")
    x = b.parameter((2, 8, 8, 3))
    k = b.constant((3, 3, 3, 8))
    y = b.conv2d(x, k)
    z = b.relu(y)
    return b.build(), y, z


class TestClassification:
    def test_convolution_kernel(self):
        g, y, z = conv_graph()
        sub = subgraph(g, set(g.instructions))
        assert classify_kernel(sub) == "convolution"

    def test_data_formatting_kernel(self):
        b = GraphBuilder("g")
        x = b.parameter((4, 6))
        y = b.transpose(x, (1, 0))
        b.reshape(y, (24,))
        g = b.build()
        assert classify_kernel(g) == "data_formatting"
        k = Kernel(graph=g, kind=classify_kernel(g))
        assert not k.has_tile_options()

    def test_fusion_kernel(self):
        b = GraphBuilder("g")
        x = b.parameter((4,))
        b.tanh(b.exp(x))
        g = b.build()
        assert classify_kernel(g) == "fusion"

    def test_single_op_is_other(self):
        b = GraphBuilder("g")
        x = b.parameter((4,))
        b.tanh(x)
        g = b.build()
        assert classify_kernel(g) == "other"

    def test_unknown_kind_rejected(self):
        b = GraphBuilder("g")
        b.parameter((4,))
        with pytest.raises(ValueError):
            Kernel(graph=b.build(), kind="weird")


class TestExtraction:
    def test_leaf_only_groups_skipped(self):
        g, y, z = conv_graph()
        params = [i.id for i in g.parameters()]
        groups = [set(params), set(g.instructions) - set(params)]
        kernels = ProgramFuser(g).extract(groups)
        assert len(kernels) == 1

    def test_kernels_ordered_topologically(self):
        b = GraphBuilder("g")
        x = b.parameter((4,))
        a = b.tanh(x)
        c = b.exp(a)
        g = b.build()
        kernels = ProgramFuser(g).extract([{c}, {a}])
        assert kernels[0].graph.get(kernels[0].graph.roots()[0].id).opcode is Opcode.TANH

    def test_empty_groups_ignored(self):
        g, y, z = conv_graph()
        kernels = ProgramFuser(g).extract([set(), set(g.instructions)])
        assert len(kernels) == 1


class TestKernelAPI:
    def test_primary_output_is_largest(self):
        b = GraphBuilder("g")
        x = b.parameter((4, 4))
        small = b.reduce(x, [0, 1], kind="sum")
        big = b.tanh(x)
        g = b.build([small, big])
        k = Kernel(graph=g, kind="fusion")
        assert k.primary_output().shape.dims == (4, 4)

    def test_fingerprint_stable_and_content_sensitive(self):
        g1, _, _ = conv_graph()
        g2, _, _ = conv_graph()
        k1 = Kernel(graph=g1, kind="convolution")
        k2 = Kernel(graph=g2, kind="convolution")
        assert k1.fingerprint() == k2.fingerprint()
        assert k1.fingerprint() == k1.fingerprint()  # cached path

        b = GraphBuilder("g")
        x = b.parameter((2, 8, 8, 3))
        kk = b.constant((3, 3, 3, 16))  # different filter count
        b.conv2d(x, kk)
        k3 = Kernel(graph=b.build(), kind="convolution")
        assert k3.fingerprint() != k1.fingerprint()

    def test_corpus_fingerprints_pinned(self):
        """Hashing a non-default layout moved no existing fingerprint: no
        corpus instruction has one, and the default-fusion kernels of all
        104 programs hash to the digest recorded before layouts were hashed.
        Tile subsampling, hardware quirks and every recorded search are
        seeded from these fingerprints."""
        corpus = build_corpus()
        assert all(inst.shape.layout.is_default() for p in corpus for inst in p.graph)
        digest = hashlib.sha256()
        for program in corpus:
            for kernel in fuse_program(program.graph, program_name=program.name):
                digest.update(kernel.fingerprint().encode())
        assert len(corpus) == 104
        assert digest.hexdigest() == (
            "03f5dc06475779c46624e4205d7f366b585ee1ef41cc7e93136dd55d325f5a32"
        )

    def test_num_nodes_and_output_shapes(self):
        g, y, z = conv_graph()
        k = Kernel(graph=subgraph(g, set(g.instructions)), kind="convolution")
        assert k.num_nodes == len(g)
        assert any(s.dims == (2, 8, 8, 8) for s in k.output_shapes())
