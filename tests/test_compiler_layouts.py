"""Tests for the layout-assignment pass."""
from unittest import mock

import pytest

from repro.compiler import (
    Kernel,
    best_output_layout,
    default_tile,
    enumerate_output_layouts,
    with_output_layout,
)
from repro.hlo import GraphBuilder, Layout
from repro.tpu import TpuSimulator


def skinny_kernel():
    """Output [8, 4096]: layout choice changes the minor dim 4096 <-> 8."""
    b = GraphBuilder("skinny")
    x = b.parameter((8, 256))
    w = b.constant((256, 4096))
    y = b.dot(x, w)
    b.tanh(y)
    return Kernel(graph=b.build(), kind="fusion")


class TestEnumeration:
    def test_default_first(self):
        k = skinny_kernel()
        layouts = enumerate_output_layouts(k)
        assert layouts[0] == Layout.default(2)

    def test_rank2_has_both_orders(self):
        k = skinny_kernel()
        layouts = enumerate_output_layouts(k)
        assert Layout((0, 1)) in layouts and Layout((1, 0)) in layouts

    def test_scalar_single_layout(self):
        b = GraphBuilder("s")
        x = b.parameter((16,))
        b.reduce(x, [0], kind="sum")
        k = Kernel(graph=b.build(), kind="other")
        assert enumerate_output_layouts(k) == [Layout.default(0)]

    def test_cap_respected_high_rank(self):
        b = GraphBuilder("r4")
        x = b.parameter((2, 4, 8, 16))
        b.tanh(x)
        k = Kernel(graph=b.build(), kind="other")
        assert len(enumerate_output_layouts(k)) == 4
        with mock.patch("repro.compiler.layouts.MAX_LAYOUTS", 3):
            assert len(enumerate_output_layouts(k)) == 3


class TestWithOutputLayout:
    def test_layout_applied_only_to_primary_output(self):
        k = skinny_kernel()
        flipped = with_output_layout(k, Layout((0, 1)))
        assert flipped.primary_output().shape.layout == Layout((0, 1))
        for inst in flipped.graph:
            if inst.id != flipped.primary_output().id:
                assert inst.shape.layout.is_default()

    def test_graph_still_validates(self):
        k = skinny_kernel()
        with_output_layout(k, Layout((0, 1))).graph.validate()

    def test_fingerprint_tells_layouts_apart(self):
        """Relaying out the output makes another kernel: every
        fingerprint-keyed memo (features, predictions, the serving result
        cache) must keep the two apart. Spelling out the default layout
        leaves the fingerprint as it was."""
        k = skinny_kernel()
        flipped = with_output_layout(k, Layout((0, 1)))
        assert flipped.fingerprint() != k.fingerprint()
        assert with_output_layout(k, Layout.default(2)).fingerprint() == k.fingerprint()

    def test_invalid_layout_rejected(self):
        k = skinny_kernel()
        with pytest.raises(ValueError):
            with_output_layout(k, Layout((0, 1, 2)))


class TestLayoutCost:
    def test_layout_changes_simulated_runtime(self):
        sim = TpuSimulator(quirk_amplitude=0)
        k = skinny_kernel()
        wide_minor = sim.run(k, default_tile(k))
        flipped = with_output_layout(k, Layout((0, 1)))
        narrow_minor = sim.run(flipped, default_tile(flipped))
        assert wide_minor != narrow_minor

    def test_best_layout_minimizes_cost(self):
        sim = TpuSimulator(quirk_amplitude=0)
        k = skinny_kernel()
        cost = lambda kk: sim.run(kk, default_tile(kk))
        layout, best_cost = best_output_layout(k, cost)
        for candidate in enumerate_output_layouts(k):
            assert best_cost <= cost(with_output_layout(k, candidate)) + 1e-15
