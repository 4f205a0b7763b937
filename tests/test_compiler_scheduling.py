"""Tests for the list scheduler and static analyses."""
import pytest

from repro.compiler import (
    analyze,
    critical_path,
    functional_unit,
    instruction_cycles,
    list_schedule,
    live_tensor_peak,
    operational_intensity,
)
from repro.hlo import GraphBuilder


def wide_graph(width=4, n=1024):
    """One parameter feeding `width` independent tanh ops."""
    b = GraphBuilder("wide")
    x = b.parameter((n,))
    for _ in range(width):
        b.tanh(x)
    return b.build()


def chain(depth=4, n=1024):
    b = GraphBuilder("chain")
    x = b.parameter((n,))
    for _ in range(depth):
        x = b.tanh(x)
    return b.build()


class TestFunctionalUnits:
    def test_unit_assignment(self):
        b = GraphBuilder("g")
        x = b.parameter((4, 4))
        w = b.constant((4, 4))
        d = b.dot(x, w)
        t = b.tanh(x)
        r = b.reshape(x, (16,))
        a = b.add(x, x)
        g = b.build()
        assert functional_unit(g.get(d)) == "mxu"
        assert functional_unit(g.get(t)) == "trans"
        assert functional_unit(g.get(r)) == "perm"
        assert functional_unit(g.get(a)) == "vpu"

    def test_leaf_nodes_free(self):
        b = GraphBuilder("g")
        x = b.parameter((1024,))
        g = b.build()
        assert instruction_cycles(g.get(x)) == 0.0

    def test_cycles_scale_with_elements(self):
        b = GraphBuilder("g")
        x = b.parameter((1024,))
        y = b.parameter((2048,))
        tx = b.tanh(x)
        ty = b.tanh(y)
        g = b.build()
        assert instruction_cycles(g.get(ty)) == pytest.approx(
            2 * instruction_cycles(g.get(tx))
        )


class TestSchedules:
    def test_makespan_at_least_critical_path(self):
        g = chain(6)
        r = list_schedule(g)
        assert r.length_cycles >= r.critical_path_cycles - 1e-9

    def test_makespan_at_least_busiest_unit(self):
        g = wide_graph(8)
        r = list_schedule(g)
        assert r.length_cycles >= max(r.unit_busy_cycles.values()) - 1e-9

    def test_serial_chain_equals_critical_path(self):
        g = chain(5)
        r = list_schedule(g)
        assert r.length_cycles == pytest.approx(r.critical_path_cycles)
        assert critical_path(g) == pytest.approx(r.critical_path_cycles)
        assert r.issue_stall_cycles == pytest.approx(0.0)

    def test_wide_graph_serializes_on_one_unit(self):
        # All tanh ops share the transcendental unit; makespan = sum.
        g = wide_graph(4)
        r = list_schedule(g)
        assert r.length_cycles == pytest.approx(r.unit_busy_cycles["trans"])
        assert r.length_cycles > r.critical_path_cycles

    def test_schedule_scales_linearly(self):
        """The simulator schedules a kernel's whole tensor and charges each
        tile its share, which holds because the makespan is linear in the
        element count."""
        pairs = [(chain(4, n=4096), chain(4, n=1024)), (wide_graph(4), wide_graph(4, n=256))]
        for whole, quarter in pairs:
            r1, r2 = list_schedule(whole), list_schedule(quarter)
            assert r2.length_cycles == pytest.approx(0.25 * r1.length_cycles)
            assert r2.critical_path_cycles == pytest.approx(0.25 * r1.critical_path_cycles)

    def test_critical_path_scales_linearly(self):
        assert critical_path(chain(4, n=512)) == pytest.approx(0.5 * critical_path(chain(4)))

    def test_empty_ish_graph(self):
        b = GraphBuilder("g")
        b.parameter((4,))
        g = b.build()
        r = list_schedule(g)
        assert r.length_cycles == 0.0


class TestLivePeak:
    def test_chain_has_constant_live_peak(self):
        assert live_tensor_peak(chain(10)) <= 2

    def test_wide_graph_accumulates_live_values(self):
        # Sinks never die, so peak grows with width.
        assert live_tensor_peak(wide_graph(8)) == 8


class TestStaticAnalysis:
    def test_flops_bytes_transcendental(self):
        b = GraphBuilder("g")
        x = b.parameter((64, 64))
        w = b.constant((64, 64))
        y = b.dot(x, w)
        b.tanh(y)
        g = b.build()
        a = analyze(g)
        assert a.flops >= 2 * 64 * 64 * 64  # dot flops
        # Parameter + the >1024-element weight constant both stream from HBM.
        assert a.bytes_read == 2 * 64 * 64 * 4
        assert a.bytes_written == 64 * 64 * 4
        assert a.transcendental_count == 64 * 64

    def test_large_constants_count_as_reads(self):
        b = GraphBuilder("g")
        b.parameter((4, 4))
        b.constant((1024, 1024))  # > 1024 elements
        g = b.build()
        a = analyze(g)
        assert a.bytes_read == 4 * 4 * 4 + 1024 * 1024 * 4

    def test_reduce_flops_use_input_elements(self):
        b = GraphBuilder("g")
        x = b.parameter((128, 64))
        b.reduce(x, [1], kind="sum")
        g = b.build()
        a = analyze(g)
        assert a.flops == pytest.approx(128 * 64)

    def test_operational_intensity(self):
        b = GraphBuilder("g")
        x = b.parameter((64, 64))
        w = b.constant((64, 64))
        b.dot(x, w)
        a = analyze(b.build())
        oi = operational_intensity(a)
        assert oi > 0
        from repro.compiler import StaticAnalysis

        assert operational_intensity(StaticAnalysis(0, 0, 0, 0)) == 0.0

    def test_as_tuple_order(self):
        from repro.compiler import StaticAnalysis

        a = StaticAnalysis(1.0, 2.0, 3.0, 4.0)
        assert a.as_tuple() == (1.0, 2.0, 3.0, 4.0)
