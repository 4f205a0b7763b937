"""Tests for evaluation metrics and table rendering."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.evaluation import (
    evaluate_fusion_task,
    evaluate_tile_task,
    format_table,
    geometric_mean,
    kendall_tau,
    mape,
    summarize,
    tile_size_ape,
)


def _tied(n: int):
    """Float lists of length ``n`` drawn from five values, so most hold ties."""
    return st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.5, 7.0]), min_size=n, max_size=n)


class TestKendall:
    def test_perfect_correlation(self):
        assert kendall_tau(np.array([1, 2, 3, 4]), np.array([10, 20, 30, 40])) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert kendall_tau(np.array([1, 2, 3]), np.array([3, 2, 1])) == pytest.approx(-1.0)

    def test_degenerate_inputs(self):
        assert kendall_tau(np.array([1.0]), np.array([2.0])) == 0.0
        assert kendall_tau(np.array([1.0, 1.0]), np.array([1.0, 2.0])) == 0.0

    @given(st.lists(st.floats(0.1, 100, allow_nan=False), min_size=3, max_size=20, unique=True))
    @settings(max_examples=30)
    def test_bounded(self, values):
        arr = np.array(values)
        tau = kendall_tau(arr, arr**2)  # monotone transform
        assert tau == pytest.approx(1.0)

    @given(st.integers(2, 30).flatmap(lambda n: st.tuples(_tied(n), _tied(n))))
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_with_ties(self, pair):
        # A constant side is the degenerate case SciPy answers with NaN.
        truth, pred = np.array(pair[0]), np.array(pair[1])
        tau = kendall_tau(truth, pred)
        if np.all(truth == truth[0]) or np.all(pred == pred[0]):
            assert tau == 0.0
        else:
            assert tau == stats.kendalltau(truth, pred).statistic


class TestMape:
    def test_exact_is_zero(self):
        t = np.array([1.0, 2.0])
        assert mape(t, t) == 0.0

    def test_simple_case(self):
        assert mape(np.array([100.0]), np.array([150.0])) == pytest.approx(50.0)

    def test_empty(self):
        assert mape(np.array([]), np.array([])) == 0.0


class TestTileSizeApe:
    def test_perfect_choice_is_zero(self):
        runtimes = [np.array([3.0, 1.0, 2.0])]
        assert tile_size_ape(runtimes, [1]) == 0.0

    def test_eq2_hand_computed(self):
        # Kernel A: best 1.0, chosen 1.5; kernel B: best 2.0, chosen 2.0.
        runtimes = [np.array([1.5, 1.0]), np.array([2.0, 4.0])]
        ape = tile_size_ape(runtimes, [0, 0])
        assert ape == pytest.approx(100.0 * 0.5 / 3.0)

    def test_evaluate_tile_task_uses_argmin_scores(self):
        truths = [np.array([1.0, 5.0]), np.array([10.0, 2.0])]
        scores = [np.array([0.1, 0.9]), np.array([0.9, 0.1])]  # both correct
        res = evaluate_tile_task(truths, scores)
        assert res.ape == 0.0
        assert res.kendall == pytest.approx(1.0)
        assert res.num_kernels == 2

    @given(
        st.lists(
            st.lists(st.floats(0.1, 10, allow_nan=False), min_size=2, max_size=6),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=30)
    def test_ape_nonnegative(self, runtime_lists):
        runtimes = [np.array(r) for r in runtime_lists]
        chosen = [0 for _ in runtimes]
        assert tile_size_ape(runtimes, chosen) >= 0.0


class TestFusionTask:
    def test_threshold_filters_small_kernels(self):
        truth = np.array([1e-6, 1e-3])
        pred = np.array([1e-2, 1e-3])  # first is wildly wrong but filtered
        res = evaluate_fusion_task(truth, pred, min_runtime=5e-6)
        assert res.num_kernels == 1
        assert res.mape == pytest.approx(0.0)

    def test_zero_threshold_keeps_all(self):
        truth = np.array([1e-6, 1e-3])
        res = evaluate_fusion_task(truth, truth, min_runtime=0.0)
        assert res.num_kernels == 2


class TestSummaries:
    def test_summarize(self):
        s = summarize([1.0, 2.0, 9.0])
        assert s["median"] == 2.0
        assert s["mean"] == pytest.approx(4.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
        assert geometric_mean([0.0, 4.0]) > 0  # clamped


class TestFormatting:
    def test_format_table_contains_cells(self):
        out = format_table(["name", "x"], [["a", 1.234], ["bb", 5.0]], title="T")
        assert "T" in out and "name" in out
        assert "1.23" in out and "bb" in out

    def test_column_alignment(self):
        out = format_table(["h1", "h2"], [["long-cell", 1.0]])
        lines = out.splitlines()
        assert len(lines[0]) >= len("h1  h2")
