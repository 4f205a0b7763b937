"""The paper runner's shared evaluation helpers, on one tiny program."""
from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.data import build_tile_dataset
from repro.tpu import TPU_V3, AnalyticalModel, TpuSimulator
from repro.workloads import Split, vision

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import harness

    return harness


def test_tile_split_prices_the_analytical_baseline_on_the_called_target(harness, monkeypatch):
    """A TPU v3 row's analytical columns come from the v3 analytical model,
    not the v2 default."""
    program = vision.image_embed(0)
    ds = build_tile_dataset(
        [program], simulator=TpuSimulator(TPU_V3),
        max_kernels_per_program=2, max_tiles_per_kernel=4, seed=0,
    )
    split = Split("stub", train=[], validation=[], test=[program], test_names={"Tiny": program})
    monkeypatch.setattr(harness, "split", lambda name: split)
    monkeypatch.setattr(harness, "tile_data", lambda name, subset, target: ds)
    monkeypatch.setattr(
        harness, "predict_tile_scores", lambda model, scalers, r: np.zeros(r.num_samples)
    )
    seen = []

    def evaluate(truths, scores):
        seen.append(scores)
        return SimpleNamespace(ape=0.0, kendall=0.0)

    monkeypatch.setattr(harness, "evaluate_tile_task", evaluate)
    result = SimpleNamespace(model=None, scalers=None)
    rows = harness.eval_tile_split("stub", result, target=TPU_V3)

    assert [row.application for row in rows] == ["Tiny"]
    _, analytical = seen
    v3 = AnalyticalModel(TPU_V3)
    expected = [np.asarray([v3.estimate(r.kernel, t) for t in r.tiles]) for r in ds.records]
    assert len(analytical) == len(expected) > 0
    for got, want in zip(analytical, expected):
        np.testing.assert_array_equal(got, want)
