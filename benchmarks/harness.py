"""Shared infrastructure for the benchmarks.

``bench_paper.py`` regenerates the paper's tables and figures in one
process. This module centralizes dataset construction, model training and
per-program evaluation, and caches every dataset and trained model for the
life of the process, so a model one table trains is reused by the next
(Table 2's trained models by Figures 4/5, etc.). ``bench_paper.py`` and
``bench_serving.py`` share :func:`check_record`, the named check their exit
codes are made of; the serving runner also uses the interleaved-round
helpers, and every bench :func:`stamp_report`.

Scale: the paper trains for 3-5M steps on 25M/208M samples; these benches
train the same architectures for a few thousand steps on a synthetic corpus,
which preserves the qualitative comparisons (who wins, by roughly what
factor) but not absolute step counts. Set ``REPRO_BENCH_FAST=1`` for a
several-times-smaller smoke configuration.
"""
from __future__ import annotations

import operator
import os
import platform
import subprocess
import time
from dataclasses import dataclass

import numpy as np

from repro.compiler import default_tile, fuse_program
from repro.data import build_fusion_dataset, build_tile_dataset
from repro.evaluation import evaluate_fusion_task, evaluate_tile_task
from repro.models import (
    ModelConfig,
    TrainConfig,
    TrainResult,
    predict_fusion_runtimes,
    predict_tile_scores,
    train_fusion_model,
    train_tile_model,
)
from repro.tpu import (
    TPU_V2,
    AnalyticalModel,
    CalibratedAnalyticalModel,
    TpuSimulator,
    TpuTarget,
    calibrate_kind_scales,
)
from repro.workloads import Split, build_corpus, manual_split, random_split

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

#: Version of the bench-report JSON layout. Bump when a report's shape
#: changes incompatibly, so archived artifacts from CI runs stay
#: machine-comparable across the repo's history.
BENCH_SCHEMA_VERSION = 1


def scale(full: int, fast: int) -> int:
    """Pick a knob value depending on the benchmark scale."""
    return fast if FAST else full


def git_revision() -> str:
    """The repo's current commit hash, or ``"unknown"`` outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except Exception:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp_report(report: dict) -> dict:
    """Stamp one bench's JSON report with schema + provenance metadata.

    Every ``bench_*`` report passes through here before printing, so
    archived artifacts always say which schema they use, which commit
    produced them, and whether the fast (smoke) configuration ran —
    without each bench repeating the bookkeeping.
    """
    report["schema_version"] = BENCH_SCHEMA_VERSION
    report["meta"] = {
        "git_revision": git_revision(),
        "fast_mode": FAST,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "generated_at_unix": time.time(),
    }
    return report


# ------------------------------------------------------------------ checks
OPS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq,
}


def check_record(report: dict, section: str, name: str, op: str, bound) -> dict:
    """One named check, ``report[section][name] op bound``.

    ``==`` is for boolean and string values. A value the section lacks —
    it raised before producing one — is null and fails, so a runner
    reports the same checks whichever of its sections ran.
    """
    value = report[section].get(name)
    return {
        "section": section, "name": name, "value": value, "op": op, "bound": bound,
        "passed": value is not None and bool(OPS[op](value, bound)),
    }


# ------------------------------------------------- ratios on a noisy box
def interleaved_rounds(modes: dict, rounds: int) -> dict[str, list]:
    """Measure every mode once per round; returns each mode's results.

    ``modes`` maps a name to a callable running one measured pass and
    returning its result. Back-to-back passes of one untouched service
    spread by more than 10 % on the boxes these benches run on, and the
    drift is slow: measuring mode after mode would fold it into every
    ratio. Running all modes within each round keeps the passes being
    compared close in time, and rotating the order each round keeps any
    positional effect (cache warmth, scheduler settling) from biasing one
    mode.
    """
    names = list(modes)
    results: dict[str, list] = {name: [] for name in names}
    for round_index in range(rounds):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            results[name].append(modes[name]())
    return results


def median_paired_ratio(mode_rates: list[float], baseline_rates: list[float]) -> float:
    """Median over rounds of (mode rate / same-round baseline rate).

    Pairing against the baseline pass of the *same* round cancels slow
    drift, and the median rejects rounds poisoned by a one-off stall.
    """
    ratios = sorted(m / b for m, b in zip(mode_rates, baseline_rates) if b > 0)
    if not ratios:
        return 0.0
    mid = len(ratios) // 2
    if len(ratios) % 2:
        return ratios[mid]
    return 0.5 * (ratios[mid - 1] + ratios[mid])


# ------------------------------------------------------------------ caching
_CORPUS = None
_SPLITS: dict[str, Split] = {}
_TILE_DS: dict[tuple, object] = {}
_FUSION_DS: dict[tuple, object] = {}
_MODELS: dict[tuple, TrainResult] = {}


def corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = build_corpus()
    return _CORPUS


def split(name: str) -> Split:
    if name not in _SPLITS:
        _SPLITS[name] = random_split(corpus()) if name == "random" else manual_split(corpus())
    return _SPLITS[name]


def tile_data(split_name: str, subset: str, seed: int = 0, target: TpuTarget = TPU_V2):
    """Tile dataset for one subset ('train'/'validation'/'test') of a split,
    measured on ``target``."""
    key = (split_name, subset, seed, FAST, target)
    if key not in _TILE_DS:
        s = split(split_name)
        programs = getattr(s, subset)
        if subset == "train" and FAST:
            programs = programs[::4]
        _TILE_DS[key] = build_tile_dataset(
            programs,
            simulator=TpuSimulator(target),
            max_kernels_per_program=scale(10, 6),
            max_tiles_per_kernel=scale(16, 8),
            seed=seed + (0 if subset == "train" else 1),
        )
    return _TILE_DS[key]


def fusion_data(split_name: str, subset: str, seed: int = 0):
    """Fusion dataset for one subset of a split."""
    key = (split_name, subset, seed, FAST)
    if key not in _FUSION_DS:
        s = split(split_name)
        programs = getattr(s, subset)
        if subset == "train" and FAST:
            programs = programs[::4]
        _FUSION_DS[key] = build_fusion_dataset(
            programs,
            configs_per_program=scale(4, 2),
            seed=seed + (0 if subset == "train" else 1),
        )
    return _FUSION_DS[key]


def default_tile_train(steps: int | None = None) -> TrainConfig:
    return TrainConfig(
        steps=steps if steps is not None else scale(1800, 400),
        learning_rate=8e-4,
        kernels_per_batch=6,
        tiles_per_kernel=6,
        log_every=500,
    )


def default_fusion_train(steps: int | None = None) -> TrainConfig:
    return TrainConfig(
        steps=steps if steps is not None else scale(2400, 500),
        learning_rate=8e-4,
        batch_size=24,
        log_every=500,
    )


def trained_tile_model(
    split_name: str,
    config: ModelConfig,
    steps: int | None = None,
    target: TpuTarget = TPU_V2,
) -> TrainResult:
    """Train (or fetch a cached) tile model on a split's training set."""
    key = ("tile", split_name, config, steps, FAST, target)
    if key not in _MODELS:
        ds = tile_data(split_name, "train", target=target)
        _MODELS[key] = train_tile_model(ds.records, config, default_tile_train(steps))
    return _MODELS[key]


def trained_fusion_model(split_name: str, config: ModelConfig, steps: int | None = None) -> TrainResult:
    """Train (or fetch a cached) fusion model on a split's training set."""
    key = ("fusion", split_name, config, steps, FAST)
    if key not in _MODELS:
        ds = fusion_data(split_name, "train")
        _MODELS[key] = train_fusion_model(ds.records, config, default_fusion_train(steps))
    return _MODELS[key]


# --------------------------------------------------------------- evaluation
@dataclass
class TileRow:
    """One Table 2/8 row for the tile task."""

    application: str
    learned_ape: float
    analytical_ape: float
    learned_tau: float
    analytical_tau: float


@dataclass
class FusionRow:
    """One Table 2/8 row for the fusion task."""

    application: str
    learned_mape: float
    analytical_mape: float
    learned_tau: float
    analytical_tau: float


def eval_tile_split(
    split_name: str, result: TrainResult, target: TpuTarget = TPU_V2
) -> list[TileRow]:
    """Per-application tile metrics for the split's named test programs."""
    s = split(split_name)
    ds = tile_data(split_name, "test", target=target)
    by_prog = ds.by_program()
    ana = AnalyticalModel(target)
    rows = []
    for display, program in s.test_names.items():
        recs = by_prog.get(program.name, [])
        if not recs:
            continue
        truths = [r.runtimes for r in recs]
        learned_scores = [predict_tile_scores(result.model, result.scalers, r) for r in recs]
        ana_scores = [
            np.asarray([ana.estimate(r.kernel, t) for t in r.tiles]) for r in recs
        ]
        lm = evaluate_tile_task(truths, learned_scores)
        am = evaluate_tile_task(truths, ana_scores)
        rows.append(TileRow(display, lm.ape, am.ape, lm.kendall, am.kendall))
    return rows


def calibrated_analytical(split_name: str) -> CalibratedAnalyticalModel:
    """Per-kind-calibrated analytical model, following the paper's protocol:
    run every test program once under the default fusion configuration."""
    s = split(split_name)
    sim = TpuSimulator()
    kernels, truths = [], []
    for p in s.test:
        for k in fuse_program(p.graph, program_name=p.name):
            if k.has_tile_options():
                kernels.append(k)
                truths.append(sim.run(k, default_tile(k)))
    ana = AnalyticalModel()
    return CalibratedAnalyticalModel(ana, calibrate_kind_scales(kernels, truths, ana))


def eval_fusion_split(
    split_name: str, result: TrainResult, min_runtime: float = 5e-6
) -> list[FusionRow]:
    """Per-application fusion metrics (kernels >= min_runtime).

    Both models are scored on the same kernels: those with tile options,
    the only ones the calibrated analytical model can estimate.
    """
    s = split(split_name)
    ds = fusion_data(split_name, "test")
    by_prog = ds.by_program()
    cal = calibrated_analytical(split_name)
    rows = []
    for display, program in s.test_names.items():
        recs = by_prog.get(program.name, [])
        if not recs:
            continue
        truths = np.asarray([r.runtime for r in recs])
        preds = predict_fusion_runtimes(result.model, result.scalers, recs)
        keep = [i for i, r in enumerate(recs) if r.kernel.has_tile_options()]
        ana_preds = np.asarray([cal.estimate(recs[i].kernel) for i in keep])
        lm = evaluate_fusion_task(truths[keep], preds[keep], min_runtime)
        am = evaluate_fusion_task(truths[keep], ana_preds, min_runtime)
        if lm.num_kernels == 0:
            continue
        rows.append(FusionRow(display, lm.mape, am.mape, lm.kendall, am.kendall))
    return rows
