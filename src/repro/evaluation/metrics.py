"""Evaluation metrics (paper Sec. 5).

Tile-size task: *Tile-Size APE* (Eq. 2) — how much slower the program runs
with the model's chosen tiles than with the truly-best tiles — plus
Kendall's τ between predicted and true runtimes within each kernel,
averaged per program.

Fusion task: MAPE over kernels plus Kendall's τ across kernels, evaluated
per program; the paper reports over kernels with true runtime >= 5 µs
(small kernels contribute negligibly to program runtime).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def kendall_tau(truth: np.ndarray, pred: np.ndarray) -> float:
    """Kendall rank correlation; 0.0 for degenerate (constant) inputs.

    ``scipy.stats`` is imported here, not at module level: it is half of
    what ``import repro`` would otherwise cost in memory and start-up, and
    no training, tuning or serving path calls this function.
    """
    from scipy import stats

    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if len(truth) < 2 or np.all(truth == truth[0]) or np.all(pred == pred[0]):
        return 0.0
    tau = stats.kendalltau(truth, pred).statistic
    return float(tau) if np.isfinite(tau) else 0.0


def mape(truth: np.ndarray, pred: np.ndarray) -> float:
    """Mean absolute percentage error, in percent."""
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if len(truth) == 0:
        return 0.0
    return float(np.mean(np.abs(pred - truth) / np.maximum(truth, 1e-12)) * 100.0)


@dataclass(frozen=True)
class TileTaskResult:
    """Per-program tile-task metrics.

    Attributes:
        ape: Tile-Size APE (Eq. 2), percent.
        kendall: mean within-kernel Kendall's τ.
        num_kernels: kernels evaluated.
    """

    ape: float
    kendall: float
    num_kernels: int


def tile_size_ape(
    true_runtimes: list[np.ndarray],
    chosen_indices: list[int],
) -> float:
    """Tile-Size APE over one program (Eq. 2).

    Args:
        true_runtimes: per kernel, the true runtime of every candidate tile.
        chosen_indices: per kernel, the index the model predicts fastest.

    Returns:
        100 * sum_k (t[chosen] - t[best]) / sum_k t[best].
    """
    lost = 0.0
    best_total = 0.0
    for runtimes, chosen in zip(true_runtimes, chosen_indices):
        best = float(np.min(runtimes))
        lost += abs(float(runtimes[chosen]) - best)
        best_total += best
    if best_total <= 0:
        return 0.0
    return 100.0 * lost / best_total


def evaluate_tile_task(
    true_runtimes: list[np.ndarray],
    scores: list[np.ndarray],
) -> TileTaskResult:
    """Tile-task metrics for one program.

    Args:
        true_runtimes: per kernel, true runtimes of its candidate tiles.
        scores: per kernel, model scores aligned with the candidates
            (lower score = predicted faster).
    """
    chosen = [int(np.argmin(s)) for s in scores]
    ape = tile_size_ape(true_runtimes, chosen)
    taus = [kendall_tau(t, s) for t, s in zip(true_runtimes, scores)]
    return TileTaskResult(
        ape=ape,
        kendall=float(np.mean(taus)) if taus else 0.0,
        num_kernels=len(scores),
    )


@dataclass(frozen=True)
class FusionTaskResult:
    """Per-program fusion-task metrics.

    Attributes:
        mape: mean absolute percentage error over kernels, percent.
        kendall: Kendall's τ between predicted and true runtimes across
            the program's kernels.
        num_kernels: kernels evaluated.
    """

    mape: float
    kendall: float
    num_kernels: int


def evaluate_fusion_task(
    true_runtimes: np.ndarray,
    predicted_runtimes: np.ndarray,
    min_runtime: float = 5e-6,
) -> FusionTaskResult:
    """Fusion-task metrics for one program's kernels.

    Args:
        true_runtimes / predicted_runtimes: aligned arrays of seconds.
        min_runtime: kernels faster than this are excluded (paper uses
            5 µs; pass 0 to keep everything).
    """
    truth = np.asarray(true_runtimes, dtype=np.float64)
    pred = np.asarray(predicted_runtimes, dtype=np.float64)
    keep = truth >= min_runtime
    truth, pred = truth[keep], pred[keep]
    return FusionTaskResult(
        mape=mape(truth, pred),
        kendall=kendall_tau(truth, pred),
        num_kernels=int(keep.sum()),
    )


def geometric_mean(values: list[float]) -> float:
    """Geometric mean of positive values (0s clamped to a tiny epsilon)."""
    arr = np.maximum(np.asarray(values, dtype=np.float64), 1e-9)
    return float(np.exp(np.mean(np.log(arr))))


def summarize(values: list[float]) -> dict[str, float]:
    """Median/mean summary rows used at the bottom of the paper's tables."""
    arr = np.asarray(values, dtype=np.float64)
    return {"median": float(np.median(arr)), "mean": float(np.mean(arr))}
