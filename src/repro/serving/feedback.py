"""Online feedback: join served predictions with measured runtimes.

The paper's cost model earns its keep only while its predictions track
the hardware — Kaufman et al. lean on re-training/fine-tuning when new
workloads arrive (Sec. 7.1), which presupposes a deployment loop that
*notices* when accuracy drifts. This module is that loop's sensory half:

* the service records every served prediction (response path and
  shadow-scored alike) under a stable request key;
* the measurement side — :class:`~repro.tpu.TpuSimulator` standing in
  for hardware — reports measured runtimes under the same key;
* the :class:`FeedbackCollector` joins the two into a bounded
  **per-version error window**, the signal the
  :class:`~repro.serving.rollout.RolloutController` promotes and rolls
  back on, and retains the joined samples themselves as a training
  buffer for the continuous-learning loop
  (:func:`repro.models.trainer.fine_tune_on_feedback`).

Errors are normalized to [0, 1] so windows of different request kinds
are comparable: scalar predictions score a capped relative error,
vector predictions (tile scores vs. measured tile runtimes) score the
discordant-pair fraction — rank quality is what the tile model is *for*
(the paper evaluates it with Kendall's tau for the same reason).
"""
from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from .protocol import Request, TileScoresRequest


def request_key(request: Request) -> tuple:
    """Stable join key for one request (prediction side = measurement side).

    Prefers the protocol's ``cache_key`` (kernel fingerprint + tile dims,
    stable across processes); program-population requests, whose cache key
    is ``None`` by design, fall back to their fingerprint sequence.
    """
    try:
        key = request.cache_key()
        if key is not None:
            return key
        return ("programs", tuple(request.fingerprints()))
    except Exception:
        return ("opaque", repr(request))


def prediction_error(predicted, measured) -> float:
    """Normalized [0, 1] error of one prediction against its measurement.

    * vectors (candidate-tile scores vs. measured tile runtimes): the
      discordant-pair fraction — the probability that the model mis-orders
      a random pair the hardware separates. 0 = perfect ranking, ~0.5 =
      random, ~1 = anti-correlated. Ranking is the deployed contract of
      the tile model, so ranking error is what rollouts gate on.
    * scalars (kernel/program runtimes): relative absolute error, capped
      at 1 so one wild prediction cannot dominate a window mean.
    """
    pred = np.asarray(predicted, dtype=np.float64).reshape(-1)
    meas = np.asarray(measured, dtype=np.float64).reshape(-1)
    if pred.size != meas.size:
        return 1.0
    if pred.size == 0:
        return 0.0
    if pred.size == 1:
        denom = max(abs(float(meas[0])), 1e-12)
        return float(min(abs(float(pred[0]) - float(meas[0])) / denom, 1.0))
    # Discordant-pair fraction over pairs the measurement distinguishes.
    diff_m = np.sign(meas[:, None] - meas[None, :])
    diff_p = np.sign(pred[:, None] - pred[None, :])
    upper = np.triu_indices(pred.size, k=1)
    comparable = diff_m[upper] != 0
    total = int(comparable.sum())
    if total == 0:
        return 0.0
    discordant = int((diff_p[upper][comparable] != diff_m[upper][comparable]).sum())
    return discordant / total


@dataclass(frozen=True)
class FeedbackSample:
    """One joined (prediction, measurement) observation.

    Attributes:
        version: checkpoint that produced the prediction.
        request: the request that was priced (``None`` if the recorder
            did not attach it); tile requests carry the kernel + tiles
            the continuous-training loop needs.
        predicted / measured: the joined values (array or scalar).
        error: normalized error from :func:`prediction_error`.
        shadow: prediction came from off-response-path shadow scoring.
    """

    version: str
    request: Request | None
    predicted: object
    measured: object
    error: float
    shadow: bool


@dataclass(frozen=True)
class WindowSnapshot:
    """One version's online accuracy window at a point in time.

    Attributes:
        count: observations currently in the (bounded) error window.
        mean_error / max_error: summary of that window.
        total: **monotone** count of every observation ever joined for
            this version — unlike ``count`` it never saturates at the
            window length, which is what makes it safe to measure
            progress against (the rollout controller's per-phase sample
            budgets difference this, not ``count``).
    """

    count: int
    mean_error: float
    max_error: float
    total: int


_EMPTY_WINDOW = WindowSnapshot(count=0, mean_error=0.0, max_error=0.0, total=0)


class FeedbackCollector:
    """Thread-safe join of served predictions with measured runtimes.

    Args:
        window: per-version error ring-buffer length (the rollout
            controller reads windowed means, so stale traffic ages out).
        max_pending: bound on un-joined predictions held for a future
            measurement (LRU by key — measurements that never arrive
            must not grow memory).
        retain_samples: bound on the joined-sample training buffer.

    The join is **symmetric in arrival order**: predictions waiting for a
    measurement pend (bounded), and measurements are retained (bounded,
    LRU) so a prediction arriving *after* its key was measured joins
    immediately against the latest known measurement. That matters for
    shadow scoring, which by design records its predictions after the
    response futures resolve — a driver that reports the measurement the
    moment its response arrives must still feed the staged window.

    The collector never blocks the serving hot path: recording is an
    O(1) append under a lock, and joining happens on the recorder's
    thread.
    """

    #: Bound on un-joined predictions held under one key (a key whose
    #: measurement never arrives must not grow a list without bound).
    _MAX_ENTRIES_PER_KEY = 16

    def __init__(
        self,
        window: int = 256,
        max_pending: int = 4096,
        retain_samples: int = 1024,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.max_pending = max_pending
        self._lock = threading.Lock()
        #: key -> list of (version, predicted, request, shadow) awaiting joins.
        self._pending: OrderedDict[tuple, list] = OrderedDict()
        #: key -> latest measured value (late predictions join against it).
        self._measured: OrderedDict[tuple, object] = OrderedDict()
        self._errors: dict[str, deque[float]] = {}
        #: Monotone per-version join totals (windows are bounded; these
        #: are what progress is measured against).
        self._joins: dict[str, int] = {}
        self._samples: deque[FeedbackSample] = deque(maxlen=max(retain_samples, 1))
        self.predictions = 0
        self.measurements = 0
        self.joined = 0
        self.unmatched_measurements = 0
        self.dropped_pending = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def _join_locked(
        self, version: str, predicted, measured, request, shadow: bool
    ) -> None:
        error = prediction_error(predicted, measured)
        window = self._errors.get(version)
        if window is None:
            window = self._errors[version] = deque(maxlen=self.window)
        window.append(error)
        self._joins[version] = self._joins.get(version, 0) + 1
        self._samples.append(
            FeedbackSample(
                version=version,
                request=request,
                predicted=predicted,
                measured=measured,
                error=error,
                shadow=shadow,
            )
        )
        self.joined += 1

    def record_prediction(
        self,
        version: str,
        key: tuple,
        predicted,
        request: Request | None = None,
        shadow: bool = False,
    ) -> None:
        """Record one served prediction.

        Joins immediately when ``key`` already has a retained
        measurement (the shadow-scoring arrival order); otherwise pends
        (bounded per key and across keys) until one arrives.
        """
        with self._lock:
            self.predictions += 1
            measured = self._measured.get(key)
            if measured is not None:
                self._measured.move_to_end(key)
                self._join_locked(version, predicted, measured, request, shadow)
                return
            entries = self._pending.get(key)
            if entries is None:
                entries = self._pending[key] = []
            entries.append((version, predicted, request, shadow))
            if len(entries) > self._MAX_ENTRIES_PER_KEY:
                del entries[0]
                self.dropped_pending += 1
            self._pending.move_to_end(key)
            while len(self._pending) > self.max_pending:
                _, dropped = self._pending.popitem(last=False)
                self.dropped_pending += len(dropped)

    def record_measurement(self, key: tuple, measured) -> int:
        """Join ``measured`` against every prediction recorded under ``key``.

        The measurement is also retained (LRU-bounded), so predictions
        recorded *after* it — shadow scores land once response futures
        have already resolved — still join. Returns the number of
        predictions joined right now (0 when none were pending).
        """
        with self._lock:
            entries = self._pending.pop(key, None)
            self.measurements += 1
            self._measured[key] = measured
            self._measured.move_to_end(key)
            while len(self._measured) > self.max_pending:
                self._measured.popitem(last=False)
            if not entries:
                self.unmatched_measurements += 1
                return 0
            for version, predicted, request, shadow in entries:
                self._join_locked(version, predicted, measured, request, shadow)
            return len(entries)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def error_window(self, version: str | None) -> WindowSnapshot:
        """The version's current accuracy window (empty = all zeros)."""
        if version is None:
            return _EMPTY_WINDOW
        with self._lock:
            window = self._errors.get(version)
            total = self._joins.get(version, 0)
            if not window:
                return _EMPTY_WINDOW
            arr = np.asarray(window, dtype=np.float64)
        return WindowSnapshot(
            count=int(arr.size),
            mean_error=float(arr.mean()),
            max_error=float(arr.max()),
            total=total,
        )

    def reset_version(self, version: str) -> None:
        """Clear a version's error window and join total (a freshly
        staged checkpoint must be judged on its own traffic, not a
        previous rollout's)."""
        with self._lock:
            self._errors.pop(version, None)
            self._joins.pop(version, None)

    def samples(self) -> list[FeedbackSample]:
        """The joined-sample training buffer (newest last), by reference
        semantics: a copy of the deque's current contents."""
        with self._lock:
            return list(self._samples)

    def drain_samples(self) -> list[FeedbackSample]:
        """Take the training buffer, leaving it empty (one fine-tuning
        round consumes each observation once)."""
        with self._lock:
            samples = list(self._samples)
            self._samples.clear()
            return samples

    def register_into(self, registry) -> None:
        """Contribute the join-pipeline counters to a telemetry registry.

        Flat keys are prefixed ``feedback_`` (the per-version windows
        already reach the registry through the service's ``per_version``
        merge, so only the pipeline health counters are added here).
        """

        def _snapshot() -> dict:
            snap = self.snapshot()
            return {
                f"feedback_{key}": value
                for key, value in snap.items()
                if key != "versions"
            }

        registry.register_collector(
            "feedback",
            _snapshot,
            counters=(
                "feedback_predictions",
                "feedback_measurements",
                "feedback_joined",
                "feedback_unmatched_measurements",
                "feedback_dropped_pending",
            ),
        )

    def snapshot(self) -> dict:
        """Flat counters plus the per-version window summaries."""
        with self._lock:
            versions = {
                version: {
                    "feedback_count": float(len(window)),
                    "feedback_total": float(self._joins.get(version, 0)),
                    "feedback_mean_error": float(np.mean(window)) if window else 0.0,
                }
                for version, window in self._errors.items()
            }
            return {
                "predictions": float(self.predictions),
                "measurements": float(self.measurements),
                "joined": float(self.joined),
                "unmatched_measurements": float(self.unmatched_measurements),
                "dropped_pending": float(self.dropped_pending),
                "pending": float(len(self._pending)),
                "measured_retained": float(len(self._measured)),
                "samples_buffered": float(len(self._samples)),
                "versions": versions,
            }


def tile_measurement(simulator, kernel, tiles) -> np.ndarray:
    """Measure every candidate tile on the (simulated) hardware.

    The standard measurement half of the feedback loop for tile-score
    traffic: ``record_measurement(request_key(req), tile_measurement(...))``.
    """
    return np.asarray([simulator.run(kernel, tile) for tile in tiles], dtype=np.float64)


def is_tile_sample(sample: FeedbackSample) -> bool:
    """True when the sample joins tile scores with tile runtimes."""
    return isinstance(sample.request, TileScoresRequest)
