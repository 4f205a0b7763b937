"""Continuous pipeline profiler: per-stage wall-time attribution.

Traces (PR 7) answer *"what happened to request X"*; this module answers
the aggregate question — *"where does wall-time go, per pipeline stage,
right now and over the last N intervals"* — continuously, in production,
at a cost low enough to leave on.

The serving pipeline has a fixed stage vocabulary:

========== ==========================================================
stage      measured at
========== ==========================================================
queue.wait enqueue → the batch cut that includes the request
batch.cut  the scheduler's cut decision (age of the oldest pending)
compose    feature extraction / command building for one batch
forward    executor round-trip for one version group
serialize  result resolution + per-request response fan-out
========== ==========================================================

Each stage feeds a cumulative-bucket histogram (the registry's
:class:`~repro.serving.telemetry.Histogram` itself) that is
additionally **exemplar-linked**: alongside the aggregate it keeps the
trace id of the most recent sample and of the worst (max-duration)
sample, so a spike in ``/profile`` jumps straight to a concrete
``/traces/<id>`` tree. Samples also aggregate into a **flame-style
call-path table** (folded-stack form, ``request;forward;worker``-like
paths → total seconds) and into a bounded ring of **periodic interval
snapshots** — the "what changed in the last minute" view.

Overhead discipline:

* Components hold ``profiler = None`` by default; every hook site is a
  single ``is not None`` check, so the unprofiled stack is bitwise
  identical to a build without this module (the fault-injector rule).
* The record path records every sample: a handful of dict updates under
  one lock — no allocation beyond the exemplar string, no syscalls, no
  clock reads beyond the one the caller already made to time the stage
  and the interval-pacing one.
"""
from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque

from .telemetry import Histogram

__all__ = ["ContinuousProfiler", "STAGES"]

#: The pipeline stage vocabulary (hook sites document themselves against
#: this). Unknown stages are accepted — the vocabulary is a convention,
#: not a schema — but these are registered first, in pipeline order.
STAGES = ("queue.wait", "batch.cut", "compose", "forward", "serialize")

#: Stage-duration buckets, in seconds. Finer than the latency defaults at
#: the microsecond end: individual stages (a batch cut, a serialize pass)
#: run far below a full request's latency.
STAGE_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Seconds between two interval snapshots, checked on the record path (no
#: background thread).
SNAPSHOT_INTERVAL_S = 30.0

#: Ring bound on retained interval snapshots.
MAX_SNAPSHOTS = 60

#: Hot-path shortcut: the default flame path per known stage, so the
#: common record_stage call doesn't build an f-string per sample.
_DEFAULT_PATHS = {stage: f"request;{stage}" for stage in STAGES}


class _StageStats(Histogram):
    """One stage's running aggregate: the histogram + exemplars."""

    __slots__ = ("max_s", "last_trace_id", "max_trace_id")

    def __init__(self) -> None:
        super().__init__(STAGE_BUCKETS)
        self.max_s = 0.0
        self.last_trace_id: str | None = None
        self.max_trace_id: str | None = None

    def observe(self, duration_s: float, trace_id: str | None = None) -> None:
        super().observe(duration_s)
        if trace_id is not None:
            self.last_trace_id = trace_id
        if duration_s >= self.max_s:
            self.max_s = duration_s
            if trace_id is not None:
                self.max_trace_id = trace_id

    def to_dict(self) -> dict:
        return {
            **self.snapshot(),
            "mean_s": self.sum / self.count if self.count else 0.0,
            "max_s": self.max_s,
            "exemplar": self.last_trace_id,
            "worst_exemplar": self.max_trace_id,
        }


class ContinuousProfiler:
    """Low-overhead continuous profiler over the pipeline stage vocabulary.

    Every sample is recorded (the per-sample cost is a few dict updates).
    An aggregated interval snapshot (per stage count/seconds deltas) is
    pushed into a ring of :data:`MAX_SNAPSHOTS` once
    :data:`SNAPSHOT_INTERVAL_S` has passed since the last one.

    Args:
        clock: wall-clock source (injectable for deterministic tests);
            used for interval pacing and snapshot timestamps only —
            stage durations are timed by the caller.

    Thread-safe; shared by the scheduler core and executor result path
    of one service, like the tracer.
    """

    def __init__(self, clock=time.time) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._stages: "OrderedDict[str, _StageStats]" = OrderedDict(
            (stage, _StageStats()) for stage in STAGES
        )
        self._paths: "OrderedDict[str, tuple[int, float]]" = OrderedDict()
        self._snapshots: deque[dict] = deque(maxlen=MAX_SNAPSHOTS)
        self._interval_start = clock()
        self._interval_counts: dict[str, int] = {}
        self._interval_seconds: dict[str, float] = {}
        self.samples_recorded = 0

    # ------------------------------------------------------------------ #
    # record path (the hot path — keep it boring)
    # ------------------------------------------------------------------ #

    def record_stage(
        self,
        stage: str,
        duration_s: float,
        trace_id: str | None = None,
        path: str | None = None,
    ) -> None:
        """Attribute ``duration_s`` of wall-time to ``stage``.

        ``trace_id`` (when the sample belongs to a traced request) links
        the aggregate back to a concrete trace as an exemplar. ``path``
        overrides the flame-table call path (folded-stack form,
        ``;``-separated); it defaults to ``request;<stage>``.
        """
        if duration_s < 0.0:
            duration_s = 0.0
        with self._lock:
            self.samples_recorded += 1
            stats = self._stages.get(stage)
            if stats is None:
                stats = self._stages[stage] = _StageStats()
            stats.observe(duration_s, trace_id)
            if path is not None:
                key = path
            else:
                key = _DEFAULT_PATHS.get(stage)
                if key is None:
                    key = f"request;{stage}"
            count, seconds = self._paths.get(key, (0, 0.0))
            self._paths[key] = (count + 1, seconds + duration_s)
            self._interval_counts[stage] = self._interval_counts.get(stage, 0) + 1
            self._interval_seconds[stage] = (
                self._interval_seconds.get(stage, 0.0) + duration_s
            )
            now = self._clock()
            if now - self._interval_start >= SNAPSHOT_INTERVAL_S:
                self._roll_interval_locked(now)

    def _roll_interval_locked(self, now: float) -> None:
        self._snapshots.append(
            {
                "start": self._interval_start,
                "end": now,
                "stages": {
                    stage: {
                        "count": float(self._interval_counts.get(stage, 0)),
                        "seconds": self._interval_seconds.get(stage, 0.0),
                    }
                    for stage in self._interval_counts
                },
            }
        )
        self._interval_start = now
        self._interval_counts = {}
        self._interval_seconds = {}

    # ------------------------------------------------------------------ #
    # readout
    # ------------------------------------------------------------------ #

    def profile(self) -> dict:
        """The full profile report (the gateway's ``/profile`` payload):
        per-stage exemplar-linked histograms, the flame-style call-path
        table (sorted by total seconds, descending), and the retained
        interval snapshots (oldest first)."""
        with self._lock:
            stages = {
                stage: stats.to_dict()
                for stage, stats in self._stages.items()
                if stats.count
            }
            paths = sorted(
                (
                    {"path": key, "count": count, "seconds": seconds}
                    for key, (count, seconds) in self._paths.items()
                ),
                key=lambda row: row["seconds"],
                reverse=True,
            )
            intervals = list(self._snapshots)
            recorded = self.samples_recorded
        total = sum(entry["sum"] for entry in stages.values())
        for entry in stages.values():
            entry["fraction"] = entry["sum"] / total if total > 0 else 0.0
        # Every sample is recorded: the report keeps the stride (1) and
        # skip count (0) keys its readers index.
        return {
            "sample_every": 1,
            "samples_recorded": recorded,
            "samples_skipped": 0,
            "total_seconds": total,
            "stages": stages,
            "flame": paths,
            "intervals": intervals,
        }

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Profiler accounting + per-stage totals for the metrics
        registry (the full exemplar/flame report stays on ``/profile`` —
        a scrape should not pay for it)."""
        with self._lock:
            per_stage = {
                stage: {
                    "count": float(stats.count),
                    "seconds": stats.sum,
                }
                for stage, stats in self._stages.items()
                if stats.count
            }
            return {
                "profiler_samples": float(self.samples_recorded),
                "profiler_samples_skipped": 0.0,
                "profiler_stage": per_stage,
            }

    def register_into(self, registry) -> None:
        """Contribute profiler accounting to a telemetry registry."""
        registry.register_collector(
            "profiler",
            self.snapshot,
            counters=("profiler_samples", "profiler_samples_skipped"),
            families={"profiler_stage": "stage"},
        )
