"""Serving metrics: QPS, batch occupancy, cache hit rate, latency tails.

The compile-time serving tier is throughput infrastructure, so it is
evaluated like one: requests/sec, how full the micro-batches run
(occupancy is the batching win), how often the shared result cache
short-circuits a forward, and the latency distribution clients actually
see (tails, not means — a tuner blocked at p99 stalls its whole search
chain).

:class:`ServingStats` is the thread-safe accumulator the service feeds;
:func:`latency_percentiles` is the standalone helper for offline analysis
of recorded latencies.
"""
from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

#: Latency ring-buffer size: enough for stable p99 estimates, bounded so a
#: long-lived service never grows.
_LATENCY_WINDOW = 8192

#: Per-shard latency window: smaller than the global one (there are many
#: shards) but still enough for stable tail estimates.
_SHARD_LATENCY_WINDOW = 2048


@dataclass(frozen=True)
class LatencySummary:
    """Latency distribution snapshot, seconds.

    Attributes:
        count: samples summarized.
        mean / p50 / p90 / p99 / max: the usual suspects.
    """

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float


def latency_percentiles(samples) -> LatencySummary:
    """Summarize latency samples (empty input gives an all-zero summary).

    Percentiles are **nearest-rank** (the smallest sample with at least
    ``q%`` of the distribution at or below it), not interpolated: every
    reported tail is a latency some request actually paid, a single
    sample reports itself for every percentile, and p99 at small n is
    the max rather than an invented point beyond any observation.
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        return LatencySummary(count=0, mean=0.0, p50=0.0, p90=0.0, p99=0.0, max=0.0)
    arr.sort()
    n = int(arr.size)

    def rank(q: float) -> float:
        return float(arr[min(max(math.ceil(q / 100.0 * n) - 1, 0), n - 1)])

    return LatencySummary(
        count=n,
        mean=float(arr.mean()),
        p50=rank(50),
        p90=rank(90),
        p99=rank(99),
        max=float(arr[-1]),
    )


class _ShardStats:
    """Per-shard accumulator (occupancy, volume, latency tail samples)."""

    __slots__ = ("requests", "errors", "forwards", "latencies")

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.forwards = 0
        self.latencies: deque[float] = deque(maxlen=_SHARD_LATENCY_WINDOW)

    def to_dict(self) -> dict[str, float]:
        latency = latency_percentiles(self.latencies)
        return {
            "requests": float(self.requests),
            "errors": float(self.errors),
            "forwards": float(self.forwards),
            "requests_per_forward": (
                self.requests / self.forwards if self.forwards else 0.0
            ),
            "latency_p50_s": latency.p50,
            "latency_p99_s": latency.p99,
            "latency_max_s": latency.max,
        }


#: Per-checkpoint routing counters (the rollout control plane's volume
#: counters: response-path, canary slice, shadow scores).
_VERSION_KEYS = ("served", "canary", "shadow", "errors", "shadow_errors")


class ServingStats:
    """Thread-safe accumulator for the service's operational metrics.

    The service calls :meth:`record_response` once per resolved request
    (tagging the shard that executed it, when one did) and
    :meth:`record_batch` once per executed micro-batch;
    :meth:`record_shard` accounts each coalesced per-shard forward.
    :meth:`snapshot` renders the service-wide view into one flat dict for
    reports and benchmark JSON; :meth:`shard_snapshot` renders the
    per-shard breakdown that makes a sharded executor observable.
    """

    #: Smoothing weight of the response-latency EWMA (the SLO burn-rate
    #: gauges' low-cost trend signal; the deque still holds the window).
    _LATENCY_EWMA_ALPHA = 0.05

    #: The counter attributes: each is an int on the object, a float in
    #: :meth:`snapshot`, and a counter-typed (``_total``) series.
    _COUNTERS = (
        "requests",
        "errors",
        "cache_hits",
        "batches",
        "model_forwards",
        "shadow_forwards",
        "cache_hit_shadows",
        "placement_changes",
        "placement_moves",
        "degraded",
        "deadline_expired",
        "overload_rejections",
        "abandoned",
        "breaker_blocks",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.perf_counter()
        self._latency_ewma: float | None = None
        for name in self._COUNTERS:
            setattr(self, name, 0)
        self.batched_requests = 0
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._shards: dict[int, _ShardStats] = {}
        self._versions: dict[str, dict[str, int]] = {}

    def _shard(self, shard: int) -> _ShardStats:
        stats = self._shards.get(shard)
        if stats is None:
            stats = self._shards[shard] = _ShardStats()
        return stats

    def record_response(
        self,
        latency_s: float,
        cache_hit: bool,
        error: bool = False,
        shard: int | None = None,
        version: str | None = None,
        canary: bool = False,
    ) -> None:
        """Account one resolved request (``shard`` = executing shard).

        With a ``version`` the response-path routing decision (see
        :meth:`record_route`) is accounted in the same lock acquisition.
        """
        with self._lock:
            self.requests += 1
            if cache_hit:
                self.cache_hits += 1
            if error:
                self.errors += 1
            self._latencies.append(latency_s)
            if self._latency_ewma is None:
                self._latency_ewma = latency_s
            else:
                alpha = self._LATENCY_EWMA_ALPHA
                self._latency_ewma = (
                    (1.0 - alpha) * self._latency_ewma + alpha * latency_s
                )
            if shard is not None:
                stats = self._shard(shard)
                stats.requests += 1
                if error:
                    stats.errors += 1
                stats.latencies.append(latency_s)
            if version is not None:
                self._route_locked(version, canary, False, error)

    def record_batch(self, size: int, forwards: int = 1) -> None:
        """Account one executed micro-batch of ``size`` coalesced requests
        that cost ``forwards`` model forward passes."""
        with self._lock:
            self.batches += 1
            self.batched_requests += size
            self.model_forwards += forwards

    def record_shard(self, shard: int, forwards: int = 1) -> None:
        """Account the forward passes one of ``shard``'s coalesced
        commands cost (per-shard request counts come from
        :meth:`record_response`)."""
        with self._lock:
            stats = self._shard(shard)
            stats.forwards += forwards

    def record_route(
        self,
        version: str | None,
        canary: bool = False,
        shadow: bool = False,
        error: bool = False,
    ) -> None:
        """Account one routing decision against ``version``.

        Response-path requests count as ``served`` (plus ``canary`` when
        a rollout policy routed them to the staged version); shadow
        scores count separately — they never produced a response.
        """
        if version is None:
            return
        with self._lock:
            self._route_locked(version, canary, shadow, error)

    def _route_locked(
        self, version: str, canary: bool, shadow: bool, error: bool
    ) -> None:
        stats = self._versions.get(version)
        if stats is None:
            stats = self._versions[version] = dict.fromkeys(_VERSION_KEYS, 0)
        if shadow:
            stats["shadow_errors" if error else "shadow"] += 1
            return
        stats["served"] += 1
        if canary:
            stats["canary"] += 1
        if error:
            stats["errors"] += 1

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to one of the :attr:`_COUNTERS` that no other
        recorder moves.

        * ``shadow_forwards`` — forward passes spent on off-response-path
          shadow scoring (kept out of ``model_forwards`` so occupancy
          ratios keep describing the response path).
        * ``cache_hit_shadows`` — a result-cache hit sampled into a
          shadow batch (the rollout-aware cache: hits bypass execution,
          so a sampled fraction is re-scored off-path to keep staged
          evidence flowing).
        * ``degraded`` — a response answered by the analytical fallback
          (tagged ``degraded=True`` on the wire — served, but not by a
          published checkpoint).
        * ``deadline_expired`` — a request shed before dispatch because
          its deadline had already elapsed.
        * ``overload_rejections`` — a submission shed by admission
          control (the scheduler queue was at its ``max_pending`` bound).
        * ``abandoned`` — a queued request whose future was already
          resolved at dispatch time (its client disconnected); no forward
          was spent on it.
        * ``breaker_blocks`` — requests diverted by an open circuit
          breaker (they resolve via the degradation path, not the
          executor).
        """
        if name not in self._COUNTERS:
            raise ValueError(f"unknown serving counter {name!r}")
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    # ------------------------------------------------------------------ #
    # placement transitions
    # ------------------------------------------------------------------ #

    def record_placement_change(self, moves: int = 0) -> None:
        """Account one applied rebalance plan (``moves`` buckets moved)."""
        with self._lock:
            self.placement_changes += 1
            self.placement_moves += moves

    def reset_shards(self, shards) -> None:
        """Drop the listed shards' accumulated counters and latency
        windows. A rebalance changed what these shards serve, so their
        history (volume, occupancy, tails) no longer describes the new
        assignment; fresh entries accumulate from the next response."""
        with self._lock:
            for shard in shards:
                self._shards.pop(int(shard), None)

    def relabel_shards(self, mapping: dict) -> None:
        """Merge each source shard's counters into its destination.

        The migration relabeling half of a shard-count shrink: a retired
        shard's heir (the survivor that inherited its buckets) absorbs
        its volume counters and latency samples, so service-lifetime
        totals are conserved across the migration. Sources disappear
        from the breakdown; destinations are created if absent. The
        whole merge happens under the stats lock, so concurrent readers
        see either the old labels or the new — never a torn mixture.
        """
        with self._lock:
            for source, dest in mapping.items():
                stats = self._shards.pop(int(source), None)
                if stats is None:
                    continue
                heir = self._shard(int(dest))
                heir.requests += stats.requests
                heir.errors += stats.errors
                heir.forwards += stats.forwards
                heir.latencies.extend(stats.latencies)

    @staticmethod
    def empty_version_entry() -> dict[str, float]:
        """A zeroed per-version entry (versions with no routed traffic)."""
        return dict.fromkeys(_VERSION_KEYS, 0.0)

    def version_snapshot(self) -> dict[str, dict[str, float]]:
        """Per-version routing volume: ``served`` (response path),
        ``canary`` (staged-version slice of it), ``shadow`` (off-path
        scores), and their error counts."""
        with self._lock:
            return {
                version: {key: float(value) for key, value in stats.items()}
                for version, stats in sorted(self._versions.items())
            }

    @staticmethod
    def empty_shard_entry() -> dict[str, float]:
        """A zeroed per-shard entry (shards that saw no traffic yet)."""
        return _ShardStats().to_dict()

    def shard_snapshot(self) -> dict[str, dict[str, float]]:
        """Per-shard metrics: volume, occupancy, and latency tails.

        Keys are shard ids as strings (JSON-friendly); each value holds
        ``requests``, ``errors``, ``forwards``, ``requests_per_forward``
        (per-shard coalescing occupancy), and
        ``latency_{p50,p99,max}_s``.
        """
        with self._lock:
            return {
                str(shard): self._shards[shard].to_dict()
                for shard in sorted(self._shards)
            }

    def slo_window(self, target_s: float) -> dict[str, float]:
        """The raw SLO inputs over the retained latency window.

        Returns the window size, the fraction of windowed responses
        slower than ``target_s``, and the latency EWMA. The burn-rate
        math itself lives with the telemetry registry — this layer only
        reports what it measured.
        """
        with self._lock:
            window = len(self._latencies)
            violations = sum(1 for v in self._latencies if v > target_s)
            return {
                "window": float(window),
                "violation_fraction": violations / window if window else 0.0,
                "latency_ewma_s": (
                    self._latency_ewma if self._latency_ewma is not None else 0.0
                ),
            }

    def snapshot(self) -> dict[str, float]:
        """Current metrics as a flat dict.

        Keys: ``requests``, ``errors``, ``qps`` (over the stats object's
        lifetime), ``cache_hit_rate``, ``batches``, ``batch_occupancy``
        (mean coalesced requests per micro-batch), ``model_forwards``,
        ``requests_per_forward``, and ``latency_{mean,p50,p90,p99,max}_s``
        — plus every other name in :attr:`_COUNTERS`.
        """
        with self._lock:
            elapsed = max(time.perf_counter() - self._started, 1e-9)
            latency = latency_percentiles(self._latencies)
            return {
                **{name: float(getattr(self, name)) for name in self._COUNTERS},
                "qps": self.requests / elapsed,
                "cache_hit_rate": self.cache_hits / self.requests if self.requests else 0.0,
                "batch_occupancy": self.batched_requests / self.batches if self.batches else 0.0,
                "requests_per_forward": (
                    self.batched_requests / self.model_forwards if self.model_forwards else 0.0
                ),
                "latency_mean_s": latency.mean,
                "latency_p50_s": latency.p50,
                "latency_p90_s": latency.p90,
                "latency_p99_s": latency.p99,
                "latency_max_s": latency.max,
            }
