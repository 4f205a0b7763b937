"""Adaptive placement: load-aware shard maps, rebalance plans, autoscaling.

Until this module, *where* a request executed was frozen at service
construction: ``fingerprint % n_shards`` picked the shard, ``n_shards``
was static config, and a skewed kernel population simply overloaded one
shard's caches (in-thread) or one worker process (process executor)
while its siblings idled. The per-shard :class:`~repro.evaluation.service.ServingStats`
added in the layered-serving PR expose exactly the signals needed to do
better — this module closes that loop:

* :class:`ShardMap` — an explicit, **versioned** fingerprint → shard
  assignment table. Fingerprints hash into a fixed number of *buckets*
  (a stable digest slice, like :func:`shard_of`),
  and each bucket is assigned to a shard. The uniform map routes
  identically to the legacy ``fingerprint % n`` function whenever the
  bucket count is a multiple of the shard count, so adopting the table
  changes nothing until a rebalance moves a bucket. The map also counts
  per-bucket routing load — the granularity rebalance plans move.
* :class:`RebalancePlan` — an immutable description of one placement
  change: the successor :class:`ShardMap`, the :class:`BucketMove` list
  that produced it, a relabel mapping for retired shards, and the
  reason. Executors *apply* plans (spawning, syncing, and draining
  workers as needed); they never invent them.
* :class:`PlacementController` — the decision half: it watches per-shard
  load/latency EWMAs derived from :class:`ServingStats` deltas, detects
  sustained skew (hysteresis — one noisy interval never triggers a
  migration), respects a rebalance cooldown, and emits greedy
  bucket-move plans that shrink the max/mean load ratio. With
  ``autoscale=True`` it additionally grows or shrinks the shard count
  from the scheduler's queue-pressure signal — replica autoscaling for
  the in-thread executor, worker autoscaling for the process executor.

The controller is intentionally *pulled*, like the rollout controller:
callers invoke :meth:`PlacementController.step` at their own cadence and
the service applies plans at a micro-batch boundary (under the same lock
batches execute under), so a migration never drops a response, never
mixes versions inside a batch, and never changes response numerics —
every shard serves the same checkpoint bytes, so *which* shard executes
a command moves nothing, not even at rounding level.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .journal import record_event

#: Default bucket count: enough granularity to split any realistic hot
#: set across shards, small enough that the table is a trivial tuple.
DEFAULT_BUCKETS = 64


def shard_of(shard_key: str, num_shards: int) -> int:
    """Stable shard index for a routing key (a hex fingerprint digest).

    Kernel fingerprints are sha256 hex digests — uniformly distributed
    already, so a slice of the digest is a fair shard id, and (unlike
    ``hash()``) stable across processes and machines. Every execution
    backend routes through this one function, which is why a request
    lands on the same shard whether the shard is an in-process replica or
    a worker subprocess.
    """
    if num_shards <= 1 or not shard_key:
        return 0
    return int(shard_key[:8], 16) % num_shards


class ShardMap:
    """Versioned fingerprint → shard assignment table with load counters.

    Args:
        table: shard index per bucket (``len(table)`` = bucket count).
        num_shards: explicit shard count; inferred as ``max(table) + 1``
            when omitted. May exceed the inferred value (a freshly grown
            shard owns no buckets until a plan moves some to it).
        version: monotone map version; successor maps must increase it —
            the executor rejects stale plans on that basis.

    Routing is a stable digest slice, exactly like
    :func:`shard_of`: ``bucket = int(key[:8], 16)
    % num_buckets``, ``shard = table[bucket]``. Because ``x % B % n ==
    x % n`` whenever ``n`` divides ``B``, :meth:`uniform` maps route
    identically to the legacy static function for power-of-two-ish shard
    counts — adopting the table is a pure refactor until a move lands.

    :meth:`shard_for` counts per-bucket routing load (thread-safe); the
    placement controller drains those counters (:meth:`snapshot_loads`)
    to know *which* buckets are hot, not merely which shards.
    """

    def __init__(
        self,
        table,
        num_shards: int | None = None,
        version: int = 1,
    ) -> None:
        table = tuple(int(shard) for shard in table)
        if not table:
            raise ValueError("shard map needs at least one bucket")
        if min(table) < 0:
            raise ValueError("bucket assignments must be >= 0")
        inferred = max(table) + 1
        if num_shards is None:
            num_shards = inferred
        elif num_shards < inferred:
            raise ValueError(
                f"table references shard {inferred - 1} but num_shards is "
                f"{num_shards}"
            )
        self._table = table
        self.num_shards = int(num_shards)
        self.num_buckets = len(table)
        self.version = int(version)
        self._lock = threading.Lock()
        self._loads = [0] * len(table)

    @classmethod
    def uniform(cls, num_shards: int, buckets: int = DEFAULT_BUCKETS) -> "ShardMap":
        """The balanced default: bucket ``i`` on shard ``i % num_shards``."""
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if buckets < num_shards:
            raise ValueError("buckets must be >= num_shards")
        return cls(
            tuple(i % num_shards for i in range(buckets)), num_shards=num_shards
        )

    @property
    def table(self) -> tuple[int, ...]:
        """The immutable bucket → shard assignment."""
        return self._table

    def bucket_of(self, shard_key: str) -> int:
        """The bucket owning ``shard_key`` (stable digest slice — the
        one routing formula, shared with the legacy static function)."""
        return shard_of(shard_key, self.num_buckets)

    def shard_for(self, shard_key: str) -> int:
        """Route a key to its shard, counting the bucket's load."""
        bucket = self.bucket_of(shard_key)
        with self._lock:
            self._loads[bucket] += 1
        return self._table[bucket]

    def snapshot_loads(self, reset: bool = False) -> list[int]:
        """Per-bucket routing counts since construction (or last reset)."""
        with self._lock:
            loads = list(self._loads)
            if reset:
                self._loads = [0] * self.num_buckets
        return loads

    def buckets_of_shard(self, shard: int) -> tuple[int, ...]:
        """All buckets currently assigned to ``shard``."""
        return tuple(b for b, s in enumerate(self._table) if s == shard)

    def successor(self, table, num_shards: int | None = None) -> "ShardMap":
        """A new map with ``version + 1`` (what rebalance plans carry)."""
        if len(tuple(table)) != self.num_buckets:
            raise ValueError("successor must keep the bucket count")
        return ShardMap(table, num_shards=num_shards, version=self.version + 1)

    def describe(self) -> dict:
        """Metrics-friendly summary (JSON-safe keys)."""
        per_shard: dict[str, float] = {
            str(shard): 0.0 for shard in range(self.num_shards)
        }
        for shard in self._table:
            per_shard[str(shard)] += 1.0
        return {
            "version": float(self.version),
            "num_shards": float(self.num_shards),
            "num_buckets": float(self.num_buckets),
            "buckets_per_shard": per_shard,
        }


@dataclass(frozen=True)
class BucketMove:
    """One bucket reassignment inside a rebalance plan."""

    bucket: int
    source: int
    dest: int


@dataclass(frozen=True)
class RebalancePlan:
    """An immutable placement change for an executor to apply.

    Attributes:
        new_map: the successor :class:`ShardMap` (version strictly above
            the executor's current map — stale plans are rejected).
        moves: the bucket reassignments that produced ``new_map``.
        reason: human-readable trigger (lands in metrics/audit).
        relabel: retired shard → heir shard. When the shard count
            shrinks, each retired shard's stats history merges into the
            surviving shard that inherited most of its load, so volume
            counters survive the migration under the new labels.
    """

    new_map: ShardMap
    moves: tuple[BucketMove, ...]
    reason: str
    relabel: dict[int, int] = field(default_factory=dict)

    @property
    def affected_shards(self) -> tuple[int, ...]:
        """Surviving shards whose bucket set changed (stats reset targets:
        their latency/occupancy history no longer describes their new
        assignment)."""
        touched = {m.source for m in self.moves} | {m.dest for m in self.moves}
        return tuple(
            sorted(s for s in touched if s < self.new_map.num_shards)
        )

    def describe(self) -> dict:
        return {
            "map_version": float(self.new_map.version),
            "num_shards": float(self.new_map.num_shards),
            "moves": float(len(self.moves)),
            "reason": self.reason,
            "relabel": {str(k): float(v) for k, v in self.relabel.items()},
        }


@dataclass(frozen=True)
class PlacementConfig:
    """Rebalance/autoscale thresholds of the placement controller.

    Attributes:
        skew_threshold: max/mean per-shard load-EWMA ratio above which an
            observation counts as *skewed*.
        hysteresis: consecutive skewed observations required before a
            plan is emitted — one noisy interval never migrates anything.
        cooldown_s: minimum wall-clock between applied rebalances (the
            executors pay real work per migration; oscillation is worse
            than imbalance).
        ewma_alpha: smoothing weight of the load/latency EWMAs.
        min_interval_requests: observations with fewer new requests than
            this are ignored for skew detection (no evidence, no verdict).
        max_moves: bucket moves per plan (bounds one migration's blast
            radius; repeated steps converge the rest).
        autoscale: derive the shard count from scheduler queue pressure
            (replica autoscaling in-thread, worker autoscaling for the
            process executor).
        min_shards / max_shards: autoscaling bounds.
        scale_up_pressure: queue-pressure EMA above which one shard is
            added per (cooled-down) step.
        scale_down_pressure: queue-pressure EMA below which one shard is
            retired per step.
    """

    skew_threshold: float = 1.5
    hysteresis: int = 2
    cooldown_s: float = 5.0
    ewma_alpha: float = 0.4
    min_interval_requests: int = 32
    max_moves: int = 16
    autoscale: bool = False
    min_shards: int = 1
    max_shards: int = 8
    scale_up_pressure: float = 0.75
    scale_down_pressure: float = 0.05

    def __post_init__(self) -> None:
        if self.skew_threshold <= 1.0:
            raise ValueError("skew_threshold must be > 1.0")
        if self.hysteresis < 1:
            raise ValueError("hysteresis must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.max_moves < 1:
            raise ValueError("max_moves must be >= 1")
        if self.min_shards < 1 or self.max_shards < self.min_shards:
            raise ValueError("need 1 <= min_shards <= max_shards")
        if self.scale_down_pressure >= self.scale_up_pressure:
            raise ValueError("scale_down_pressure must be < scale_up_pressure")


class PlacementController:
    """Watch per-shard load, detect skew, issue rebalance plans.

    Args:
        service: the :class:`~repro.serving.service.CostModelService`
            whose stats feed the EWMAs and whose
            :meth:`~repro.serving.service.CostModelService.rebalance`
            applies emitted plans.
        config: thresholds; defaults are conservative.
        clock: injectable monotonic clock (cooldown tests use a fake).

    Like the rollout controller, this one is *pulled*: call
    :meth:`step` at any cadence (per batch, per second, per metrics
    scrape). Each step ingests one stats interval; a plan is only
    emitted when skew persisted for ``hysteresis`` consecutive
    intervals *and* the cooldown expired, and it is applied through the
    service so the map swap lands at a micro-batch boundary and recorded
    in the service's ops journal (when one is attached) as a
    ``placement.rebalance`` event.
    """

    def __init__(
        self,
        service,
        config: PlacementConfig | None = None,
        clock=time.monotonic,
    ) -> None:
        self.service = service
        self.config = config or PlacementConfig()
        self._clock = clock
        self._lock = threading.Lock()
        # Serializes whole step() cycles: two concurrent steppers must
        # not both plan off the same map version (the loser's plan would
        # be rejected as stale by the executor).
        self._step_lock = threading.Lock()
        self._bucket_ewma: list[float] | None = None
        self._shard_load_ewma: dict[int, float] = {}
        self._shard_latency_ewma: dict[int, float] = {}
        self._last_requests: dict[int, float] = {}
        self._skewed_streak = 0
        self._last_rebalance_at: float | None = None
        self.rebalances = 0
        self.plans_applied: list[dict] = []
        # Baseline now: traffic served before this controller existed is
        # history, not the first interval's delta — and the map's bucket
        # counters restart with us for the same reason.
        try:
            for shard, entry in self.service.stats.shard_snapshot().items():
                self._last_requests[int(shard)] = entry["requests"]
            self.service.shard_map.snapshot_loads(reset=True)
        except Exception:
            pass
        # Contribute the load/latency EWMAs and rebalance history to the
        # service's telemetry registry (fakes without one skip this).
        try:
            registry = getattr(self.service, "telemetry", None)
            if registry is not None:
                registry.register_collector(
                    "placement_controller",
                    lambda: {"placement_controller": self.describe()},
                    families={
                        "shard_load_ewma": "shard",
                        "shard_latency_ewma": "shard",
                    },
                )
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # observation
    # ------------------------------------------------------------------ #

    def _ingest_locked(self, shard_map: ShardMap) -> float:
        """Fold one stats interval into the EWMAs; returns the interval's
        request volume."""
        alpha = self.config.ewma_alpha
        per_shard = self.service.stats.shard_snapshot()
        interval_requests = 0.0
        for shard in range(shard_map.num_shards):
            entry = per_shard.get(str(shard))
            requests = entry["requests"] if entry else 0.0
            latency = entry["latency_p99_s"] if entry else 0.0
            # A reset/relabel restarts a shard's counter mid-flight; the
            # clamp (and step()'s post-apply re-baselining) keeps that
            # from reading as negative load.
            delta = max(requests - self._last_requests.get(shard, 0.0), 0.0)
            self._last_requests[shard] = requests
            interval_requests += delta
            old = self._shard_load_ewma.get(shard)
            self._shard_load_ewma[shard] = (
                delta if old is None else (1.0 - alpha) * old + alpha * delta
            )
            old_latency = self._shard_latency_ewma.get(shard)
            self._shard_latency_ewma[shard] = (
                latency
                if old_latency is None
                else (1.0 - alpha) * old_latency + alpha * latency
            )
        for mapping in (
            self._shard_load_ewma,
            self._shard_latency_ewma,
            self._last_requests,
        ):
            for shard in [s for s in mapping if s >= shard_map.num_shards]:
                del mapping[shard]
        bucket_deltas = shard_map.snapshot_loads(reset=True)
        if (
            self._bucket_ewma is None
            or len(self._bucket_ewma) != shard_map.num_buckets
        ):
            self._bucket_ewma = [0.0] * shard_map.num_buckets
        for bucket, delta in enumerate(bucket_deltas):
            self._bucket_ewma[bucket] = (
                (1.0 - alpha) * self._bucket_ewma[bucket] + alpha * delta
            )
        return interval_requests

    def _skew_locked(self, num_shards: int) -> float:
        loads = [self._shard_load_ewma.get(s, 0.0) for s in range(num_shards)]
        mean = sum(loads) / max(len(loads), 1)
        if mean <= 0.0:
            return 0.0
        return max(loads) / mean

    def _target_shards_locked(self, current: int) -> int:
        """Autoscaling verdict from the scheduler's queue-pressure EMA."""
        if not self.config.autoscale:
            return current
        pressure = self.service.scheduler.queue_pressure()
        if pressure > self.config.scale_up_pressure:
            return min(current + 1, self.config.max_shards)
        if pressure < self.config.scale_down_pressure and current > self.config.min_shards:
            return max(current - 1, self.config.min_shards)
        return current

    def observe(self) -> RebalancePlan | None:
        """Ingest one interval; returns a plan when a rebalance is due.

        The returned plan has *not* been applied — callers hand it to
        :meth:`~repro.serving.service.CostModelService.rebalance` (or use
        :meth:`step`, which does both).
        """
        with self._lock:
            shard_map = self.service.shard_map
            interval_requests = self._ingest_locked(shard_map)
            target = self._target_shards_locked(shard_map.num_shards)
            if interval_requests >= self.config.min_interval_requests:
                skew = self._skew_locked(shard_map.num_shards)
                if skew > self.config.skew_threshold:
                    self._skewed_streak += 1
                else:
                    self._skewed_streak = 0
            rebalance_due = self._skewed_streak >= self.config.hysteresis
            resize_due = target != shard_map.num_shards
            if not rebalance_due and not resize_due:
                return None
            now = self._clock()
            if (
                self._last_rebalance_at is not None
                and now - self._last_rebalance_at < self.config.cooldown_s
            ):
                return None
            reason = (
                f"shard count {shard_map.num_shards} -> {target} "
                f"(queue pressure {self.service.scheduler.queue_pressure():.2f})"
                if resize_due
                else (
                    f"load skew {self._skew_locked(shard_map.num_shards):.2f}x "
                    f"> {self.config.skew_threshold:.2f}x for "
                    f"{self._skewed_streak} intervals"
                )
            )
            return self._plan_locked(shard_map, target, reason)

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #

    def _plan_locked(
        self, shard_map: ShardMap, target_shards: int, reason: str
    ) -> RebalancePlan | None:
        table = list(shard_map.table)
        loads = list(self._bucket_ewma or [0.0] * shard_map.num_buckets)
        if sum(loads) <= 0.0:
            # No load evidence yet (e.g. an autoscale right after start):
            # plan by bucket count instead, which is the uniform
            # assumption and keeps plans deterministic.
            loads = [1.0] * shard_map.num_buckets
        moves: list[BucketMove] = []
        relabel: dict[int, int] = {}

        shard_load = [0.0] * max(shard_map.num_shards, target_shards)
        for bucket, shard in enumerate(table):
            shard_load[shard] += loads[bucket]

        # Forced moves first: a retiring shard's buckets must land on a
        # survivor whatever the move budget says.
        if target_shards < shard_map.num_shards:
            inherited: dict[int, dict[int, float]] = {}
            for bucket, shard in enumerate(table):
                if shard < target_shards:
                    continue
                dest = min(range(target_shards), key=lambda s: shard_load[s])
                moves.append(BucketMove(bucket=bucket, source=shard, dest=dest))
                table[bucket] = dest
                shard_load[shard] -= loads[bucket]
                shard_load[dest] += loads[bucket]
                inherited.setdefault(shard, {})
                inherited[shard][dest] = (
                    inherited[shard].get(dest, 0.0) + loads[bucket]
                )
            for retired in range(target_shards, shard_map.num_shards):
                heirs = inherited.get(retired)
                if heirs:
                    relabel[retired] = min(
                        heirs, key=lambda dest: (-heirs[dest], dest)
                    )
            shard_load = shard_load[:target_shards]

        # Greedy balance: repeatedly move the hottest movable bucket from
        # the most- to the least-loaded shard. Each move strictly shrinks
        # the sum of squared shard loads, so the loop terminates — and it
        # stops early once the worst shard is inside the balance target
        # (halfway into the skew band), so a migration fixes the skew it
        # was triggered by without churning already-cold shards.
        mean_load = sum(shard_load) / max(target_shards, 1)
        balance_target = 1.0 + (self.config.skew_threshold - 1.0) / 2.0
        while len(moves) < self.config.max_moves:
            src = max(range(target_shards), key=lambda s: shard_load[s])
            dst = min(range(target_shards), key=lambda s: shard_load[s])
            gap = shard_load[src] - shard_load[dst]
            if gap <= 0.0:
                break
            if mean_load > 0.0 and shard_load[src] / mean_load <= balance_target:
                break
            candidates = [
                b
                for b, shard in enumerate(table)
                if shard == src and 0.0 < loads[b] < gap
            ]
            if not candidates:
                break
            bucket = max(candidates, key=lambda b: loads[b])
            moves.append(BucketMove(bucket=bucket, source=src, dest=dst))
            table[bucket] = dst
            shard_load[src] -= loads[bucket]
            shard_load[dst] += loads[bucket]

        if not moves and target_shards == shard_map.num_shards:
            return None
        return RebalancePlan(
            new_map=shard_map.successor(table, num_shards=target_shards),
            moves=tuple(moves),
            reason=reason,
            relabel=relabel,
        )

    # ------------------------------------------------------------------ #
    # actuation
    # ------------------------------------------------------------------ #

    def step(self) -> dict | None:
        """Observe, and apply the resulting plan (if any) via the service.

        Returns the applied plan's summary, or ``None`` when nothing was
        due. Applying goes through
        :meth:`~repro.serving.service.CostModelService.rebalance`, so the
        map swap lands at a micro-batch boundary. Concurrent steppers
        are serialized — exactly one of them observes, plans, and
        applies per cycle.
        """
        with self._step_lock:
            return self._step_serialized()

    def _step_serialized(self) -> dict | None:
        plan = self.observe()
        if plan is None:
            return None
        summary = self.service.rebalance(plan)
        record_event(
            self.service.journal,
            "placement.rebalance",
            reason=plan.reason,
            moves=len(plan.moves),
            num_shards=plan.new_map.num_shards,
            map_version=plan.new_map.version,
        )
        with self._lock:
            self._last_rebalance_at = self._clock()
            self._skewed_streak = 0
            self.rebalances += 1
            # The service reset/relabelled the affected shards' counters;
            # re-baseline so the next interval's deltas start clean.
            per_shard = self.service.stats.shard_snapshot()
            self._last_requests = {
                int(shard): entry["requests"] for shard, entry in per_shard.items()
            }
            self.plans_applied.append(summary)
        return summary

    def describe(self) -> dict:
        """Metrics-friendly controller summary."""
        with self._lock:
            return {
                "rebalances": float(self.rebalances),
                "skewed_streak": float(self._skewed_streak),
                "shard_load_ewma": {
                    str(shard): value
                    for shard, value in sorted(self._shard_load_ewma.items())
                },
                "shard_latency_ewma": {
                    str(shard): value
                    for shard, value in sorted(self._shard_latency_ewma.items())
                },
            }
