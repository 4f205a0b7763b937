"""The scheduler core of the serving stack: batching + versioning + stats.

The serving tier is three explicit layers:

* **transport frontends** (:mod:`repro.serving.frontend`) — request
  ingress: the in-process client path and the length-prefixed TCP socket
  frontend. Both feed the same scheduler core.
* **scheduler core** (this module) — ``CostModelService``: the
  :class:`~repro.serving.scheduler.MicroBatcher`, the per-micro-batch
  checkpoint-version snapshot, the shared version-scoped result cache,
  and the operational stats. Transport-agnostic on one side,
  placement-agnostic on the other.
* **execution backends** (:mod:`repro.serving.executors`) — where the
  coalesced forwards run: in-thread replicas (default) or per-shard
  worker subprocesses with true parallel forwards.

Every request takes the same eight steps, top to bottom in this module,
carried by one mutable record
(:class:`~repro.serving.scheduler.PendingRequest`: the request, its
future, and the version / shadow / deadline / shard stamped on the way):

1. **admit** (:meth:`CostModelService.submit`) — open the root span,
   answer from the version-scoped result cache when it can, otherwise
   enqueue on the micro-batcher (or shed at the door with a typed
   ``Overloaded``).
2. **shed** — at the batch cut, abandoned requests are dropped and
   expired ones resolve with a typed ``deadline_exceeded`` before a
   forward is spent on them.
3. **route** — model selection is snapshotted **once per micro-batch**,
   through the deployment control plane's version chooser: the active
   :class:`~repro.serving.rollout.RolloutPolicy` names a version per
   request, the batch is partitioned by chosen version, and every
   partition executes as its own **version-pure** batch — so a registry
   hot swap (:meth:`ModelRegistry.activate`) still takes effect at the
   next batch cut, in-flight requests are never dropped, and no response
   (and no executed batch) ever mixes two checkpoints, canary traffic
   included. With the default
   :class:`~repro.serving.rollout.FullActivation` policy the partition
   step degenerates to a single active-version batch.
4. **compose** — a partition is reduced to as few coalesced forwards as
   possible, one shard-annotated command each:

   * tile-score requests for the *same kernel* are merged into one
     command (their candidate lists concatenated), and a shard's tile
     commands share one ``score_tile_groups`` forward;
   * program-population requests (a kernel's runtime is a one-kernel
     program) are merged into one ``program_runtimes_batched`` call over
     the concatenated populations.

   A shard's commands are its **slice** of the micro-batch — one slice
   per shard, executed by one function on both executors
   (:func:`~repro.serving.workers.run_slice`).
5. **gate** — commands for a shard whose circuit breaker is open never
   reach the executor; their requests degrade to the analytical model.
6. **dispatch** — one slice per shard: every slice names the
   partition's version and runs on that version's warm evaluator (one
   pipe message and one reply when the shard is a worker subprocess),
   which extends the version-purity guarantee across process boundaries.
7. **split** — each coalesced result is sliced back per request, in
   submission order (the score vector split back per request).
8. **finish** (:meth:`CostModelService._finish`) — the single resolution
   site: answer | typed error | ``degraded=True``. It builds the
   response (stamped with the version that produced it), keeps probes
   out of every business observer with one predicate, feeds stats,
   result cache, feedback and journal, and closes the root span.

Shadow assignments execute after every response of the micro-batch has
resolved — off the response path by construction.

The service runs either with a background worker thread (:meth:`start`,
for genuinely concurrent clients) or fully synchronously
(:meth:`flush` pumps pending requests on the caller's thread — the
deterministic mode tests and single-threaded drivers use).
"""
from __future__ import annotations

import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from ..evaluation.service import ServingStats
from ..models.trainer import TrainResult
from .executors import (
    Executor,
    InThreadExecutor,
    ProcessShardExecutor,
    ProgramCommand,
    TileCommand,
)
from .faults import FaultInjector
from .feedback import FeedbackCollector, request_key
from .journal import record_event
from .placement import DEFAULT_BUCKETS, RebalancePlan, ShardMap
from .protocol import (
    ERROR_DEADLINE_EXCEEDED,
    ERROR_UNAVAILABLE,
    ERROR_WORKER_FAILURE,
    ProgramRuntimesRequest,
    Request,
    Response,
    TileScoresRequest,
)
from .registry import ModelRegistry
from .resilience import (
    ANALYTICAL_VERSION,
    AnalyticalFallback,
    CircuitBreaker,
    Overloaded,
)
from .rollout import FullActivation, RolloutPolicy, request_unit_hash
from .scheduler import MicroBatcher, PendingRequest
from .telemetry import TelemetryRegistry, Tracer, slo_burn_rate

EXECUTOR_CHOICES = ("thread", "process")
"""Execution backends: in-thread replicas, or per-shard subprocesses."""


class ResultCache:
    """Thread-safe LRU cache of finished responses, keyed by request.

    Keys are ``(model_version, request.cache_key())`` so a hot swap never
    serves a stale checkpoint's result. Counters feed the serving metrics.
    ``max_entries`` is the service's ``result_cache_entries`` (0 disables).
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple | None):
        """The cached value, or ``None`` (uncacheable keys always miss)."""
        if key is None:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return value

    def put(self, key: tuple | None, value) -> None:
        if key is None or self.max_entries <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


@dataclass(frozen=True)
class ServiceConfig:
    """Serving knobs: the one place each serving default is written.

    The classes only the service builds (:class:`MicroBatcher`,
    :class:`ResultCache`, :class:`CircuitBreaker`, both executors and the
    shard worker) take these values from it and have no defaults of their
    own. A request's deadline is its own ``deadline_s`` (none = it never
    expires).

    Attributes:
        max_batch_size: micro-batch cut size (1 = naive per-request path).
        flush_interval_s: max age of the oldest pending request before a
            partial batch is cut anyway.
        adaptive_flush: derive the effective flush cutoff from the
            observed inter-arrival EMA — zero wait while arrivals are
            sparser than the window (the lone-client regime), the full
            window while they are dense — and cut a batch as soon as
            the burst filling it has ended, or as soon as every caller a
            frontend has attached (each open socket connection) has a
            request pending. In-process callers are never attached, so
            that last rule never fires for them.
        replicas: fingerprint shards — evaluator replicas for the
            ``thread`` executor, worker subprocesses for ``process``.
        executor: one of :data:`EXECUTOR_CHOICES`.
        max_cached_kernels: per-shard precompute/feature memo bound.
        result_cache_entries: shared result-cache capacity (0 disables).
            The result cache always lives in the frontend process,
            whichever executor runs the forwards.
        shadow_cache_hit_fraction: fraction of result-cache *hits*
            sampled into shadow batches during a rollout (deterministic
            by request hash). Cache hits bypass execution — and with it
            shadow scoring — so a high-hit-rate deployment would starve
            the staged version's evidence window; sampled hits are
            re-scored off the response path to keep it filling. 0
            (default) disables.
        max_pending: admission-control bound on the scheduler queue;
            submissions beyond it raise a typed
            :class:`~.resilience.Overloaded` (0 = unbounded).
        dispatch_timeout_s: the ``process`` executor's watchdog — max
            seconds one shard worker may take to answer one dispatched
            command before it is declared hung and killed/respawned.
        breaker_failure_threshold: consecutive shard infrastructure
            failures that open that shard's circuit breaker.
        breaker_reset_s: open-breaker dwell before a half-open probe
            dispatch is allowed through.
        degrade_to_analytical: answer requests from the analytical TPU
            model (tagged ``degraded=True``) when a shard's breaker is
            open or its worker cannot serve, instead of failing them —
            tuners keep making progress through an outage.
        slo_target_latency_s: per-request latency objective backing the
            telemetry registry's SLO burn-rate gauges (a response slower
            than this counts against the error budget).
        slo_objective: fraction of requests that must meet the latency
            target; ``1 - slo_objective`` is the error budget the burn
            rate is measured against.
    """

    max_batch_size: int = 64
    flush_interval_s: float = 0.002
    adaptive_flush: bool = True
    replicas: int = 1
    executor: str = "thread"
    max_cached_kernels: int = 1024
    result_cache_entries: int = 4096
    shadow_cache_hit_fraction: float = 0.0
    max_pending: int = 0
    dispatch_timeout_s: float = 30.0
    breaker_failure_threshold: int = 5
    breaker_reset_s: float = 2.0
    degrade_to_analytical: bool = True
    slo_target_latency_s: float = 0.25
    slo_objective: float = 0.99


class CostModelService:
    """Micro-batched inference service over a versioned model registry.

    Args:
        source: a :class:`ModelRegistry` (possibly shared with other
            services) or a bare :class:`TrainResult`, which is wrapped in
            a private single-version registry.
        config: serving knobs; defaults are sensible for in-process use.
        executor: a pre-built execution backend; overrides the
            ``config.executor`` choice (dependency injection for tests
            and custom placements).
        rollout: the deployment control plane's version chooser; defaults
            to :class:`~repro.serving.rollout.FullActivation` (serve the
            active version). Swap at runtime with :meth:`set_rollout` —
            takes effect at the next batch cut, like a registry hot swap.
        feedback: optional :class:`~repro.serving.feedback.FeedbackCollector`;
            when attached, every served (and shadow-scored) prediction is
            recorded for joining with measured runtimes — the signal the
            rollout controller promotes and rolls back on.
        faults: optional :class:`~repro.serving.faults.FaultInjector`
            wired through to the executor it builds (the chaos harness);
            ``None`` (default) is the zero-overhead healthy path.
        tracer: optional :class:`~repro.serving.telemetry.Tracer`; when
            attached, sampled requests record spans at every layer
            boundary (frontend, scheduler, executor, worker subprocess).
            ``None`` (default) follows the fault injector's discipline —
            every tracing hook is a single ``is not None`` check.
        profiler: optional
            :class:`~repro.serving.profiler.ContinuousProfiler`; when
            attached, every pipeline stage (queue wait, batch cut,
            compose, forward, serialize) feeds its exemplar-linked
            histograms. Same ``None``-hook discipline as the tracer.
        journal: optional duck-typed ops journal (anything with
            ``record(kind, **fields)``, canonically
            :class:`~repro.serving.journal.OpsJournal`); when attached,
            lifecycle events — registry swaps, breaker transitions,
            worker respawns, degradations — are durably recorded. It is
            wired through to the registry and the executor here, so one
            journal covers the whole stack.

    Responses hand out cached arrays by reference; clients must treat
    response values as read-only.
    """

    def __init__(
        self,
        source: ModelRegistry | TrainResult,
        config: ServiceConfig | None = None,
        executor: Executor | None = None,
        rollout: RolloutPolicy | None = None,
        feedback: FeedbackCollector | None = None,
        faults: FaultInjector | None = None,
        tracer: Tracer | None = None,
        profiler=None,
        journal=None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.faults = faults
        self.tracer = tracer
        self.profiler = profiler
        self.journal = journal
        #: Optional :class:`~repro.serving.alerts.AlertEngine`; installed
        #: via :meth:`attach_alerts` (the engine needs the built service
        #: to read snapshots from, so it cannot be a ctor argument).
        self.alerts = None
        #: Optional :class:`~repro.serving.prober.SyntheticProber`;
        #: installed via :meth:`attach_prober`. Same ``None``-hook
        #: discipline: a prober-less service is bitwise-identical.
        self.prober = None
        #: Optional :class:`~repro.serving.incidents.IncidentReporter`;
        #: installed via :meth:`attach_incidents`.
        self.incidents = None
        if isinstance(source, ModelRegistry):
            self.registry = source
        else:
            self.registry = ModelRegistry()
            self.registry.publish(source)
        if self.registry.active_version is None:
            raise ValueError("registry has no published model to serve")
        if journal is not None and self.registry.journal is None:
            self.registry.journal = journal
        self.scheduler = MicroBatcher(
            max_batch_size=self.config.max_batch_size,
            flush_interval_s=self.config.flush_interval_s,
            adaptive_flush=self.config.adaptive_flush,
            max_pending=self.config.max_pending,
        )
        if profiler is not None:
            self.scheduler.profiler = profiler
        self.result_cache = ResultCache(self.config.result_cache_entries)
        self.stats = ServingStats()
        self.feedback = feedback
        self._rollout = rollout or FullActivation()
        self._rollout_lock = threading.Lock()
        self.executor = executor or self._build_executor()
        if journal is not None:
            self.executor.journal = journal
        self._exec_lock = threading.Lock()
        self._breakers: dict[int, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._fallback = (
            AnalyticalFallback() if self.config.degrade_to_analytical else None
        )
        self._shadow_backlog: list[tuple[str, PendingRequest]] = []
        self._backlog_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._closed = False
        self._telemetry: TelemetryRegistry | None = None
        self._telemetry_lock = threading.Lock()

    #: Bound on cache-hit shadow requests awaiting an execution slot — a
    #: stalled executor must not queue shadow work without limit.
    _SHADOW_BACKLOG_CAP = 512

    def _build_executor(self) -> Executor:
        # The uniform map routes identically to the legacy
        # ``fingerprint % n`` whenever the bucket count (the granularity
        # rebalance plans move) is a multiple of the shard count.
        shard_map = ShardMap.uniform(
            self.config.replicas, max(DEFAULT_BUCKETS, self.config.replicas)
        )
        if self.config.executor == "thread":
            return InThreadExecutor(
                self.registry,
                replicas=self.config.replicas,
                max_cached_kernels=self.config.max_cached_kernels,
                shard_map=shard_map,
            )
        if self.config.executor == "process":
            return ProcessShardExecutor(
                self.registry,
                shards=self.config.replicas,
                max_cached_kernels=self.config.max_cached_kernels,
                shard_map=shard_map,
                request_timeout_s=self.config.dispatch_timeout_s,
                fault_injector=self.faults,
            )
        raise ValueError(
            f"unknown executor {self.config.executor!r}; "
            f"choose from {EXECUTOR_CHOICES}"
        )

    # ------------------------------------------------------------------ #
    # placement control plane
    # ------------------------------------------------------------------ #

    @property
    def shard_map(self) -> ShardMap:
        """The executor's versioned fingerprint → shard assignment."""
        return self.executor.shard_map

    def rebalance(self, plan: RebalancePlan) -> dict:
        """Apply a placement plan at a micro-batch boundary.

        Holds the execution lock, so the executor's migration (spawn /
        sync / swap / drain) happens strictly between batches — no
        in-flight response is dropped and no executed batch spans two
        maps. Afterwards the per-shard stats are brought in line with
        the new placement: retired shards' counters merge into their
        heirs (``plan.relabel``), and surviving shards whose bucket set
        changed are reset — their history no longer describes what they
        serve.

        Returns the executor's migration summary, augmented with the
        plan's reason.
        """
        with self._exec_lock:
            old_shards = self.executor.num_shards
            summary = self.executor.apply_plan(plan)
            if plan.relabel:
                self.stats.relabel_shards(plan.relabel)
            new_shards = plan.new_map.num_shards
            retired = [
                shard
                for shard in range(new_shards, old_shards)
                if shard not in plan.relabel
            ]
            if retired:
                self.stats.reset_shards(retired)
            heirs = set(plan.relabel.values())
            affected = [s for s in plan.affected_shards if s not in heirs]
            if affected:
                self.stats.reset_shards(affected)
            self.stats.record_placement_change(len(plan.moves))
        summary["reason"] = plan.reason
        return summary

    # ------------------------------------------------------------------ #
    # rollout control plane
    # ------------------------------------------------------------------ #

    def set_rollout(self, policy: RolloutPolicy) -> None:
        """Install a rollout policy; applies from the next batch cut."""
        with self._rollout_lock:
            self._rollout = policy

    def get_rollout(self) -> RolloutPolicy:
        """The policy currently in force."""
        with self._rollout_lock:
            return self._rollout

    def _route(self, policy: RolloutPolicy, request: Request, active: str) -> str:
        """The validated response-path version for one request."""
        try:
            version = policy.route(request, active)
        except Exception:
            return active
        if version != active and version not in self.registry:
            # The staged version vanished mid-flight (rolled back and
            # retention-pruned): degrade to the active version rather
            # than failing the request.
            return active
        return version

    def _shadow_target(
        self, policy: RolloutPolicy, request: Request, active: str, routed: str
    ) -> str | None:
        """The validated off-response-path shadow version, if any."""
        try:
            shadow = policy.shadow(request, active)
        except Exception:
            return None
        if shadow is None or shadow == routed or shadow not in self.registry:
            return None
        return shadow

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def is_running(self) -> bool:
        """True while the background worker thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "CostModelService":
        """Spawn the background worker; idempotent."""
        if self._closed:
            raise RuntimeError("service is stopped")
        if not self.is_running:
            self._thread = threading.Thread(
                target=self._worker, name="cost-model-service", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Drain pending requests, then stop the worker; idempotent."""
        if self._closed:
            return
        self._closed = True
        self.scheduler.close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.flush()  # never started: drain synchronously
        self.executor.close()

    def __enter__(self) -> "CostModelService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #

    def submit(self, request: Request, caller=None):
        """Enqueue a request; returns a Future resolving to a Response.

        ``caller`` is the token a frontend attached to the scheduler for
        the sender (see :meth:`MicroBatcher.attach_caller`), or ``None``.

        Repeated identical requests are answered straight from the shared
        result cache without queueing (latency ~0, no forward), so a hit
        never counts towards its caller being pending. The cache
        lookup follows the rollout routing — a canary-routed request only
        ever hits the staged version's cache slice, so cached responses
        obey the same version-purity as executed ones. During a rollout a
        configurable fraction of cache hits is additionally sampled into
        the shadow backlog (``shadow_cache_hit_fraction``), so staged
        evidence keeps flowing even when the cache answers everything.
        """
        tracer = self.tracer
        ctx = None
        if tracer is not None:
            ctx = request.trace
            if ctx is None:
                # In-process ingress: open the root span here. (The
                # socket frontend ingresses before submitting, so its
                # requests arrive with a context already attached.)
                ctx = tracer.ingress(request, process="frontend", name="request")
                if ctx is not None:
                    request = replace(request, trace=ctx)
        active = self.registry.active_version
        policy = self.get_rollout()
        version = self._route(policy, request, active)
        # Synthetic probes must exercise the full route (scheduler,
        # executor, worker) — a cached answer would verify nothing — and
        # must not touch the business result cache or counters.
        try:
            key = None if request.synthetic else request.cache_key()
        except Exception:
            # Malformed requests still get a future; the worker resolves
            # it with an error response instead of submit() throwing.
            key = None
        cached = None if key is None else self.result_cache.get((version, key))
        if cached is not None:
            pending = PendingRequest(request=request, enqueued_at=time.perf_counter())
            self._finish(
                pending, version, cached, cache_hit=True, canary=version != active
            )
            self._maybe_shadow_cache_hit(policy, pending, version)
            return pending.future
        try:
            return self.scheduler.submit(request, caller=caller)
        except Exception as exc:
            # Shed at the door (a typed ``Overloaded``) or refused by a
            # closed scheduler: no resolution will follow, so the root
            # span this request opened must be closed here.
            overloaded = isinstance(exc, Overloaded)
            if overloaded and not request.synthetic:
                self.stats.count("overload_rejections")
            if ctx is not None:
                if overloaded:
                    tracer.event(ctx, "overload.rejected")
                tracer.finish(ctx, status="error")
            raise

    def _maybe_shadow_cache_hit(
        self, policy: RolloutPolicy, pending: PendingRequest, routed: str
    ) -> None:
        """Sample a result-cache hit into the shadow backlog.

        Whatever the policy's shadow rule (a ``CanaryFraction`` has
        none), the staged version is the evidence target: the hit never
        executed, so its staged score is missing from the feedback
        window either way. Deterministic hash sampling keeps the
        re-scored subset stable across processes and runs.
        """
        fraction = self.config.shadow_cache_hit_fraction
        if fraction <= 0.0:
            return
        staged = policy.staged_version
        if staged is None or staged == routed or staged not in self.registry:
            return
        try:
            unit = request_unit_hash(pending.request, salt="cache-hit-shadow")
        except Exception:
            return
        if unit >= fraction:
            return
        with self._backlog_lock:
            if len(self._shadow_backlog) >= self._SHADOW_BACKLOG_CAP:
                return
            self._shadow_backlog.append((staged, pending))
        self.stats.count("cache_hit_shadows")

    def _drain_shadow_backlog(self) -> None:
        """Execute sampled cache-hit shadows, off the response path.

        Runs on the worker thread (or from :meth:`flush`), never inside
        :meth:`_execute` — the backlog drains strictly *between*
        micro-batches, so shadow work can never delay a response it
        shares the executor with beyond one batch.
        """
        with self._backlog_lock:
            if not self._shadow_backlog:
                return
            backlog, self._shadow_backlog = self._shadow_backlog, []
        groups: dict[str, list[PendingRequest]] = {}
        for version, pending in backlog:
            groups.setdefault(version, []).append(pending)
        with self._exec_lock:
            for version, group in groups.items():
                if version in self.registry:
                    self._execute_shadow(version, group)

    def flush(self) -> int:
        """Execute everything currently pending on the caller's thread.

        Returns the number of requests processed. This is the synchronous
        pump for services without a worker thread; it is safe (serialized)
        alongside a running worker but defeats the purpose if overused.
        """
        processed = 0
        while True:
            batch = self.scheduler.drain()
            if not batch:
                self._drain_shadow_backlog()
                return processed
            self._execute_safe(batch)
            processed += len(batch)

    def metrics(self) -> dict:
        """One merged operational snapshot (stats + caches + placement).

        Since the telemetry registry landed this is just
        ``self.telemetry.collect()`` — every component contributes its
        snapshot through a registered collector and the merge happens in
        one lock-consistent pass (the same snapshot the gateway's
        ``/metrics`` endpoint exposes). Shape is unchanged: flat float
        counters from :class:`ServingStats` and the caches, plus
        ``per_shard`` — the service's routing stats merged with the
        executor's placement/liveness details — ``per_version`` —
        per-checkpoint routing volume merged with the feedback
        collector's accuracy windows — ``rollout``, ``breakers``,
        ``placement``, and the SLO burn-rate gauges.
        """
        return self.telemetry.collect()

    @property
    def telemetry(self) -> TelemetryRegistry:
        """The unified metrics registry (built lazily on first scrape).

        Components register *collectors* — snapshot callbacks — rather
        than pushing values, so the registry costs nothing until someone
        reads it. External controllers (placement, rollout) register
        their own collectors here when constructed.
        """
        with self._telemetry_lock:
            if self._telemetry is None:
                self._telemetry = self._build_telemetry()
            return self._telemetry

    def attach_alerts(self, engine) -> None:
        """Install an :class:`~repro.serving.alerts.AlertEngine`.

        Wires the engine to this service's telemetry snapshot (when it
        has no source of its own), to the attached journal, to a recent-
        trace exemplar source, and into the metrics registry. The engine
        stays *pulled* — call ``engine.evaluate()`` from the ops loop.
        """
        engine.bind(self)
        engine.register_into(self.telemetry)
        self.alerts = engine

    def attach_prober(self, prober) -> None:
        """Install a :class:`~repro.serving.prober.SyntheticProber`.

        Binds the prober to this service (reference evaluators per live
        registry version, the in-process probe route, shard lookup) and
        registers its ``prober_*`` telemetry family. The prober stays
        *pulled* — call ``prober.sweep()`` from the ops loop (or
        ``prober.start()`` it, every
        :data:`~repro.serving.prober.PROBE_INTERVAL_S`).
        """
        prober.bind(self)
        prober.register_into(self.telemetry)
        self.prober = prober

    def attach_incidents(self, reporter) -> None:
        """Install an :class:`~repro.serving.incidents.IncidentReporter`.

        Binds the reporter to this service's journal, stats, profiler and
        prober, and hooks it on the attached alert engine's transitions
        (either attach order works) so every ``→ firing`` transition
        self-assembles an incident report.
        """
        reporter.bind(self)
        reporter.register_into(self.telemetry)
        self.incidents = reporter

    def _build_telemetry(self) -> TelemetryRegistry:
        registry = TelemetryRegistry()
        # Read through ``self.stats`` at scrape time, like the shard /
        # version / SLO collectors below: benches swap in a fresh
        # ``ServingStats`` after warm-up, and one scrape must describe
        # one stats object.
        registry.register_collector(
            "serving_stats",
            lambda: self.stats.snapshot(),
            counters=ServingStats._COUNTERS,
        )
        self.scheduler.register_into(registry)
        registry.register_collector("result_cache", lambda: {
            f"result_cache_{k}": v for k, v in self.result_cache.stats().items()
        })
        registry.register_collector("executor", lambda: {
            f"evaluator_{k}": v for k, v in self.executor.stats().items()
        })
        registry.register_collector(
            "shards", self._collect_shards, families={"per_shard": "shard"}
        )
        registry.register_collector(
            "versions", self._collect_versions, families={"per_version": "version"}
        )
        registry.register_collector("deployment", self._collect_deployment)
        registry.register_collector(
            "breakers", self.breaker_board, families={"breakers": "shard"}
        )
        registry.register_collector("fallback", self._collect_fallback)
        registry.register_collector("placement", self._collect_placement)
        registry.register_collector("slo", self._collect_slo)
        if self.feedback is not None:
            self.feedback.register_into(registry)
        if self.tracer is not None:
            registry.register_collector(
                "tracer",
                self.tracer.snapshot,
                counters=(
                    "traces_started",
                    "traces_evicted",
                    "trace_ring_evicted",
                    "traces_unsampled",
                    "spans_recorded",
                ),
            )
        if self.profiler is not None:
            self.profiler.register_into(registry)
        if self.journal is not None and hasattr(self.journal, "register_into"):
            self.journal.register_into(registry)
        return registry

    def _collect_shards(self) -> dict:
        per_shard = self.stats.shard_snapshot()
        for detail in self.executor.shard_stats():
            # A shard that saw no traffic yet still gets a complete
            # entry — consumers index the stats keys unconditionally.
            entry = per_shard.setdefault(
                str(detail["shard"]), ServingStats.empty_shard_entry()
            )
            entry.update({k: v for k, v in detail.items() if k != "shard"})
        return {"per_shard": per_shard}

    def _collect_versions(self) -> dict:
        per_version = self.stats.version_snapshot()
        if self.feedback is not None:
            for version, window in self.feedback.snapshot()["versions"].items():
                entry = per_version.setdefault(
                    version, ServingStats.empty_version_entry()
                )
                entry.update(window)
        return {"per_version": per_version}

    def _collect_deployment(self) -> dict:
        return {
            "rollout": self.get_rollout().describe(),
            "active_version": self.registry.active_version,
            "staged_version": self.registry.staged_version,
            "executor": type(self.executor).__name__,
            "replicas": float(self.executor.num_shards),
            "pending": float(len(self.scheduler)),
            "queue_pressure": self.scheduler.queue_pressure(),
            "flush_interval_effective_s": (
                self.scheduler.effective_flush_interval()
            ),
        }

    def breaker_board(self) -> dict:
        """Every shard breaker's snapshot plus the summed open time (the
        ``breakers`` part of :meth:`metrics`; the gateway's ``/healthz``
        and incident reports read it directly)."""
        with self._breaker_lock:
            breakers = dict(self._breakers)
        return {
            "breakers": {
                str(shard): breaker.snapshot()
                for shard, breaker in breakers.items()
            },
            "breaker_open_seconds": sum(
                b.open_seconds() for b in breakers.values()
            ),
        }

    def _collect_fallback(self) -> dict:
        if self._fallback is None:
            return {}
        return {
            "fallback_answers": float(self._fallback.answers),
            "fallback_failures": float(self._fallback.failures),
        }

    def _collect_placement(self) -> dict:
        return {"placement": self.shard_map.describe()}

    def _collect_slo(self) -> dict:
        """SLO burn-rate gauges from the serving latency window/EWMA."""
        target = self.config.slo_target_latency_s
        objective = self.config.slo_objective
        window = self.stats.slo_window(target)
        return {
            "slo_target_latency_s": target,
            "slo_objective": objective,
            "slo_violation_fraction": window["violation_fraction"],
            "slo_window_samples": window["window"],
            "slo_latency_ewma_s": window["latency_ewma_s"],
            "slo_burn_rate": slo_burn_rate(
                window["violation_fraction"], objective
            ),
        }

    # ------------------------------------------------------------------ #
    # worker
    # ------------------------------------------------------------------ #

    def _worker(self) -> None:
        while True:
            batch = self.scheduler.next_batch(timeout=0.1)
            if batch:
                self._execute_safe(batch)
            elif self._closed:
                return
            self._drain_shadow_backlog()

    def _execute_safe(self, batch: list[PendingRequest]) -> None:
        """Execute a batch; a failure fails the batch, never the worker."""
        try:
            self._execute(batch)
        except Exception:
            message = traceback.format_exc()
            version = self.registry.active_version
            for pending in batch:
                self._finish(
                    pending, version, error=message, code=ERROR_UNAVAILABLE
                )

    def _execute(self, batch: list[PendingRequest]) -> None:
        """Run one micro-batch through the version chooser.

        The rollout policy names a response-path version per request; the
        batch is partitioned by that choice and each partition executes
        as its own version-pure batch (the canary invariant). Shadow
        assignments execute *after* every response future has resolved —
        off the response path by construction.
        """
        with self._exec_lock:
            policy = self.get_rollout()
            active = self.registry.active_version
            batch = self._shed(batch, active)
            if not batch:
                return
            groups: dict[str, list[PendingRequest]] = {}
            shadow_groups: dict[str, list[PendingRequest]] = {}
            for pending in batch:
                version = self._route(policy, pending.request, active)
                # Probes never trigger shadow scoring: a shadow forward
                # spent on synthetic traffic is wasted evidence budget.
                shadow = None if pending.synthetic else self._shadow_target(
                    policy, pending.request, active, version
                )
                pending.routed_version = version
                pending.shadowed_by = shadow
                groups.setdefault(version, []).append(pending)
                if shadow is not None:
                    shadow_groups.setdefault(shadow, []).append(pending)
            self._observe_cut(batch, active)
            total_forwards = 0
            for version, sub_batch in groups.items():
                try:
                    total_forwards += self._execute_version(
                        version, sub_batch, canary=version != active
                    )
                except Exception:
                    # The routed version can vanish between the _route
                    # check and execution (rolled back + retention-pruned
                    # by a concurrent publish): honor the degrade-to-
                    # active contract instead of failing the sub-batch.
                    # _finish skips already-done futures, so a partial
                    # first attempt retries safely.
                    if version != active and version not in self.registry:
                        try:
                            total_forwards += self._execute_version(
                                active, sub_batch, canary=False
                            )
                            continue
                        except Exception:
                            version = active
                    message = traceback.format_exc()
                    for pending in sub_batch:
                        # The backend itself failed, not the shard the
                        # request was composed for.
                        pending.shard = None
                        self._finish(pending, version, error=message)
            self.stats.record_batch(len(batch), total_forwards)
            for version, sub_batch in shadow_groups.items():
                self._execute_shadow(version, sub_batch)

    def _shed(
        self, batch: list[PendingRequest], active: str
    ) -> list[PendingRequest]:
        """Drop requests not worth dispatching: abandoned and expired.

        Abandoned = the future already resolved (a frontend dropped the
        client's connection and answered it with a typed disconnect) — a
        forward for it is pure waste. Expired = past its deadline; it is
        resolved here with a typed ``deadline_exceeded`` instead of
        spending a forward on an answer nobody is waiting for.
        """
        now = time.perf_counter()
        live: list[PendingRequest] = []
        for pending in batch:
            if pending.future.done():
                if not pending.synthetic:
                    self.stats.count("abandoned")
            elif pending.expires_at is not None and now >= pending.expires_at:
                if not pending.synthetic:
                    self.stats.count("deadline_expired")
                self._finish(
                    pending,
                    active,
                    error=f"deadline expired before dispatch "
                    f"(queued {now - pending.enqueued_at:.3f}s)",
                    code=ERROR_DEADLINE_EXCEEDED,
                )
            else:
                live.append(pending)
        return live

    def _observe_cut(self, batch: list[PendingRequest], active: str) -> None:
        """Show one routed batch cut to the tracer and the profiler.

        Per request: the ``queue.wait`` span and stage sample, and the
        ``batch.cut`` / ``route`` events (read off the record the
        routing loop just stamped).
        """
        tracer = self.tracer
        profiler = self.profiler
        if tracer is None and profiler is None:
            return
        cut_wall, cut_perf = time.time(), time.perf_counter()
        for pending in batch:
            ctx = pending.trace
            waited = cut_perf - pending.enqueued_at
            if tracer is not None and ctx is not None:
                # Queue wait ends at the batch cut; span times are
                # wall-clock, so reconstruct the start from the
                # perf_counter enqueue stamp.
                tracer.record(
                    ctx,
                    "queue.wait",
                    start=cut_wall - waited,
                    end=cut_wall,
                    process="scheduler",
                )
                tracer.event(ctx, "batch.cut", attrs={"batch_size": len(batch)})
                version = pending.routed_version
                route_attrs = {"version": version, "canary": version != active}
                if pending.shadowed_by is not None:
                    route_attrs["shadow"] = pending.shadowed_by
                tracer.event(ctx, "route", attrs=route_attrs)
            if profiler is not None:
                profiler.record_stage(
                    "queue.wait",
                    waited,
                    trace_id=ctx.trace_id if ctx is not None else None,
                )

    def _breaker(self, shard: int) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding one shard."""
        with self._breaker_lock:
            breaker = self._breakers.get(shard)
            if breaker is None:
                on_transition = None
                if self.journal is not None:
                    on_transition = (
                        lambda frm, to, _shard=shard: record_event(
                            self.journal,
                            "breaker.transition",
                            shard=_shard,
                            **{"from": frm, "to": to},
                        )
                    )
                breaker = CircuitBreaker(
                    failure_threshold=self.config.breaker_failure_threshold,
                    reset_s=self.config.breaker_reset_s,
                    on_transition=on_transition,
                )
                self._breakers[shard] = breaker
            return breaker

    def _degrade_or_fail(
        self,
        pending: PendingRequest,
        version: str,
        reason: str,
        code: str = ERROR_UNAVAILABLE,
    ) -> None:
        """Answer from the analytical model, or fail with a typed error.

        The graceful-degradation path: a breaker-open shard or a dead/
        hung worker must not cost the client its request. Degraded values
        are tagged on the wire, stamped with the analytical version, and
        **never** put in the result cache (an outage must not poison the
        cache with analytical values) nor recorded as feedback
        predictions (they are not the learned model's output).
        """
        if pending.future.done():
            return
        value = None
        if self._fallback is not None:
            try:
                value = self._fallback.answer(pending.request)
            except Exception:
                value = None
        self._finish(
            pending, version, value,
            error=reason, code=code, degraded=value is not None,
        )

    def _build_commands(self, batch: list[PendingRequest], on_malformed=None):
        """Coalesce a version-pure batch into shard-annotated commands.

        Returns ``(commands, groups)`` where ``groups[i]`` is the
        ``(kind, pendings)`` slice answered by ``commands[i]``; every
        grouped request is stamped with the command's shard.
        Malformed requests (e.g. fingerprinting raises) are reported to
        ``on_malformed(pending, message)`` and excluded — they must fail
        alone, not take their co-batched neighbours down.
        """
        tile_groups: dict[tuple[int, str], list[PendingRequest]] = {}
        program_groups: dict[int, list[PendingRequest]] = {}
        for pending in batch:
            request = pending.request
            try:
                shard = self.executor.shard_for(request.shard_key())
                if isinstance(request, TileScoresRequest):
                    key = (shard, request.kernel.fingerprint())
                    tile_groups.setdefault(key, []).append(pending)
                elif isinstance(request, ProgramRuntimesRequest):
                    program_groups.setdefault(shard, []).append(pending)
                else:
                    if on_malformed is not None:
                        on_malformed(
                            pending,
                            f"unknown request type {type(request).__name__}",
                        )
                    continue
                pending.shard = shard
            except Exception:
                if on_malformed is not None:
                    on_malformed(pending, traceback.format_exc())

        commands = []
        groups: list[tuple[str, list[PendingRequest]]] = []
        for (shard, _), group in tile_groups.items():
            merged = tuple(t for p in group for t in p.request.tiles)
            commands.append(
                TileCommand(shard=shard, kernel=group[0].request.kernel, tiles=merged)
            )
            groups.append(("tiles", group))
        for shard, group in program_groups.items():
            merged_programs = tuple(
                tuple(kernels) for p in group for kernels in p.request.programs
            )
            commands.append(ProgramCommand(shard=shard, programs=merged_programs))
            groups.append(("programs", group))
        return commands, groups

    @staticmethod
    def _split(kind: str, group: list[PendingRequest], value):
        """Slice one coalesced result back per request, in group order.

        Yields ``(pending, value)``: the request's own contiguous slice
        of the score vector (as long as the tiles / programs it sent).
        The response path and shadow scoring share it, so a shadow
        prediction always lines up with the response it shadows.
        """
        offset = 0
        for pending in group:
            request = pending.request
            n = len(request.tiles if kind == "tiles" else request.programs)
            yield pending, np.asarray(value[offset:offset + n])
            offset += n

    def _open_dispatch_spans(self, command, kind: str, group, version: str):
        """Open an ``executor.dispatch`` span per sampled request of one
        command; returns the (trace-tagged) command and the open spans."""
        if self.tracer is None:
            return command, ()
        attrs = {"shard": command.shard, "kind": kind, "version": version}
        opened = tuple(
            (
                pending.trace,
                self.tracer.start_span(
                    pending.trace, "executor.dispatch",
                    process="executor", attrs=attrs,
                ),
            )
            for pending in group
            if pending.trace is not None
        )
        if opened:
            # One trace token per fused command: workers tag their
            # forward span with it; closing the spans re-parents copies
            # under every sampled request.
            first_ctx, first_span = opened[0]
            command = replace(command, trace=(first_ctx.trace_id, first_span))
        return command, opened

    def _close_dispatch_spans(self, spans, status="ok", forwards=()) -> None:
        """End one command's dispatch spans (none when untraced).

        ``forwards`` are the executor-reported spans (worker forwards)
        of a successful command: each is re-parented under every sampled
        request's dispatch span — each trace sees the shared forward it
        rode in.
        """
        for ctx, span_id in spans:
            for raw in forwards:
                self.tracer.record_raw(
                    dict(raw, trace_id=ctx.trace_id, parent_id=span_id)
                )
            self.tracer.end_span(ctx.trace_id, span_id, status=status)

    def _execute_version(
        self, version: str, batch: list[PendingRequest], canary: bool
    ) -> int:
        """Run one version-pure batch: compose, gate, dispatch, split,
        finish.

        Returns the number of model forwards spent.
        """
        profiler = self.profiler
        if profiler is not None:
            # One exemplar per batch: the first traced request links the
            # aggregate stage histograms back to a concrete trace tree.
            exemplar = next(
                (p.trace.trace_id for p in batch if p.trace is not None), None
            )
            stage_start = time.perf_counter()
        commands, groups = self._build_commands(
            batch,
            on_malformed=lambda pending, message: self._finish(
                pending, version, error=message
            ),
        )
        if profiler is not None:
            profiler.record_stage(
                "compose", time.perf_counter() - stage_start, trace_id=exemplar
            )
        # Circuit-breaker gate: commands for a shard whose breaker is
        # open (and not yet due a half-open probe) never reach the
        # executor — their requests are answered from the analytical
        # fallback instead of queueing behind a known-bad worker.
        tracer = self.tracer
        run_commands = []
        run_groups = []
        dispatch_spans: list[tuple] = []  # parallel to run_groups
        for command, (kind, group) in zip(commands, groups):
            shard = command.shard
            if self._breaker(shard).allow():
                command, spans = self._open_dispatch_spans(
                    command, kind, group, version
                )
                run_commands.append(command)
                run_groups.append((kind, group))
                dispatch_spans.append(spans)
                continue
            blocked = sum(1 for p in group if not p.synthetic)
            if blocked:
                self.stats.count("breaker_blocks", blocked)
            for pending in group:
                if tracer is not None and pending.trace is not None:
                    tracer.event(
                        pending.trace, "breaker.block", attrs={"shard": shard}
                    )
                self._degrade_or_fail(
                    pending, version, f"shard {shard} circuit breaker is open"
                )
        if profiler is not None:
            stage_start = time.perf_counter()
        try:
            results = (
                self.executor.run(version, run_commands) if run_commands else []
            )
        except Exception:
            for spans in dispatch_spans:
                self._close_dispatch_spans(spans, status="error")
            raise
        if profiler is not None:
            profiler.record_stage(
                "forward",
                time.perf_counter() - stage_start,
                trace_id=exemplar,
                path="request;forward;executor",
            )
            stage_start = time.perf_counter()

        forwards = 0
        for command, (kind, group), result, spans in zip(
            run_commands, run_groups, results, dispatch_spans
        ):
            if result.error is not None:
                self._close_dispatch_spans(spans, status="error")
                if result.infra:
                    # Infrastructure failure (worker died / hung past the
                    # dispatch timeout / respawn suppressed): feed the
                    # breaker and degrade rather than surfacing worker
                    # tracebacks for a fault the client didn't cause.
                    self._breaker(command.shard).record_failure()
                    for pending in group:
                        self._degrade_or_fail(
                            pending, version, result.error,
                            code=ERROR_WORKER_FAILURE,
                        )
                else:
                    for pending in group:
                        self._finish(pending, version, error=result.error)
                continue
            self._breaker(command.shard).record_success()
            self._close_dispatch_spans(spans, forwards=result.spans)
            # Executors report what each command actually cost: a
            # command fused into another's forward reports 0.
            forwards += result.forwards
            self.stats.record_shard(command.shard, forwards=result.forwards)
            for pending, value in self._split(kind, group, result.value):
                self._finish(
                    pending, version, value,
                    group_size=len(group), canary=canary,
                )
        if profiler is not None:
            profiler.record_stage(
                "serialize", time.perf_counter() - stage_start, trace_id=exemplar
            )
        return forwards

    def _execute_shadow(self, version: str, batch: list[PendingRequest]) -> None:
        """Score a batch with a staged version, off the response path.

        Runs after every response future in the micro-batch has resolved:
        nothing here touches futures or the result cache — the only
        outputs are feedback predictions (joined later with measured
        runtimes) and shadow routing stats. Failures are accounted and
        swallowed; a broken staged checkpoint must never take the
        response path down.
        """
        commands, groups = self._build_commands(batch)
        if not commands:
            return
        try:
            results = self.executor.run(version, commands)
        except Exception:
            for _, group in groups:
                for _ in group:
                    self.stats.record_route(version, shadow=True, error=True)
            return
        for (kind, group), result in zip(groups, results):
            if result.error is not None:
                for _ in group:
                    self.stats.record_route(version, shadow=True, error=True)
                continue
            self.stats.count("shadow_forwards", result.forwards)
            for pending, prediction in self._split(kind, group, result.value):
                self.stats.record_route(version, shadow=True)
                if self.feedback is not None:
                    self.feedback.record_prediction(
                        version,
                        request_key(pending.request),
                        prediction,
                        request=pending.request,
                        shadow=True,
                    )

    def _finish(
        self,
        pending: PendingRequest,
        version: str,
        value=None,
        *,
        error: str | None = None,
        code: str | None = None,
        degraded: bool = False,
        cache_hit: bool = False,
        group_size: int = 1,
        canary: bool = False,
    ) -> None:
        """Resolve one request — the single resolution site.

        Exactly one of three outcomes, read off the arguments: an
        *answer* (``value``, no ``error``; ``cache_hit`` when the result
        cache produced it), a *degraded* answer (``degraded``: ``value``
        is the analytical model's and ``error`` the reason the learned
        one could not be asked), or a *typed error* (``error`` and
        ``code``, no value). Already-resolved futures are left alone, so
        every caller may retry safely.

        Business requests feed the stats, the SLO window and the
        per-version routing volume; a fresh learned answer also fills
        the result cache and the feedback join, and a degradation is
        journaled. Probes are excluded from all of it — the prober keeps
        its own ``prober_*`` accounting — but still close their root
        span and get the same response.
        """
        if pending.future.done():
            return
        latency = 0.0 if cache_hit else time.perf_counter() - pending.enqueued_at
        request, shard = pending.request, pending.shard
        answered = error is None
        failed = not (answered or degraded)
        ctx = pending.trace if self.tracer is not None else None
        trace_id = ctx.trace_id if ctx is not None else None
        if not pending.synthetic:
            # A degraded answer was served by no published version.
            self.stats.record_response(
                latency,
                cache_hit=cache_hit,
                error=failed,
                shard=shard,
                version=None if degraded else version,
                canary=canary,
            )
            if degraded:
                self.stats.count("degraded")
                record_event(
                    self.journal,
                    "service.degraded",
                    trace_id=trace_id,
                    shard=shard,
                    version=version,
                    reason=error.splitlines()[0][:200] if error else "",
                )
            if answered and not cache_hit:
                key = request.cache_key()
                if key is not None:
                    self.result_cache.put((version, key), value)
                if self.feedback is not None:
                    self.feedback.record_prediction(
                        version, request_key(request), value, request=request
                    )
        if ctx is not None:
            if cache_hit:
                self.tracer.event(ctx, "cache.hit", attrs={"version": version})
                status, attrs = "ok", {"cache_hit": True}
            elif degraded:
                self.tracer.event(ctx, "degraded", attrs={"reason": error})
                status, attrs = "degraded", None
            elif failed:
                status, attrs = "error", {"error_code": code or "error"}
            else:
                status = "ok"
                attrs = {"version": version, "batch_size": group_size, "shard": shard}
            self.tracer.finish(ctx, status=status, attrs=attrs)
        pending.future.set_result(
            Response(
                value=value,
                model_version=ANALYTICAL_VERSION if degraded else version,
                batch_size=group_size,
                cache_hit=cache_hit,
                latency_s=latency,
                error=error if failed else None,
                canary=canary,
                shadowed_by=pending.shadowed_by if answered else None,
                error_code=code if failed else None,
                degraded=degraded,
                trace_id=trace_id,
                synthetic=pending.synthetic,
            )
        )
