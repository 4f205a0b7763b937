"""Cost-model serving stack: transport / scheduling / execution layers.

The paper's deployment mode — a performance model trained offline and
queried at compile time — becomes a three-layer service boundary here:

* **transport frontends** (:class:`InProcessFrontend`,
  :class:`SocketFrontend`) own request ingress; both feed the same
  scheduler, so in-process and remote traffic coalesce into shared
  micro-batches;
* the **scheduler core** (:class:`CostModelService`) owns micro-batching,
  per-batch checkpoint-version snapshots over a versioned
  :class:`ModelRegistry` (with disk spill/load), the shared
  version-scoped result cache, and serving stats;
* **execution backends** (:class:`InThreadExecutor`,
  :class:`ProcessShardExecutor`) own where the coalesced forwards run —
  in-process fingerprint-sharded replicas, or per-shard worker
  subprocesses with true parallel forwards and checkpoint shipping.

Clients (:class:`ServiceEvaluator` in-process, :class:`SocketEvaluator`
remote) speak the existing evaluator protocol, so the autotuners run
against the service unchanged.

On top of the serving path sits the **deployment control plane**
(:mod:`repro.serving.rollout` + :mod:`repro.serving.feedback`): rollout
policies (:class:`FullActivation`, :class:`CanaryFraction`,
:class:`ShadowScore`) choose a version per request in front of the
per-batch snapshot, a :class:`FeedbackCollector` joins served
predictions with measured runtimes into per-version accuracy windows,
and the :class:`RolloutController` promotes or rolls back staged
checkpoints from that evidence — the continuous-learning loop's
actuator.

Resilience (:mod:`repro.serving.faults` + :mod:`repro.serving.resilience`)
hardens all three layers: a deterministic fault-injection harness
(:class:`FaultPlan` / :class:`FaultInjector`), per-request deadlines,
client retries (:class:`RetryPolicy`), per-shard circuit breakers
(:class:`CircuitBreaker`), crash-loop respawn backoff, and graceful
degradation to the analytical TPU model (:class:`AnalyticalFallback`) —
the serving contract being that every request resolves within its
deadline as an answer, a typed error, or a ``degraded`` analytical
answer, never a hang.

Observability (:mod:`repro.serving.telemetry` +
:mod:`repro.serving.http_gateway`) makes the whole stack inspectable:
a :class:`Tracer` records per-request spans across every layer boundary
(frontend → scheduler → executor → worker subprocess) with
deterministic hash sampling and zero overhead when disabled, a
:class:`TelemetryRegistry` merges every component's counters into one
lock-consistent snapshot with Prometheus text exposition and SLO
burn-rate gauges, and the read-only :class:`MetricsGateway` serves
``/metrics``, ``/traces/<id>``, ``/traces/recent``, and ``/healthz``
over HTTP.

The *active* observability layer (:mod:`repro.serving.profiler` +
:mod:`repro.serving.alerts` + :mod:`repro.serving.journal`) turns that
visibility into action: a :class:`ContinuousProfiler` attributes
wall-time per pipeline stage into exemplar-linked histograms (served at
``/profile``), an :class:`AlertEngine` evaluates threshold / SLO
burn-rate / anomaly rules against registry snapshots through a
pending → firing → resolved state machine (``/alerts``), and an
:class:`OpsJournal` durably records every lifecycle event — hot-swaps,
rollout transitions, rebalances, respawns, breaker trips, degradations,
alert transitions — as crash-safe append-only JSONL (``/events/recent``).

Active probing (:mod:`repro.serving.prober` +
:mod:`repro.serving.incidents`) closes the loop from the outside in: a
:class:`SyntheticProber` drives golden-kernel requests with precomputed
known answers through every live route (frontend × shard × live
version, tagged ``synthetic=True`` on the wire and excluded from
business stats/SLO/feedback) and verifies the responses bitwise
(``/probes``), while an :class:`IncidentReporter` turns every alert
firing into a ranked, journaled root-cause report assembled from the
journal window, profiler exemplars, per-shard z-scores, and probe
verdicts (``/incidents``).

Every name above is resolved on first access (PEP 562): ``import
repro.serving`` loads no submodule, and ``from repro.serving import X``
loads the one that defines ``X``. A shard worker's boot, ``import
repro.serving.workers``, so loads the model path and
``serving.{workers, protocol, faults, telemetry}`` — not the service,
the frontends (and their ``http.server``), the control plane or the
observability stack.
"""

import importlib

#: Every public name, by the submodule that defines it; ``__getattr__``
#: imports it on first access and caches it in this module's globals.
_EXPORTS = {
    "alerts": (
        "Alert", "AlertEngine", "AnomalyRule", "BurnRateRule", "ThresholdRule",
    ),
    "client": ("EvaluatorClient", "ServiceEvaluator", "SocketEvaluator"),
    "executors": (
        "CommandResult", "Executor", "InThreadExecutor",
        "ProcessShardExecutor", "ProgramCommand", "TileCommand",
        "WorkerDiedError",
    ),
    "faults": (
        "FAULT_HOOKS", "FAULT_KINDS", "FaultInjector", "FaultPlan",
        "FaultRule", "corrupt_bytes",
    ),
    "feedback": (
        "FeedbackCollector", "FeedbackSample", "WindowSnapshot",
        "prediction_error", "request_key", "tile_measurement",
    ),
    "frontend": ("Frontend", "InProcessFrontend", "SocketFrontend"),
    "http_gateway": ("PROMETHEUS_CONTENT_TYPE", "MetricsGateway"),
    "incidents": ("IncidentReporter",),
    "journal": ("OpsJournal",),
    "placement": (
        "DEFAULT_BUCKETS", "BucketMove", "PlacementConfig",
        "PlacementController", "RebalancePlan", "ShardMap", "shard_of",
    ),
    "prober": ("GoldenProbe", "SyntheticProber"),
    "profiler": ("ContinuousProfiler",),
    "protocol": (
        "ERROR_DEADLINE_EXCEEDED", "ERROR_DISCONNECTED", "ERROR_OVERLOADED",
        "ERROR_UNAVAILABLE", "ERROR_WORKER_FAILURE", "NEED_KERNEL_PREFIX",
        "ProgramRuntimesRequest", "Request", "Response", "TileScoresRequest",
        "UnknownKernelError", "WireError", "decode_request", "encode_request",
        "kernel_interner", "recv_frame", "send_frame",
    ),
    "registry": ("ModelRegistry",),
    "resilience": (
        "ANALYTICAL_VERSION", "AnalyticalFallback", "CircuitBreaker",
        "ConnectionLost", "CrashLoopBackoff", "DeadlineExceeded", "Overloaded",
        "RetryPolicy", "ServiceUnavailable", "ServingFault", "WorkerFailure",
        "fault_for", "idempotency_key",
    ),
    "rollout": (
        "CANARY", "IDLE", "PROMOTED", "ROLLED_BACK", "ROLLOUT_STATES",
        "SHADOW", "CanaryFraction", "FullActivation", "RolloutConfig",
        "RolloutController", "RolloutPolicy", "RolloutTransition",
        "ShadowScore", "regressed_checkpoint", "request_unit_hash",
    ),
    "scheduler": ("MicroBatcher", "PendingRequest"),
    "service": (
        "EXECUTOR_CHOICES", "CostModelService", "ResultCache", "ServiceConfig",
    ),
    "telemetry": (
        "Histogram", "Span", "TelemetryRegistry", "TraceContext", "Tracer",
        "slo_burn_rate", "trace_unit_hash",
    ),
}

_SOURCE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
