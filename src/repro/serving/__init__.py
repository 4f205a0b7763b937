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
"""
from .alerts import (
    Alert,
    AlertEngine,
    AnomalyRule,
    BurnRateRule,
    ThresholdRule,
)
from .client import EvaluatorClient, ServiceEvaluator, SocketEvaluator
from .faults import (
    FAULT_HOOKS,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultRule,
    corrupt_bytes,
)
from .feedback import (
    FeedbackCollector,
    FeedbackSample,
    WindowSnapshot,
    prediction_error,
    request_key,
    tile_measurement,
)
from .executors import (
    CommandResult,
    Executor,
    InThreadExecutor,
    ProcessShardExecutor,
    ProgramCommand,
    TileCommand,
    WorkerDiedError,
)
from .frontend import Frontend, InProcessFrontend, SocketFrontend
from .http_gateway import PROMETHEUS_CONTENT_TYPE, MetricsGateway
from .incidents import IncidentReporter
from .journal import OpsJournal
from .placement import (
    DEFAULT_BUCKETS,
    BucketMove,
    PlacementConfig,
    PlacementController,
    RebalancePlan,
    ShardMap,
    shard_of,
)
from .protocol import (
    ERROR_DEADLINE_EXCEEDED,
    ERROR_DISCONNECTED,
    ERROR_OVERLOADED,
    ERROR_UNAVAILABLE,
    ERROR_WORKER_FAILURE,
    NEED_KERNEL_PREFIX,
    KernelRuntimeRequest,
    ProgramRuntimesRequest,
    Request,
    Response,
    TileScoresRequest,
    UnknownKernelError,
    WireError,
    decode_request,
    encode_request,
    kernel_interner,
    recv_frame,
    send_frame,
)
from .prober import GoldenProbe, SyntheticProber
from .profiler import ContinuousProfiler
from .registry import ModelRegistry
from .resilience import (
    ANALYTICAL_VERSION,
    AnalyticalFallback,
    CircuitBreaker,
    ConnectionLost,
    CrashLoopBackoff,
    DeadlineExceeded,
    Overloaded,
    RetryPolicy,
    ServiceUnavailable,
    ServingFault,
    WorkerFailure,
    fault_for,
    idempotency_key,
)
from .rollout import (
    CANARY,
    IDLE,
    PROMOTED,
    ROLLED_BACK,
    ROLLOUT_STATES,
    SHADOW,
    CanaryFraction,
    FullActivation,
    RolloutConfig,
    RolloutController,
    RolloutPolicy,
    RolloutTransition,
    ShadowScore,
    regressed_checkpoint,
    request_unit_hash,
)
from .scheduler import MicroBatcher, PendingRequest
from .service import EXECUTOR_CHOICES, CostModelService, ResultCache, ServiceConfig
from .telemetry import (
    Histogram,
    Span,
    TelemetryRegistry,
    TraceContext,
    Tracer,
    slo_burn_rate,
    trace_unit_hash,
)

__all__ = [
    "ANALYTICAL_VERSION",
    "CANARY",
    "DEFAULT_BUCKETS",
    "ERROR_DEADLINE_EXCEEDED",
    "ERROR_DISCONNECTED",
    "ERROR_OVERLOADED",
    "ERROR_UNAVAILABLE",
    "ERROR_WORKER_FAILURE",
    "EXECUTOR_CHOICES",
    "FAULT_HOOKS",
    "FAULT_KINDS",
    "IDLE",
    "NEED_KERNEL_PREFIX",
    "PROMETHEUS_CONTENT_TYPE",
    "PROMOTED",
    "ROLLED_BACK",
    "ROLLOUT_STATES",
    "SHADOW",
    "Alert",
    "AlertEngine",
    "AnalyticalFallback",
    "AnomalyRule",
    "BucketMove",
    "BurnRateRule",
    "CanaryFraction",
    "CircuitBreaker",
    "CommandResult",
    "ConnectionLost",
    "ContinuousProfiler",
    "CostModelService",
    "CrashLoopBackoff",
    "DeadlineExceeded",
    "EvaluatorClient",
    "Executor",
    "Histogram",
    "IncidentReporter",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FeedbackCollector",
    "FeedbackSample",
    "Frontend",
    "FullActivation",
    "GoldenProbe",
    "InProcessFrontend",
    "InThreadExecutor",
    "KernelRuntimeRequest",
    "MetricsGateway",
    "MicroBatcher",
    "ModelRegistry",
    "OpsJournal",
    "Overloaded",
    "PendingRequest",
    "PlacementConfig",
    "PlacementController",
    "ProcessShardExecutor",
    "ProgramCommand",
    "ProgramRuntimesRequest",
    "RebalancePlan",
    "Request",
    "Response",
    "ResultCache",
    "RetryPolicy",
    "RolloutConfig",
    "ShardMap",
    "RolloutController",
    "RolloutPolicy",
    "RolloutTransition",
    "ServiceConfig",
    "ServiceEvaluator",
    "ServiceUnavailable",
    "ServingFault",
    "ShadowScore",
    "SocketEvaluator",
    "SocketFrontend",
    "Span",
    "SyntheticProber",
    "TelemetryRegistry",
    "ThresholdRule",
    "TileCommand",
    "TileScoresRequest",
    "TraceContext",
    "Tracer",
    "UnknownKernelError",
    "WindowSnapshot",
    "WireError",
    "WorkerDiedError",
    "WorkerFailure",
    "corrupt_bytes",
    "decode_request",
    "encode_request",
    "fault_for",
    "idempotency_key",
    "kernel_interner",
    "prediction_error",
    "recv_frame",
    "regressed_checkpoint",
    "request_key",
    "request_unit_hash",
    "send_frame",
    "shard_of",
    "slo_burn_rate",
    "tile_measurement",
    "trace_unit_hash",
]
