"""Characterization of the serving contract: every outcome x observer.

``CostModelService`` resolves a request as exactly one of an answer, a
result-cache hit, a typed error, or a ``degraded=True`` analytical
answer, and each resolution feeds the same observers: ``ServingStats``
(flat counters, per-shard and per-version entries, the SLO window), the
result cache, the feedback collector, the ops journal, the root span of
the request's trace, and the ``Response`` itself. Synthetic probes ride
the same route but must stay invisible to every business observer.

Each cell of the table below injects one known outcome, as business
traffic or as a probe, with the tracer attached or not, and asserts
*exactly* which observables moved — anything not listed must not move.
The file pins behaviour, not structure: it only touches public names, so
it runs unchanged against any refactor of the resolution path.
"""
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.autotuner import LearnedEvaluator
from repro.compiler import enumerate_tile_sizes
from repro.data import Scalers, build_tile_dataset
from repro.models import LearnedPerformanceModel, ModelConfig
from repro.models.trainer import TrainResult
from repro.serving import (
    ANALYTICAL_VERSION,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_WORKER_FAILURE,
    AnalyticalFallback,
    CommandResult,
    CostModelService,
    FeedbackCollector,
    InThreadExecutor,
    ModelRegistry,
    ProgramRuntimesRequest,
    ServiceConfig,
    ShadowScore,
    TileScoresRequest,
    Tracer,
    request_key,
)
from repro.workloads import vision

SMALL = dict(hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2, lstm_hidden=16)
VERSION = "v1"
MODEL_ERROR = "model raised on these inputs (scripted)"
INFRA_ERROR = "worker died (scripted)\nsecond line never reaches the journal"
BACKEND_ERROR = "backend down (scripted)"
BREAKER_REASON = "shard 0 circuit breaker is open"


@pytest.fixture(scope="module")
def corpus():
    ds = build_tile_dataset(
        [vision.image_embed(0)], max_kernels_per_program=6,
        max_tiles_per_kernel=6, seed=0,
    )
    return ds.records, Scalers.fit_tile(ds.records)


@pytest.fixture(scope="module")
def result(corpus):
    _, scalers = corpus
    cfg = ModelConfig(task="tile", reduction="column-wise", **SMALL)
    model = LearnedPerformanceModel(cfg, seed=0)
    return TrainResult(model=model, scalers=scalers, loss_history=[])


class ScriptedExecutor(InThreadExecutor):
    """The real in-thread backend with a switchable failure mode."""

    def __init__(self, registry, mode="ok"):
        config = ServiceConfig()
        super().__init__(
            registry, replicas=config.replicas, max_cached_kernels=config.max_cached_kernels
        )
        self.mode = mode

    def run(self, version, commands):
        if self.mode == "raise":
            raise RuntimeError(BACKEND_ERROR)
        if self.mode == "model_error":
            return [CommandResult(error=MODEL_ERROR) for _ in commands]
        if self.mode == "infra":
            return [
                CommandResult(error=INFRA_ERROR, infra=True) for _ in commands
            ]
        return super().run(version, commands)


class RecordingFeedback(FeedbackCollector):
    """A collector that also keeps every recorded prediction call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def record_prediction(self, version, key, predicted, request=None, shadow=False):
        self.calls.append((version, key, predicted, request, shadow))
        super().record_prediction(
            version, key, predicted, request=request, shadow=shadow
        )


class ListJournal:
    """The duck-typed ops journal: ``record(kind, **fields)``."""

    def __init__(self):
        self.events = []

    def record(self, kind, trace_id=None, **fields):
        self.events.append({"kind": kind, "trace_id": trace_id, **fields})


# ---------------------------------------------------------------------- #
# observation: one flat {dotted.key: number} view of every business observer
# ---------------------------------------------------------------------- #

FLAT_KEYS = (
    "requests", "errors", "cache_hits", "batches", "model_forwards",
    "shadow_forwards", "cache_hit_shadows", "degraded", "deadline_expired",
    "overload_rejections", "abandoned", "breaker_blocks",
    "slo_window_samples", "result_cache_entries", "result_cache_hits",
    "result_cache_misses", "fallback_answers", "fallback_failures",
    "feedback_predictions", "scheduler_submitted",
)
SHARD_KEYS = ("requests", "errors", "forwards")
BREAKER_KEYS = ("consecutive_failures", "opens")


def observe(service) -> dict:
    metrics = service.metrics()
    view = {key: float(metrics.get(key, 0.0)) for key in FLAT_KEYS}
    for shard, entry in metrics["per_shard"].items():
        for key in SHARD_KEYS:
            view[f"per_shard.{shard}.{key}"] = float(entry[key])
    for version, entry in metrics["per_version"].items():
        for key, value in entry.items():
            view[f"per_version.{version}.{key}"] = float(value)
    for shard, entry in metrics["breakers"].items():
        for key in BREAKER_KEYS:
            view[f"breakers.{shard}.{key}"] = float(entry[key])
    return view


def moved(before: dict, after: dict) -> dict:
    keys = set(before) | set(after)
    deltas = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in keys}
    return {k: v for k, v in deltas.items() if v != 0.0}


# ---------------------------------------------------------------------- #
# the table
# ---------------------------------------------------------------------- #

SERVED = {f"per_version.{VERSION}.served": 1}
SERVED_ERROR = {**SERVED, f"per_version.{VERSION}.errors": 1}
ON_SHARD = {"per_shard.0.requests": 1}
ON_SHARD_ERROR = {**ON_SHARD, "per_shard.0.errors": 1}
QUEUED = {"scheduler_submitted": 1}
LOOKED_UP = {"result_cache_misses": 1}
RESOLVED = {"requests": 1, "slo_window_samples": 1}
FAILED = {**RESOLVED, "errors": 1}
BREAKER_FAILURE = {"breakers.0.consecutive_failures": 1}

QUEUE_WAIT = ("queue.wait", "ok", {})
BATCH_CUT = ("batch.cut", "event", {"batch_size": 1})
ROUTE = ("route", "event", {"version": VERSION, "canary": False})
CUT = [QUEUE_WAIT, BATCH_CUT, ROUTE]


def dispatch(status):
    attrs = {"shard": 0, "kind": "tiles", "version": VERSION}
    return ("executor.dispatch", status, attrs)


def degraded_event(reason):
    return ("degraded", "event", {"reason": reason})


@dataclass(frozen=True)
class Outcome:
    """One row: how to provoke the outcome and what it must move.

    ``business`` / ``probe`` are the exact observable deltas for business
    traffic and for a ``synthetic=True`` probe; ``response`` the expected
    ``Response`` fields (``value`` / ``error`` by name, resolved in the
    test); ``root`` the root span's ``(status, attrs)`` and ``spans`` its
    direct children; ``journal`` the journal kinds business traffic
    writes (probes write none).
    """

    business: dict
    probe: dict
    response: dict
    root: tuple
    spans: list
    mode: str = "ok"
    prime: str | None = None  # "same": replay target; "infra": open breaker
    config: dict = field(default_factory=dict)
    request: dict = field(default_factory=dict)
    malformed: bool = False
    journal: tuple = ()
    predictions: int = 0


ANSWERED_PROBE = {
    **QUEUED, "batches": 1, "model_forwards": 1, "per_shard.0.forwards": 1,
}
ANSWERED_RESPONSE = dict(value="learned", model_version=VERSION)
ANSWERED_ROOT = ("ok", {"version": VERSION, "batch_size": 1, "shard": 0})
ERROR_ROOT = ("error", {"error_code": "error"})
DEGRADED_RESPONSE = dict(
    value="analytical", model_version=ANALYTICAL_VERSION, degraded=True
)

OUTCOMES = {
    "answered": Outcome(
        business={
            **ANSWERED_PROBE, **RESOLVED, **LOOKED_UP, **ON_SHARD, **SERVED,
            "result_cache_entries": 1, "feedback_predictions": 1,
        },
        probe=ANSWERED_PROBE,
        response=ANSWERED_RESPONSE,
        root=ANSWERED_ROOT,
        spans=CUT + [dispatch("ok")],
        predictions=1,
    ),
    # Cache hits are business-only: a probe of a cached request bypasses
    # the cache and is answered by a forward, leaving the cache untouched.
    "cache_hit": Outcome(
        prime="same",
        business={**RESOLVED, **SERVED, "cache_hits": 1, "result_cache_hits": 1},
        probe=ANSWERED_PROBE,
        response=dict(value="learned", model_version=VERSION, cache_hit=True),
        root=("ok", {"cache_hit": True}),
        spans=[("cache.hit", "event", {"version": VERSION})],
    ),
    "model_error": Outcome(
        mode="model_error",
        business={
            **QUEUED, **FAILED, **LOOKED_UP, **ON_SHARD_ERROR, **SERVED_ERROR,
            "batches": 1,
        },
        probe={**QUEUED, "batches": 1},
        response=dict(model_version=VERSION, error=MODEL_ERROR),
        root=ERROR_ROOT,
        spans=CUT + [dispatch("error")],
    ),
    "malformed": Outcome(
        malformed=True,
        business={**QUEUED, **FAILED, **SERVED_ERROR, "batches": 1},
        probe={**QUEUED, "batches": 1},
        response=dict(model_version=VERSION, error="traceback"),
        root=ERROR_ROOT,
        spans=CUT,
    ),
    "deadline_shed": Outcome(
        request={"deadline_s": 0.0},
        business={
            **QUEUED, **FAILED, **LOOKED_UP, **SERVED_ERROR,
            "deadline_expired": 1,
        },
        probe=QUEUED,
        response=dict(
            model_version=VERSION, error="deadline",
            error_code=ERROR_DEADLINE_EXCEEDED,
        ),
        root=("error", {"error_code": ERROR_DEADLINE_EXCEEDED}),
        spans=[],
    ),
    "breaker_blocked": Outcome(
        prime="infra",
        config=dict(breaker_failure_threshold=1, breaker_reset_s=3600.0),
        business={
            **QUEUED, **RESOLVED, **LOOKED_UP, **ON_SHARD, "batches": 1,
            "degraded": 1, "breaker_blocks": 1, "fallback_answers": 1,
        },
        probe={**QUEUED, "batches": 1, "fallback_answers": 1},
        response=DEGRADED_RESPONSE,
        root=("degraded", {}),
        spans=CUT + [
            ("breaker.block", "event", {"shard": 0}),
            degraded_event(BREAKER_REASON),
        ],
        journal=(BREAKER_REASON,),
    ),
    "infra_degraded": Outcome(
        mode="infra",
        business={
            **QUEUED, **RESOLVED, **LOOKED_UP, **ON_SHARD, **BREAKER_FAILURE,
            "batches": 1, "degraded": 1, "fallback_answers": 1,
        },
        probe={
            **QUEUED, **BREAKER_FAILURE, "batches": 1, "fallback_answers": 1,
        },
        response=DEGRADED_RESPONSE,
        root=("degraded", {}),
        spans=CUT + [dispatch("error"), degraded_event(INFRA_ERROR)],
        journal=(INFRA_ERROR.splitlines()[0],),
    ),
    "infra_no_fallback": Outcome(
        mode="infra",
        config=dict(degrade_to_analytical=False),
        business={
            **QUEUED, **FAILED, **LOOKED_UP, **ON_SHARD_ERROR, **SERVED_ERROR,
            **BREAKER_FAILURE, "batches": 1,
        },
        probe={**QUEUED, **BREAKER_FAILURE, "batches": 1},
        response=dict(
            model_version=VERSION, error=INFRA_ERROR,
            error_code=ERROR_WORKER_FAILURE,
        ),
        root=("error", {"error_code": ERROR_WORKER_FAILURE}),
        spans=CUT + [dispatch("error")],
    ),
    # The backend itself raising is nobody's shard: the requests fail
    # untyped and the per-shard breakdown does not move.
    "backend_raised": Outcome(
        mode="raise",
        business={
            **QUEUED, **FAILED, **LOOKED_UP, **SERVED_ERROR, "batches": 1,
        },
        probe={**QUEUED, "batches": 1},
        response=dict(model_version=VERSION, error="traceback"),
        root=ERROR_ROOT,
        spans=CUT + [dispatch("error")],
    ),
}

RESPONSE_DEFAULTS = dict(
    value=None, model_version=None, batch_size=1, cache_hit=False, error=None,
    canary=False, shadowed_by=None, error_code=None, degraded=False,
)


def _tile_request(corpus, index=0, n_tiles=4, **kwargs):
    kernel = corpus[0][index].kernel
    tiles = tuple(enumerate_tile_sizes(kernel)[:n_tiles])
    return TileScoresRequest(kernel=kernel, tiles=tiles, **kwargs)


def _serve(service, request):
    future = service.submit(request)
    service.flush()
    return future.result(timeout=5)


def _canonical(spans):
    return sorted(
        (name, status, tuple(sorted(attrs.items())))
        for name, status, attrs in spans
    )


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("synthetic", [False, True], ids=["business", "probe"])
@pytest.mark.parametrize("name", list(OUTCOMES))
def test_outcome_moves_exactly_its_observers(
    corpus, result, name, synthetic, traced
):
    spec = OUTCOMES[name]
    registry = ModelRegistry()
    registry.publish(result, version=VERSION)
    executor = ScriptedExecutor(registry)
    feedback = RecordingFeedback()
    journal = ListJournal()
    tracer = Tracer(sample_rate=1.0) if traced else None
    service = CostModelService(
        registry,
        ServiceConfig(result_cache_entries=64, **spec.config),
        executor=executor,
        feedback=feedback,
        tracer=tracer,
        journal=journal,
    )
    try:
        if spec.malformed:
            request = TileScoresRequest(kernel=None, tiles=(), synthetic=synthetic)
        else:
            request = _tile_request(corpus, synthetic=synthetic, **spec.request)
        if spec.prime == "same":
            assert _serve(service, _tile_request(corpus)).error is None
        elif spec.prime == "infra":
            executor.mode = "infra"
            assert _serve(service, _tile_request(corpus, index=1)).degraded
        executor.mode = spec.mode
        before = observe(service)
        journal_before = len(journal.events)
        predictions_before = len(feedback.calls)
        response = _serve(service, request)
        after = observe(service)
    finally:
        service.stop()

    # -- stats, SLO window, caches, breakers, feedback counters -------- #
    expected = spec.probe if synthetic else spec.business
    assert moved(before, after) == {k: float(v) for k, v in expected.items()}

    # -- the response, every field but latency_s ----------------------- #
    want = {**RESPONSE_DEFAULTS, **spec.response}
    if want["value"] == "learned":
        reference = LearnedEvaluator(result.model, corpus[1]).score_tiles_batched(
            request.kernel, list(request.tiles)
        )
    elif want["value"] == "analytical":
        reference = AnalyticalFallback().answer(request)
    else:
        reference = None
    if name == "cache_hit" and synthetic:
        want = {**RESPONSE_DEFAULTS, **ANSWERED_RESPONSE}
    if reference is None:
        assert response.value is None
    else:
        assert response.value.dtype == reference.dtype
        np.testing.assert_array_equal(response.value, reference)
    if want["error"] == "traceback":
        assert response.error.startswith("Traceback")
        if name == "backend_raised":
            assert BACKEND_ERROR in response.error
    elif want["error"] == "deadline":
        assert response.error.startswith("deadline expired before dispatch")
    else:
        assert response.error == want["error"]
    for attr in (
        "model_version", "batch_size", "cache_hit", "canary", "shadowed_by",
        "error_code", "degraded",
    ):
        assert getattr(response, attr) == want[attr], attr
    assert response.synthetic is synthetic
    assert response.latency_s >= 0.0
    if want["cache_hit"]:
        assert response.latency_s == 0.0

    # -- feedback predictions: learned business answers only ----------- #
    calls = feedback.calls[predictions_before:]
    if synthetic or not spec.predictions:
        assert calls == []
    else:
        ((version, key, predicted, recorded, shadow),) = calls
        assert (version, key, shadow) == (VERSION, request_key(request), False)
        assert predicted is response.value
        assert recorded.cache_key() == request.cache_key()

    # -- journal: degradations of business traffic only ---------------- #
    events = journal.events[journal_before:]
    if synthetic:
        assert events == []
    else:
        assert events == [
            {
                "kind": "service.degraded", "trace_id": response.trace_id,
                "shard": 0, "version": VERSION, "reason": reason,
            }
            for reason in spec.journal
        ]

    # -- the trace: root status + attrs + child spans/events ----------- #
    if not traced:
        assert response.trace_id is None
        return
    tree = tracer.trace(response.trace_id)
    (root,) = tree["roots"]
    root_status, root_attrs = spec.root
    spans = spec.spans
    if name == "cache_hit" and synthetic:
        (root_status, root_attrs), spans = ANSWERED_ROOT, CUT + [dispatch("ok")]
    assert root["name"] == "request"
    assert root["end"] is not None
    assert (root["status"], root["attrs"]) == (root_status, root_attrs)
    children = [(c["name"], c["status"], c["attrs"]) for c in root["children"]]
    assert _canonical(children) == _canonical(spans)
    for child in root["children"]:
        assert child["end"] is not None
        forwards = [g["name"] for g in child["children"]]
        answered = child["name"] == "executor.dispatch" and child["status"] == "ok"
        assert forwards == (["worker.forward"] if answered else [])


# ---------------------------------------------------------------------- #
# shadow scoring slices a coalesced result exactly like the response path
# ---------------------------------------------------------------------- #


def test_shadow_predictions_equal_response_values(corpus, result):
    """With the active checkpoint's own bytes staged under ``ShadowScore``
    the shadow forward repeats the response forward, so each request's
    recorded shadow prediction must equal its response value — same
    slice, same length, same order — for every group kind."""
    records, _ = corpus
    registry = ModelRegistry()
    registry.publish(result, version=VERSION)
    registry.publish(
        registry.blob(VERSION), version="staged", activate=False, stage=True
    )
    feedback = RecordingFeedback()
    service = CostModelService(
        registry,
        ServiceConfig(result_cache_entries=0),
        rollout=ShadowScore("staged", 1.0),
        feedback=feedback,
    )
    kernels = [r.kernel for r in records[:4]]
    tiles = enumerate_tile_sizes(kernels[0])
    requests = [
        # One coalesced tile group of three unequal slices...
        TileScoresRequest(kernel=kernels[0], tiles=tuple(tiles[:3])),
        TileScoresRequest(kernel=kernels[0], tiles=tuple(tiles[3:4])),
        TileScoresRequest(kernel=kernels[0], tiles=tuple(tiles[4:6])),
        # ...and one programs group of unequal populations, kernel
        # runtimes (one-kernel programs) included.
        ProgramRuntimesRequest(programs=((kernels[1],),)),
        ProgramRuntimesRequest(programs=((kernels[2],),)),
        ProgramRuntimesRequest(programs=((kernels[3],),)),
        ProgramRuntimesRequest(programs=((kernels[0], kernels[1]),)),
        ProgramRuntimesRequest(
            programs=((kernels[2],), (kernels[1], kernels[3]), (kernels[0],))
        ),
    ]
    probe = TileScoresRequest(
        kernel=kernels[0], tiles=tuple(tiles[:2]), synthetic=True
    )
    try:
        futures = [service.submit(r) for r in requests + [probe]]
        service.flush()
        responses = [f.result(timeout=5) for f in futures]
        per_version = service.metrics()["per_version"]
    finally:
        service.stop()
    shadows = {
        id(request): predicted
        for version, _, predicted, request, shadow in feedback.calls
        if shadow and version == "staged"
    }
    served = [c for c in feedback.calls if not c[4]]
    assert len(served) == len(requests)
    assert len(shadows) == len(requests)  # the probe is never shadowed
    assert per_version["staged"]["shadow"] == float(len(requests))
    for request, response in zip(requests, responses[:-1]):
        assert response.error is None
        assert response.model_version == VERSION
        assert response.shadowed_by == "staged"
        shadow = shadows[id(request)]
        assert type(shadow) is type(response.value)
        expected_len = len(
            request.tiles
            if isinstance(request, TileScoresRequest)
            else request.programs
        )
        assert shadow.shape == response.value.shape == (expected_len,)
        np.testing.assert_array_equal(shadow, response.value)
    assert responses[-1].error is None
    assert responses[-1].synthetic and responses[-1].shadowed_by is None
