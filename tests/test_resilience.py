"""Tests for the resilience layer: chaos harness, deadlines, degradation.

The serving contract under test: **every request resolves within its
deadline as exactly one of a correct answer, a typed error, or a
degraded-flagged analytical answer — never a hang.** Specifically:

* the fault-injection harness is deterministic (``after``/``every_n``/
  ``count`` schedules, seeded probability, per-shard targeting) and the
  healthy path is bitwise-identical with faults disabled;
* deadlines ride the wire, expired requests are shed pre-dispatch with a
  typed ``deadline_exceeded``, and admission control sheds at the door
  with a typed ``Overloaded``;
* per-shard circuit breakers open on consecutive infrastructure
  failures, admit a single half-open probe, and show up in ``metrics()``;
* breaker-open / worker-dead requests degrade to the analytical TPU
  model (``degraded=True``, never result-cached);
* the process executor survives killed, hung (SIGSTOP), and
  crash-looping workers with bounded wall time, and the registry's disk
  spill is atomic under a mid-write crash;
* the socket frontend resolves in-flight requests with a typed
  disconnect when a peer drops, and clients retry transient faults with
  deterministic backoff.
"""
import json
import socket as socketlib
import struct
import threading
import time
from unittest import mock

import numpy as np
import pytest
from oracles import service_batcher

from repro.autotuner import LearnedEvaluator
from repro.compiler import default_tile, enumerate_tile_sizes
from repro.data import Scalers, build_tile_dataset
from repro.models import LearnedPerformanceModel, ModelConfig
from repro.models.trainer import TrainResult
from repro.serving import (
    ERROR_DEADLINE_EXCEEDED,
    ERROR_OVERLOADED,
    ERROR_WORKER_FAILURE,
    ANALYTICAL_VERSION,
    AnalyticalFallback,
    CircuitBreaker,
    CommandResult,
    ConnectionLost,
    CostModelService,
    CrashLoopBackoff,
    DeadlineExceeded,
    EvaluatorClient,
    Executor,
    FaultInjector,
    FaultPlan,
    FaultRule,
    ModelRegistry,
    Overloaded,
    ProgramRuntimesRequest,
    Response,
    RetryPolicy,
    ServiceConfig,
    ServiceEvaluator,
    SocketEvaluator,
    ShardMap,
    SocketFrontend,
    TileScoresRequest,
    corrupt_bytes,
    encode_request,
    fault_for,
    idempotency_key,
)
from repro.serving.protocol import frame_bytes
from repro.tpu import AnalyticalModel
from repro.workloads import vision

SMALL = dict(hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2, lstm_hidden=16)


@pytest.fixture(scope="module")
def corpus():
    ds = build_tile_dataset(
        [vision.image_embed(0)], max_kernels_per_program=6,
        max_tiles_per_kernel=6, seed=0,
    )
    scalers = Scalers.fit_tile(ds.records)
    return ds.records, scalers


@pytest.fixture(scope="module")
def result_a(corpus):
    _, scalers = corpus
    cfg = ModelConfig(task="tile", reduction="column-wise", **SMALL)
    model = LearnedPerformanceModel(cfg, seed=0)
    return TrainResult(model=model, scalers=scalers, loss_history=[])


def _tile_request(corpus, index=0, n_tiles=4, **kwargs):
    records, _ = corpus
    kernel = records[index].kernel
    tiles = tuple(enumerate_tile_sizes(kernel)[:n_tiles])
    return TileScoresRequest(kernel=kernel, tiles=tiles, **kwargs)


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------- #
# fault harness
# ---------------------------------------------------------------------- #


class TestFaultHarness:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(hook="nope", kind="kill")
        with pytest.raises(ValueError):
            FaultRule(hook="worker.forward", kind="explode")
        with pytest.raises(ValueError):
            FaultRule(hook="worker.forward", kind="kill", count=0)
        with pytest.raises(ValueError):
            FaultRule(hook="worker.forward", kind="kill", probability=0.0)

    def test_after_every_n_count_schedule(self):
        rule = FaultRule(
            hook="executor.dispatch", kind="delay", after=2, every_n=3, count=2
        )
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        fired = [
            injector.fire("executor.dispatch") is not None for _ in range(12)
        ]
        # Events 0,1 are warmup; eligible events 2,5,8,... fire until the
        # count bound (2 firings) is spent.
        assert fired == [False, False, True, False, False, True] + [False] * 6
        assert injector.exhausted()
        (snap,) = injector.snapshot()
        assert snap["events"] == 12 and snap["fired"] == 2

    def test_shard_targeting(self):
        rule = FaultRule(
            hook="executor.dispatch", kind="kill", shard=1, count=None
        )
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        assert injector.fire("executor.dispatch", shard=0) is None
        assert injector.fire("executor.dispatch", shard=1) is rule
        # Mismatched-shard events do not advance the rule's counter.
        assert injector.snapshot()[0]["events"] == 1

    def test_unlisted_hook_is_silent(self):
        injector = FaultInjector(
            FaultPlan(rules=(FaultRule(hook="worker.forward", kind="kill"),))
        )
        assert injector.fire("frontend.recv") is None

    def test_subset_restricts_hooks(self):
        plan = FaultPlan(
            rules=(
                FaultRule(hook="worker.forward", kind="kill"),
                FaultRule(hook="executor.dispatch", kind="hang"),
            ),
            seed=3,
        )
        worker_plan = plan.subset("worker.")
        assert worker_plan.hooks() == {"worker.forward"}
        assert worker_plan.seed == 3

    def test_corrupt_bytes_deterministic_single_flip(self):
        blob = bytes(range(32))
        corrupted = corrupt_bytes(blob)
        assert corrupted == corrupt_bytes(blob)
        assert len(corrupted) == len(blob)
        diff = [i for i in range(len(blob)) if corrupted[i] != blob[i]]
        assert len(diff) == 1
        assert corrupt_bytes(b"") == b"\x00"

    def test_probability_is_seeded(self):
        def firings(seed):
            rule = FaultRule(
                hook="frontend.recv", kind="drop", probability=0.5, count=None
            )
            injector = FaultInjector(FaultPlan(rules=(rule,), seed=seed))
            return [
                injector.fire("frontend.recv") is not None for _ in range(64)
            ]

        assert firings(7) == firings(7)
        assert any(firings(7)) and not all(firings(7))

    def test_disarmed_injector_is_inert(self):
        rule = FaultRule(hook="frontend.recv", kind="drop", after=1, count=1)
        injector = FaultInjector(FaultPlan(rules=(rule,)), armed=False)
        for _ in range(4):
            assert injector.fire("frontend.recv") is None
        # Disarmed events never touched the counters: the `after` budget
        # is intact when the chaos phase arms the injector.
        assert injector.snapshot()[0]["events"] == 0
        injector.arm()
        assert injector.fire("frontend.recv") is None  # after=1 warmup
        assert injector.fire("frontend.recv") is rule

    def test_first_matching_rule_wins(self):
        delay = FaultRule(hook="frontend.recv", kind="delay", count=None)
        drop = FaultRule(hook="frontend.recv", kind="drop", count=None)
        injector = FaultInjector(FaultPlan(rules=(delay, drop)))
        assert injector.fire("frontend.recv") is delay
        # Both rules' event counters advance even though only one fired.
        assert [s["events"] for s in injector.snapshot()] == [1, 1]

    def test_filter_blob_sleeps_delay_rule_and_passes_blob(self, monkeypatch):
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        rule = FaultRule(hook="registry.load", kind="delay", delay_s=0.01, count=1)
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        blob = bytes(range(16))
        assert injector.filter_blob("registry.load", blob) == blob
        assert injector.filter_blob("registry.load", blob) == blob  # count spent
        assert slept == [0.01]
        assert injector.snapshot()[0]["fired"] == 1

    def test_filter_blob_corrupts_without_sleeping(self, monkeypatch):
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        rule = FaultRule(hook="registry.load", kind="corrupt", delay_s=0.01, count=1)
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        blob = bytes(range(16))
        assert injector.filter_blob("registry.load", blob) == corrupt_bytes(blob)
        assert slept == []


# ---------------------------------------------------------------------- #
# retry policy / idempotency
# ---------------------------------------------------------------------- #


class TestRetryPolicy:
    @mock.patch("repro.serving.resilience.BACKOFF_MULTIPLIER", 2.0)
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_backoff_s=0.1, max_backoff_s=0.5)
        backoffs = [policy.backoff_s(i, "key") for i in range(6)]
        caps = [0.1, 0.2, 0.4, 0.5, 0.5, 0.5]
        for value, cap in zip(backoffs, caps):
            assert cap / 2 <= value < cap
        assert backoffs == [policy.backoff_s(i, "key") for i in range(6)]

    def test_jitter_spreads_distinct_keys(self):
        policy = RetryPolicy(base_backoff_s=0.1)
        assert policy.backoff_s(0, "a") != policy.backoff_s(0, "b")

    def test_retryable_codes(self):
        policy = RetryPolicy()
        assert policy.retryable(ERROR_OVERLOADED)
        assert policy.retryable(ERROR_WORKER_FAILURE)
        assert not policy.retryable(ERROR_DEADLINE_EXCEEDED)
        assert not policy.retryable(None)

    def test_idempotency_key_is_content_derived(self, corpus):
        a1 = _tile_request(corpus, index=0)
        a2 = _tile_request(corpus, index=0)
        b = _tile_request(corpus, index=1)
        assert idempotency_key(a1) == idempotency_key(a2)
        assert idempotency_key(a1) != idempotency_key(b)


# ---------------------------------------------------------------------- #
# circuit breaker / crash-loop backoff
# ---------------------------------------------------------------------- #


class TestCircuitBreaker:
    def test_opens_at_threshold_and_probes_once(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_s=2.0, clock=clock)
        assert breaker.state == "closed" and breaker.allow()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.advance(1.0)
        assert not breaker.allow()
        clock.advance(1.5)  # past reset_s: exactly one half-open probe
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_s=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.snapshot()["opens"] == 2

    def test_open_seconds_accounting(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_s=10.0, clock=clock)
        breaker.record_failure()
        clock.advance(3.0)
        assert breaker.open_seconds() == pytest.approx(3.0)
        clock.advance(7.5)
        assert breaker.allow()  # half-open probe
        breaker.record_success()
        assert breaker.open_seconds() == pytest.approx(10.5)
        clock.advance(5.0)  # closed time does not accrue
        assert breaker.open_seconds() == pytest.approx(10.5)


class TestCrashLoopBackoff:
    @mock.patch("repro.serving.resilience.CRASH_BACKOFF_BASE_S", 0.5)
    @mock.patch("repro.serving.resilience.CRASH_BACKOFF_MAX_S", 4.0)
    def test_first_failure_is_free(self):
        clock = FakeClock()
        backoff = CrashLoopBackoff(clock=clock)
        assert backoff.record_failure() == 0.0
        assert backoff.remaining() == 0.0

    @mock.patch("repro.serving.resilience.CRASH_BACKOFF_BASE_S", 0.5)
    @mock.patch("repro.serving.resilience.CRASH_BACKOFF_MAX_S", 4.0)
    def test_window_doubles_then_caps(self):
        clock = FakeClock()
        backoff = CrashLoopBackoff(clock=clock)
        backoff.record_failure()
        assert backoff.record_failure() == pytest.approx(0.5)
        assert backoff.remaining() == pytest.approx(0.5)
        clock.advance(0.2)
        assert backoff.remaining() == pytest.approx(0.3)
        assert backoff.record_failure() == pytest.approx(1.0)
        assert backoff.record_failure() == pytest.approx(2.0)
        assert backoff.record_failure() == pytest.approx(4.0)
        assert backoff.record_failure() == pytest.approx(4.0)  # capped

    @mock.patch("repro.serving.resilience.CRASH_BACKOFF_BASE_S", 0.5)
    def test_success_resets(self):
        clock = FakeClock()
        backoff = CrashLoopBackoff(clock=clock)
        backoff.record_failure()
        backoff.record_failure()
        backoff.record_success()
        assert backoff.failures == 0 and backoff.remaining() == 0.0
        assert backoff.record_failure() == 0.0  # first-failure grace again


# ---------------------------------------------------------------------- #
# analytical fallback
# ---------------------------------------------------------------------- #


class TestAnalyticalFallback:
    def test_answers_all_request_shapes(self, corpus):
        records, _ = corpus
        fallback = AnalyticalFallback()
        tile_req = _tile_request(corpus)
        scores = fallback.answer(tile_req)
        assert scores.shape == (len(tile_req.tiles),)
        assert np.all(np.isfinite(scores)) and np.all(scores > 0)
        kernel = records[0].kernel
        runtime = fallback.answer(ProgramRuntimesRequest(programs=((kernel,),)))
        assert runtime.shape == (1,)
        assert runtime[0] == AnalyticalModel().estimate(kernel, default_tile(kernel))
        programs = ProgramRuntimesRequest(
            programs=(tuple(r.kernel for r in records[:3]),)
        )
        runtimes = fallback.answer(programs)
        assert runtimes.shape == (1,) and runtimes[0] > 0
        assert fallback.answers == 3 and fallback.failures == 0

    def test_unsupported_request_counts_failure(self):
        fallback = AnalyticalFallback()
        with pytest.raises(Exception):
            fallback.answer(object())
        assert fallback.failures == 1 and fallback.answers == 0


# ---------------------------------------------------------------------- #
# wire: deadlines and typed errors
# ---------------------------------------------------------------------- #


class TestResilienceOnTheWire:
    def test_deadline_rides_the_wire(self, corpus):
        from repro.serving import decode_request

        request = _tile_request(corpus, deadline_s=0.25)
        decoded = decode_request(encode_request(request))
        assert decoded.deadline_s == 0.25
        bare = decode_request(encode_request(_tile_request(corpus)))
        assert bare.deadline_s is None

    def test_deadline_not_in_cache_key(self, corpus):
        assert (
            _tile_request(corpus, deadline_s=0.25).cache_key()
            == _tile_request(corpus).cache_key()
        )

    def test_error_code_and_degraded_roundtrip(self):
        response = Response(
            value=None,
            model_version="v1",
            error="shed",
            error_code=ERROR_DEADLINE_EXCEEDED,
        )
        decoded = Response.from_bytes(response.to_bytes())
        assert decoded.error_code == ERROR_DEADLINE_EXCEEDED
        degraded = Response(
            value=np.array([1.5]), model_version=ANALYTICAL_VERSION, degraded=True
        )
        assert Response.from_bytes(degraded.to_bytes()).degraded is True

    def test_pre_resilience_header_still_decodes(self):
        """Frames from an older peer (no error_code/degraded keys) decode
        with the new fields defaulted."""
        blob = Response(value=np.array([2.0]), model_version="v1").to_bytes()
        (header_len,) = struct.unpack_from(">I", blob, 0)
        header = json.loads(blob[4:4 + header_len].decode())
        del header["error_code"], header["degraded"]
        old = json.dumps(header).encode()
        rebuilt = struct.pack(">I", len(old)) + old + blob[4 + header_len:]
        decoded = Response.from_bytes(rebuilt)
        assert decoded.error_code is None and decoded.degraded is False
        np.testing.assert_array_equal(decoded.value, [2.0])

    def test_fault_for_maps_codes(self):
        shed = Response(
            value=None, model_version="v1", error="x",
            error_code=ERROR_DEADLINE_EXCEEDED,
        )
        assert isinstance(fault_for(shed), DeadlineExceeded)
        unknown = Response(
            value=None, model_version="v1", error="x", error_code="new_code"
        )
        fault = fault_for(unknown)
        assert fault is not None and fault.code == "unavailable"
        assert fault_for(Response(value=1.0, model_version="v1")) is None


# ---------------------------------------------------------------------- #
# scheduler: admission control + deadline stamping
# ---------------------------------------------------------------------- #


class TestSchedulerResilience:
    def test_max_pending_sheds_typed(self, corpus):
        batcher = service_batcher(max_batch_size=8, max_pending=2, adaptive_flush=False)
        batcher.submit(_tile_request(corpus, index=0))
        batcher.submit(_tile_request(corpus, index=1))
        with pytest.raises(Overloaded):
            batcher.submit(_tile_request(corpus, index=2))
        assert batcher.rejected == 1
        batcher.drain()
        batcher.submit(_tile_request(corpus, index=2))  # room again

    def test_expires_at_stamped_from_the_request(self, corpus):
        batcher = service_batcher()
        batcher.submit(_tile_request(corpus, deadline_s=0.5))
        batcher.submit(_tile_request(corpus, index=1))
        own, unbounded = batcher.drain()
        assert own.expires_at == pytest.approx(own.enqueued_at + 0.5)
        assert unbounded.expires_at is None


# ---------------------------------------------------------------------- #
# service: shedding, breakers, degradation
# ---------------------------------------------------------------------- #


class ScriptedExecutor(Executor):
    """Stub backend: fails the first ``fail_first`` run() calls with an
    infrastructure error, then serves zeros."""

    num_shards = 1

    def __init__(self, fail_first=0):
        self.shard_map = ShardMap.uniform(1)
        self.fail_first = fail_first
        self.calls = 0

    def run(self, version, commands):
        self.calls += 1
        if self.calls <= self.fail_first:
            return [
                CommandResult(error="worker died (scripted)", infra=True)
                for _ in commands
            ]
        results = []
        for command in commands:
            n = len(getattr(command, "tiles", None) or command.programs)
            results.append(CommandResult(value=np.zeros(n, dtype=np.float32)))
        return results

    def stats(self):
        return {"calls": self.calls}


class TestServiceResilience:
    def test_expired_request_shed_with_typed_error(self, corpus, result_a):
        service = CostModelService(
            result_a, ServiceConfig(result_cache_entries=0)
        )
        try:
            future = service.submit(_tile_request(corpus, deadline_s=0.01))
            time.sleep(0.05)
            service.flush()
            response = future.result(timeout=5)
            assert response.error_code == ERROR_DEADLINE_EXCEEDED
            assert response.value is None
            assert service.metrics()["deadline_expired"] == 1.0
        finally:
            service.stop()

    def test_admission_control_typed_overload(self, corpus, result_a):
        service = CostModelService(
            result_a, ServiceConfig(max_pending=1, result_cache_entries=0)
        )
        try:
            service.submit(_tile_request(corpus, index=0))
            with pytest.raises(Overloaded):
                service.submit(_tile_request(corpus, index=1))
            assert service.metrics()["overload_rejections"] == 1.0
            service.flush()
        finally:
            service.stop()

    def test_infra_failure_degrades_to_analytical(self, corpus, result_a):
        executor = ScriptedExecutor(fail_first=10**9)
        service = CostModelService(
            result_a,
            ServiceConfig(breaker_failure_threshold=2, breaker_reset_s=60.0,
                          result_cache_entries=64),
            executor=executor,
        )
        try:
            request = _tile_request(corpus)
            reference = AnalyticalFallback().answer(request)
            future = service.submit(request)
            service.flush()
            response = future.result(timeout=5)
            assert response.degraded is True
            assert response.model_version == ANALYTICAL_VERSION
            np.testing.assert_array_equal(response.value, reference)
            # Degraded answers are never result-cached: the replay is
            # degraded again, not a cache hit of an analytical value.
            again = service.submit(request)
            service.flush()
            assert again.result(timeout=5).degraded is True
            assert not again.result(timeout=5).cache_hit
            # A kernel runtime (a one-kernel program) degrades to the
            # analytical estimate at the kernel's default tile.
            kernel = request.kernel
            client = ServiceEvaluator(service)
            assert client.kernel_runtime(kernel) == AnalyticalModel().estimate(
                kernel, default_tile(kernel)
            )
            assert client.degraded_responses == 1
            metrics = service.metrics()
            assert metrics["degraded"] >= 3.0
            assert metrics["fallback_answers"] >= 3.0
        finally:
            service.stop()

    def test_breaker_opens_and_blocks_executor(self, corpus, result_a):
        executor = ScriptedExecutor(fail_first=10**9)
        service = CostModelService(
            result_a,
            ServiceConfig(breaker_failure_threshold=2, breaker_reset_s=60.0,
                          result_cache_entries=0),
            executor=executor,
        )
        try:
            for index in range(2):  # two infra failures open the breaker
                future = service.submit(_tile_request(corpus, index=index))
                service.flush()
                future.result(timeout=5)
            calls_when_open = executor.calls
            future = service.submit(_tile_request(corpus, index=2))
            service.flush()
            response = future.result(timeout=5)
            assert response.degraded is True
            assert executor.calls == calls_when_open  # breaker-gated
            metrics = service.metrics()
            assert metrics["breakers"]["0"]["state"] == "open"
            assert metrics["breakers"]["0"]["opens"] >= 1
            assert metrics["breaker_open_seconds"] > 0.0
            assert metrics["breaker_blocks"] >= 1.0
        finally:
            service.stop()

    def test_half_open_probe_recovers(self, corpus, result_a):
        executor = ScriptedExecutor(fail_first=2)
        service = CostModelService(
            result_a,
            ServiceConfig(breaker_failure_threshold=2, breaker_reset_s=0.05,
                          result_cache_entries=0),
            executor=executor,
        )
        try:
            for index in range(2):
                future = service.submit(_tile_request(corpus, index=index))
                service.flush()
                assert future.result(timeout=5).degraded is True
            assert service.metrics()["breakers"]["0"]["state"] == "open"
            time.sleep(0.1)  # past reset_s: next dispatch is the probe
            future = service.submit(_tile_request(corpus, index=2))
            service.flush()
            response = future.result(timeout=5)
            assert response.degraded is False and response.error is None
            metrics = service.metrics()
            assert metrics["breakers"]["0"]["state"] == "closed"
            assert metrics["breakers"]["0"]["probes"] >= 1
        finally:
            service.stop()

    def test_degradation_disabled_fails_typed(self, corpus, result_a):
        executor = ScriptedExecutor(fail_first=10**9)
        service = CostModelService(
            result_a,
            ServiceConfig(degrade_to_analytical=False, result_cache_entries=0),
            executor=executor,
        )
        try:
            future = service.submit(_tile_request(corpus))
            service.flush()
            response = future.result(timeout=5)
            assert response.error_code == ERROR_WORKER_FAILURE
            assert response.degraded is False and response.value is None
        finally:
            service.stop()

    def test_healthy_path_bitwise_identical_with_resilience_defaults(
        self, corpus, result_a
    ):
        """Faults disabled + resilience defaults = the exact pre-resilience
        responses (value bytes, version stamp, no degraded/error tags)."""
        records, scalers = corpus
        direct = LearnedEvaluator(result_a.model, scalers)
        service = CostModelService(
            result_a, ServiceConfig(result_cache_entries=0)
        )
        try:
            client = ServiceEvaluator(
                service, deadline_s=60.0, retry=RetryPolicy()
            )
            for record in records[:4]:
                tiles = enumerate_tile_sizes(record.kernel)[:5]
                served = client.score_tiles_batched(record.kernel, tiles)
                reference = direct.score_tiles_batched(record.kernel, tiles)
                np.testing.assert_array_equal(served, reference)
                assert served.dtype == reference.dtype
                assert client.last_response.degraded is False
                assert client.last_response.error_code is None
            assert client.retries == 0 and client.degraded_responses == 0
        finally:
            service.stop()


# ---------------------------------------------------------------------- #
# client retry loop
# ---------------------------------------------------------------------- #


class ScriptedClient(EvaluatorClient):
    """Client whose transport follows a script of outcomes."""

    def __init__(self, outcomes, **kwargs):
        super().__init__(**kwargs)
        self.outcomes = list(outcomes)
        self.attempts = 0

    def _call_once(self, request):
        self.attempts += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestClientRetry:
    def _ok(self):
        return Response(value=np.zeros(4, dtype=np.float32), model_version="v1")

    def test_retries_transient_faults_then_succeeds(self, corpus):
        client = ScriptedClient(
            [Overloaded("full"), ConnectionLost("reset"), self._ok()],
            retry=RetryPolicy(max_attempts=4, base_backoff_s=0.001),
        )
        scores = client.score_tiles_batched(
            *_request_parts(_tile_request(corpus))
        )
        assert scores.shape == (4,)
        assert client.attempts == 3 and client.retries == 2

    def test_retries_typed_error_responses(self, corpus):
        shed = Response(
            value=None, model_version="v1", error="queue full",
            error_code=ERROR_OVERLOADED,
        )
        client = ScriptedClient(
            [shed, self._ok()],
            retry=RetryPolicy(max_attempts=3, base_backoff_s=0.001),
        )
        client.score_tiles_batched(*_request_parts(_tile_request(corpus)))
        assert client.attempts == 2

    def test_non_retryable_fault_raises_immediately(self, corpus):
        client = ScriptedClient(
            [DeadlineExceeded("spent"), self._ok()],
            retry=RetryPolicy(max_attempts=4, base_backoff_s=0.001),
        )
        with pytest.raises(DeadlineExceeded):
            client.score_tiles_batched(*_request_parts(_tile_request(corpus)))
        assert client.attempts == 1

    def test_exhausted_retries_raise_last_fault(self, corpus):
        client = ScriptedClient(
            [Overloaded("full")] * 2,
            retry=RetryPolicy(max_attempts=2, base_backoff_s=0.001),
        )
        with pytest.raises(Overloaded):
            client.score_tiles_batched(*_request_parts(_tile_request(corpus)))
        assert client.attempts == 2

    def test_no_policy_raises_first_fault(self, corpus):
        client = ScriptedClient([Overloaded("full"), self._ok()])
        with pytest.raises(Overloaded):
            client.score_tiles_batched(*_request_parts(_tile_request(corpus)))
        assert client.attempts == 1

    def test_deadline_stamped_on_requests(self, corpus):
        seen = []

        class Spy(ScriptedClient):
            def _call_once(self, request):
                seen.append(request.deadline_s)
                return super()._call_once(request)

        client = Spy([self._ok(), self._ok()], deadline_s=1.5)
        client.score_tiles_batched(*_request_parts(_tile_request(corpus)))
        client._call(_tile_request(corpus, deadline_s=0.2))
        assert seen == [1.5, 0.2]  # explicit deadline wins over the default

    def test_degraded_responses_counted(self, corpus):
        degraded = Response(
            value=np.ones(4), model_version=ANALYTICAL_VERSION, degraded=True
        )
        client = ScriptedClient([degraded])
        client.score_tiles_batched(*_request_parts(_tile_request(corpus)))
        assert client.degraded_responses == 1


def _request_parts(request):
    return request.kernel, list(request.tiles)


# ---------------------------------------------------------------------- #
# socket frontend: disconnects, partial frames, recv faults
# ---------------------------------------------------------------------- #


@pytest.fixture()
def thread_service(result_a):
    service = CostModelService(
        result_a, ServiceConfig(result_cache_entries=0)
    ).start()
    yield service
    service.stop()


class TestFrontendResilience:
    def test_partial_frame_then_close_does_not_wedge(
        self, corpus, result_a, thread_service
    ):
        records, scalers = corpus
        with SocketFrontend(thread_service) as frontend:
            body = encode_request(_tile_request(corpus))
            frame = frame_bytes(1, body)
            with socketlib.create_connection(frontend.address, timeout=10) as sock:
                sock.sendall(frame[: len(frame) // 2])  # mid-frame, then gone
            time.sleep(0.2)
            # The frontend must still serve new clients.
            direct = LearnedEvaluator(result_a.model, scalers)
            with SocketEvaluator(frontend.address, timeout_s=30) as remote:
                tiles = enumerate_tile_sizes(records[0].kernel)[:4]
                np.testing.assert_array_equal(
                    remote.score_tiles_batched(records[0].kernel, tiles),
                    direct.score_tiles_batched(records[0].kernel, tiles),
                )

    def test_abrupt_close_resolves_inflight_typed(self, corpus, result_a):
        """A peer that disconnects with requests in flight: the futures
        resolve with a typed ``disconnected`` error (no waiter blocks) and
        the service sheds them as abandoned instead of spending forwards."""
        service = CostModelService(
            result_a,
            ServiceConfig(
                flush_interval_s=0.3, adaptive_flush=False,
                result_cache_entries=0,
            ),
        ).start()
        try:
            with SocketFrontend(service) as frontend:
                body = encode_request(_tile_request(corpus))
                sock = socketlib.create_connection(frontend.address, timeout=10)
                sock.sendall(frame_bytes(1, body))
                deadline = time.monotonic() + 5
                while frontend.stats()["frames_in"] < 1:
                    if time.monotonic() > deadline:
                        pytest.fail("frame never ingested")
                    time.sleep(0.01)
                sock.close()  # the request is still queued (0.3s flush)
                deadline = time.monotonic() + 5
                while frontend.stats()["abandoned_requests"] < 1:
                    if time.monotonic() > deadline:
                        pytest.fail("in-flight future never resolved on drop")
                    time.sleep(0.01)
                stats = frontend.stats()
                assert stats["dropped_connections"] >= 1
                time.sleep(0.5)  # let the batch cut and shed run
                assert service.metrics()["abandoned"] >= 1.0
        finally:
            service.stop()

    def test_recv_drop_fault_is_retried_by_client(
        self, corpus, result_a, thread_service
    ):
        records, scalers = corpus
        plan = FaultPlan(
            rules=(FaultRule(hook="frontend.recv", kind="drop", count=1),)
        )
        direct = LearnedEvaluator(result_a.model, scalers)
        with SocketFrontend(
            thread_service, fault_injector=FaultInjector(plan)
        ) as frontend:
            with SocketEvaluator(
                frontend.address, timeout_s=30,
                retry=RetryPolicy(base_backoff_s=0.01),
            ) as remote:
                tiles = enumerate_tile_sizes(records[0].kernel)[:4]
                scores = remote.score_tiles_batched(records[0].kernel, tiles)
                np.testing.assert_array_equal(
                    scores, direct.score_tiles_batched(records[0].kernel, tiles)
                )
                assert remote.reconnects == 1 and remote.retries == 1

    def test_recv_delay_fires_once_and_changes_no_score(
        self, corpus, result_a, thread_service
    ):
        """A ``delay`` rule at ``frontend.recv`` only sleeps ingestion: it
        fires once, and every request resolves ok with the scores of the
        same frontend without faults, bitwise."""
        records, _ = corpus
        rule = FaultRule(hook="frontend.recv", kind="delay", delay_s=0.01)
        injector = FaultInjector(FaultPlan(rules=(rule,)))
        runs = []
        for faults in (None, injector):
            with SocketFrontend(thread_service, fault_injector=faults) as frontend:
                with SocketEvaluator(frontend.address, timeout_s=30) as remote:
                    runs.append([
                        remote.score_tiles_batched(
                            record.kernel, enumerate_tile_sizes(record.kernel)[:4]
                        )
                        for record in records[:3]
                    ])
                    assert remote.retries == remote.reconnects == remote.degraded_responses == 0
        assert [entry["fired"] for entry in injector.snapshot()] == [1]
        plain, delayed = runs
        assert [s.tobytes() for s in delayed] == [s.tobytes() for s in plain]

    def test_overload_crosses_wire_typed_and_retry_recovers(
        self, corpus, result_a
    ):
        """Admission-control rejections reach socket clients as typed
        ``overloaded`` responses; a retrying client backs off and lands
        once the queue drains."""
        records, _ = corpus
        service = CostModelService(
            result_a,
            ServiceConfig(max_pending=1, result_cache_entries=0,
                          flush_interval_s=0.4, adaptive_flush=False),
        ).start()
        try:
            with SocketFrontend(service) as frontend:
                # A raw peer parks one request in the queue (0.4s until the
                # batch cuts), filling max_pending.
                blocker = socketlib.create_connection(
                    frontend.address, timeout=10
                )
                blocker.sendall(
                    frame_bytes(1, encode_request(_tile_request(corpus)))
                )
                deadline = time.monotonic() + 5
                while service.metrics()["pending"] < 1:
                    if time.monotonic() > deadline:
                        pytest.fail("blocker request never queued")
                    time.sleep(0.01)
                with SocketEvaluator(
                    frontend.address, timeout_s=30,
                    retry=RetryPolicy(
                        max_attempts=10, base_backoff_s=0.05,
                        max_backoff_s=0.3,
                    ),
                ) as remote:
                    tiles = enumerate_tile_sizes(records[1].kernel)[:3]
                    scores = remote.score_tiles_batched(
                        records[1].kernel, tiles
                    )
                    assert scores.shape == (3,)
                    assert remote.retries >= 1
                blocker.close()
            assert service.metrics()["overload_rejections"] >= 1.0
        finally:
            service.stop()


# ---------------------------------------------------------------------- #
# process executor under chaos
# ---------------------------------------------------------------------- #


def _chaos_service(result_a, plan, **config_kwargs):
    faults = FaultInjector(plan) if plan is not None else None
    config = ServiceConfig(
        executor="process", replicas=1, result_cache_entries=0,
        dispatch_timeout_s=config_kwargs.pop("dispatch_timeout_s", 2.0),
        **config_kwargs,
    )
    return CostModelService(result_a, config, faults=faults)


class TestProcessExecutorChaos:
    def test_dispatch_kill_recovers_bitwise(self, corpus, result_a):
        records, scalers = corpus
        plan = FaultPlan(
            rules=(FaultRule(hook="executor.dispatch", kind="kill", count=1),)
        )
        service = _chaos_service(result_a, plan)
        try:
            client = ServiceEvaluator(service, timeout_s=120.0)
            direct = LearnedEvaluator(result_a.model, scalers)
            for record in records[:3]:
                tiles = enumerate_tile_sizes(record.kernel)[:4]
                np.testing.assert_array_equal(
                    client.score_tiles_batched(record.kernel, tiles),
                    direct.score_tiles_batched(record.kernel, tiles),
                )
            assert client.degraded_responses == 0
            assert service.executor._shards[0].restarts >= 1
        finally:
            service.stop()

    def test_dispatch_delay_fires_once_and_changes_no_score(self, corpus, result_a):
        """A ``delay`` rule at ``executor.dispatch`` only sleeps the
        dispatcher: it fires once, and every request resolves ok with the
        scores of the same service without faults, bitwise."""
        requests = [_tile_request(corpus, index) for index in range(3)]
        rule = FaultRule(hook="executor.dispatch", kind="delay", delay_s=0.01)
        runs = []
        for plan in (None, FaultPlan(rules=(rule,))):
            service = _chaos_service(result_a, plan)
            try:
                responses = []
                for request in requests:
                    future = service.submit(request)
                    service.flush()
                    responses.append(future.result(timeout=60))
            finally:
                service.stop()
            assert all(r.error is None and not r.degraded for r in responses)
            runs.append([r.value.tobytes() for r in responses])
        assert [entry["fired"] for entry in service.faults.snapshot()] == [1]
        plain, delayed = runs
        assert delayed == plain

    def test_hung_worker_is_detected_and_replaced(self, corpus, result_a):
        """SIGSTOP (alive but unresponsive) must be caught by the bounded
        dispatch poll within dispatch_timeout_s — not hang the batch."""
        records, scalers = corpus
        plan = FaultPlan(
            rules=(FaultRule(hook="executor.dispatch", kind="hang", count=1),)
        )
        # dispatch_timeout_s bounds every pipe reply wait — including the
        # respawned worker's boot + checkpoint load in the fallback path —
        # so it must cover a cold spawn, not just a healthy forward.
        service = _chaos_service(result_a, plan, dispatch_timeout_s=2.0)
        try:
            client = ServiceEvaluator(service, timeout_s=120.0)
            direct = LearnedEvaluator(result_a.model, scalers)
            tiles = enumerate_tile_sizes(records[0].kernel)[:4]
            started = time.monotonic()
            scores = client.score_tiles_batched(records[0].kernel, tiles)
            elapsed = time.monotonic() - started
            np.testing.assert_array_equal(
                scores, direct.score_tiles_batched(records[0].kernel, tiles)
            )
            assert elapsed < 30.0  # bounded by watchdog + respawn, not ∞
            assert service.executor._shards[0].restarts >= 1
        finally:
            service.stop()

    def test_corrupt_checkpoint_blob_recovers(self, corpus, result_a):
        """A blob corrupted in flight fails integrity-checked load; the
        retry ships clean bytes and serving continues bitwise-correct."""
        records, scalers = corpus
        plan = FaultPlan(
            rules=(FaultRule(hook="registry.load", kind="corrupt", count=1),)
        )
        service = _chaos_service(result_a, plan)
        try:
            client = ServiceEvaluator(service, timeout_s=120.0)
            direct = LearnedEvaluator(result_a.model, scalers)
            tiles = enumerate_tile_sizes(records[0].kernel)[:4]
            np.testing.assert_array_equal(
                client.score_tiles_batched(records[0].kernel, tiles),
                direct.score_tiles_batched(records[0].kernel, tiles),
            )
        finally:
            service.stop()

    def test_respawn_storm_hits_backoff_and_breaker(self, corpus, result_a):
        """A worker that dies on *every* forward: respawns must be
        suppressed by crash-loop backoff, the shard's breaker must open,
        and every request must still resolve (degraded)."""
        records, _ = corpus
        plan = FaultPlan(
            rules=(
                FaultRule(hook="worker.forward", kind="kill", count=None),
            )
        )
        service = _chaos_service(
            result_a, plan, breaker_failure_threshold=2, breaker_reset_s=30.0
        )
        try:
            responses = []
            for index in range(6):
                record = records[index % len(records)]
                future = service.submit(
                    TileScoresRequest(
                        kernel=record.kernel,
                        tiles=tuple(enumerate_tile_sizes(record.kernel)[:3]),
                    )
                )
                service.flush()
                responses.append(future.result(timeout=60))
            # Every request resolved: degraded answer or typed error.
            for response in responses:
                assert response.degraded or response.error_code is not None
            assert any(r.degraded for r in responses)
            shard = service.executor._shards[0]
            assert shard.backoff.failures >= 2
            metrics = service.metrics()
            assert metrics["breakers"]["0"]["state"] == "open"
            assert metrics["breaker_open_seconds"] > 0.0
            # Respawns are bounded by the backoff, not one per attempt.
            assert shard.restarts <= 2 * len(responses)
            per_shard = metrics["per_shard"]["0"]
            assert per_shard["backoff_failures"] >= 2
        finally:
            service.stop()

    def test_worker_plan_only_ships_worker_rules(self, result_a):
        plan = FaultPlan(
            rules=(
                FaultRule(hook="worker.forward", kind="delay", delay_s=0.01),
                FaultRule(hook="frontend.recv", kind="drop"),
            )
        )
        service = _chaos_service(result_a, plan)
        try:
            assert service.executor._worker_plan.hooks() == {"worker.forward"}
        finally:
            service.stop()


# ---------------------------------------------------------------------- #
# registry: atomic spill
# ---------------------------------------------------------------------- #


class TestAtomicSpill:
    def _registry(self, result_a):
        registry = ModelRegistry()
        registry.publish(result_a)
        return registry

    def test_spill_leaves_no_temp_files(self, result_a, tmp_path):
        registry = self._registry(result_a)
        registry.spill(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))
        reloaded = ModelRegistry.load(tmp_path)
        assert reloaded.blob("v1") == registry.blob("v1")

    def test_crash_mid_spill_preserves_previous_files(
        self, result_a, tmp_path, monkeypatch
    ):
        registry = self._registry(result_a)
        registry.spill(tmp_path)
        before_blob = (tmp_path / "v1.ckpt").read_bytes()
        before_manifest = (tmp_path / "manifest.json").read_bytes()

        def crash(src, dst):
            raise OSError("simulated crash mid-replace")

        monkeypatch.setattr("repro.serving.registry.os.replace", crash)
        with pytest.raises(OSError):
            registry.spill(tmp_path)
        monkeypatch.undo()
        # The previous complete files survived, byte-identical, and no
        # temp debris is left for load() to trip on.
        assert (tmp_path / "v1.ckpt").read_bytes() == before_blob
        assert (tmp_path / "manifest.json").read_bytes() == before_manifest
        assert not list(tmp_path.glob("*.tmp"))
        assert ModelRegistry.load(tmp_path).blob("v1") == registry.blob("v1")


# ---------------------------------------------------------------------- #
# combined chaos: the serving contract end to end
# ---------------------------------------------------------------------- #


class TestChaosIntegration:
    def test_every_request_resolves_under_chaos(self, corpus, result_a):
        """Kills + hangs + connection drops + blob corruption at once:
        16 requests from 4 concurrent clients all resolve within their
        deadline as answer | typed error | degraded — and no client
        thread is left hanging."""
        records, _ = corpus
        plan = FaultPlan(
            rules=(
                FaultRule(hook="executor.dispatch", kind="kill", count=1),
                FaultRule(hook="executor.dispatch", kind="hang", after=3,
                          count=1),
                FaultRule(hook="registry.load", kind="corrupt", count=1),
                FaultRule(hook="frontend.recv", kind="drop", after=2, count=1),
            ),
            seed=11,
        )
        faults = FaultInjector(plan)
        service = CostModelService(
            result_a,
            ServiceConfig(
                executor="process", replicas=1, result_cache_entries=0,
                dispatch_timeout_s=2.5, breaker_failure_threshold=3,
                breaker_reset_s=0.2,
            ),
            faults=faults,
        ).start()
        outcomes = []
        outcome_lock = threading.Lock()
        try:
            with SocketFrontend(service, fault_injector=faults) as frontend:
                def run_client(client_index):
                    retry = RetryPolicy(max_attempts=6, base_backoff_s=0.02)
                    if client_index % 2:
                        client = SocketEvaluator(
                            frontend.address, timeout_s=60,
                            deadline_s=30.0, retry=retry,
                        )
                    else:
                        client = ServiceEvaluator(
                            service, timeout_s=60,
                            deadline_s=30.0, retry=retry,
                        )
                    try:
                        for i in range(4):
                            record = records[(client_index + i) % len(records)]
                            tiles = enumerate_tile_sizes(record.kernel)[:3]
                            try:
                                value = client.score_tiles_batched(
                                    record.kernel, tiles
                                )
                                assert value.shape == (3,)
                                kind = (
                                    "degraded"
                                    if client.last_response.degraded
                                    else "ok"
                                )
                            except (Overloaded, DeadlineExceeded,
                                    ConnectionLost) as exc:
                                kind = f"typed:{exc.code}"
                            with outcome_lock:
                                outcomes.append(kind)
                    finally:
                        if isinstance(client, SocketEvaluator):
                            client.close()

                threads = [
                    threading.Thread(target=run_client, args=(i,), daemon=True)
                    for i in range(4)
                ]
                started = time.monotonic()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                hung = [t for t in threads if t.is_alive()]
                assert not hung, f"{len(hung)} client thread(s) wedged"
                assert time.monotonic() - started < 120
            # The contract: all 16 requests resolved, each as exactly one
            # of answer / degraded / typed error — nothing untyped, no gap.
            assert len(outcomes) == 16
            assert all(
                o == "ok" or o == "degraded" or o.startswith("typed:")
                for o in outcomes
            )
            assert any(o == "ok" for o in outcomes)  # service recovered
        finally:
            service.stop()
