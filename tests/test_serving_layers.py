"""Tests for the layered serving stack: transport / scheduling / execution.

The load-bearing guarantees on top of ``test_serving.py``:

* **wire fidelity** — protocol messages survive ``to_bytes``/``from_bytes``
  exactly (kernels by fingerprint, score arrays bitwise);
* **placement equivalence** — the ``ProcessShardExecutor`` and the socket
  frontend serve responses bitwise-identical to the in-thread/in-process
  path at equal batch shape;
* **cross-process hot-swap atomicity** — a swap applies between
  micro-batches even when shards live in worker subprocesses, and a
  worker killed mid-swap resyncs to the active version before serving;
* **blob integrity** — truncated/corrupt checkpoint bytes fail with the
  typed ``ModelBlobError``, and registry disk spill round-trips blobs
  byte-identically.
"""
import json
import os
import signal
import struct
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import service_batcher

from repro.autotuner import LearnedEvaluator
from repro.compiler import enumerate_tile_sizes
from repro.compiler.kernels import Kernel
from repro.data import Scalers, build_tile_dataset
from repro.models import (
    LearnedPerformanceModel,
    ModelBlobError,
    ModelConfig,
    load_model_bytes,
    save_model_bytes,
    validate_model_blob,
)
from repro.models.trainer import TrainResult
from repro.serving import (
    CostModelService,
    ModelRegistry,
    ProcessShardExecutor,
    ProgramRuntimesRequest,
    Response,
    ServiceConfig,
    ServiceEvaluator,
    SocketEvaluator,
    SocketFrontend,
    TileScoresRequest,
    WireError,
    decode_request,
    encode_request,
    recv_frame,
    send_frame,
    shard_of,
)
from repro.workloads import vision

SMALL = dict(hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2, lstm_hidden=16)


@pytest.fixture(scope="module")
def corpus():
    ds = build_tile_dataset(
        [vision.image_embed(0)], max_kernels_per_program=6, max_tiles_per_kernel=6, seed=0
    )
    scalers = Scalers.fit_tile(ds.records)
    return ds.records, scalers


def _result(corpus, seed=0):
    _, scalers = corpus
    cfg = ModelConfig(task="tile", reduction="column-wise", **SMALL)
    model = LearnedPerformanceModel(cfg, seed=seed)
    return TrainResult(model=model, scalers=scalers, loss_history=[])


@pytest.fixture(scope="module")
def result_a(corpus):
    return _result(corpus, seed=0)


@pytest.fixture(scope="module")
def result_b(corpus):
    return _result(corpus, seed=1)


@pytest.fixture(scope="module")
def process_service(corpus, result_a, result_b):
    """One module-wide process-sharded service (spawn cost amortized).

    Publishes v1 (active) and v2 (staged) like the hot-swap tests in
    ``test_serving.py``; tests that activate v2 must activate v1 back.
    """
    registry = ModelRegistry()
    registry.publish(result_a)
    registry.publish(result_b, activate=False)
    service = CostModelService(
        registry,
        ServiceConfig(executor="process", replicas=2, result_cache_entries=0),
    )
    yield service
    service.stop()


# ---------------------------------------------------------------------- #
# wire protocol
# ---------------------------------------------------------------------- #


class TestWireProtocol:
    def test_tile_request_roundtrip(self, corpus):
        records, _ = corpus
        kernel = records[0].kernel
        tiles = tuple(enumerate_tile_sizes(kernel)[:4])
        request = TileScoresRequest(kernel=kernel, tiles=tiles)
        decoded = decode_request(encode_request(request))
        assert isinstance(decoded, TileScoresRequest)
        assert decoded.kernel.fingerprint() == kernel.fingerprint()
        assert decoded.tiles == tiles
        assert decoded.cache_key() == request.cache_key()
        assert decoded.shard_key() == request.shard_key()

    def test_retired_kernel_runtime_and_scalar_frames_raise_wire_error(
        self, corpus
    ):
        # A kernel runtime travels as a one-kernel program; a peer still
        # speaking the retired request tag or scalar value kind gets the
        # typed error any unknown tag or kind gets.
        records, _ = corpus
        kernel = records[1].kernel
        request = json.dumps(
            {
                "type": "kernel_runtime",
                "kernel": {"fingerprint": kernel.fingerprint(), **kernel.to_dict()},
                "deadline_s": None,
            }
        ).encode()
        with pytest.raises(WireError):
            decode_request(request)
        header = json.dumps(
            {
                "kind": "scalar", "dtype": "<f8", "shape": None,
                "model_version": "v1", "batch_size": 1, "cache_hit": False,
                "latency_s": 0.0, "error": None,
            }
        ).encode()
        scalar = struct.pack(">I", len(header)) + header + struct.pack("<d", 1.5)
        with pytest.raises(WireError):
            Response.from_bytes(scalar)

    def test_program_request_roundtrip(self, corpus):
        records, _ = corpus
        programs = (
            tuple(r.kernel for r in records[:3]),
            tuple(r.kernel for r in records[3:5]),
        )
        request = ProgramRuntimesRequest(programs=programs)
        decoded = decode_request(encode_request(request))
        assert isinstance(decoded, ProgramRuntimesRequest)
        assert decoded.shard_key() == request.shard_key()
        assert [
            [k.fingerprint() for k in kernels] for kernels in decoded.programs
        ] == [[k.fingerprint() for k in kernels] for kernels in programs]

    def test_kernel_dict_roundtrip_preserves_fingerprint(self, corpus):
        records, _ = corpus
        for record in records:
            rebuilt = Kernel.from_dict(record.kernel.to_dict())
            assert rebuilt.fingerprint() == record.kernel.fingerprint()
            assert rebuilt.kind == record.kernel.kind

    def test_response_array_roundtrip_is_bitwise(self):
        value = (np.arange(7, dtype=np.float32) * 0.1) ** 3
        response = Response(
            value=value, model_version="v9", batch_size=4, latency_s=0.25
        )
        decoded = Response.from_bytes(response.to_bytes())
        np.testing.assert_array_equal(decoded.value, value)
        assert decoded.value.dtype == value.dtype
        assert decoded.model_version == "v9"
        assert decoded.batch_size == 4

    @pytest.mark.parametrize("value", (1.5, [2.0], np.float32(3.0)))
    def test_response_value_must_be_an_array_or_none(self, value):
        with pytest.raises(TypeError, match="value"):
            Response(value=value, model_version="v1").to_bytes()

    def test_response_error_roundtrip(self):
        failed = Response(value=None, model_version="v1", error="boom")
        decoded = Response.from_bytes(failed.to_bytes())
        assert decoded.error == "boom" and decoded.value is None
        with pytest.raises(RuntimeError):
            decoded.unwrap()

    def test_garbage_bytes_raise_typed_error(self):
        with pytest.raises(WireError):
            decode_request(b"\x00\x01 not json")
        with pytest.raises(WireError):
            decode_request(b'{"type": "no_such_request"}')
        with pytest.raises(WireError):
            Response.from_bytes(b"\x00")


# ---------------------------------------------------------------------- #
# blob integrity + registry persistence
# ---------------------------------------------------------------------- #


class TestBlobIntegrity:
    def test_truncated_blob_raises_typed_error(self, result_a):
        blob = save_model_bytes(result_a)
        with pytest.raises(ModelBlobError, match="truncated"):
            validate_model_blob(blob[: len(blob) // 2])
        with pytest.raises(ModelBlobError):
            validate_model_blob(blob[:10])

    def test_corrupt_blob_raises_typed_error(self, result_a):
        blob = bytearray(save_model_bytes(result_a))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ModelBlobError, match="checksum"):
            validate_model_blob(bytes(blob))

    def test_garbage_bytes_raise_typed_error(self):
        with pytest.raises(ModelBlobError, match="not a model blob"):
            validate_model_blob(b"definitely not a checkpoint")

    def test_registry_rejects_corrupt_blob_at_publish(self, result_a):
        blob = bytearray(save_model_bytes(result_a))
        blob[-1] ^= 0xFF
        registry = ModelRegistry()
        with pytest.raises(ModelBlobError):
            registry.publish(bytes(blob))

    def test_valid_blob_passes_and_loads(self, result_a):
        blob = save_model_bytes(result_a)
        validate_model_blob(blob)
        registry = ModelRegistry()
        version = registry.publish(blob)
        loaded = registry.get(version)
        for name, arr in result_a.model.state_dict().items():
            np.testing.assert_array_equal(arr, loaded.model.state_dict()[name])


class TestRegistrySpill:
    def test_spill_load_roundtrips_bytes_identically(self, result_a, result_b, tmp_path):
        registry = ModelRegistry()
        registry.publish(result_a)
        registry.publish(result_b, version="candidate", activate=False)
        registry.spill(tmp_path / "reg")
        restored = ModelRegistry.load(tmp_path / "reg")
        assert restored.versions == ["v1", "candidate"]
        assert restored.active_version == "v1"
        assert restored.blob("v1") == registry.blob("v1")
        assert restored.blob("candidate") == registry.blob("candidate")

    def test_restored_registry_serves(self, corpus, result_a, tmp_path):
        records, scalers = corpus
        registry = ModelRegistry()
        registry.publish(result_a)
        registry.spill(tmp_path / "reg")
        restored = ModelRegistry.load(tmp_path / "reg")
        service = CostModelService(restored, ServiceConfig(result_cache_entries=0))
        client = ServiceEvaluator(service)
        kernel = records[0].kernel
        tiles = enumerate_tile_sizes(kernel)[:5]
        reference = LearnedEvaluator(result_a.model, scalers).score_tiles_batched(
            kernel, tiles
        )
        np.testing.assert_array_equal(
            client.score_tiles_batched(kernel, tiles), reference
        )

    def test_auto_numbering_resumes_after_load(self, result_a, tmp_path):
        registry = ModelRegistry()
        registry.publish(result_a)
        registry.publish(result_a, activate=False)  # v2
        registry.spill(tmp_path / "reg")
        restored = ModelRegistry.load(tmp_path / "reg")
        assert restored.publish(result_a, activate=False) == "v3"

    def test_spilled_checkpoint_loads_as_model_file(self, result_a, tmp_path):
        registry = ModelRegistry()
        registry.publish(result_a)
        registry.spill(tmp_path / "reg")
        loaded = load_model_bytes((tmp_path / "reg" / "v1.ckpt").read_bytes())
        for name, arr in result_a.model.state_dict().items():
            np.testing.assert_array_equal(arr, loaded.model.state_dict()[name])

    def test_corrupted_spill_file_fails_typed_on_load(self, result_a, tmp_path):
        registry = ModelRegistry()
        registry.publish(result_a)
        registry.spill(tmp_path / "reg")
        path = tmp_path / "reg" / "v1.ckpt"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ModelBlobError):
            ModelRegistry.load(tmp_path / "reg")


# ---------------------------------------------------------------------- #
# adaptive micro-batching
# ---------------------------------------------------------------------- #


def _arrive(mb, times, first_joins=False):
    """Feed ``mb`` arrivals at explicit ``times``: one burst, whose first
    request finds the queue as ``first_joins`` says and whose later ones
    join it."""
    for i, at in enumerate(times):
        mb.observe_arrival(at, joins_pending=first_joins or i > 0)


class TestAdaptiveFlush:
    """The batch-cut rule, driven with explicit timestamps: no wall clock."""

    def test_fixed_mode_keeps_configured_interval(self):
        mb = service_batcher(flush_interval_s=0.005, adaptive_flush=False)
        for _ in range(4):
            mb.submit(ProgramRuntimesRequest(programs=((None,),)))
        assert mb.effective_flush_interval() == 0.005

    def test_sparse_arrivals_collapse_interval_to_zero(self):
        mb = service_batcher(flush_interval_s=0.002, adaptive_flush=True)
        for at in (0.0, 0.01, 0.02, 0.03):  # gaps of 10 ms >> 2 ms window
            mb.observe_arrival(at, joins_pending=False)
        assert mb.arrival_gap_ema_s > mb.flush_interval_s
        assert mb.effective_flush_interval() == 0.0

    def test_dense_arrivals_keep_full_interval(self):
        mb = service_batcher(flush_interval_s=0.05, adaptive_flush=True)
        for _ in range(8):
            mb.submit(ProgramRuntimesRequest(programs=((None,),)))  # back-to-back
        assert mb.arrival_gap_ema_s < mb.flush_interval_s
        assert mb.effective_flush_interval() == 0.05

    def test_sparse_then_dense_recovers_batching(self):
        mb = service_batcher(flush_interval_s=0.05, adaptive_flush=True)
        mb._GAP_EMA_ALPHA = 0.5
        _arrive(mb, (0.0, 0.08))
        assert mb.effective_flush_interval() == 0.0
        _arrive(mb, [0.08 + 1e-5 * i for i in range(1, 9)], first_joins=True)
        assert mb.effective_flush_interval() == 0.05

    def test_adaptive_sparse_batch_cuts_immediately(self):
        mb = service_batcher(max_batch_size=100, flush_interval_s=0.05, adaptive_flush=True)
        for at in (0.0, 0.08, 0.16):  # EMA gap 80 ms >= 50 ms window: sparse
            mb.observe_arrival(at, joins_pending=False)
        # A lone synchronous client: zero wait, whenever it is asked.
        assert mb.cut_wait(now=0.24, oldest=0.24, last=0.24) <= 0
        # ... and through the real queue: a fixed 50 ms window would hold
        # this lone request for the full window.
        mb.submit(ProgramRuntimesRequest(programs=((None,),)))
        start = time.perf_counter()
        batch = mb.next_batch(timeout=5.0)
        elapsed = time.perf_counter() - start
        assert len(batch) == 1
        assert elapsed < 0.04

    def test_burst_then_silence_cuts_after_the_quiet_gap(self):
        mb = service_batcher(flush_interval_s=0.002, adaptive_flush=True)
        burst = [20e-6 * i for i in range(16)]  # a client window refilling
        _arrive(mb, burst)
        last = burst[-1]
        quiet = mb._QUIET_GAPS * 20e-6
        assert mb.cut_wait(now=last, oldest=0.0, last=last) == pytest.approx(quiet)
        assert mb.cut_wait(now=last + quiet / 2, oldest=0.0, last=last) > 0
        assert mb.cut_wait(now=last + quiet, oldest=0.0, last=last) <= 1e-12
        assert last + quiet < mb.flush_interval_s / 4  # long before the window

    def test_evenly_spaced_dense_arrivals_keep_the_full_window(self):
        mb = service_batcher(max_batch_size=100, flush_interval_s=0.002, adaptive_flush=True)
        times = [1e-4 * i for i in range(20)]  # every 0.1 ms, through the window
        for i, at in enumerate(times):
            mb.observe_arrival(at, joins_pending=i > 0)
            # Never quiet: not on arrival, not just before the next one.
            assert mb.cut_wait(now=at, oldest=0.0, last=at) > 0
            assert mb.cut_wait(now=at + 0.99e-4, oldest=0.0, last=at) > 0
        assert mb.cut_wait(now=0.002, oldest=0.0, last=times[-1]) <= 0  # aged

    def test_lone_synchronous_client_never_learns_a_burst_gap(self):
        mb = service_batcher(flush_interval_s=0.002, adaptive_flush=True)
        for i in range(10):  # each request finds the queue empty
            at = 0.005 * i
            mb.observe_arrival(at, joins_pending=False)
            if i:
                assert mb.cut_wait(now=at, oldest=at, last=at) <= 0  # zero wait
        assert mb._burst_gap_ema is None

    def test_inter_burst_gap_does_not_poison_the_burst_estimate(self):
        # Window of 1 s, so the 50 ms between bursts is not "sparse".
        mb = service_batcher(flush_interval_s=1.0, adaptive_flush=True)
        quiet = mb._QUIET_GAPS * 20e-6
        for burst in range(5):
            begin = 0.05 * burst
            times = [begin + 20e-6 * i for i in range(16)]
            _arrive(mb, times[:2])  # the first finds the queue empty
            # Right after the long gap, where a polluted EMA would show most.
            wait = mb.cut_wait(now=times[1], oldest=begin, last=times[1])
            assert wait == pytest.approx(quiet)
            _arrive(mb, times[2:], first_joins=True)
        assert mb.arrival_gap_ema_s > 10 * 20e-6  # the overall EMA did see it

    def test_window_is_the_upper_bound(self):
        mb = service_batcher(flush_interval_s=0.002, adaptive_flush=True)
        _arrive(mb, (0.0, 0.001, 0.002), first_joins=True)  # 1 ms burst gaps
        # Quiet would be due 4 ms after the last arrival; aged comes first.
        wait = mb.cut_wait(now=0.0025, oldest=0.0015, last=0.0025)
        assert wait == pytest.approx(0.001)

    def test_fixed_mode_has_no_quiet_cut(self):
        mb = service_batcher(flush_interval_s=0.002, adaptive_flush=False)
        _arrive(mb, [20e-6 * i for i in range(16)])
        assert mb.cut_wait(now=0.001, oldest=0.0, last=0.0003) == pytest.approx(0.001)

    def test_service_exposes_effective_interval(self, result_a):
        service = CostModelService(
            result_a, ServiceConfig(adaptive_flush=True, result_cache_entries=0)
        )
        assert "flush_interval_effective_s" in service.metrics()


class TestCompleteCut:
    """The *complete* rule — every attached caller has a request pending —
    driven with explicit caller lists: no wall clock."""

    def test_no_attached_caller_never_completes(self):
        mb = service_batcher(flush_interval_s=5.0, adaptive_flush=True)
        assert not mb.complete([])
        assert not mb.complete([None, None])
        assert not mb.complete(["a", "b"])  # tokens nobody attached

    def test_due_once_every_attached_caller_is_pending(self):
        mb = service_batcher(flush_interval_s=5.0, adaptive_flush=True)
        mb.attach_caller("a")
        mb.attach_caller("b")
        assert not mb.complete(["a"])
        assert not mb.complete(["b", None])
        assert mb.complete(["a", "b"])
        assert mb.complete(["b", None, "a"])

    def test_anonymous_requests_never_complete_the_set(self):
        mb = service_batcher(flush_interval_s=5.0, adaptive_flush=True)
        mb.attach_caller("a")
        assert not mb.complete([None] * 8)

    def test_a_pipelining_caller_does_not_stand_in_for_an_idle_one(self):
        mb = service_batcher(flush_interval_s=5.0, adaptive_flush=True)
        mb.attach_caller("a")
        mb.attach_caller("b")
        assert not mb.complete(["a", "a", "a"])

    def test_detach_leaves_the_rest_complete(self):
        mb = service_batcher(flush_interval_s=5.0, adaptive_flush=True)
        for token in ("a", "b"):
            mb.attach_caller(token)
        mb.detach_caller("b")
        mb.detach_caller("b")  # idempotent
        assert mb.complete(["a"])
        mb.detach_caller("a")
        assert not mb.complete(["a"])  # nobody attached: the rule is off

    def test_fixed_mode_ignores_callers(self):
        mb = service_batcher(flush_interval_s=0.3, adaptive_flush=False)
        mb.attach_caller("a")
        assert not mb.complete(["a"])

    def test_detach_wakes_a_blocked_next_batch(self):
        import threading

        mb = service_batcher(flush_interval_s=5.0, adaptive_flush=True)
        mb.attach_caller("a")
        mb.attach_caller("idle")
        mb.submit(ProgramRuntimesRequest(programs=((None,),)), caller="a")
        # The first request of a fresh batcher waits out the 5 s window
        # unless the idle caller leaving completes the set.
        timer = threading.Timer(0.1, mb.detach_caller, args=("idle",))
        start = time.perf_counter()
        timer.start()
        try:
            batch = mb.next_batch(timeout=10.0)
        finally:
            timer.cancel()
        assert [p.caller for p in batch] == ["a"]
        assert time.perf_counter() - start < 1.5

    def test_concurrent_callers_lose_no_request(self):
        """Callers attaching, submitting and detaching on their own threads
        (more threads than cores, switching every 10 µs) while a consumer
        cuts batches: every request comes out once, nobody stays attached."""
        import sys
        import threading

        mb = service_batcher(max_batch_size=8, flush_interval_s=0.002, adaptive_flush=True)

        def caller(token: int) -> None:
            mb.attach_caller(token)
            for _ in range(50):
                mb.submit(ProgramRuntimesRequest(programs=((None,),)), caller=token)
            mb.detach_caller(token)

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            seen = 0
            deadline = time.monotonic() + 30
            while seen < 300 and time.monotonic() < deadline:
                seen += len(mb.next_batch(timeout=0.1))
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert seen == 300 and len(mb) == 0
        assert not mb.complete(range(6))  # every caller detached: rule off

    @settings(max_examples=200, deadline=None)
    @given(
        adaptive=st.booleans(),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("attach"), st.integers(0, 3)),
                st.tuples(st.just("detach"), st.integers(0, 3)),
                st.tuples(st.just("submit"), st.none() | st.integers(0, 3)),
                st.tuples(st.just("advance"), st.floats(0.0, 0.004)),
            ),
            max_size=60,
        ),
    )
    def test_callers_only_ever_cut_earlier(self, adaptive, ops):
        """Beside a twin batcher no caller is ever attached to, fed the same
        arrivals: the clocked rules read the same, fixed mode decides the
        same, and under ``adaptive_flush`` a batch is complete exactly when
        every attached caller has a request pending."""
        mb = service_batcher(flush_interval_s=0.002, adaptive_flush=adaptive)
        twin = service_batcher(flush_interval_s=0.002, adaptive_flush=adaptive)
        attached: set[int] = set()
        pending: list[tuple[float, int | None]] = []  # (arrival, caller)
        now = 0.0
        for op, arg in ops:
            if op == "attach":
                mb.attach_caller(arg)
                attached.add(arg)
            elif op == "detach":
                mb.detach_caller(arg)
                attached.discard(arg)
            elif op == "submit":
                for batcher in (mb, twin):
                    batcher.observe_arrival(now, joins_pending=bool(pending))
                pending.append((now, arg))
            else:
                now += arg
            if not pending:
                continue
            oldest, last = pending[0][0], pending[-1][0]
            callers = [caller for _, caller in pending]
            wait = mb.cut_wait(now, oldest, last)
            twin_wait = twin.cut_wait(now, oldest, last)
            assert wait == twin_wait
            complete = mb.complete(callers)
            assert not twin.complete(callers)
            due = complete or wait <= 0
            assert due or twin_wait > 0  # never later than without callers
            if adaptive:
                assert complete == (bool(attached) and attached.issubset(callers))
            else:
                assert due == (twin_wait <= 0)
            if due:
                pending.clear()  # the batch is cut


# ---------------------------------------------------------------------- #
# process-shard executor
# ---------------------------------------------------------------------- #


class TestProcessShardExecutor:
    def test_bitwise_equivalent_to_direct(self, corpus, result_a, process_service):
        records, scalers = corpus
        direct = LearnedEvaluator(result_a.model, scalers)
        client = ServiceEvaluator(process_service)
        for record in records[:4]:
            tiles = enumerate_tile_sizes(record.kernel)[:5]
            np.testing.assert_array_equal(
                client.score_tiles_batched(record.kernel, tiles),
                direct.score_tiles_batched(record.kernel, tiles),
            )

    def test_interned_repeat_requests_stay_bitwise(self, corpus, result_a, process_service):
        records, scalers = corpus
        direct = LearnedEvaluator(result_a.model, scalers)
        client = ServiceEvaluator(process_service)
        kernel = records[0].kernel
        tiles = enumerate_tile_sizes(kernel)[:5]
        reference = direct.score_tiles_batched(kernel, tiles)
        for _ in range(3):  # second+ pass ships fingerprint-only commands
            np.testing.assert_array_equal(
                client.score_tiles_batched(kernel, tiles), reference
            )

    def test_program_paths_match_direct(self, corpus, result_a):
        # One shard: runtime/program groups keep the same forward batch
        # shape as the direct batched calls, so the bitwise guarantee
        # applies exactly (with N shards a group splits per shard, which
        # changes batch shape — float32-rounding-level shifts by design).
        records, scalers = corpus
        direct = LearnedEvaluator(result_a.model, scalers)
        service = CostModelService(
            result_a,
            ServiceConfig(
                executor="process", replicas=1, max_batch_size=8,
                result_cache_entries=0,
            ),
        )
        try:
            kernels = [r.kernel for r in records[:4]]
            futures = [
                service.submit(ProgramRuntimesRequest(programs=((k,),))) for k in kernels
            ]
            service.flush()
            served = np.concatenate([f.result(timeout=60).unwrap() for f in futures])
            reference = direct.program_runtimes_batched([[k] for k in kernels])
            np.testing.assert_array_equal(served, reference)
            client = ServiceEvaluator(service, timeout_s=60.0)
            assert client.kernel_runtime(kernels[0]) == reference[0]
            programs = [
                [r.kernel for r in records[:3]], [r.kernel for r in records[3:5]]
            ]
            np.testing.assert_array_equal(
                client.program_runtimes_batched(programs),
                direct.program_runtimes_batched(programs),
            )
        finally:
            service.stop()

    def test_hot_swap_applies_between_batches(
        self, corpus, result_a, result_b, process_service
    ):
        records, scalers = corpus
        registry = process_service.registry
        client = ServiceEvaluator(process_service)
        kernel = records[0].kernel
        tiles = enumerate_tile_sizes(kernel)[:5]
        ref_a = LearnedEvaluator(result_a.model, scalers).score_tiles_batched(kernel, tiles)
        ref_b = LearnedEvaluator(result_b.model, scalers).score_tiles_batched(kernel, tiles)
        try:
            np.testing.assert_array_equal(
                client.score_tiles_batched(kernel, tiles), ref_a
            )
            assert client.model_version == "v1"
            registry.activate("v2")
            np.testing.assert_array_equal(
                client.score_tiles_batched(kernel, tiles), ref_b
            )
            assert client.model_version == "v2"
        finally:
            registry.activate("v1")

    def test_swap_mid_queue_serves_single_version(
        self, corpus, result_b, process_service
    ):
        records, scalers = corpus
        registry = process_service.registry
        kernel = records[0].kernel
        tiles = enumerate_tile_sizes(kernel)[:6]
        try:
            f1 = process_service.submit(
                TileScoresRequest(kernel=kernel, tiles=tuple(tiles[:3]))
            )
            f2 = process_service.submit(
                TileScoresRequest(kernel=kernel, tiles=tuple(tiles[3:]))
            )
            registry.activate("v2")  # lands between submit and execution
            process_service.flush()
            r1, r2 = f1.result(timeout=30), f2.result(timeout=30)
            assert r1.model_version == r2.model_version == "v2"
            merged = LearnedEvaluator(result_b.model, scalers).score_tiles_batched(
                kernel, tiles
            )
            np.testing.assert_array_equal(
                np.concatenate([r1.unwrap(), r2.unwrap()]), merged
            )
        finally:
            registry.activate("v1")

    def test_worker_killed_mid_swap_never_serves_old_version(
        self, corpus, result_b, process_service
    ):
        """Kill a worker, hot-swap, then query: the respawned worker must
        resync to the *new* active version before serving anything."""
        records, scalers = corpus
        registry = process_service.registry
        executor = process_service.executor
        client = ServiceEvaluator(process_service, timeout_s=120.0)
        # Prime the shards so workers exist and hold v1.
        for record in records[:4]:
            client.score_tiles_batched(
                record.kernel, enumerate_tile_sizes(record.kernel)[:4]
            )
        primed = [s for s in executor._shards if s.process is not None]
        assert primed, "no shard received any traffic"
        victim = primed[0]
        try:
            assert victim.version == "v1"
            restarts_before = victim.restarts
            os.kill(victim.process.pid, signal.SIGKILL)
            time.sleep(0.1)  # let the SIGKILL land before the next dispatch
            registry.activate("v2")
            for record in records[:4]:
                kernel = record.kernel
                tiles = enumerate_tile_sizes(kernel)[:4]
                scores = client.score_tiles_batched(kernel, tiles)
                assert client.model_version == "v2"
                reference = LearnedEvaluator(
                    result_b.model, scalers
                ).score_tiles_batched(kernel, tiles)
                np.testing.assert_array_equal(scores, reference)
            assert victim.restarts > restarts_before
        finally:
            registry.activate("v1")

    def test_result_cache_is_version_scoped_across_processes(
        self, corpus, result_a, result_b
    ):
        records, _ = corpus
        registry = ModelRegistry()
        registry.publish(result_a)
        registry.publish(result_b, activate=False)
        service = CostModelService(
            registry,
            ServiceConfig(executor="process", replicas=2, result_cache_entries=64),
        )
        try:
            client = ServiceEvaluator(service)
            kernel = records[0].kernel
            tiles = enumerate_tile_sizes(kernel)[:5]
            from_a = client.score_tiles_batched(kernel, tiles)
            assert not client.last_response.cache_hit
            client.score_tiles_batched(kernel, tiles)
            assert client.last_response.cache_hit  # served without a forward
            registry.activate("v2")
            from_b = client.score_tiles_batched(kernel, tiles)
            assert not client.last_response.cache_hit  # v2 never served this
            assert client.model_version == "v2"
            assert not np.array_equal(from_a, from_b)
        finally:
            service.stop()

    def test_per_shard_metrics_populated(self, corpus, process_service):
        records, _ = corpus
        client = ServiceEvaluator(process_service)
        for record in records:
            client.score_tiles_batched(
                record.kernel, enumerate_tile_sizes(record.kernel)[:4]
            )
        per_shard = process_service.metrics()["per_shard"]
        assert len(per_shard) == 2
        assert sum(entry["requests"] for entry in per_shard.values()) > 0
        for entry in per_shard.values():
            assert entry["placement"] == "process"
            assert "latency_p99_s" in entry and "restarts" in entry

    def test_malformed_request_fails_alone(self, corpus, process_service):
        records, _ = corpus
        kernel = records[0].kernel
        tiles = tuple(enumerate_tile_sizes(kernel)[:4])
        good = process_service.submit(TileScoresRequest(kernel=kernel, tiles=tiles))
        bad = process_service.submit(TileScoresRequest(kernel=None, tiles=()))
        process_service.flush()
        assert good.result(timeout=30).error is None
        assert bad.result(timeout=30).error is not None

    def test_model_error_in_a_shared_forward_fails_alone(
        self, corpus, result_a, process_service
    ):
        """A kernel whose feature extraction raises inside the forward it
        shares with healthy neighbours costs only its own request — a
        model error, not an infrastructure failure — on both executors."""
        records, scalers = corpus
        direct = LearnedEvaluator(result_a.model, scalers)
        in_thread = CostModelService(
            result_a, ServiceConfig(replicas=2, result_cache_entries=0)
        )
        try:
            for service in (in_thread, process_service):
                shard = service.executor.shard_for(records[0].kernel.fingerprint())
                neighbours = [
                    r.kernel for r in records
                    if service.executor.shard_for(r.kernel.fingerprint()) == shard
                ]
                assert len(neighbours) > 1
                # Fingerprints (so it is routed and co-batched like any
                # kernel), then raises in ``extract_kernel_features``.
                poisoned = Kernel(graph=None)
                poisoned._fingerprint = next(
                    fp for fp in (f"{i:08x}".ljust(64, "0") for i in range(64))
                    if service.executor.shard_for(fp) == shard
                )
                tiles = {k.fingerprint(): enumerate_tile_sizes(k)[:4] for k in neighbours}
                good = [
                    service.submit(
                        TileScoresRequest(kernel=k, tiles=tuple(tiles[k.fingerprint()]))
                    )
                    for k in neighbours
                ]
                bad = service.submit(
                    TileScoresRequest(
                        kernel=poisoned, tiles=tuple(tiles[neighbours[0].fingerprint()])
                    )
                )
                before = service.breaker_board()["breakers"].get(str(shard))
                service.flush()
                for kernel, future in zip(neighbours, good):
                    response = future.result(timeout=60)
                    assert response.error is None and not response.degraded
                    np.testing.assert_allclose(
                        response.value,
                        direct.score_tiles_batched(kernel, tiles[kernel.fingerprint()]),
                        rtol=1e-5,
                    )
                failed = bad.result(timeout=60)
                assert failed.error is not None and "Traceback" in failed.error
                assert not failed.degraded and failed.error_code is None
                after = service.breaker_board()["breakers"][str(shard)]
                assert after["state"] == "closed"
                assert after["consecutive_failures"] == 0 and after["opens"] == 0
                assert before is None or before["opens"] == 0
        finally:
            in_thread.stop()

    def test_fused_tile_groups_single_group_is_bitwise(self, corpus, result_a):
        """score_tile_groups with one group == score_tiles_batched exactly
        (the shape-preserving case the fused shard path relies on)."""
        records, scalers = corpus
        kernel = records[0].kernel
        tiles = enumerate_tile_sizes(kernel)[:6]
        a = LearnedEvaluator(result_a.model, scalers)
        b = LearnedEvaluator(result_a.model, scalers)
        np.testing.assert_array_equal(
            a.score_tile_groups([(kernel, tiles)])[0],
            b.score_tiles_batched(kernel, tiles),
        )

    def test_fused_tile_groups_multi_kernel_close(self, corpus, result_a):
        """Fusing several kernels into one forward changes batch shape,
        which may move scores only at float32 rounding level."""
        records, scalers = corpus
        groups = [
            (r.kernel, enumerate_tile_sizes(r.kernel)[:5]) for r in records[:3]
        ]
        evaluator = LearnedEvaluator(result_a.model, scalers)
        fused = evaluator.score_tile_groups(groups)
        assert len(fused) == 3
        for (kernel, tiles), scores in zip(groups, fused):
            reference = LearnedEvaluator(
                result_a.model, scalers
            ).score_tiles_batched(kernel, tiles)
            assert scores.shape == reference.shape
            np.testing.assert_allclose(scores, reference, rtol=1e-4, atol=1e-7)

    def test_program_interning_miss_retry_is_transparent(self, corpus, result_a):
        """Program commands intern kernels too; a worker whose interning
        map evicted them answers miss and the retry stays correct."""
        records, scalers = corpus
        direct = LearnedEvaluator(result_a.model, scalers)
        service = CostModelService(
            result_a,
            ServiceConfig(
                executor="process", replicas=1, max_cached_kernels=1,
                result_cache_entries=0,
            ),
        )
        try:
            client = ServiceEvaluator(service, timeout_s=120.0)
            programs = [
                [r.kernel for r in records[:3]], [r.kernel for r in records[3:5]]
            ]
            reference = direct.program_runtimes_batched(programs)
            for _round in range(3):  # cap of 1 forces misses every round
                np.testing.assert_array_equal(
                    client.program_runtimes_batched(programs), reference
                )
        finally:
            service.stop()

    def test_fused_commands_report_forward_accounting(self, corpus, result_a):
        """N coalesced same-shard tile commands cost one fused forward."""
        records, _ = corpus
        service = CostModelService(
            result_a,
            ServiceConfig(
                executor="process", replicas=1, max_batch_size=16,
                result_cache_entries=0,
            ),
        )
        try:
            futures = [
                service.submit(
                    TileScoresRequest(
                        kernel=r.kernel,
                        tiles=tuple(enumerate_tile_sizes(r.kernel)[:4]),
                    )
                )
                for r in records[:3]
            ]
            service.flush()
            assert all(f.result(timeout=60).error is None for f in futures)
            snap = service.stats.snapshot()
            assert snap["model_forwards"] == 1.0  # three kernels, one forward
        finally:
            service.stop()

    def test_routing_matches_in_thread_executor(self, corpus):
        records, _ = corpus
        for record in records:
            fp = record.kernel.fingerprint()
            assert shard_of(fp, 4) == int(fp[:8], 16) % 4

    def test_executor_requires_valid_shards(self):
        with pytest.raises(ValueError):
            ProcessShardExecutor(
                ModelRegistry(), shards=0, max_cached_kernels=1024, request_timeout_s=30.0
            )


# ---------------------------------------------------------------------- #
# socket frontend
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def socket_setup(result_a):
    service = CostModelService(
        result_a, ServiceConfig(result_cache_entries=0)
    ).start()
    frontend = SocketFrontend(service)
    yield service, frontend
    frontend.close()
    service.stop()


class TestSocketFrontend:
    def test_roundtrip_bitwise_equivalent_to_in_process(
        self, corpus, result_a, socket_setup
    ):
        records, scalers = corpus
        service, frontend = socket_setup
        direct = LearnedEvaluator(result_a.model, scalers)
        local = ServiceEvaluator(service)
        with SocketEvaluator(frontend.address) as remote:
            for record in records[:4]:
                tiles = enumerate_tile_sizes(record.kernel)[:5]
                via_socket = remote.score_tiles_batched(record.kernel, tiles)
                via_local = local.score_tiles_batched(record.kernel, tiles)
                reference = direct.score_tiles_batched(record.kernel, tiles)
                np.testing.assert_array_equal(via_socket, via_local)
                np.testing.assert_array_equal(via_socket, reference)
                assert via_socket.dtype == reference.dtype

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_all_request_kinds_over_socket(self, corpus, result_a, executor):
        records, scalers = corpus
        direct = LearnedEvaluator(result_a.model, scalers)
        service = CostModelService(
            result_a, ServiceConfig(executor=executor, result_cache_entries=0)
        ).start()
        frontend = SocketFrontend(service)
        try:
            with SocketEvaluator(frontend.address) as remote:
                kernel = records[0].kernel
                runtime = remote.kernel_runtime(kernel)
                assert runtime == direct.program_runtimes_batched([[kernel]])[0]
                assert remote.last_response.value.shape == (1,)
                programs = [[r.kernel for r in records[:3]]]
                np.testing.assert_array_equal(
                    remote.program_runtimes_batched(programs),
                    direct.program_runtimes_batched(programs),
                )
                assert remote.model_version == "v1"
        finally:
            frontend.close()
            service.stop()

    def test_concurrent_socket_clients(self, corpus, result_a, socket_setup):
        import threading

        records, scalers = corpus
        _, frontend = socket_setup
        direct = LearnedEvaluator(result_a.model, scalers)
        workload = [
            (r.kernel, enumerate_tile_sizes(r.kernel)[:5]) for r in records[:4]
        ]
        references = [direct.score_tiles_batched(k, t) for k, t in workload]
        outputs = {}

        def client(idx, kernel, tiles):
            with SocketEvaluator(frontend.address) as remote:
                outputs[idx] = remote.score_tiles_batched(kernel, tiles)

        threads = [
            threading.Thread(target=client, args=(i, k, t))
            for i, (k, t) in enumerate(workload)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(outputs) == len(workload)
        # Clients whose requests meet in one micro-batch share a forward
        # (a different batch shape): float32 rounding level, not bitwise.
        for idx, scores in outputs.items():
            np.testing.assert_allclose(scores, references[idx], rtol=1e-5)

    def test_error_responses_cross_the_wire(self, socket_setup):
        import socket as socketlib

        _, frontend = socket_setup
        with socketlib.create_connection(frontend.address, timeout=30) as sock:
            # Undecodable body: the frontend must answer with a typed
            # error response on the same request id, not drop the frame.
            send_frame(sock, 7, b'{"type": "no_such_request"}')
            frame = recv_frame(sock)
            assert frame is not None
            request_id, body = frame
            assert request_id == 7
            response = Response.from_bytes(body)
            assert response.error is not None and "bad request" in response.error
            with pytest.raises(RuntimeError):
                response.unwrap()

    @mock.patch("repro.serving.protocol.MAX_INTERNED_KERNELS", 1)
    def test_kernel_interning_miss_retry_is_transparent(self, corpus, result_a):
        """A server that evicts interned kernels answers ``need_kernel``;
        the client resends in full and results stay bitwise-identical."""
        records, scalers = corpus
        direct = LearnedEvaluator(result_a.model, scalers)
        service = CostModelService(
            result_a, ServiceConfig(result_cache_entries=0)
        ).start()
        try:
            with SocketFrontend(service) as frontend:
                with SocketEvaluator(frontend.address) as remote:
                    workload = [
                        (r.kernel, enumerate_tile_sizes(r.kernel)[:4])
                        for r in records[:3]
                    ]
                    for _round in range(3):  # alternating kernels force misses
                        for kernel, tiles in workload:
                            np.testing.assert_array_equal(
                                remote.score_tiles_batched(kernel, tiles),
                                direct.score_tiles_batched(kernel, tiles),
                            )
        finally:
            service.stop()

    def test_frontend_counts_traffic(self, corpus, socket_setup):
        records, _ = corpus
        _, frontend = socket_setup
        before = frontend.stats()
        with SocketEvaluator(frontend.address) as remote:
            remote.score_tiles_batched(
                records[0].kernel, enumerate_tile_sizes(records[0].kernel)[:4]
            )
        after = frontend.stats()
        assert after["frames_in"] > before["frames_in"]
        assert after["connections"] > before["connections"]

    def test_socket_frontend_over_process_executor(
        self, corpus, result_a, process_service
    ):
        """The full remote stack: TCP ingress + subprocess shard forwards."""
        records, scalers = corpus
        direct = LearnedEvaluator(result_a.model, scalers)
        process_service.start()
        with SocketFrontend(process_service) as frontend:
            with SocketEvaluator(frontend.address, timeout_s=120.0) as remote:
                for record in records[:3]:
                    tiles = enumerate_tile_sizes(record.kernel)[:5]
                    np.testing.assert_array_equal(
                        remote.score_tiles_batched(record.kernel, tiles),
                        direct.score_tiles_batched(record.kernel, tiles),
                    )


@pytest.fixture
def held_service(result_a):
    """A fresh adaptive service whose window (5 s) would hold a first
    request far longer than any assertion below allows."""
    service = CostModelService(
        result_a, ServiceConfig(flush_interval_s=5.0, result_cache_entries=0)
    ).start()
    yield service
    service.stop()


def _until(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail("condition not reached in time")
        time.sleep(0.01)


class TestSocketCompleteCut:
    """Each open connection is an attached caller: a batch goes out as soon
    as every one of them has a request pending, not when the window ends."""

    def test_lone_connection_is_answered_without_the_window(self, corpus, held_service):
        records, _ = corpus
        with SocketFrontend(held_service) as frontend:
            with SocketEvaluator(frontend.address, timeout_s=30.0) as remote:
                start = time.perf_counter()
                for record in records[:3]:
                    remote.score_tiles_batched(
                        record.kernel, enumerate_tile_sizes(record.kernel)[:4]
                    )
                assert time.perf_counter() - start < 1.5

    def test_two_connections_share_one_batch(self, corpus, held_service):
        import threading

        records, _ = corpus
        workload = [
            (r.kernel, enumerate_tile_sizes(r.kernel)[:4]) for r in records[:2]
        ]
        with SocketFrontend(held_service) as frontend:
            with SocketEvaluator(frontend.address, timeout_s=30.0) as first, \
                    SocketEvaluator(frontend.address, timeout_s=30.0) as second:
                _until(lambda: frontend.stats()["open_connections"] == 2)
                before = held_service.metrics()["batches"]
                assert before == 0  # a fresh service: occupancy is this batch's
                thread = threading.Thread(
                    target=first.score_tiles_batched, args=workload[0]
                )
                thread.start()
                _until(lambda: len(held_service.scheduler) == 1)
                # A gap the quiet rule would multiply: without the complete
                # rule the second request would wait 4 x 0.25 s for company.
                time.sleep(0.3)
                start = time.perf_counter()
                second.score_tiles_batched(*workload[1])
                assert time.perf_counter() - start < 0.5
                thread.join(timeout=10)
                assert first.last_response is not None
                # The batch is counted just after its responses resolve.
                _until(lambda: held_service.metrics()["batches"] > before)
                metrics = held_service.metrics()
                assert metrics["batches"] == before + 1
                assert metrics["batch_occupancy"] == 2.0  # both requests

    def test_closing_an_idle_connection_releases_the_held_request(
        self, corpus, held_service
    ):
        import socket as socketlib

        records, _ = corpus
        kernel = records[0].kernel
        request = TileScoresRequest(
            kernel=kernel, tiles=tuple(enumerate_tile_sizes(kernel)[:4])
        )
        with SocketFrontend(held_service) as frontend:
            idle = socketlib.create_connection(frontend.address, timeout=10)
            with socketlib.create_connection(frontend.address, timeout=10) as busy:
                _until(lambda: frontend.stats()["open_connections"] == 2)
                send_frame(busy, 1, encode_request(request))
                _until(lambda: len(held_service.scheduler) == 1)
                start = time.perf_counter()
                idle.close()  # the only caller not waiting leaves
                frame = recv_frame(busy)
                assert time.perf_counter() - start < 1.5
                assert frame is not None and frame[0] == 1
                assert Response.from_bytes(frame[1]).error is None
