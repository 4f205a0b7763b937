"""Tests for the cost-model serving layer.

The two load-bearing guarantees:

* **equivalence** — scores served through the micro-batched service are
  bitwise-identical to direct :class:`LearnedEvaluator` calls at equal
  batch shape (coalescing concatenates, it never re-orders or re-scales;
  a micro-batch's kernels share one forward per shard);
* **hot-swap atomicity** — a registry activation mid-stream never mixes
  two checkpoints inside one response.
"""
import hashlib
import threading
from unittest import mock

import numpy as np
import pytest
from oracles import service_batcher

from repro.autotuner import (
    HardwareEvaluator,
    LearnedEvaluator,
    ProgramCostModel,
    TileScorer,
    model_fusion_autotune,
    model_tile_autotune,
)
from repro.compiler import enumerate_tile_sizes
from repro.data import KernelCache, Scalers, build_fusion_dataset, build_tile_dataset
from repro.evaluation import ServingStats, latency_percentiles
from repro.models import LearnedPerformanceModel, ModelConfig
from repro.models.trainer import TrainResult
from repro.serving import (
    CircuitBreaker,
    CostModelService,
    FeedbackCollector,
    MicroBatcher,
    ModelRegistry,
    ProcessShardExecutor,
    ProgramRuntimesRequest,
    ResultCache,
    ServiceConfig,
    ServiceEvaluator,
    TileScoresRequest,
    idempotency_key,
    request_key,
    request_unit_hash,
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


def sync_service(result, **kwargs) -> CostModelService:
    """A service pumped on the caller's thread (deterministic batching)."""
    return CostModelService(result, ServiceConfig(**kwargs))


class TestServiceSettings:
    """Each serving default is written once, in ``ServiceConfig``: the
    classes only the service builds take its settings and have none of
    their own."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MicroBatcher(),
            lambda: ResultCache(),
            lambda: CircuitBreaker(),
            lambda: ProcessShardExecutor(ModelRegistry()),
        ],
        ids=["MicroBatcher", "ResultCache", "CircuitBreaker", "ProcessShardExecutor"],
    )
    def test_building_without_the_service_settings_fails(self, build):
        with pytest.raises(TypeError):
            build()


class TestMicroBatcher:
    def test_cuts_at_max_batch_size(self):
        mb = service_batcher(max_batch_size=3, flush_interval_s=10.0, adaptive_flush=False)
        for _ in range(5):
            mb.submit(ProgramRuntimesRequest(programs=((None,),)))
        batch = mb.next_batch(timeout=0.1)
        assert len(batch) == 3
        assert len(mb) == 2

    def test_flush_interval_cuts_partial_batch(self):
        mb = service_batcher(max_batch_size=100, flush_interval_s=0.01, adaptive_flush=False)
        mb.submit(ProgramRuntimesRequest(programs=((None,),)))
        batch = mb.next_batch(timeout=1.0)
        assert len(batch) == 1

    def test_timeout_returns_empty(self):
        mb = service_batcher(adaptive_flush=False)
        assert mb.next_batch(timeout=0.01) == []

    def test_close_refuses_new_and_drains(self):
        mb = service_batcher(max_batch_size=100, flush_interval_s=10.0, adaptive_flush=False)
        mb.submit(ProgramRuntimesRequest(programs=((None,),)))
        mb.close()
        assert len(mb.next_batch(timeout=0.1)) == 1  # closed cuts immediately
        assert mb.next_batch(timeout=0.1) == []
        with pytest.raises(RuntimeError):
            mb.submit(ProgramRuntimesRequest(programs=((None,),)))

    def test_preserves_arrival_order(self):
        mb = service_batcher(max_batch_size=4, flush_interval_s=10.0, adaptive_flush=False)
        reqs = [ProgramRuntimesRequest(programs=((i,),)) for i in range(4)]
        for r in reqs:
            mb.submit(r)
        batch = mb.next_batch(timeout=0.1)
        assert [p.request for p in batch] == reqs


class TestModelRegistry:
    def test_publish_auto_versions_and_activate(self, result_a, result_b):
        reg = ModelRegistry()
        v1 = reg.publish(result_a)
        v2 = reg.publish(result_b, activate=False)
        assert (v1, v2) == ("v1", "v2")
        assert reg.active_version == "v1"
        reg.activate("v2")
        assert reg.active_version == "v2"
        assert reg.versions == ["v1", "v2"]

    def test_get_is_memoized(self, result_a):
        reg = ModelRegistry()
        v = reg.publish(result_a)
        assert reg.get(v) is reg.get(v)

    def test_swap_releases_inactive_materializations(self, result_a, result_b):
        reg = ModelRegistry()
        reg.publish(result_a)
        first = reg.get("v1")
        reg.publish(result_b)  # activates v2, drops v1's deserialized model
        assert reg.get("v2") is reg.get("v2")
        assert reg.get("v1") is not first  # rebuilt from the blob on demand

    def test_roundtrip_through_blob(self, result_a):
        reg = ModelRegistry()
        v = reg.publish(result_a)
        reloaded = reg.get(v)
        for name, arr in result_a.model.state_dict().items():
            np.testing.assert_array_equal(arr, reloaded.model.state_dict()[name])

    def test_staged_publish_never_serves_before_activation(self, result_a):
        reg = ModelRegistry()
        staged = reg.publish(result_a, activate=False)
        assert reg.active_version is None  # even on a fresh registry
        with pytest.raises(ValueError):
            CostModelService(reg)
        reg.activate(staged)
        assert reg.active_version == staged

    def test_duplicate_and_unknown_versions_raise(self, result_a):
        reg = ModelRegistry()
        reg.publish(result_a, version="gold")
        with pytest.raises(ValueError):
            reg.publish(result_a, version="gold")
        with pytest.raises(KeyError):
            reg.activate("nope")
        with pytest.raises(KeyError):
            reg.get("nope")


class TestResultCache:
    def test_lru_eviction_and_counters(self):
        cache = ResultCache(max_entries=2)
        cache.put(("v1", "a"), 1)
        cache.put(("v1", "b"), 2)
        assert cache.get(("v1", "a")) == 1  # refresh a
        cache.put(("v1", "c"), 3)  # evicts b
        assert cache.get(("v1", "b")) is None
        assert cache.get(("v1", "a")) == 1
        assert cache.stats()["evictions"] == 1
        assert cache.get(None) is None  # uncacheable key never hits


class TestServiceEquivalence:
    def test_tile_scores_bitwise_identical(self, corpus, result_a):
        records, scalers = corpus
        direct = LearnedEvaluator(result_a.model, scalers)
        service = sync_service(result_a, result_cache_entries=0)
        client = ServiceEvaluator(service)
        for record in records[:3]:
            tiles = enumerate_tile_sizes(record.kernel)[:6]
            np.testing.assert_array_equal(
                direct.score_tiles_batched(record.kernel, tiles),
                client.score_tiles_batched(record.kernel, tiles),
            )

    def test_coalesced_same_kernel_requests_match_merged_direct_call(
        self, corpus, result_a
    ):
        records, scalers = corpus
        kernel = records[0].kernel
        tiles = enumerate_tile_sizes(kernel)[:6]
        service = sync_service(result_a, max_batch_size=8, result_cache_entries=0)
        f1 = service.submit(TileScoresRequest(kernel=kernel, tiles=tuple(tiles[:3])))
        f2 = service.submit(TileScoresRequest(kernel=kernel, tiles=tuple(tiles[3:])))
        assert service.flush() == 2
        r1, r2 = f1.result(timeout=5), f2.result(timeout=5)
        assert r1.batch_size == 2 and r2.batch_size == 2  # one shared forward
        direct = LearnedEvaluator(result_a.model, scalers)
        merged = direct.score_tiles_batched(kernel, tiles)
        np.testing.assert_array_equal(np.concatenate([r1.unwrap(), r2.unwrap()]), merged)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_kernel_runtimes_match_direct_batched_call(
        self, corpus, result_a, executor
    ):
        # A kernel runtime is a one-kernel program: one request per kernel
        # shares one program forward, and the client's ``kernel_runtime``
        # answers the direct one-kernel population bitwise on either
        # executor (one shard keeps the direct call's batch shape).
        records, scalers = corpus
        kernels = [r.kernel for r in records[:4]]
        service = sync_service(
            result_a, executor=executor, replicas=1, max_batch_size=8,
            result_cache_entries=0,
        )
        try:
            futures = [
                service.submit(ProgramRuntimesRequest(programs=((k,),)))
                for k in kernels
            ]
            service.flush()
            responses = [f.result(timeout=60) for f in futures]
            assert {r.batch_size for r in responses} == {len(kernels)}
            served = np.concatenate([r.unwrap() for r in responses])
            direct = LearnedEvaluator(result_a.model, scalers)
            reference = direct.program_runtimes_batched([[k] for k in kernels])
            np.testing.assert_array_equal(served, reference)
            client = ServiceEvaluator(service, timeout_s=60.0)
            fresh = LearnedEvaluator(result_a.model, scalers)
            kernel = records[5].kernel
            assert client.kernel_runtime(kernel) == (
                fresh.program_runtimes_batched([[kernel]])[0]
            )
        finally:
            service.stop()

    def test_program_runtimes_match_direct(self, corpus, result_a):
        records, scalers = corpus
        programs = [[r.kernel for r in records[:3]], [r.kernel for r in records[3:5]]]
        service = sync_service(result_a, result_cache_entries=0)
        client = ServiceEvaluator(service)
        direct = LearnedEvaluator(result_a.model, scalers)
        np.testing.assert_array_equal(
            client.program_runtimes_batched(programs),
            direct.program_runtimes_batched(programs),
        )

    def test_concurrent_clients_bitwise_identical(self, corpus, result_a):
        # One distinct kernel per client. A shard's kernels in one
        # micro-batch share one forward, so served scores are bitwise
        # those of a direct ``score_tile_groups`` call on the same
        # per-shard groups in batch order (equal batch shape), and within
        # float32 rounding of each kernel's own forward.
        records, scalers = corpus
        workload = [(r.kernel, enumerate_tile_sizes(r.kernel)[:6]) for r in records]
        direct = LearnedEvaluator(result_a.model, scalers)
        reference = [direct.score_tiles_batched(k, t) for k, t in workload]
        service = sync_service(
            result_a, max_batch_size=16, replicas=2, result_cache_entries=0
        )
        by_shard: dict[int, list[int]] = {}
        for idx, (kernel, _) in enumerate(workload):
            shard = service.executor.shard_for(kernel.fingerprint())
            by_shard.setdefault(shard, []).append(idx)
        assert len(by_shard) == 2 and max(map(len, by_shard.values())) > 1
        for _wave in range(3):
            futures = [
                service.submit(TileScoresRequest(kernel=k, tiles=tuple(t)))
                for k, t in workload
            ]
            assert service.flush() == len(workload)  # one micro-batch
            served = [f.result(timeout=5).unwrap() for f in futures]
            for members in by_shard.values():
                grouped = direct.score_tile_groups([workload[i] for i in members])
                for idx, scores in zip(members, grouped):
                    np.testing.assert_array_equal(served[idx], scores)
            for scores, alone in zip(served, reference):
                np.testing.assert_allclose(scores, alone, rtol=1e-5)

        # Genuinely concurrent clients: which requests share a batch is up
        # to the scheduler, so only the rounding-level guarantee applies.
        config = ServiceConfig(
            max_batch_size=16, flush_interval_s=0.001, replicas=2, result_cache_entries=0
        )
        outputs = {}
        with CostModelService(result_a, config) as service:
            def client(idx, kernel, tiles):
                evaluator = ServiceEvaluator(service)
                outputs[idx] = evaluator.score_tiles_batched(kernel, tiles)

            for _wave in range(3):
                threads = [
                    threading.Thread(target=client, args=(i, k, t))
                    for i, (k, t) in enumerate(workload)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert len(outputs) == len(workload)
                for idx, scores in outputs.items():
                    np.testing.assert_allclose(scores, reference[idx], rtol=1e-5)
                outputs.clear()

    def test_autotuner_runs_unchanged_against_service(self, corpus, result_a):
        records, scalers = corpus
        kernels = [r.kernel for r in records[:3]]
        direct = LearnedEvaluator(result_a.model, scalers)
        service = sync_service(result_a)
        client = ServiceEvaluator(service)
        assert isinstance(client, TileScorer) and isinstance(client, ProgramCostModel)
        tuned_direct = model_tile_autotune(kernels, direct, HardwareEvaluator(), top_k=1)
        tuned_served = model_tile_autotune(kernels, client, HardwareEvaluator(), top_k=1)
        assert tuned_direct.tiles == tuned_served.tiles
        assert tuned_served.hardware_evaluations == 0

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("chains", [1, 4])
    def test_fusion_autotuner_runs_unchanged_against_service(self, executor, chains):
        """One chain prices through ``program_runtime``, four through
        ``program_runtimes_batched``; either way the served search makes
        the direct search's decisions, bit for bit."""
        program = vision.image_embed(0)
        records = build_fusion_dataset([program], configs_per_program=2, seed=0).records
        cfg = ModelConfig(task="fusion", reduction="column-wise", **SMALL)
        model = LearnedPerformanceModel(cfg, seed=0)
        result = TrainResult(model=model, scalers=Scalers.fit_fusion(records), loss_history=[])

        def tune(learned):
            return model_fusion_autotune(
                program, learned, HardwareEvaluator(), model_budget=24, seed=3, chains=chains
            )

        direct = tune(LearnedEvaluator(result.model, result.scalers))
        service = sync_service(result, executor=executor)
        try:
            served = tune(ServiceEvaluator(service))
        finally:
            service.stop()
        assert served.config.decisions == direct.config.decisions
        assert served.runtime == direct.runtime
        assert served.model_evaluations == direct.model_evaluations == 24


class TestResultCacheInService:
    def test_repeat_request_is_cache_hit_with_identical_value(self, corpus, result_a):
        records, _ = corpus
        kernel = records[0].kernel
        tiles = enumerate_tile_sizes(kernel)[:5]
        service = sync_service(result_a)
        client = ServiceEvaluator(service)
        first = client.score_tiles_batched(kernel, tiles)
        assert not client.last_response.cache_hit
        second = client.score_tiles_batched(kernel, tiles)
        assert client.last_response.cache_hit
        np.testing.assert_array_equal(first, second)
        assert service.result_cache.stats()["hits"] == 1

    def test_cache_is_version_scoped(self, corpus, result_a, result_b):
        records, _ = corpus
        kernel = records[0].kernel
        tiles = enumerate_tile_sizes(kernel)[:5]
        registry = ModelRegistry()
        registry.publish(result_a)
        registry.publish(result_b, activate=False)
        service = CostModelService(registry, ServiceConfig())
        client = ServiceEvaluator(service)
        from_a = client.score_tiles_batched(kernel, tiles)
        registry.activate("v2")
        from_b = client.score_tiles_batched(kernel, tiles)
        assert not client.last_response.cache_hit  # v2 never served this yet
        assert client.model_version == "v2"
        assert not np.array_equal(from_a, from_b)


class TestHotSwap:
    def test_swap_applies_between_flushes(self, corpus, result_a, result_b):
        records, scalers = corpus
        kernel = records[0].kernel
        tiles = tuple(enumerate_tile_sizes(kernel)[:5])
        registry = ModelRegistry()
        registry.publish(result_a)
        registry.publish(result_b, activate=False)
        service = CostModelService(registry, ServiceConfig(result_cache_entries=0))
        client = ServiceEvaluator(service)
        ref_a = LearnedEvaluator(result_a.model, scalers).score_tiles_batched(kernel, list(tiles))
        ref_b = LearnedEvaluator(result_b.model, scalers).score_tiles_batched(kernel, list(tiles))
        np.testing.assert_array_equal(client.score_tiles_batched(kernel, list(tiles)), ref_a)
        assert client.model_version == "v1"
        registry.activate("v2")
        np.testing.assert_array_equal(client.score_tiles_batched(kernel, list(tiles)), ref_b)
        assert client.model_version == "v2"

    def test_swap_mid_queue_never_mixes_checkpoints_in_one_response(
        self, corpus, result_a, result_b
    ):
        """Requests queued before an activation are batched after it: the
        whole coalesced batch must be served by exactly one checkpoint."""
        records, scalers = corpus
        kernel = records[0].kernel
        tiles = enumerate_tile_sizes(kernel)[:6]
        registry = ModelRegistry()
        registry.publish(result_a)
        registry.publish(result_b, activate=False)
        service = CostModelService(registry, ServiceConfig(result_cache_entries=0))
        f1 = service.submit(TileScoresRequest(kernel=kernel, tiles=tuple(tiles[:3])))
        f2 = service.submit(TileScoresRequest(kernel=kernel, tiles=tuple(tiles[3:])))
        registry.activate("v2")  # lands between submit and execution
        service.flush()
        r1, r2 = f1.result(timeout=5), f2.result(timeout=5)
        assert r1.model_version == r2.model_version == "v2"
        merged_b = LearnedEvaluator(result_b.model, scalers).score_tiles_batched(
            kernel, tiles
        )
        np.testing.assert_array_equal(
            np.concatenate([r1.unwrap(), r2.unwrap()]), merged_b
        )

    def test_swap_under_concurrent_load_serves_single_version_responses(
        self, corpus, result_a, result_b
    ):
        records, scalers = corpus
        workload = [
            (r.kernel, enumerate_tile_sizes(r.kernel)[:5]) for r in records[:4]
        ]
        refs = {
            "v1": {
                k.fingerprint(): LearnedEvaluator(result_a.model, scalers).score_tiles_batched(k, t)
                for k, t in workload
            },
            "v2": {
                k.fingerprint(): LearnedEvaluator(result_b.model, scalers).score_tiles_batched(k, t)
                for k, t in workload
            },
        }
        registry = ModelRegistry()
        registry.publish(result_a)
        registry.publish(result_b, activate=False)
        config = ServiceConfig(max_batch_size=4, flush_interval_s=0.0005, result_cache_entries=0)
        responses = []
        with CostModelService(registry, config) as service:
            def client(kernel, tiles):
                evaluator = ServiceEvaluator(service)
                evaluator.score_tiles_batched(kernel, tiles)
                responses.append((kernel.fingerprint(), evaluator.last_response))

            threads = [
                threading.Thread(target=client, args=(k, t))
                for k, t in workload * 4
            ]
            for i, t in enumerate(threads):
                t.start()
                if i == len(threads) // 2:
                    registry.activate("v2")
            for t in threads:
                t.join()
        assert len(responses) == len(threads)
        versions_seen = set()
        for fingerprint, response in responses:
            versions_seen.add(response.model_version)
            # Same-kernel requests may have been coalesced into a larger
            # forward, whose shape shifts scores at BLAS rounding level —
            # allclose still discriminates v1 from v2 (different inits)
            # by orders of magnitude, which is the mixing guarantee under
            # test here; exact bitwise equality is covered by the
            # shape-controlled tests above.
            np.testing.assert_allclose(
                np.asarray(response.unwrap()),
                refs[response.model_version][fingerprint],
                rtol=1e-4,
                atol=1e-7,
            )
        assert "v2" in versions_seen  # the swap happened mid-stream

    def test_no_requests_dropped_across_swap(self, corpus, result_a, result_b):
        records, _ = corpus
        registry = ModelRegistry()
        registry.publish(result_a)
        registry.publish(result_b, activate=False)
        config = ServiceConfig(max_batch_size=2, flush_interval_s=0.0005, result_cache_entries=0)
        with CostModelService(registry, config) as service:
            futures = [
                service.submit(ProgramRuntimesRequest(programs=((r.kernel,),)))
                for r in records
            ]
            registry.activate("v2")
            results = [f.result(timeout=10) for f in futures]
        assert all(r.error is None for r in results)
        assert service.stats.snapshot()["requests"] == len(records)


class TestServiceLifecycleAndErrors:
    def test_errors_resolve_futures_instead_of_hanging(self, result_a):
        service = sync_service(result_a)
        future = service.submit(TileScoresRequest(kernel=None, tiles=()))
        service.flush()
        response = future.result(timeout=5)
        assert response.error is not None
        with pytest.raises(RuntimeError):
            response.unwrap()

    def test_malformed_request_does_not_fail_co_batched_neighbours(
        self, corpus, result_a
    ):
        records, _ = corpus
        kernel = records[0].kernel
        tiles = tuple(enumerate_tile_sizes(kernel)[:4])
        service = sync_service(result_a, max_batch_size=8, result_cache_entries=0)
        good = service.submit(TileScoresRequest(kernel=kernel, tiles=tiles))
        bad = service.submit(TileScoresRequest(kernel=None, tiles=()))
        service.flush()  # one micro-batch containing both
        assert good.result(timeout=5).error is None
        assert bad.result(timeout=5).error is not None

    def test_stop_drains_pending(self, corpus, result_a):
        records, _ = corpus
        service = CostModelService(result_a, ServiceConfig(result_cache_entries=0))
        service.start()
        futures = [
            service.submit(ProgramRuntimesRequest(programs=((r.kernel,),))) for r in records[:4]
        ]
        service.stop()
        assert all(f.result(timeout=5).error is None for f in futures)
        assert not service.is_running

    def test_empty_registry_rejected(self):
        with pytest.raises(ValueError):
            CostModelService(ModelRegistry())

    def test_replica_sharding_is_stable(self, corpus, result_a):
        records, _ = corpus
        from repro.serving import InThreadExecutor

        executor = InThreadExecutor(ModelRegistry(), replicas=3, max_cached_kernels=1024)
        for record in records:
            fp = record.kernel.fingerprint()
            assert executor.shard_for(fp) == executor.shard_for(fp)
        assert len({executor.shard_for(r.kernel.fingerprint()) for r in records}) > 1


class TestStatsSurfaces:
    def test_evaluator_stats_counters(self, corpus, result_a):
        records, scalers = corpus
        evaluator = LearnedEvaluator(result_a.model, scalers, max_cached_kernels=2)
        for record in records[:4]:
            evaluator.kernel_runtime(record.kernel)
        stats = evaluator.stats()
        assert stats["feature_misses"] == 4
        assert stats["feature_evictions"] == 2  # bound of 2, saw 4 kernels
        assert stats["prediction_misses"] == 4
        assert stats["batch_entries"] <= 2
        evaluator.kernel_runtime(records[3].kernel)
        assert evaluator.stats()["prediction_hits"] == 1

    def test_kernel_cache_eviction_counter(self, corpus):
        records, scalers = corpus
        cache = KernelCache(scalers, max_entries=1)
        cache.entry(records[0].features)
        cache.entry(records[1].features)
        assert cache.stats()["evictions"] == 1

    @mock.patch("repro.autotuner.evaluators.PREDICTIONS_PER_KERNEL", 1)
    def test_configurable_prediction_memo_bound(self, corpus, result_a):
        records, scalers = corpus
        evaluator = LearnedEvaluator(result_a.model, scalers, max_cached_kernels=1)
        evaluator.kernel_runtime(records[0].kernel)
        evaluator.kernel_runtime(records[1].kernel)
        assert evaluator.stats()["prediction_entries"] == 1
        assert evaluator.stats()["prediction_evictions"] == 1

    def test_serving_stats_snapshot(self):
        stats = ServingStats()
        stats.record_batch(4, forwards=1)
        for latency in (0.001, 0.002, 0.003, 0.004):
            stats.record_response(latency, cache_hit=False)
        stats.record_response(0.0, cache_hit=True)
        snap = stats.snapshot()
        assert snap["requests"] == 5
        assert snap["batch_occupancy"] == 4.0
        assert snap["cache_hit_rate"] == pytest.approx(0.2)
        assert snap["requests_per_forward"] == 4.0
        assert snap["latency_max_s"] == pytest.approx(0.004)

    def test_latency_percentiles_empty(self):
        summary = latency_percentiles([])
        assert summary.count == 0 and summary.p99 == 0.0

    def test_service_metrics_merge(self, corpus, result_a):
        records, _ = corpus
        service = sync_service(result_a)
        client = ServiceEvaluator(service)
        kernel = records[0].kernel
        tiles = enumerate_tile_sizes(kernel)[:4]
        client.score_tiles_batched(kernel, tiles)
        client.score_tiles_batched(kernel, tiles)  # result-cache hit
        metrics = service.metrics()
        assert metrics["requests"] == 2
        assert metrics["cache_hit_rate"] == pytest.approx(0.5)
        assert metrics["result_cache_hits"] == 1
        assert metrics["active_version"] == "v1"
        assert metrics["evaluator_feature_misses"] == 1


class TestProtocolKeys:
    def test_tile_cache_keys_distinguish_tiles(self, corpus):
        records, _ = corpus
        kernel = records[0].kernel
        tiles = enumerate_tile_sizes(kernel)[:4]
        a = TileScoresRequest(kernel=kernel, tiles=tuple(tiles[:2]))
        b = TileScoresRequest(kernel=kernel, tiles=tuple(tiles[2:]))
        assert a.cache_key() != b.cache_key()
        assert a.shard_key() == b.shard_key() == kernel.fingerprint()

    def test_program_requests_not_cached(self, corpus):
        records, _ = corpus
        request = ProgramRuntimesRequest(programs=((records[0].kernel,),))
        assert request.cache_key() is None
        assert request.shard_key() == records[0].kernel.fingerprint()

    def test_program_keys_keep_program_boundaries(self, corpus):
        # ((a, b), (c,)) and ((a,), (b, c)) price different programs: the
        # request identity (feedback join, retry key, rollout split) must
        # not flatten them into one fingerprint sequence.
        records, _ = corpus
        by_fingerprint = {r.kernel.fingerprint(): r.kernel for r in records}
        a, b, c = list(by_fingerprint.values())[:3]
        first = ProgramRuntimesRequest(programs=((a, b), (c,)))
        second = ProgramRuntimesRequest(programs=((a,), (b, c)))
        assert request_key(first) != request_key(second)
        assert idempotency_key(first) != idempotency_key(second)
        assert request_unit_hash(first) != request_unit_hash(second)
        feedback = FeedbackCollector()
        feedback.record_prediction(
            "v1", request_key(first), np.array([2.0, 1.0]), request=first
        )
        assert feedback.record_measurement(
            request_key(second), np.array([1.0, 2.0])
        ) == 0
        assert feedback.joined == 0
        assert feedback.record_measurement(
            request_key(first), np.array([2.0, 1.0])
        ) == 1

    def test_tile_identity_is_its_cache_key(self, corpus):
        records, _ = corpus
        kernel = records[0].kernel
        request = TileScoresRequest(
            kernel=kernel, tiles=tuple(enumerate_tile_sizes(kernel)[:2])
        )
        assert request_key(request) == request.cache_key()
        assert idempotency_key(request) == hashlib.sha256(
            repr(request.cache_key()).encode()
        ).hexdigest()[:16]
