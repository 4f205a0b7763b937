"""Tests for the adaptive placement subsystem.

The load-bearing invariants:

* the uniform :class:`ShardMap` routes identically to the legacy static
  ``fingerprint % n`` function (adopting the table is a pure refactor);
* the :class:`PlacementController` only migrates on *sustained* skew
  (hysteresis), respects the rebalance cooldown, and its greedy plans
  actually reduce the imbalance they were triggered by;
* a live migration on the process executor drops no response, never
  mixes versions inside a batch, and leaves responses bitwise-identical
  to an unmigrated service at equal batch shape;
* the in-thread executor's replica autoscaling resizes every live pool
  without changing numerics;
* per-shard stats are relabelled/reset coherently across a migration.
"""
import threading

import numpy as np
import pytest

from repro.compiler import enumerate_tile_sizes
from repro.data import Scalers, build_tile_dataset
from repro.evaluation import ServingStats
from repro.models import LearnedPerformanceModel, ModelConfig, save_model_bytes
from repro.models.trainer import TrainResult
from repro.serving import (
    BucketMove,
    CanaryFraction,
    CostModelService,
    ModelRegistry,
    PlacementConfig,
    PlacementController,
    RebalancePlan,
    ServiceConfig,
    ServiceEvaluator,
    ShardMap,
    TileScoresRequest,
    shard_of,
)
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


def _request_stream(records, n, tiles_per_request=4):
    pool = []
    for record in records:
        tiles = enumerate_tile_sizes(record.kernel)
        if len(tiles) >= tiles_per_request:
            pool.append((record.kernel, tiles))
    stream = []
    for i in range(n):
        kernel, tiles = pool[i % len(pool)]
        start = (i * tiles_per_request) % (len(tiles) - tiles_per_request + 1)
        stream.append(
            TileScoresRequest(
                kernel=kernel, tiles=tuple(tiles[start:start + tiles_per_request])
            )
        )
    return stream


def _grow_plan(shard_map: ShardMap, num_shards: int) -> RebalancePlan:
    """Spread buckets round-robin over a larger shard count."""
    table = list(shard_map.table)
    moves = []
    for bucket in range(len(table)):
        dest = bucket % num_shards
        if dest != table[bucket]:
            moves.append(
                BucketMove(bucket=bucket, source=table[bucket], dest=dest)
            )
            table[bucket] = dest
    return RebalancePlan(
        new_map=shard_map.successor(table, num_shards=num_shards),
        moves=tuple(moves),
        reason="test grow",
    )


def _shrink_plan(shard_map: ShardMap, num_shards: int) -> RebalancePlan:
    """Fold retired shards' buckets onto survivors; relabel onto heirs."""
    table = list(shard_map.table)
    moves = []
    relabel = {}
    for bucket, shard in enumerate(table):
        if shard >= num_shards:
            dest = bucket % num_shards
            moves.append(BucketMove(bucket=bucket, source=shard, dest=dest))
            relabel.setdefault(shard, dest)
            table[bucket] = dest
    return RebalancePlan(
        new_map=shard_map.successor(table, num_shards=num_shards),
        moves=tuple(moves),
        reason="test shrink",
        relabel=relabel,
    )


# ---------------------------------------------------------------------- #
# ShardMap
# ---------------------------------------------------------------------- #


class TestShardMap:
    def test_uniform_routes_like_legacy_static_function(self):
        keys = [f"{(i * 2654435761) % 2**32:08x}" for i in range(500)]
        for shards in (1, 2, 4, 8):
            shard_map = ShardMap.uniform(shards, 64)
            for key in keys:
                assert shard_map.shard_for(key) == shard_of(key, shards)

    def test_empty_key_routes_to_shard_zero(self):
        assert ShardMap.uniform(4).shard_for("") == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardMap(())
        with pytest.raises(ValueError):
            ShardMap((0, -1))
        with pytest.raises(ValueError):
            ShardMap((0, 3), num_shards=2)  # table references shard 3
        with pytest.raises(ValueError):
            ShardMap.uniform(0)
        with pytest.raises(ValueError):
            ShardMap.uniform(8, buckets=4)

    def test_num_shards_may_exceed_referenced(self):
        shard_map = ShardMap((0, 0, 1, 1), num_shards=3)
        assert shard_map.num_shards == 3
        assert shard_map.buckets_of_shard(2) == ()

    def test_successor_bumps_version_and_keeps_buckets(self):
        shard_map = ShardMap.uniform(2, 16)
        new = shard_map.successor([0] * 16)
        assert new.version == shard_map.version + 1
        assert new.num_buckets == 16
        with pytest.raises(ValueError):
            shard_map.successor([0] * 8)

    def test_load_counters_attribute_to_buckets(self):
        shard_map = ShardMap.uniform(2, 8)
        for _ in range(5):
            shard_map.shard_for(f"{3:08x}")  # bucket 3
        loads = shard_map.snapshot_loads(reset=True)
        assert loads[3] == 5 and sum(loads) == 5
        assert sum(shard_map.snapshot_loads()) == 0

    def test_describe_is_json_friendly(self):
        description = ShardMap.uniform(3, 12).describe()
        assert description["num_shards"] == 3.0
        assert description["buckets_per_shard"] == {"0": 4.0, "1": 4.0, "2": 4.0}


# ---------------------------------------------------------------------- #
# PlacementController decision logic (fake service)
# ---------------------------------------------------------------------- #


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _FakeService:
    """Just enough service surface for the controller: stats, map,
    scheduler pressure, and a rebalance() that records plans."""

    def __init__(self, num_shards=4, buckets=16):
        self.shard_map = ShardMap.uniform(num_shards, buckets)
        self.stats = ServingStats()
        self.pressure = 0.0
        self.applied = []
        self.journal = None
        outer = self

        class _Scheduler:
            def queue_pressure(self):
                return outer.pressure

        self.scheduler = _Scheduler()

    def rebalance(self, plan):
        self.applied.append(plan)
        self.shard_map = plan.new_map
        if plan.relabel:
            self.stats.relabel_shards(plan.relabel)
        self.stats.reset_shards(plan.affected_shards)
        self.stats.record_placement_change(len(plan.moves))
        return plan.describe()

    def drive(self, shard_requests: dict):
        """One stats interval: ``n`` requests per shard, spread over the
        shard's buckets (both the stats counters and the map's bucket
        loads see them, like real routed traffic)."""
        for shard, n in shard_requests.items():
            buckets = self.shard_map.buckets_of_shard(shard) or (0,)
            for i in range(n):
                self.stats.record_response(0.001, cache_hit=False, shard=shard)
                self.shard_map.shard_for(f"{buckets[i % len(buckets)]:08x}")


def _controller(service, clock=None, **overrides):
    defaults = dict(
        skew_threshold=1.5,
        hysteresis=2,
        cooldown_s=0.0,
        ewma_alpha=1.0,
        min_interval_requests=4,
    )
    defaults.update(overrides)
    return PlacementController(
        service,
        PlacementConfig(**defaults),
        clock=clock or _FakeClock(),
    )


class TestPlacementController:
    def test_hysteresis_requires_sustained_skew(self):
        service = _FakeService()
        controller = _controller(service, hysteresis=3)
        for i in range(2):
            service.drive({0: 40, 1: 2, 2: 2, 3: 2})
            assert controller.observe() is None, f"interval {i} planned early"
        service.drive({0: 40, 1: 2, 2: 2, 3: 2})
        plan = controller.observe()
        assert plan is not None
        assert all(move.source == 0 for move in plan.moves)

    def test_balanced_load_never_plans(self):
        service = _FakeService()
        controller = _controller(service)
        for _ in range(6):
            service.drive({0: 10, 1: 10, 2: 10, 3: 11})
            assert controller.observe() is None

    def test_quiet_intervals_are_no_evidence(self):
        service = _FakeService()
        controller = _controller(service, min_interval_requests=16)
        for _ in range(5):
            service.drive({0: 3})  # skewed but below the evidence floor
            assert controller.observe() is None

    def test_plan_reduces_imbalance_and_step_applies_it(self):
        service = _FakeService()
        controller = _controller(service)
        summary = None
        for _ in range(2):
            service.drive({0: 48, 1: 4, 2: 4, 3: 4})
            summary = controller.step() or summary
        assert summary is not None and service.applied
        plan = service.applied[0]
        assert plan.new_map.version == 2
        assert service.shard_map is plan.new_map
        # Shard 0 gave buckets away; per the interval's per-bucket loads
        # the new assignment is strictly better balanced.
        buckets_kept = plan.new_map.buckets_of_shard(0)
        assert len(buckets_kept) < 4  # uniform 16/4 = 4 before
        assert controller.rebalances == 1
        assert service.stats.snapshot()["placement_changes"] == 1.0

    def test_applied_plan_is_journaled_through_the_service(self):
        class _Journal:
            def __init__(self):
                self.events = []

            def record(self, kind, trace_id=None, **fields):
                self.events.append({"kind": kind, **fields})

        service = _FakeService()
        service.journal = _Journal()
        controller = _controller(service)
        for _ in range(2):
            service.drive({0: 48, 1: 4, 2: 4, 3: 4})
            controller.step()
        plan = service.applied[0]
        assert service.journal.events == [{
            "kind": "placement.rebalance",
            "reason": plan.reason,
            "moves": len(plan.moves),
            "num_shards": plan.new_map.num_shards,
            "map_version": plan.new_map.version,
        }]

    def test_cooldown_blocks_back_to_back_rebalances(self):
        clock = _FakeClock()
        service = _FakeService()
        controller = _controller(service, clock=clock, cooldown_s=10.0)
        applied = None
        for _ in range(2):
            service.drive({0: 48, 1: 4, 2: 4, 3: 4})
            applied = controller.step() or applied
        assert applied is not None
        # Skew "persists" (fresh traffic still skewed onto shard 1 now):
        for _ in range(3):
            service.drive({1: 48, 0: 4, 2: 4, 3: 4})
            assert controller.observe() is None  # cooling down
        clock.now += 11.0
        service.drive({1: 48, 0: 4, 2: 4, 3: 4})
        assert controller.observe() is not None

    def test_autoscale_up_on_queue_pressure(self):
        service = _FakeService(num_shards=2)
        controller = _controller(
            service, autoscale=True, max_shards=4, scale_up_pressure=0.75
        )
        service.pressure = 1.5
        service.drive({0: 4, 1: 4})
        summary = controller.step()
        assert summary is not None
        assert service.shard_map.num_shards == 3
        assert service.shard_map.buckets_of_shard(2)  # new shard got buckets

    def test_autoscale_down_relabels_retired_shard(self):
        service = _FakeService(num_shards=3)
        controller = _controller(
            service, autoscale=True, min_shards=2, scale_down_pressure=0.05
        )
        service.pressure = 0.0
        service.drive({0: 8, 1: 8, 2: 8})
        summary = controller.step()
        assert summary is not None
        plan = service.applied[0]
        assert plan.new_map.num_shards == 2
        assert set(plan.relabel) == {2}
        assert plan.relabel[2] in (0, 1)
        assert all(shard < 2 for shard in plan.new_map.table)

    def test_autoscale_respects_bounds(self):
        service = _FakeService(num_shards=2)
        controller = _controller(
            service, autoscale=True, min_shards=2, max_shards=2
        )
        service.pressure = 5.0
        service.drive({0: 4, 1: 4})
        assert controller.observe() is None
        service.pressure = 0.0
        service.drive({0: 4, 1: 4})
        assert controller.observe() is None

    def test_describe_exposes_ewmas(self):
        service = _FakeService()
        controller = _controller(service)
        service.drive({0: 10, 1: 2, 2: 2, 3: 2})
        controller.observe()
        description = controller.describe()
        assert description["rebalances"] == 0.0
        assert description["shard_load_ewma"]["0"] == 10.0


# ---------------------------------------------------------------------- #
# live placement changes on real services
# ---------------------------------------------------------------------- #


def _score_stream(service, stream):
    """One request per batch (flush-pumped): equal batch shape across
    services whatever their placement."""
    client = ServiceEvaluator(service)
    return [
        np.asarray(client.score_tiles_batched(req.kernel, list(req.tiles)))
        for req in stream
    ]


class TestInThreadAutoscaling:
    def test_grow_and_shrink_keep_responses_bitwise(self, corpus, result_a):
        records, _ = corpus
        stream = _request_stream(records, 12)
        reference_service = CostModelService(
            result_a, ServiceConfig(replicas=2, result_cache_entries=0)
        )
        reference = _score_stream(reference_service, stream)
        reference_service.stop()

        service = CostModelService(
            result_a, ServiceConfig(replicas=2, result_cache_entries=0)
        )
        try:
            before = _score_stream(service, stream)
            grown = service.rebalance(_grow_plan(service.shard_map, 4))
            assert grown["num_shards"] == 4
            assert service.executor.num_shards == 4
            after_grow = _score_stream(service, stream)
            shrunk = service.rebalance(_shrink_plan(service.shard_map, 2))
            assert shrunk["num_shards"] == 2
            after_shrink = _score_stream(service, stream)
        finally:
            service.stop()
        for got in (before, after_grow, after_shrink):
            for expected, actual in zip(reference, got):
                assert np.array_equal(expected, actual)
                assert expected.dtype == actual.dtype

    def test_stale_plan_rejected(self, result_a):
        service = CostModelService(
            result_a, ServiceConfig(replicas=2, result_cache_entries=0)
        )
        try:
            plan = _grow_plan(service.shard_map, 3)
            service.rebalance(plan)
            with pytest.raises(ValueError, match="stale"):
                service.rebalance(plan)
        finally:
            service.stop()

    def test_metrics_expose_placement(self, corpus, result_a):
        records, _ = corpus
        service = CostModelService(
            result_a, ServiceConfig(replicas=2, result_cache_entries=0)
        )
        try:
            _score_stream(service, _request_stream(records, 4))
            service.rebalance(_grow_plan(service.shard_map, 3))
            metrics = service.metrics()
            assert metrics["placement"]["version"] == 2.0
            assert metrics["placement"]["num_shards"] == 3.0
            assert metrics["placement_changes"] == 1.0
            assert metrics["placement_moves"] >= 1.0
            assert "queue_pressure" in metrics
        finally:
            service.stop()

    def test_shrink_relabels_stats_onto_heirs(self, corpus, result_a):
        records, _ = corpus
        service = CostModelService(
            result_a, ServiceConfig(replicas=3, result_cache_entries=0)
        )
        try:
            _score_stream(service, _request_stream(records, 18))
            before = service.stats.shard_snapshot()
            total_before = sum(e["requests"] for e in before.values())
            plan = _shrink_plan(service.shard_map, 2)
            service.rebalance(plan)
            after = service.stats.shard_snapshot()
            assert all(int(shard) < 2 for shard in after)
            # Relabelled history is conserved: the heir absorbed the
            # retired shard's counters, only reassigned survivors reset.
            heir = plan.relabel.get(2)
            if heir is not None and str(heir) in after:
                assert after[str(heir)]["requests"] >= before.get(
                    str(2), {"requests": 0.0}
                )["requests"]
            assert total_before > 0
        finally:
            service.stop()


class TestProcessMigration:
    def test_migration_under_traffic_drops_nothing(self, corpus, result_a):
        """Grow 2 -> 3 workers while 4 client threads stream requests:
        every future resolves, zero errors, every response version-pure
        on the active version."""
        records, _ = corpus
        registry = ModelRegistry()
        registry.publish(result_a, version="active")
        service = CostModelService(
            registry,
            ServiceConfig(
                executor="process", replicas=2, result_cache_entries=0,
                max_batch_size=8,
            ),
        ).start()
        try:
            streams = [_request_stream(records, 10) for _ in range(4)]
            futures: list = []
            futures_lock = threading.Lock()
            barrier = threading.Barrier(5)

            def client(index):
                barrier.wait()
                for request in streams[index]:
                    future = service.submit(request)
                    with futures_lock:
                        futures.append(future)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            barrier.wait()
            plan = _grow_plan(service.shard_map, 3)
            summary = service.rebalance(plan)
            for t in threads:
                t.join()
            responses = [f.result(timeout=120) for f in futures]
            assert len(responses) == 40
            assert all(r.error is None for r in responses)
            assert all(r.model_version == "active" for r in responses)
            assert summary["workers_spawned"] == 1
            assert summary["blobs_synced"] >= 1
            assert service.executor.num_shards == 3
            per_shard = service.metrics()["per_shard"]
            assert set(per_shard) <= {"0", "1", "2"}
        finally:
            service.stop()

    def test_migrated_service_bitwise_identical_to_unmigrated(
        self, corpus, result_a
    ):
        records, _ = corpus
        stream = _request_stream(records, 8)
        reference_service = CostModelService(
            result_a,
            ServiceConfig(
                executor="process", replicas=2, result_cache_entries=0
            ),
        )
        try:
            reference = _score_stream(reference_service, stream)
        finally:
            reference_service.stop()

        service = CostModelService(
            result_a,
            ServiceConfig(
                executor="process", replicas=2, result_cache_entries=0
            ),
        )
        try:
            _score_stream(service, stream[:2])  # warm the old placement
            service.rebalance(_grow_plan(service.shard_map, 3))
            migrated = _score_stream(service, stream)
        finally:
            service.stop()
        for expected, actual in zip(reference, migrated):
            assert np.array_equal(expected, actual)
            assert expected.dtype == actual.dtype

    def test_new_worker_synced_to_active_and_staged(self, corpus, result_a, result_b):
        """A migration mid-rollout ships *both* live versions to the new
        worker, so a canary batch lands on warm state — and never errors."""
        records, _ = corpus
        registry = ModelRegistry()
        registry.publish(result_a, version="active")
        registry.stage(save_model_bytes(result_b), version="staged")
        service = CostModelService(
            registry,
            ServiceConfig(
                executor="process", replicas=1, result_cache_entries=0
            ),
        )
        try:
            stream = _request_stream(records, 6)
            _score_stream(service, stream[:2])  # boot the old worker
            summary = service.rebalance(_grow_plan(service.shard_map, 2))
            assert summary["blobs_synced"] == 2  # active + staged
            detail = service.executor.shard_stats()[1]
            assert detail["alive"] and detail["version"] == "active"
            assert detail["live_versions"] == 2
            # Canary everything to staged: the new worker must serve it
            # from its warmed evaluator without a cold load failure.
            service.set_rollout(CanaryFraction("staged", 1.0))
            client = ServiceEvaluator(service)
            for request in stream:
                client.score_tiles_batched(request.kernel, list(request.tiles))
                assert client.model_version == "staged"
                assert client.served_by_canary
        finally:
            service.stop()

    def test_shrink_drains_retired_worker(self, corpus, result_a):
        records, _ = corpus
        service = CostModelService(
            result_a,
            ServiceConfig(
                executor="process", replicas=2, result_cache_entries=0
            ),
        )
        try:
            _score_stream(service, _request_stream(records, 6))
            processes = [
                shard.process
                for shard in service.executor._shards
                if shard.process is not None
            ]
            summary = service.rebalance(_shrink_plan(service.shard_map, 1))
            assert summary["workers_retired"] == 1
            assert service.executor.num_shards == 1
            # Retired workers actually exited (drained, not leaked).
            for process in processes[1:]:
                process.join(timeout=10)
                assert not process.is_alive()
            # And the survivor still serves.
            scores = _score_stream(service, _request_stream(records, 4))
            assert all(np.isfinite(s).all() for s in scores)
        finally:
            service.stop()


class TestEndToEndControllerOnService:
    def test_controller_rebalances_skewed_live_traffic(self):
        """Skewed real traffic through a real service: the controller
        detects it and applies a plan that moves buckets off the hot
        shard, while responses keep flowing error-free.

        Needs a kernel pool whose hot set spans several *buckets* (a
        single hot bucket is correctly unsplittable), so this test
        builds its own two-program corpus.
        """
        ds = build_tile_dataset(
            [vision.image_embed(0), vision.alexnet(0)],
            max_kernels_per_program=6, max_tiles_per_kernel=6, seed=0,
        )
        records = ds.records
        scalers = Scalers.fit_tile(records)
        cfg = ModelConfig(task="tile", reduction="column-wise", **SMALL)
        model = LearnedPerformanceModel(cfg, seed=0)
        result = TrainResult(model=model, scalers=scalers, loss_history=[])
        service = CostModelService(
            result, ServiceConfig(replicas=4, result_cache_entries=0)
        )
        controller = PlacementController(
            service,
            PlacementConfig(
                skew_threshold=1.3,
                hysteresis=2,
                cooldown_s=0.0,
                ewma_alpha=1.0,
                min_interval_requests=4,
            ),
        )
        try:
            # Keep only requests that land on shard 0 under the uniform
            # map — a maximally skewed workload.
            stream = [
                req
                for req in _request_stream(records, 60)
                if service.shard_map.table[
                    service.shard_map.bucket_of(req.shard_key())
                ] == 0
            ]
            hot_bucket_count = len(
                {service.shard_map.bucket_of(req.shard_key()) for req in stream}
            )
            assert len(stream) >= 8 and hot_bucket_count >= 2, (
                "corpus yielded too few shard-0 kernels/buckets"
            )
            client = ServiceEvaluator(service)
            applied = None
            for round_index in range(4):
                for request in stream:
                    client.score_tiles_batched(
                        request.kernel, list(request.tiles)
                    )
                applied = controller.step() or applied
                if applied:
                    break
            assert applied is not None, "controller never rebalanced"
            assert service.shard_map.version >= 2
            moved = service.shard_map.describe()["buckets_per_shard"]
            # The hot shard no longer owns every hot bucket.
            hot_buckets = {
                service.shard_map.bucket_of(req.shard_key()) for req in stream
            }
            owners = {service.shard_map.table[b] for b in hot_buckets}
            assert len(owners) > 1, f"hot buckets still on one shard: {moved}"
            # Service still correct after the move.
            scores = _score_stream(service, stream[:4])
            assert all(np.isfinite(s).all() for s in scores)
        finally:
            service.stop()
