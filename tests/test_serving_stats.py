"""Edge-case coverage for :class:`repro.evaluation.ServingStats`.

Three corners a long-lived serving tier actually hits: percentile queries
over empty windows (a metrics scrape right after start), the per-shard
breakdown surviving a worker respawn (the shard id persists, the process
behind it does not), and snapshot consistency under concurrent readers
while writers are hot.
"""
import os
import signal
import threading
import time

import pytest

from repro.compiler import enumerate_tile_sizes
from repro.data import Scalers, build_tile_dataset
from repro.evaluation import ServingStats, latency_percentiles
from repro.models import LearnedPerformanceModel, ModelConfig
from repro.models.trainer import TrainResult
from repro.serving import (
    CostModelService,
    ServiceConfig,
    ServiceEvaluator,
)
from repro.workloads import vision

SMALL = dict(hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2, lstm_hidden=16)


@pytest.fixture(scope="module")
def corpus():
    ds = build_tile_dataset(
        [vision.image_embed(0)], max_kernels_per_program=5, max_tiles_per_kernel=6, seed=0
    )
    scalers = Scalers.fit_tile(ds.records)
    return ds.records, scalers


@pytest.fixture(scope="module")
def result_a(corpus):
    _, scalers = corpus
    cfg = ModelConfig(task="tile", reduction="column-wise", **SMALL)
    model = LearnedPerformanceModel(cfg, seed=0)
    return TrainResult(model=model, scalers=scalers, loss_history=[])


class TestEmptyWindows:
    def test_latency_percentiles_of_nothing(self):
        summary = latency_percentiles([])
        assert summary.count == 0
        assert (summary.mean, summary.p50, summary.p90, summary.p99, summary.max) == (
            0.0, 0.0, 0.0, 0.0, 0.0,
        )

    def test_fresh_stats_snapshot_is_all_zero(self):
        snap = ServingStats().snapshot()
        assert snap["requests"] == 0.0
        assert snap["cache_hit_rate"] == 0.0
        assert snap["batch_occupancy"] == 0.0
        assert snap["requests_per_forward"] == 0.0
        assert snap["shadow_forwards"] == 0.0
        assert snap["latency_p99_s"] == 0.0

    def test_fresh_breakdowns_are_empty(self):
        stats = ServingStats()
        assert stats.shard_snapshot() == {}
        assert stats.version_snapshot() == {}

    def test_single_sample_percentiles_are_that_sample(self):
        stats = ServingStats()
        stats.record_response(0.25, cache_hit=False, shard=0)
        snap = stats.snapshot()
        assert snap["latency_p50_s"] == 0.25
        assert snap["latency_p99_s"] == 0.25
        shard = stats.shard_snapshot()["0"]
        assert shard["latency_p50_s"] == 0.25
        assert shard["latency_max_s"] == 0.25

    def test_shard_with_forwards_but_no_responses(self):
        # A shard whose only activity was a fused ride-along forward must
        # still render a complete, division-safe entry.
        stats = ServingStats()
        stats.record_shard(3, forwards=2)
        entry = stats.shard_snapshot()["3"]
        assert entry["forwards"] == 2.0
        assert entry["requests"] == 0.0
        assert entry["requests_per_forward"] == 0.0
        assert set(ServingStats.empty_shard_entry()) <= set(entry)

    def test_version_entry_shape_matches_empty_template(self):
        stats = ServingStats()
        stats.record_route("v1", canary=True)
        stats.record_route("v1", shadow=True)
        stats.record_route("v1", shadow=True, error=True)
        entry = stats.version_snapshot()["v1"]
        assert set(entry) == set(ServingStats.empty_version_entry())
        assert entry["served"] == 1.0
        assert entry["canary"] == 1.0
        assert entry["shadow"] == 1.0
        assert entry["shadow_errors"] == 1.0
        stats.record_route(None)  # no version resolved: must be a no-op
        assert set(stats.version_snapshot()) == {"v1"}


class TestPercentileProperties:
    """Property-style sweeps over :func:`latency_percentiles`.

    Nearest-rank percentiles promise that every reported tail is a
    latency some request actually paid — these pin that contract at the
    corners where interpolating implementations invent points: single
    samples, all-equal windows, and p99 at small n.
    """

    def test_single_sample_reports_itself_everywhere(self):
        for value in (0.0, 1e-9, 0.25, 3.0):
            summary = latency_percentiles([value])
            assert summary.count == 1
            assert (
                summary.mean, summary.p50, summary.p90, summary.p99, summary.max
            ) == (value, value, value, value, value)

    def test_all_equal_window_collapses_to_that_value(self):
        for n in (2, 3, 7, 100):
            summary = latency_percentiles([0.125] * n)
            assert summary.count == n
            assert (
                summary.mean, summary.p50, summary.p90, summary.p99, summary.max
            ) == (0.125, 0.125, 0.125, 0.125, 0.125)

    def test_p99_at_small_n_is_the_max(self):
        # ceil(0.99 * n) == n for every n < 100: with fewer than 100
        # samples there is no observation strictly inside the top 1%,
        # so nearest-rank p99 must be the maximum, never beyond it.
        rng = __import__("random").Random(7)
        for n in range(1, 100):
            samples = [rng.uniform(0.0, 1.0) for _ in range(n)]
            summary = latency_percentiles(samples)
            assert summary.p99 == summary.max == max(samples)

    def test_percentiles_are_observed_samples_and_ordered(self):
        rng = __import__("random").Random(11)
        for trial in range(50):
            n = rng.randrange(1, 400)
            samples = [rng.expovariate(20.0) for _ in range(n)]
            summary = latency_percentiles(samples)
            observed = set(samples)
            assert {summary.p50, summary.p90, summary.p99, summary.max} <= observed
            assert summary.p50 <= summary.p90 <= summary.p99 <= summary.max
            assert min(samples) <= summary.mean <= summary.max

    def test_order_of_samples_is_irrelevant(self):
        samples = [0.5, 0.1, 0.9, 0.3, 0.7]
        forward = latency_percentiles(samples)
        backward = latency_percentiles(list(reversed(samples)))
        assert forward == backward

    def test_nearest_rank_exact_small_cases(self):
        # n=2: p50 takes rank ceil(0.5*2)=1 -> the smaller sample.
        two = latency_percentiles([0.1, 0.2])
        assert two.p50 == 0.1 and two.p90 == 0.2 and two.p99 == 0.2
        # n=10: p90 takes rank ceil(0.9*10)=9 -> ninth smallest.
        ten = latency_percentiles([x / 10.0 for x in range(1, 11)])
        assert ten.p50 == 0.5 and ten.p90 == 0.9 and ten.p99 == 1.0
        # n=100: rank ceil(0.99*100)=99 -> second largest appears at p99.
        hundred = latency_percentiles([float(x) for x in range(1, 101)])
        assert hundred.p99 == 99.0 and hundred.max == 100.0


class TestSloWindow:
    def test_empty_window_reports_zero_violations(self):
        window = ServingStats().slo_window(0.25)
        assert window["violation_fraction"] == 0.0
        assert window["latency_ewma_s"] == 0.0
        assert window["window"] == 0

    def test_violation_fraction_counts_over_target(self):
        stats = ServingStats()
        for latency in (0.1, 0.1, 0.4, 0.6):
            stats.record_response(latency, cache_hit=False)
        window = stats.slo_window(0.25)
        assert window["window"] == 4
        assert window["violation_fraction"] == pytest.approx(0.5)
        assert 0.0 < window["latency_ewma_s"] < 0.6


class TestRespawnBreakdown:
    def test_per_shard_breakdown_survives_worker_respawn(self, corpus, result_a):
        """SIGKILL a shard worker mid-life: the service's per-shard entry
        keeps its accumulated counters, picks up the executor's restart
        count, and stays complete (every stats key present)."""
        records, _ = corpus
        service = CostModelService(
            result_a,
            ServiceConfig(executor="process", replicas=2, result_cache_entries=0),
        )
        try:
            client = ServiceEvaluator(service, timeout_s=120.0)
            for record in records:
                client.score_tiles_batched(
                    record.kernel, enumerate_tile_sizes(record.kernel)[:4]
                )
            before = service.metrics()["per_shard"]
            # Every worker boots with the executor: the victim is one that
            # served, so the next pass through it must respawn it.
            victim = next(s for s in service.executor._shards if s.commands > 0)
            os.kill(victim.process.pid, signal.SIGKILL)
            time.sleep(0.1)
            for record in records:
                client.score_tiles_batched(
                    record.kernel, enumerate_tile_sizes(record.kernel)[:4]
                )
            after = service.metrics()["per_shard"]
            assert set(after) == set(before)
            required = set(ServingStats.empty_shard_entry()) | {
                "restarts", "alive", "placement",
            }
            for entry in after.values():
                assert required <= set(entry)
                if entry["requests"] > 0:  # a shard that served is alive
                    assert entry["alive"]
            victim_entry = after[str(victim.index)]
            assert victim_entry["restarts"] >= 1
            # Counters accumulate across the respawn, never reset.
            assert victim_entry["requests"] >= before[str(victim.index)]["requests"]
        finally:
            service.stop()


class TestRebalanceRelabeling:
    """Per-shard counters across a placement change: retired shards'
    history merges into heirs (relabel), reassigned shards reset, and
    service-lifetime totals behave predictably through both."""

    def _loaded_stats(self):
        stats = ServingStats()
        for shard, n in ((0, 10), (1, 20), (2, 30)):
            for i in range(n):
                stats.record_response(
                    0.001 * (shard + 1), cache_hit=False,
                    error=i == 0, shard=shard,
                )
            stats.record_shard(shard, forwards=n // 2)
        return stats

    def test_relabel_merges_counters_and_latencies(self):
        stats = self._loaded_stats()
        stats.relabel_shards({2: 0})
        snapshot = stats.shard_snapshot()
        assert set(snapshot) == {"0", "1"}
        assert snapshot["0"]["requests"] == 40.0  # 10 own + 30 inherited
        assert snapshot["0"]["errors"] == 2.0
        assert snapshot["0"]["forwards"] == 20.0
        # The heir's latency window includes the retired shard's samples.
        assert snapshot["0"]["latency_max_s"] == pytest.approx(0.003)
        # Service-lifetime totals are conserved.
        assert sum(e["requests"] for e in snapshot.values()) == 60.0

    def test_relabel_into_fresh_shard_creates_it(self):
        stats = self._loaded_stats()
        stats.relabel_shards({1: 5})
        snapshot = stats.shard_snapshot()
        assert snapshot["5"]["requests"] == 20.0
        assert "1" not in snapshot

    def test_relabel_of_unknown_source_is_a_noop(self):
        stats = self._loaded_stats()
        stats.relabel_shards({7: 0})
        assert stats.shard_snapshot()["0"]["requests"] == 10.0

    def test_reset_clears_only_the_listed_shards(self):
        stats = self._loaded_stats()
        stats.reset_shards([0, 2])
        snapshot = stats.shard_snapshot()
        assert set(snapshot) == {"1"}
        assert snapshot["1"]["requests"] == 20.0
        # A reset shard accumulates cleanly from zero afterwards.
        stats.record_response(0.002, cache_hit=False, shard=0)
        assert stats.shard_snapshot()["0"]["requests"] == 1.0

    def test_placement_change_counters(self):
        stats = ServingStats()
        stats.record_placement_change(moves=3)
        stats.record_placement_change(moves=2)
        snap = stats.snapshot()
        assert snap["placement_changes"] == 2.0
        assert snap["placement_moves"] == 5.0

    def test_concurrent_readers_never_see_torn_relabels(self):
        """Relabels move counters between shards while writers append and
        readers snapshot: every snapshot must be internally consistent —
        the running total across shards never decreases (a torn merge
        would lose or double requests) and no reader ever raises."""
        stats = ServingStats()
        writers, per_writer = 4, 400
        stop = threading.Event()
        errors: list[BaseException] = []
        max_total = writers * per_writer

        def read() -> None:
            try:
                last_total = 0.0
                while not stop.is_set():
                    snapshot = stats.shard_snapshot()
                    total = sum(e["requests"] for e in snapshot.values())
                    assert last_total <= total <= max_total, (
                        f"torn snapshot: {last_total} -> {total}"
                    )
                    last_total = total
            except BaseException as exc:
                errors.append(exc)

        def write(worker: int) -> None:
            for i in range(per_writer):
                stats.record_response(0.001, cache_hit=False, shard=worker % 3)

        def relabel() -> None:
            # Churn counters between shard labels; merges conserve
            # totals, so readers must never observe a dip.
            while not stop.is_set():
                stats.relabel_shards({2: 0})
                stats.relabel_shards({1: 2})
                time.sleep(0)

        readers = [threading.Thread(target=read) for _ in range(2)]
        relabeler = threading.Thread(target=relabel)
        writer_threads = [
            threading.Thread(target=write, args=(w,)) for w in range(writers)
        ]
        for t in readers + [relabeler] + writer_threads:
            t.start()
        for t in writer_threads:
            t.join()
        stop.set()
        for t in readers + [relabeler]:
            t.join()
        assert not errors
        total = sum(
            e["requests"] for e in stats.shard_snapshot().values()
        )
        assert total == float(max_total)


class TestConcurrentReaders:
    def test_snapshots_stay_consistent_under_writer_load(self):
        """Readers hammer every snapshot surface while writers record;
        nothing may raise, and the final counts must be exact."""
        stats = ServingStats()
        writers, per_writer = 4, 500
        stop_reading = threading.Event()
        reader_errors: list[BaseException] = []

        def read() -> None:
            try:
                while not stop_reading.is_set():
                    snap = stats.snapshot()
                    assert snap["requests"] >= snap["errors"]
                    for entry in stats.shard_snapshot().values():
                        assert entry["requests"] >= 0.0
                    for entry in stats.version_snapshot().values():
                        assert entry["served"] >= entry["canary"]
            except BaseException as exc:  # surfaced after join
                reader_errors.append(exc)

        def write(worker: int) -> None:
            for i in range(per_writer):
                stats.record_response(
                    0.001 * (i % 7), cache_hit=i % 5 == 0, shard=worker % 2
                )
                stats.record_route(f"v{worker % 2}", canary=i % 3 == 0)
                if i % 10 == 0:
                    stats.record_batch(4, forwards=1)
                    stats.record_shard(worker % 2, forwards=1)

        readers = [threading.Thread(target=read) for _ in range(3)]
        for t in readers:
            t.start()
        writer_threads = [
            threading.Thread(target=write, args=(w,)) for w in range(writers)
        ]
        for t in writer_threads:
            t.start()
        for t in writer_threads:
            t.join()
        stop_reading.set()
        for t in readers:
            t.join()
        assert not reader_errors
        snap = stats.snapshot()
        assert snap["requests"] == float(writers * per_writer)
        versions = stats.version_snapshot()
        assert sum(v["served"] for v in versions.values()) == writers * per_writer
        shards = stats.shard_snapshot()
        assert sum(s["requests"] for s in shards.values()) == writers * per_writer

    def test_metrics_under_concurrent_readers_on_live_service(
        self, corpus, result_a
    ):
        """service.metrics() — the merged view — is safe to scrape while
        traffic flows."""
        records, _ = corpus
        service = CostModelService(
            result_a, ServiceConfig(replicas=2, result_cache_entries=0)
        ).start()
        errors: list[BaseException] = []
        stop = threading.Event()
        traffic = threading.Event()
        scrapes = {"total": 0, "under_traffic": 0}

        def scrape() -> None:
            try:
                while not stop.is_set():
                    busy = traffic.is_set()
                    metrics = service.metrics()
                    assert "per_shard" in metrics and "per_version" in metrics
                    scrapes["total"] += 1
                    scrapes["under_traffic"] += busy and traffic.is_set()
                    # Yield the GIL: a scraper that never sleeps can starve
                    # the service and client threads for tens of seconds.
                    time.sleep(0)
            except BaseException as exc:
                errors.append(exc)

        try:
            scraper = threading.Thread(target=scrape)
            scraper.start()
            client = ServiceEvaluator(service)
            traffic.set()
            for _ in range(3):
                for record in records:
                    client.score_tiles_batched(
                        record.kernel, enumerate_tile_sizes(record.kernel)[:4]
                    )
            traffic.clear()
            stop.set()
            scraper.join()
            assert not errors
            # The scraper really ran alongside the requests.
            assert scrapes["under_traffic"] >= 1, scrapes
            assert service.metrics()["requests"] >= 3 * len(records)
        finally:
            stop.set()
            service.stop()


class TestStatsSwap:
    def test_swapped_in_stats_object_is_read_whole(self, corpus, result_a):
        """``service.stats = ServingStats()`` after warm-up (the benches'
        idiom) must not tear the merged snapshot: once the registry is
        built, every flat counter, the per-shard breakdown and the SLO
        window have to describe the *same* stats object."""
        records, _ = corpus
        service = CostModelService(
            result_a, ServiceConfig(replicas=1, result_cache_entries=0)
        )
        try:
            client = ServiceEvaluator(service)

            def score(record) -> None:
                client.score_tiles_batched(
                    record.kernel, enumerate_tile_sizes(record.kernel)[:4]
                )

            score(records[0])
            assert service.metrics()["requests"] == 1.0  # registry built
            service.stats = ServingStats()
            score(records[1])
            score(records[2])
            metrics = service.metrics()
            for key, value in service.stats.snapshot().items():
                if key != "qps":  # a rate over wall time, never equal twice
                    assert metrics[key] == value, key
            assert metrics["requests"] == 2.0
            assert metrics["batches"] == 2.0
            assert metrics["per_shard"]["0"]["requests"] == 2.0
            assert metrics["per_version"]["v1"]["served"] == 2.0
            assert metrics["slo_window_samples"] == 2.0
        finally:
            service.stop()
