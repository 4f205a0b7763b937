"""Continuous profiler + alert engine + durable ops journal.

The active-observability layer's contracts, each pinned where it can
actually break: the journal must survive torn writes and preserve event
order across rotation, the alert state machine must hold its pending and
resolve windows exactly (deterministic under an injected clock), the
profiler must attribute wall-time per stage with exemplar links and a
bounded interval ring, and the whole stack must journal a service's real
lifecycle events end to end.
"""
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.compiler import enumerate_tile_sizes
from repro.data import Scalers, build_tile_dataset
from repro.models import LearnedPerformanceModel, ModelConfig
from repro.models.trainer import TrainResult
from repro.serving import (
    AlertEngine,
    AnomalyRule,
    BurnRateRule,
    ContinuousProfiler,
    CostModelService,
    GoldenProbe,
    IncidentReporter,
    MetricsGateway,
    OpsJournal,
    Response,
    ServiceConfig,
    ServiceEvaluator,
    SocketFrontend,
    SyntheticProber,
    TelemetryRegistry,
    ThresholdRule,
    TileScoresRequest,
    Tracer,
    decode_request,
)
from repro.workloads import vision

SMALL = dict(hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2, lstm_hidden=16)


@pytest.fixture(scope="module")
def corpus():
    ds = build_tile_dataset(
        [vision.image_embed(0)], max_kernels_per_program=4, max_tiles_per_kernel=6, seed=0
    )
    scalers = Scalers.fit_tile(ds.records)
    return ds.records, scalers


@pytest.fixture(scope="module")
def result_a(corpus):
    _, scalers = corpus
    cfg = ModelConfig(task="tile", reduction="column-wise", **SMALL)
    model = LearnedPerformanceModel(cfg, seed=0)
    return TrainResult(model=model, scalers=scalers, loss_history=[])


class FakeClock:
    """Injectable wall clock: the whole alert/journal machinery is
    deterministic under it."""

    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ---------------------------------------------------------------------- #
# ops journal: crash safety + rotation
# ---------------------------------------------------------------------- #


class TestJournalCrashSafety:
    def test_events_are_jsonl_with_monotone_seq_and_injected_ts(self, tmp_path):
        clock = FakeClock(500.0)
        with OpsJournal(tmp_path / "ops.jsonl", clock=clock) as journal:
            journal.record("rollout.transition", state="canary")
            clock.advance(1.0)
            journal.record("rollout.transition", state="promoted", trace_id="t-1")
            events = list(journal.replay())
        assert [e["seq"] for e in events] == [1, 2]
        assert [e["ts"] for e in events] == [500.0, 501.0]
        assert events[1]["trace_id"] == "t-1"
        # One JSON object per line on disk, newline-terminated.
        raw = (tmp_path / "ops.jsonl").read_bytes()
        assert raw.endswith(b"\n") and len(raw.splitlines()) == 2

    def test_torn_final_line_is_truncated_and_counted_on_reopen(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        with OpsJournal(path) as journal:
            journal.record("registry.activate", version="v1")
            journal.record("registry.activate", version="v2")
        # A crash mid-append leaves a partial line with no newline.
        with open(path, "ab") as f:
            f.write(b'{"seq": 3, "kind": "registry.acti')
        journal = OpsJournal(path)
        try:
            assert journal.torn_lines_skipped == 1
            journal.record("registry.activate", version="v3")
            events = list(journal.replay())
            # The torn record is gone; seq resumes after the last valid one.
            assert [e["seq"] for e in events] == [1, 2, 3]
            assert [e["version"] for e in events] == ["v1", "v2", "v3"]
            assert journal.snapshot()["journal_torn_lines_skipped"] == 1.0
        finally:
            journal.close()

    def test_seq_resumes_across_clean_reopen(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        with OpsJournal(path) as journal:
            for i in range(3):
                journal.record("breaker.transition", shard=i)
        with OpsJournal(path) as journal:
            entry = journal.record("breaker.transition", shard=3)
        assert entry["seq"] == 4

    def test_rotation_preserves_event_order(self, tmp_path):
        journal = OpsJournal(tmp_path / "ops.jsonl", max_bytes=256, max_files=8)
        try:
            for i in range(40):
                journal.record("worker.respawn", shard=i % 4, restarts=i)
            assert journal.rotations > 0
            assert len(journal.generations()) > 1
            seqs = [e["seq"] for e in journal.replay()]
            # Oldest-first across every generation, no gaps, no repeats.
            assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
            assert seqs[-1] == 40
        finally:
            journal.close()

    def test_rotation_drops_oldest_generation_past_max_files(self, tmp_path):
        journal = OpsJournal(tmp_path / "ops.jsonl", max_bytes=128, max_files=2)
        try:
            for i in range(60):
                journal.record("service.degraded", shard=i)
            assert len(journal.generations()) <= 3  # 2 rotated + live
            seqs = [e["seq"] for e in journal.replay()]
            assert seqs[0] > 1  # the oldest events were aged out
            assert seqs == list(range(seqs[0], 61))
        finally:
            journal.close()

    def test_replay_skips_corrupt_mid_file_lines(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        with OpsJournal(path) as journal:
            journal.record("placement.rebalance", moves=2)
        with open(path, "ab") as f:
            f.write(b"not json at all\n")
            f.write(b'{"no_kind_key": true}\n')
        with OpsJournal(path) as journal:
            journal.record("placement.rebalance", moves=3)
            kinds = [e["kind"] for e in journal.replay()]
            assert kinds == ["placement.rebalance", "placement.rebalance"]
            assert journal.invalid_lines_skipped == 2

    def test_recent_serves_newest_first_without_disk(self, tmp_path):
        with OpsJournal(tmp_path / "ops.jsonl", recent_events=4) as journal:
            for i in range(10):
                journal.record("alert.transition", n=i)
            tail = journal.recent(3)
        assert [e["n"] for e in tail] == [9, 8, 7]

    def test_timeline_filters_by_kind_prefix(self, tmp_path):
        with OpsJournal(tmp_path / "ops.jsonl") as journal:
            journal.record("rollout.transition", state="canary")
            journal.record("registry.activate", version="v2")
            journal.record("rollout.transition", state="promoted")
            journal.record("placement.rebalance", moves=1)
            timeline = journal.timeline(("rollout.", "placement."))
        assert [e["kind"] for e in timeline] == [
            "rollout.transition",
            "rollout.transition",
            "placement.rebalance",
        ]
        assert [e.get("state") for e in timeline[:2]] == ["canary", "promoted"]

    def test_record_after_close_is_dropped_not_raised(self, tmp_path):
        journal = OpsJournal(tmp_path / "ops.jsonl")
        journal.record("registry.spill", versions=1)
        journal.close()
        journal.record("registry.spill", versions=2)  # must not raise
        journal.close()  # idempotent
        assert len(list(journal.replay())) == 1

    def test_registers_counters_into_a_registry(self, tmp_path):
        with OpsJournal(tmp_path / "ops.jsonl") as journal:
            journal.record("registry.publish", version="v1")
            registry = TelemetryRegistry()
            journal.register_into(registry)
            text = registry.prometheus()
        assert "repro_journal_events_total 1" in text
        assert "repro_journal_rotations_total 0" in text


# ---------------------------------------------------------------------- #
# alert engine: state machine under an injected clock
# ---------------------------------------------------------------------- #


class TestAlertStateMachine:
    def _engine(self, rule, clock):
        return AlertEngine(rules=[rule], clock=clock)

    def test_zero_hold_rule_fires_and_resolves_immediately(self):
        clock = FakeClock()
        engine = self._engine(
            ThresholdRule(name="depth", metric="queue_depth", threshold=10.0), clock
        )
        moves = engine.evaluate({"queue_depth": 50.0})
        assert [(m["from"], m["to"]) for m in moves] == [("inactive", "firing")]
        assert engine.state("depth") == "firing"
        moves = engine.evaluate({"queue_depth": 2.0})
        assert [(m["from"], m["to"]) for m in moves] == [("firing", "resolved")]

    def test_pending_hold_requires_breach_sustained_for_s(self):
        clock = FakeClock()
        engine = self._engine(
            ThresholdRule(
                name="depth", metric="queue_depth", threshold=10.0, for_s=5.0
            ),
            clock,
        )
        engine.evaluate({"queue_depth": 50.0})
        assert engine.state("depth") == "pending"
        clock.advance(4.0)
        engine.evaluate({"queue_depth": 50.0})
        assert engine.state("depth") == "pending"  # 4s < for_s
        clock.advance(1.0)
        moves = engine.evaluate({"queue_depth": 50.0})
        assert engine.state("depth") == "firing"
        assert moves[0]["severity"] == "warning"

    def test_pending_cancels_back_to_inactive_on_clear(self):
        clock = FakeClock()
        engine = self._engine(
            ThresholdRule(
                name="depth", metric="queue_depth", threshold=10.0, for_s=5.0
            ),
            clock,
        )
        engine.evaluate({"queue_depth": 50.0})
        clock.advance(1.0)
        moves = engine.evaluate({"queue_depth": 0.0})
        assert [(m["from"], m["to"]) for m in moves] == [("pending", "inactive")]

    def test_keep_s_hysteresis_delays_resolve_and_resets_on_rebreach(self):
        clock = FakeClock()
        engine = self._engine(
            ThresholdRule(
                name="depth", metric="queue_depth", threshold=10.0, keep_s=10.0
            ),
            clock,
        )
        engine.evaluate({"queue_depth": 50.0})
        assert engine.state("depth") == "firing"
        # Clear — but not held long enough.
        engine.evaluate({"queue_depth": 0.0})
        clock.advance(6.0)
        engine.evaluate({"queue_depth": 0.0})
        assert engine.state("depth") == "firing"
        # A re-breach resets the clear window (flap suppression).
        engine.evaluate({"queue_depth": 50.0})
        clock.advance(6.0)
        engine.evaluate({"queue_depth": 0.0})
        clock.advance(6.0)
        engine.evaluate({"queue_depth": 0.0})
        assert engine.state("depth") == "firing"  # only 6s since re-clear...
        clock.advance(5.0)
        engine.evaluate({"queue_depth": 0.0})
        assert engine.state("depth") == "resolved"

    def test_resolved_rebreach_restarts_the_cycle(self):
        clock = FakeClock()
        engine = self._engine(
            ThresholdRule(
                name="depth", metric="queue_depth", threshold=10.0, for_s=1.0
            ),
            clock,
        )
        engine.evaluate({"queue_depth": 50.0})
        clock.advance(1.0)
        engine.evaluate({"queue_depth": 50.0})
        engine.evaluate({"queue_depth": 0.0})
        assert engine.state("depth") == "resolved"
        engine.evaluate({"queue_depth": 50.0})
        assert engine.state("depth") == "pending"
        alert = engine.alerts()["alerts"][0]
        assert alert["fired_count"] == 1 and alert["transitions"] == 4

    def test_burn_rate_rule_gates_on_window_population(self):
        clock = FakeClock()
        engine = self._engine(BurnRateRule(name="slo", min_samples=32), clock)
        # Huge burn rate over a tiny window: no verdict, no page.
        engine.evaluate({"slo_burn_rate": 40.0, "slo_window_samples": 3.0})
        assert engine.state("slo") == "inactive"
        engine.evaluate({"slo_burn_rate": 40.0, "slo_window_samples": 64.0})
        assert engine.state("slo") == "firing"

    def test_missing_metric_is_no_verdict_not_a_crash(self):
        clock = FakeClock()
        engine = self._engine(
            ThresholdRule(name="gone", metric="no.such.path", threshold=1.0), clock
        )
        assert engine.evaluate({"other": 1.0}) == []
        assert engine.state("gone") == "inactive"

    def test_anomaly_rule_fires_on_spike_after_warmup(self):
        clock = FakeClock()
        engine = self._engine(
            AnomalyRule(
                name="latency",
                metric="latency_ewma",
                z_threshold=3.0,
                warmup=5,
                min_std=1e-3,
            ),
            clock,
        )
        # A noisy-but-stationary baseline never breaches.
        for i in range(20):
            engine.evaluate({"latency_ewma": 0.010 + (i % 2) * 0.001})
        assert engine.state("latency") == "inactive"
        engine.evaluate({"latency_ewma": 0.500})  # 50x spike
        assert engine.state("latency") == "firing"

    def test_anomaly_rule_warmup_suppresses_early_verdicts(self):
        clock = FakeClock()
        engine = self._engine(
            AnomalyRule(
                name="latency", metric="latency_ewma", warmup=10, min_std=1e-3
            ),
            clock,
        )
        engine.evaluate({"latency_ewma": 0.010})
        engine.evaluate({"latency_ewma": 9.0})  # huge, but still warming up
        assert engine.state("latency") == "inactive"

    def test_transitions_are_journaled_with_exemplar_trace(self, tmp_path):
        clock = FakeClock()
        with OpsJournal(tmp_path / "ops.jsonl", clock=clock) as journal:
            engine = AlertEngine(
                rules=[
                    ThresholdRule(name="depth", metric="queue_depth", threshold=10.0)
                ],
                clock=clock,
                journal=journal,
                exemplar=lambda: "t-exemplar-1",
            )
            engine.evaluate({"queue_depth": 50.0})
            engine.evaluate({"queue_depth": 0.0})
            events = journal.timeline(("alert.",))
        assert [(e["from"], e["to"]) for e in events] == [
            ("inactive", "firing"),
            ("firing", "resolved"),
        ]
        assert events[0]["trace_id"] == "t-exemplar-1"
        assert events[0]["name"] == "depth"

    def test_raising_journal_neither_escapes_nor_starves_observers(self):
        class _BrokenJournal:
            def record(self, kind, trace_id=None, **fields):
                raise OSError("disk gone")

        engine = AlertEngine(
            rules=[ThresholdRule(name="depth", metric="queue_depth", threshold=10.0)],
            clock=FakeClock(),
            journal=_BrokenJournal(),
        )
        observed = []
        engine.observers.append(observed.append)
        moves = engine.evaluate({"queue_depth": 50.0})
        assert [(m["from"], m["to"]) for m in moves] == [("inactive", "firing")]
        assert observed == moves

    def test_duplicate_rule_name_rejected(self):
        engine = AlertEngine(
            rules=[ThresholdRule(name="x", metric="m", threshold=1.0)]
        )
        with pytest.raises(ValueError):
            engine.add_rule(ThresholdRule(name="x", metric="m2", threshold=2.0))

    def test_evaluate_without_source_or_snapshot_raises(self):
        with pytest.raises(ValueError):
            AlertEngine().evaluate()

    def test_board_sorts_firing_first_and_registers_counters(self):
        clock = FakeClock()
        engine = AlertEngine(
            rules=[
                ThresholdRule(name="quiet", metric="a", threshold=10.0),
                ThresholdRule(name="loud", metric="b", threshold=10.0),
            ],
            clock=clock,
        )
        engine.evaluate({"a": 0.0, "b": 50.0})
        board = engine.alerts()
        assert board["firing"] == 1
        assert board["alerts"][0]["name"] == "loud"
        registry = TelemetryRegistry()
        engine.register_into(registry)
        snap = registry.collect()
        assert snap["alerts_firing"] == 1.0
        assert snap["alert_evaluations"] == 1.0


# ---------------------------------------------------------------------- #
# continuous profiler
# ---------------------------------------------------------------------- #


class TestContinuousProfiler:
    def test_stage_aggregation_and_fractions(self):
        profiler = ContinuousProfiler()
        profiler.record_stage("forward", 0.030)
        profiler.record_stage("forward", 0.010)
        profiler.record_stage("serialize", 0.010)
        report = profiler.profile()
        forward = report["stages"]["forward"]
        assert forward["count"] == 2.0
        assert forward["sum"] == pytest.approx(0.040)
        assert forward["max_s"] == pytest.approx(0.030)
        assert forward["mean_s"] == pytest.approx(0.020)
        assert forward["fraction"] == pytest.approx(0.8)
        fractions = [s["fraction"] for s in report["stages"].values()]
        assert sum(fractions) == pytest.approx(1.0)

    def test_exemplars_link_last_and_worst_samples(self):
        profiler = ContinuousProfiler()
        profiler.record_stage("forward", 0.010, trace_id="t-1")
        profiler.record_stage("forward", 0.500, trace_id="t-slow")
        profiler.record_stage("forward", 0.010, trace_id="t-3")
        stats = profiler.profile()["stages"]["forward"]
        assert stats["exemplar"] == "t-3"
        assert stats["worst_exemplar"] == "t-slow"

    def test_histogram_buckets_are_cumulative(self):
        profiler = ContinuousProfiler()
        profiler.record_stage("compose", 0.0005)
        profiler.record_stage("compose", 0.050)
        buckets = profiler.profile()["stages"]["compose"]["buckets"]
        assert buckets["0.001"] == 1.0
        assert buckets["0.1"] == 2.0  # cumulative: includes the fast one
        assert buckets["5.0"] == 2.0

    def test_sampling_stride_records_every_nth(self):
        profiler = ContinuousProfiler(sample_every=3)
        for _ in range(9):
            profiler.record_stage("forward", 0.001)
        assert profiler.samples_recorded == 3
        assert profiler.samples_skipped == 6

    def test_flame_table_rows_by_call_path(self):
        profiler = ContinuousProfiler()
        profiler.record_stage("forward", 0.020, path="request;forward;executor")
        profiler.record_stage("queue.wait", 0.001)
        rows = profiler.profile()["flame"]
        # One row per call path, sorted by total seconds, descending.
        assert [row["path"] for row in rows] == [
            "request;forward;executor", "request;queue.wait"
        ]
        assert rows[0]["count"] == 1 and rows[0]["seconds"] == 0.020

    def test_interval_snapshots_roll_on_the_record_path(self):
        clock = FakeClock()
        profiler = ContinuousProfiler(
            snapshot_interval_s=10.0, max_snapshots=3, clock=clock
        )
        for round_n in range(5):
            profiler.record_stage("forward", 0.010)
            clock.advance(10.0)
            profiler.record_stage("serialize", 0.001)  # triggers the roll
        intervals = profiler.profile()["intervals"]
        assert len(intervals) == 3  # ring-bounded
        assert all(i["end"] - i["start"] >= 10.0 for i in intervals)
        assert intervals[-1]["stages"]["forward"]["count"] == 1.0
        # Cumulative stats are unaffected by interval rolls.
        assert profiler.profile()["stages"]["forward"]["count"] == 5.0

    def test_registry_contribution(self):
        profiler = ContinuousProfiler()
        profiler.record_stage("forward", 0.020, trace_id="t-1")
        assert profiler.profile()["stages"]["forward"]["worst_exemplar"] == "t-1"
        registry = TelemetryRegistry()
        profiler.register_into(registry)
        exposition = registry.prometheus()
        assert 'repro_profiler_stage_count{stage="forward"}' in exposition
        assert "repro_profiler_samples_total 1" in exposition

    def test_negative_durations_clamp_to_zero(self):
        profiler = ContinuousProfiler()
        profiler.record_stage("forward", -0.5)
        assert profiler.profile()["stages"]["forward"]["sum"] == 0.0


# ---------------------------------------------------------------------- #
# end to end: a real service journals its lifecycle and profiles itself
# ---------------------------------------------------------------------- #


class TestServiceIntegration:
    def test_lifecycle_events_and_stage_profile_end_to_end(
        self, corpus, result_a, tmp_path
    ):
        records, _ = corpus
        journal = OpsJournal(tmp_path / "ops.jsonl")
        profiler = ContinuousProfiler()
        service = CostModelService(
            result_a,
            ServiceConfig(replicas=1, result_cache_entries=0),
            tracer=Tracer(sample_rate=1.0),
            profiler=profiler,
            journal=journal,
        ).start()
        try:
            client = ServiceEvaluator(service, timeout_s=120.0)
            record = records[0]
            tiles = enumerate_tile_sizes(record.kernel)[:4]
            client.score_tiles_batched(record.kernel, tiles)

            # Every pipeline stage got wall-time attributed, and the
            # exemplar links into the tracer's retained ring.
            stages = profiler.profile()["stages"]
            for stage in ("queue.wait", "batch.cut", "compose", "forward", "serialize"):
                assert stages[stage]["count"] >= 1.0, stage
            exemplar = stages["forward"]["exemplar"]
            assert exemplar is not None
            assert service.tracer.trace(exemplar) is not None

            # A hot swap lands in the journal: publish (inline-activated)
            # then an explicit activate back to the original version.
            v1 = service.registry.active_version
            v2 = service.registry.publish(result_a, version="v2")
            service.registry.activate(v1)
            publish = next(
                e for e in journal.replay() if e["kind"] == "registry.publish"
            )
            assert publish["version"] == v2 and publish["activated"] is True
            activate = next(
                e for e in journal.replay() if e["kind"] == "registry.activate"
            )
            assert activate["version"] == v1 and activate["previous"] == v2

            # A spill is journaled too, and the journal snapshot rides
            # the service registry.
            service.registry.spill(tmp_path / "spill")
            assert journal.timeline(("registry.spill",))
            assert service.telemetry.collect()["journal_events"] >= 3.0
        finally:
            service.stop()
            journal.close()

    def test_degradation_and_alerts_share_the_journal(
        self, corpus, result_a, tmp_path
    ):
        """The wiring contract: ``attach_alerts`` points the engine at
        the service's registry snapshot and its journal, so alert
        transitions and service lifecycle events interleave in one
        durable timeline."""
        journal = OpsJournal(tmp_path / "ops.jsonl")
        service = CostModelService(
            result_a,
            ServiceConfig(replicas=1, result_cache_entries=0),
            journal=journal,
        ).start()
        try:
            engine = AlertEngine(
                rules=[
                    ThresholdRule(
                        name="service_up", metric="requests", threshold=-1.0, op=">"
                    )
                ]
            )
            service.attach_alerts(engine)
            assert service.alerts is engine
            engine.evaluate()  # pulls the service snapshot via the source
            assert engine.state("service_up") == "firing"
            events = journal.timeline(("alert.",))
            assert events and events[0]["name"] == "service_up"
            # The engine's accounting landed in the service registry.
            assert service.telemetry.collect()["alerts_firing"] == 1.0
        finally:
            service.stop()
            journal.close()


# ---------------------------------------------------------------------- #
# synthetic prober: known-answer verification over live routes
# ---------------------------------------------------------------------- #


def _golden_probes(records, count=3, tiles=3):
    return [
        GoldenProbe(r.kernel, tuple(enumerate_tile_sizes(r.kernel)[:tiles]))
        for r in records[:count]
    ]


def _corrupt_live_model(service):
    """Silently perturb the *serving side*'s in-memory weights — the
    registry blob (the prober's reference source) stays pristine, so a
    probe's known answer diverges from what the route now serves."""
    version = service.registry.active_version
    model = service.registry.get(version).model
    param = model.parameters()[0].data
    original = param.flat[0]
    param.flat[0] = original + 100.0
    return version, param, original


class TestSyntheticProber:
    @pytest.mark.parametrize("frontends", [("inprocess",), ("inprocess", "socket")])
    def test_known_answers_pass_bitwise_and_probes_stay_out_of_business_stats(
        self, corpus, result_a, frontends
    ):
        records, _ = corpus
        service = CostModelService(
            result_a, ServiceConfig(replicas=2, result_cache_entries=64)
        ).start()
        socket_frontend = SocketFrontend(service) if "socket" in frontends else None
        try:
            prober = SyntheticProber(_golden_probes(records))
            service.attach_prober(prober)
            if socket_frontend is not None:
                prober.add_socket(socket_frontend.address)
            summary = prober.sweep()
            assert summary["failures"] == 0
            assert summary["probes"] == 3 * len(frontends)
            # frontend x 2 shards x 1 live version, all reached.
            assert summary["routes_expected"] == 2 * len(frontends)
            assert summary["routes_covered"] == 2 * len(frontends)
            assert {v["frontend"] for v in prober.recent(10)} == set(frontends)
            # Equal batch shape => bitwise-identical to the direct
            # evaluator over the version's own sealed blob.
            assert all(v["exact"] is True for v in prober.recent(10))
            # Probes never leak into business accounting: QPS, the
            # result cache, and the SLO latency window all stay empty.
            assert service.stats.requests == 0
            assert service.stats.cache_hits == 0
            assert service.stats.slo_window(0.1)["window"] == 0.0
            # ... but they live in their own telemetry family.
            snap = service.telemetry.collect()
            assert snap["prober_probes"] == 3.0 * len(frontends)
            assert snap["prober_failures"] == 0.0
            assert snap["prober_routes_failing"] == 0.0
            if socket_frontend is not None:
                # stop() hangs up the connection add_socket opened.
                assert socket_frontend.stats()["open_connections"] == 1
                prober.stop()
                deadline = time.time() + 10.0
                while socket_frontend.stats()["open_connections"] and time.time() < deadline:
                    time.sleep(0.01)
                assert socket_frontend.stats()["open_connections"] == 0
            # A business request afterwards is counted normally and is
            # not tagged synthetic.
            client = ServiceEvaluator(service, timeout_s=120.0)
            record = records[0]
            client.score_tiles_batched(
                record.kernel, enumerate_tile_sizes(record.kernel)[:3]
            )
            assert service.stats.requests == 1
        finally:
            if socket_frontend is not None:
                socket_frontend.close()
            service.stop()

    def test_probe_responses_are_tagged_synthetic(self, corpus, result_a):
        records, _ = corpus
        service = CostModelService(
            result_a, ServiceConfig(replicas=1, result_cache_entries=64)
        ).start()
        try:
            record = records[0]
            tiles = tuple(enumerate_tile_sizes(record.kernel)[:3])
            future = service.submit(
                TileScoresRequest(kernel=record.kernel, tiles=tiles, synthetic=True)
            )
            response = future.result(timeout=120.0)
            assert response.synthetic is True
            future = service.submit(
                TileScoresRequest(kernel=record.kernel, tiles=tiles)
            )
            response = future.result(timeout=120.0)
            assert response.synthetic is False
        finally:
            service.stop()

    def test_wire_tag_is_optional_and_backwards_compatible(self, corpus):
        records, _ = corpus
        record = records[0]
        tiles = tuple(enumerate_tile_sizes(record.kernel)[:2])
        plain = TileScoresRequest(kernel=record.kernel, tiles=tiles)
        tagged = TileScoresRequest(kernel=record.kernel, tiles=tiles, synthetic=True)
        # Business traffic adds zero bytes for the new field.
        assert b"synthetic" not in plain.to_bytes()
        assert b"synthetic" in tagged.to_bytes()
        assert decode_request(tagged.to_bytes()).synthetic is True
        assert decode_request(plain.to_bytes()).synthetic is False
        # Same contract on the response side.
        ok = Response(value=np.array([1.0, 2.0]), model_version="v1")
        assert b"synthetic" not in ok.to_bytes()
        probe = Response(
            value=np.array([1.0, 2.0]), model_version="v1", synthetic=True
        )
        assert Response.from_bytes(probe.to_bytes()).synthetic is True

    def test_schedule_is_deterministic_under_injected_clock(self, corpus, result_a):
        records, _ = corpus
        clock = FakeClock(100.0)
        service = CostModelService(
            result_a, ServiceConfig(replicas=1, result_cache_entries=0)
        ).start()
        try:
            prober = SyntheticProber(
                _golden_probes(records, count=1), interval_s=10.0, clock=clock
            )
            service.attach_prober(prober)
            assert prober.due()
            assert prober.maybe_sweep() is not None
            assert prober.maybe_sweep() is None  # not due again yet
            clock.advance(9.9)
            assert not prober.due()
            clock.advance(0.2)
            assert prober.maybe_sweep() is not None
        finally:
            service.stop()

    def test_silent_corruption_is_caught_journaled_and_clears_on_recovery(
        self, corpus, result_a, tmp_path
    ):
        records, _ = corpus
        journal = OpsJournal(tmp_path / "ops.jsonl")
        service = CostModelService(
            result_a,
            ServiceConfig(replicas=2, result_cache_entries=0),
            journal=journal,
        ).start()
        try:
            prober = SyntheticProber(_golden_probes(records))
            service.attach_prober(prober)
            assert prober.sweep()["failures"] == 0

            _, param, original = _corrupt_live_model(service)
            summary = prober.sweep()
            assert summary["failures"] > 0
            failing = prober.failing_routes()
            assert failing
            for route, stats in failing.items():
                assert stats["first_failure_seq"] is not None
            # Every failure landed in the journal with the verdict.
            events = journal.timeline(("probe.failure",))
            assert events
            assert all(e["reason"] == "known_answer_mismatch" for e in events)
            seqs = {e["seq"] for e in events}
            assert {
                s["first_failure_seq"] for s in failing.values()
            } <= seqs
            assert service.telemetry.collect()["prober_routes_failing"] > 0.0

            # Recovery: a healthy probe clears the route's breach marker.
            param.flat[0] = original
            assert prober.sweep()["failures"] == 0
            assert prober.failing_routes() == {}
        finally:
            service.stop()
            journal.close()

    def test_transport_failure_is_a_route_failure(self, corpus, result_a):
        records, _ = corpus
        service = CostModelService(
            result_a, ServiceConfig(replicas=1, result_cache_entries=0)
        ).start()
        try:
            prober = SyntheticProber(_golden_probes(records, count=1))
            service.attach_prober(prober)

            def broken(request):
                raise ConnectionResetError("frontend down")

            prober._frontends["socket"] = broken
            summary = prober.sweep()
            assert summary["failures"] == 1  # inprocess passed, socket failed
            (route, stats), = prober.failing_routes().items()
            assert route.startswith("socket:")
            verdict = next(
                v for v in prober.recent(10) if v["frontend"] == "socket"
            )
            assert verdict["reason"] == "transport:ConnectionResetError"

            # Recovery: a no-answer failure has no served version, so it
            # lands on the cell's "?" route — a later healthy answer from
            # the same (frontend, shard) cell must supersede it, or the
            # route would read as failing forever.
            prober._frontends["socket"] = prober._frontends["inprocess"]
            assert prober.sweep()["failures"] == 0
            assert prober.failing_routes() == {}
        finally:
            service.stop()


# ---------------------------------------------------------------------- #
# incident reporter: alert firing -> ranked root-cause report
# ---------------------------------------------------------------------- #


class TestIncidentReporter:
    def test_firing_alert_opens_report_naming_shard_and_journal_seq(
        self, corpus, result_a, tmp_path
    ):
        records, _ = corpus
        journal = OpsJournal(tmp_path / "ops.jsonl")
        service = CostModelService(
            result_a,
            ServiceConfig(replicas=2, result_cache_entries=0),
            journal=journal,
        ).start()
        try:
            prober = SyntheticProber(_golden_probes(records))
            service.attach_prober(prober)
            reporter = IncidentReporter()
            service.attach_incidents(reporter)
            engine = AlertEngine(
                rules=[
                    ThresholdRule(
                        name="probe_routes_failing",
                        metric="prober_routes_failing",
                        threshold=0.0,
                        op=">",
                        severity="critical",
                    )
                ]
            )
            service.attach_alerts(engine)

            assert prober.sweep()["failures"] == 0
            assert engine.evaluate() == []  # healthy: no transition
            assert reporter.reports() == []

            _corrupt_live_model(service)
            prober.sweep()
            moves = engine.evaluate()
            assert [(m["name"], m["to"]) for m in moves] == [
                ("probe_routes_failing", "firing")
            ]

            reports = reporter.reports()
            assert len(reports) == 1
            summary = reports[0]
            assert summary["rule"] == "probe_routes_failing"
            assert summary["severity"] == "critical"
            full = reporter.report(summary["id"])
            top = full["causes"][0]
            # The top-ranked cause is the verified probe failure, naming
            # the route's shard and the journal seq of the first breach.
            assert top["kind"] == "probe_failure"
            assert "began at journal seq" in top["cause"]
            failing = prober.failing_routes()
            assert top["evidence"]["route"] in failing
            assert (
                top["evidence"]["first_failure_seq"]
                == failing[top["evidence"]["route"]]["first_failure_seq"]
            )
            # The report carries the breached rule's recent series and
            # the journal window around the breach.
            assert full["series"], "rule series missing"
            kinds = {e["kind"] for e in full["journal_window"]}
            assert "probe.failure" in kinds
            # Journaled under the new event kinds, summary + full payload.
            assert journal.timeline(("incident.open",))
            assert journal.timeline(("incident.report",))
            assert service.telemetry.collect()["incidents_opened"] == 1.0
        finally:
            service.stop()
            journal.close()

    def test_only_firing_transitions_open_reports(self):
        clock = FakeClock(0.0)
        reporter = IncidentReporter(clock=clock)
        engine = AlertEngine(
            rules=[
                ThresholdRule(
                    name="slow", metric="x", threshold=0.0, op=">", for_s=10.0
                )
            ],
            clock=clock,
        )
        reporter.observe(engine)
        assert engine.evaluate({"x": 1.0}) != []  # inactive -> pending
        assert reporter.reports() == []
        clock.advance(11.0)
        assert engine.evaluate({"x": 1.0}) != []  # pending -> firing
        assert len(reporter.reports()) == 1

    def test_report_ring_is_bounded(self):
        reporter = IncidentReporter(max_reports=2)
        for i in range(3):
            reporter.open_incident(
                {"name": f"r{i}", "to": "firing", "severity": "warning"}
            )
        reports = reporter.reports()
        assert len(reports) == 2
        assert [r["rule"] for r in reports] == ["r2", "r1"]
        assert reporter.report("inc-1") is None  # evicted
        assert reporter.report("inc-3") is not None


# ---------------------------------------------------------------------- #
# ops journal under concurrent writers
# ---------------------------------------------------------------------- #


class TestJournalConcurrentWriters:
    def test_interleaved_append_rotate_replay(self, tmp_path):
        """Four writers race appends across rotations while a reader
        replays mid-stream; afterwards the journal must hold every event
        exactly once, in strictly monotone seq order, with no torn
        interleavings on disk."""
        writers, per_writer = 4, 50
        journal = OpsJournal(
            tmp_path / "ops.jsonl", max_bytes=1024, max_files=60
        )
        try:
            start = threading.Barrier(writers + 1)
            stop_reading = threading.Event()

            def write(idx: int) -> None:
                start.wait()
                for n in range(per_writer):
                    journal.record("stress.write", writer=idx, n=n)

            def read() -> None:
                start.wait()
                while not stop_reading.is_set():
                    journal.recent(10)
                    for _ in journal.replay():
                        pass

            threads = [
                threading.Thread(target=write, args=(i,)) for i in range(writers)
            ]
            reader = threading.Thread(target=read)
            for t in threads:
                t.start()
            reader.start()
            for t in threads:
                t.join()
            stop_reading.set()
            reader.join()

            events = list(journal.replay())
            assert len(events) == writers * per_writer
            seqs = [e["seq"] for e in events]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)  # strictly monotone, no dupes
            pairs = {(e["writer"], e["n"]) for e in events}
            assert pairs == {
                (w, n) for w in range(writers) for n in range(per_writer)
            }
            # Replay crossed at least one rotation boundary.
            assert journal.snapshot()["journal_rotations"] >= 1.0
        finally:
            journal.close()


# ---------------------------------------------------------------------- #
# gateway error paths + health verdict
# ---------------------------------------------------------------------- #


def _get_json(address, path):
    host, port = address
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=10
        ) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestGatewayErrorPathsAndHealth:
    def test_bounds_checked_n_and_component_absent_paths(
        self, corpus, result_a, tmp_path
    ):
        journal = OpsJournal(tmp_path / "ops.jsonl")
        service = CostModelService(
            result_a,
            ServiceConfig(replicas=1, result_cache_entries=0),
            tracer=Tracer(sample_rate=1.0),
            journal=journal,
        ).start()
        try:
            with MetricsGateway(service) as gateway:
                address = gateway.address
                # Malformed and out-of-range ?n= answer typed 400s.
                for path in (
                    "/traces/recent?n=abc",
                    "/traces/recent?n=0",
                    "/traces/recent?n=2000",
                    "/events/recent?n=-3",
                    "/events/recent?n=1.5",
                ):
                    status, payload = _get_json(address, path)
                    assert status == 400, path
                    assert "n must be" in payload["error"], path
                status, payload = _get_json(address, "/traces/recent?n=5")
                assert status == 200
                status, payload = _get_json(address, "/events/recent?n=1000")
                assert status == 200
                # Detached components answer 503, unknown ids 404.
                status, payload = _get_json(address, "/probes")
                assert status == 503 and "not enabled" in payload["error"]
                status, payload = _get_json(address, "/incidents")
                assert status == 503
                service.attach_incidents(IncidentReporter())
                status, payload = _get_json(address, "/incidents")
                assert status == 200 and payload["incidents"] == []
                status, payload = _get_json(address, "/incidents/inc-404")
                assert status == 404
                status, payload = _get_json(address, "/nope")
                assert status == 404
        finally:
            service.stop()
            journal.close()

    def test_healthz_verdict_ok_degraded_failing(self, corpus, result_a):
        records, _ = corpus
        service = CostModelService(
            result_a, ServiceConfig(replicas=2, result_cache_entries=0)
        ).start()
        try:
            with MetricsGateway(service) as gateway:
                address = gateway.address
                status, health = _get_json(address, "/healthz")
                assert status == 200 and health["status"] == "ok"
                # Back-compat: the shallow fields are still there.
                assert health["running"] is True
                assert health["active_version"] == "v1"

                # A firing alert degrades (200, load balancer keeps it).
                engine = AlertEngine(
                    rules=[
                        ThresholdRule(
                            name="always", metric="requests", threshold=-1.0
                        )
                    ]
                )
                service.attach_alerts(engine)
                engine.evaluate()
                status, health = _get_json(address, "/healthz")
                assert status == 200 and health["status"] == "degraded"
                assert health["alerts_firing"] == 1

                # A failing probe route is verified breakage: 503.
                prober = SyntheticProber(_golden_probes(records))
                service.attach_prober(prober)
                prober.sweep()
                status, health = _get_json(address, "/healthz")
                assert health["probe_failing_routes"] == []
                _corrupt_live_model(service)
                prober.sweep()
                status, health = _get_json(address, "/healthz")
                assert status == 503 and health["status"] == "failing"
                assert health["probe_failing_routes"]
                # /probes now serves the board with the failing routes.
                status, board = _get_json(address, "/probes")
                assert status == 200
                assert board["failing_routes"] == health["probe_failing_routes"]
        finally:
            service.stop()
