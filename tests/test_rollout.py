"""Tests for the deployment control plane (rollout + feedback).

The load-bearing canary invariants:

* a :class:`CanaryFraction` policy routes the configured fraction
  (±2% over 10k requests) **deterministically** by request hash;
* no executed micro-batch ever mixes versions — canary batches are
  version-pure partitions of the cut batch;
* an injected regressed checkpoint is auto-rolled-back before reaching
  full activation, while the active version's responses stay
  bitwise-identical to a no-rollout service;
* all three policies work on both executors.
"""
import numpy as np
import pytest

from repro.autotuner import LearnedEvaluator
from repro.compiler import enumerate_tile_sizes
from repro.compiler.tiling import TileConfig
from repro.data import Scalers, build_tile_dataset
from repro.models import (
    LearnedPerformanceModel,
    ModelConfig,
    feedback_to_tile_records,
    fine_tune_on_feedback,
    load_model_bytes,
    save_model_bytes,
)
from repro.models.trainer import TrainResult
from repro.serving import (
    CANARY,
    PROMOTED,
    ROLLED_BACK,
    SHADOW,
    CanaryFraction,
    CostModelService,
    FeedbackCollector,
    FullActivation,
    InThreadExecutor,
    ModelRegistry,
    OpsJournal,
    Response,
    RolloutConfig,
    RolloutController,
    ServiceConfig,
    ServiceEvaluator,
    ShadowScore,
    TileScoresRequest,
    prediction_error,
    regressed_checkpoint,
    request_key,
    request_unit_hash,
    tile_measurement,
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
def result_bad(result_a):
    """The active checkpoint with its ranking exactly reversed — the
    worst regression a rollout can face."""
    return regressed_checkpoint(result_a)


def _request_stream(records, n, tiles_per_request=4):
    """n distinct tile-score requests walking the kernel pool."""
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


# ---------------------------------------------------------------------- #
# routing hash + policies
# ---------------------------------------------------------------------- #


class TestRequestHash:
    def test_deterministic_across_instances(self, corpus):
        records, _ = corpus
        request = TileScoresRequest(
            kernel=records[0].kernel,
            tiles=tuple(enumerate_tile_sizes(records[0].kernel)[:4]),
        )
        assert request_unit_hash(request) == request_unit_hash(request)
        clone = TileScoresRequest(kernel=request.kernel, tiles=request.tiles)
        assert request_unit_hash(request) == request_unit_hash(clone)
        assert request_unit_hash(request, salt="a") != request_unit_hash(
            request, salt="b"
        )

    def test_canary_fraction_within_2_percent_over_10k(self, corpus):
        records, _ = corpus
        kernel = records[0].kernel
        fraction = 0.2
        policy = CanaryFraction("staged", fraction)
        requests = [
            TileScoresRequest(
                kernel=kernel,
                tiles=(TileConfig(dims=(i % 64 + 1, i // 64 + 1, 1)),),
            )
            for i in range(10_000)
        ]
        routed = sum(
            1 for r in requests if policy.route(r, "active") == "staged"
        )
        assert abs(routed / 10_000 - fraction) <= 0.02
        # Deterministic: a second policy instance routes identically.
        again = CanaryFraction("staged", fraction)
        assert all(
            policy.route(r, "active") == again.route(r, "active")
            for r in requests[:200]
        )

    def test_fraction_extremes(self, corpus):
        records, _ = corpus
        request = TileScoresRequest(
            kernel=records[0].kernel,
            tiles=tuple(enumerate_tile_sizes(records[0].kernel)[:2]),
        )
        assert CanaryFraction("s", 0.0).route(request, "a") == "a"
        assert CanaryFraction("s", 1.0).route(request, "a") == "s"
        assert FullActivation().route(request, "a") == "a"
        assert FullActivation().shadow(request, "a") is None
        shadow = ShadowScore("s", 1.0)
        assert shadow.route(request, "a") == "a"
        assert shadow.shadow(request, "a") == "s"
        assert ShadowScore("s", 0.0).shadow(request, "a") is None

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CanaryFraction("s", 1.5)
        with pytest.raises(ValueError):
            ShadowScore("s", -0.1)
        with pytest.raises(ValueError):
            RolloutConfig(min_samples=0)
        with pytest.raises(ValueError):
            RolloutConfig(promote_margin=0.5, abort_margin=0.1)
        with pytest.raises(ValueError):
            RolloutConfig(start_phase="nope")


# ---------------------------------------------------------------------- #
# feedback
# ---------------------------------------------------------------------- #


class TestPredictionError:
    def test_perfect_ranking_scores_zero(self):
        assert prediction_error([1.0, 2.0, 3.0], [0.1, 0.2, 0.3]) == 0.0

    def test_reversed_ranking_scores_one(self):
        assert prediction_error([3.0, 2.0, 1.0], [0.1, 0.2, 0.3]) == 1.0

    def test_scalar_relative_error_capped(self):
        assert prediction_error(1.0, 1.0) == 0.0
        assert prediction_error(1.5, 1.0) == pytest.approx(0.5)
        assert prediction_error(100.0, 1.0) == 1.0

    def test_degenerate_inputs(self):
        assert prediction_error([], []) == 0.0
        assert prediction_error([1.0, 2.0], [5.0, 5.0]) == 0.0  # nothing comparable
        assert prediction_error([1.0, 2.0], [1.0]) == 1.0  # size mismatch


class TestFeedbackCollector:
    def test_join_fills_version_window(self):
        collector = FeedbackCollector(window=8)
        collector.record_prediction("v1", ("k",), [1.0, 2.0])
        collector.record_prediction("v2", ("k",), [2.0, 1.0], shadow=True)
        joined = collector.record_measurement(("k",), [0.1, 0.2])
        assert joined == 2
        assert collector.error_window("v1").mean_error == 0.0
        assert collector.error_window("v2").mean_error == 1.0
        assert collector.error_window("v2").count == 1
        samples = collector.samples()
        assert {s.version for s in samples} == {"v1", "v2"}
        assert any(s.shadow for s in samples)

    def test_unmatched_measurement_counted(self):
        collector = FeedbackCollector()
        assert collector.record_measurement(("missing",), 1.0) == 0
        assert collector.snapshot()["unmatched_measurements"] == 1.0

    def test_pending_is_bounded(self):
        collector = FeedbackCollector(max_pending=4)
        for i in range(10):
            collector.record_prediction("v1", ("k", i), 1.0)
        snap = collector.snapshot()
        assert snap["pending"] == 4.0
        assert snap["dropped_pending"] == 6.0

    def test_window_is_bounded_and_resettable(self):
        collector = FeedbackCollector(window=4)
        for i in range(10):
            collector.record_prediction("v1", ("k", i), 1.0)
            collector.record_measurement(("k", i), 1.0)
        assert collector.error_window("v1").count == 4
        collector.reset_version("v1")
        assert collector.error_window("v1").count == 0
        assert collector.error_window(None).count == 0

    def test_drain_samples_empties_buffer(self):
        collector = FeedbackCollector()
        collector.record_prediction("v1", ("k",), 1.0)
        collector.record_measurement(("k",), 1.0)
        assert len(collector.drain_samples()) == 1
        assert collector.samples() == []

    def test_prediction_after_measurement_still_joins(self):
        """Shadow scores land after response futures resolve, so a
        promptly-reported measurement must still join them: the join is
        symmetric in arrival order."""
        collector = FeedbackCollector()
        collector.record_measurement(("k",), [0.1, 0.2])
        collector.record_prediction("staged", ("k",), [1.0, 2.0], shadow=True)
        window = collector.error_window("staged")
        assert window.count == 1
        assert window.mean_error == 0.0

    def test_total_outlives_the_bounded_window(self):
        """`total` is monotone — the rollout controller's budget clock
        must keep ticking after the ring buffer saturates."""
        collector = FeedbackCollector(window=4)
        for i in range(10):
            collector.record_prediction("v1", ("k", i), 1.0)
            collector.record_measurement(("k", i), 1.0)
        window = collector.error_window("v1")
        assert window.count == 4
        assert window.total == 10
        collector.reset_version("v1")
        assert collector.error_window("v1").total == 0

    def test_per_key_pending_is_bounded(self):
        """Endless predictions for one never-measured key must not grow
        memory — the per-key entry list is capped."""
        collector = FeedbackCollector()
        for _ in range(100):
            collector.record_prediction("v1", ("k",), 1.0)
        cap = FeedbackCollector._MAX_ENTRIES_PER_KEY
        assert len(collector._pending[("k",)]) == cap
        assert collector.snapshot()["dropped_pending"] == float(100 - cap)


# ---------------------------------------------------------------------- #
# registry staged lifecycle + retention
# ---------------------------------------------------------------------- #


class TestRegistryStagedLifecycle:
    def test_stage_publishes_without_serving(self, result_a):
        registry = ModelRegistry()
        v1 = registry.publish(result_a)
        staged = registry.stage(result_a)
        assert registry.staged_version == staged
        assert registry.active_version == v1
        assert staged in registry

    def test_activate_consumes_staged_marker(self, result_a):
        registry = ModelRegistry()
        registry.publish(result_a)
        staged = registry.stage(result_a)
        registry.activate(staged)
        assert registry.active_version == staged
        assert registry.staged_version is None

    def test_clear_staged_is_rollback(self, result_a):
        registry = ModelRegistry()
        v1 = registry.publish(result_a)
        registry.stage(result_a)
        registry.clear_staged()
        assert registry.staged_version is None
        assert registry.active_version == v1

    def test_stage_existing_version_by_name(self, result_a):
        registry = ModelRegistry()
        registry.publish(result_a)
        v2 = registry.publish(result_a, activate=False)
        assert registry.stage(v2) == v2
        assert registry.staged_version == v2
        with pytest.raises(KeyError):
            registry.stage("v99")

    def test_stage_rejects_the_active_version(self, result_a):
        """A version cannot be both active and staged — a controller
        comparing a version's window against itself would trivially
        'promote' it."""
        registry = ModelRegistry()
        v1 = registry.publish(result_a)
        with pytest.raises(ValueError):
            registry.stage(v1)
        assert registry.staged_version is None

    def test_retention_never_drops_active_or_staged(self, result_a):
        registry = ModelRegistry(retain=2)
        v1 = registry.publish(result_a)
        staged = registry.stage(result_a)
        for _ in range(3):
            registry.publish(result_a, activate=False)
        versions = registry.versions
        assert len(versions) == 2
        assert v1 in versions and staged in versions

    def test_staging_at_the_retention_bound_keeps_the_new_stage(self, result_a):
        """Re-staging over a full registry must evict the *old* staged
        version, never the version being staged (the staged marker is
        set inside the same locked section as pruning)."""
        registry = ModelRegistry(retain=2)
        v1 = registry.publish(result_a)
        old_staged = registry.stage(result_a)
        new_staged = registry.stage(result_a)
        assert registry.staged_version == new_staged
        assert new_staged in registry  # blob survived its own staging
        registry.blob(new_staged)
        assert old_staged not in registry
        assert registry.versions == [v1, new_staged]
        with pytest.raises(ValueError):
            registry.publish(result_a, activate=True, stage=True)

    def test_retention_prunes_oldest_inactive(self, result_a):
        registry = ModelRegistry(retain=2)
        v1 = registry.publish(result_a)
        v2 = registry.publish(result_a)  # activates v2
        v3 = registry.publish(result_a)  # activates v3; v1 must go
        assert v1 not in registry
        assert registry.versions == [v2, v3]
        with pytest.raises(ValueError):
            ModelRegistry(retain=1)

    def test_spill_load_preserves_staged_marker(self, result_a, tmp_path):
        registry = ModelRegistry()
        registry.publish(result_a)
        staged = registry.stage(result_a)
        registry.spill(tmp_path / "reg")
        restored = ModelRegistry.load(tmp_path / "reg")
        assert restored.staged_version == staged
        assert restored.active_version == registry.active_version

    def test_load_with_retention_keeps_active(self, result_a, tmp_path):
        registry = ModelRegistry()
        for _ in range(4):
            registry.publish(result_a)
        registry.spill(tmp_path / "reg")
        restored = ModelRegistry.load(tmp_path / "reg", retain=2)
        assert restored.active_version == registry.active_version
        assert len(restored.versions) == 2
        assert restored.active_version in restored.versions


# ---------------------------------------------------------------------- #
# wire form of the rollout tags
# ---------------------------------------------------------------------- #


class TestResponseRolloutTags:
    def test_canary_and_shadow_tags_roundtrip(self):
        response = Response(
            value=np.arange(3, dtype=np.float32),
            model_version="v2",
            canary=True,
            shadowed_by="v3",
        )
        decoded = Response.from_bytes(response.to_bytes())
        assert decoded.canary is True
        assert decoded.shadowed_by == "v3"

    def test_pre_rollout_frames_still_decode(self):
        # A peer that predates the control plane omits the tag keys.
        import json
        import struct

        header = json.dumps(
            {
                "kind": "scalar",
                "dtype": "<f8",
                "shape": None,
                "model_version": "v1",
                "batch_size": 1,
                "cache_hit": False,
                "latency_s": 0.0,
                "error": None,
            }
        ).encode()
        data = struct.pack(">I", len(header)) + header + struct.pack("<d", 1.5)
        decoded = Response.from_bytes(data)
        assert decoded.canary is False
        assert decoded.shadowed_by is None
        assert decoded.value == 1.5


# ---------------------------------------------------------------------- #
# canary serving invariants (thread executor)
# ---------------------------------------------------------------------- #


class _RecordingExecutor(InThreadExecutor):
    """Spy: records every (version, commands) execution."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def run(self, version, commands):
        self.calls.append((version, list(commands)))
        return super().run(version, commands)


def _canary_registry(result_a, result_bad):
    registry = ModelRegistry()
    registry.publish(result_a, version="good")
    registry.stage(result_bad, version="bad")
    return registry


class TestCanaryServing:
    def test_responses_follow_deterministic_routes(self, corpus, result_a, result_bad):
        records, _ = corpus
        registry = _canary_registry(result_a, result_bad)
        policy = CanaryFraction("bad", 0.5)
        service = CostModelService(
            registry,
            ServiceConfig(result_cache_entries=0),
            rollout=policy,
        )
        try:
            client = ServiceEvaluator(service)
            for request in _request_stream(records, 40):
                client.score_tiles_batched(request.kernel, list(request.tiles))
                expected = policy.route(request, "good")
                assert client.model_version == expected
                assert client.served_by_canary == (expected == "bad")
            assert set(client.version_counts) == {"good", "bad"}
        finally:
            service.stop()

    def test_no_micro_batch_mixes_versions(self, corpus, result_a, result_bad):
        """One cut batch under a canary policy executes as version-pure
        partitions: every command in one executor call belongs to a
        request that routes to exactly that call's version."""
        records, _ = corpus
        registry = _canary_registry(result_a, result_bad)
        policy = CanaryFraction("bad", 0.5)
        spy = _RecordingExecutor(registry, replicas=1)
        service = CostModelService(
            registry,
            ServiceConfig(max_batch_size=64, result_cache_entries=0),
            executor=spy,
            rollout=policy,
        )
        try:
            # Distinct kernels so commands map 1:1 back to requests.
            requests = [
                TileScoresRequest(
                    kernel=r.kernel,
                    tiles=tuple(enumerate_tile_sizes(r.kernel)[:4]),
                )
                for r in records
            ]
            route_of = {
                r.kernel.fingerprint(): policy.route(r, "good") for r in requests
            }
            assert set(route_of.values()) == {"good", "bad"}  # both sides hit
            futures = [service.submit(r) for r in requests]
            service.flush()  # one micro-batch, partitioned by version
            for future in futures:
                assert future.result(timeout=30).error is None
            assert len(spy.calls) == 2  # one version-pure batch per side
            for version, commands in spy.calls:
                for command in commands:
                    assert route_of[command.kernel.fingerprint()] == version
        finally:
            service.stop()

    def test_regressed_canary_rolls_back_with_bitwise_active_responses(
        self, corpus, result_a, result_bad
    ):
        """The acceptance scenario: an injected regressed checkpoint is
        rolled back before full activation, and every active-served
        response is bitwise-identical to a service with no rollout."""
        records, scalers = corpus
        direct = LearnedEvaluator(result_a.model, scalers)

        plain = CostModelService(result_a, ServiceConfig(result_cache_entries=0))
        registry = _canary_registry(result_a, result_bad)
        feedback = FeedbackCollector()
        service = CostModelService(
            registry, ServiceConfig(result_cache_entries=0), feedback=feedback
        )
        controller = RolloutController(
            service,
            feedback,
            RolloutConfig(
                canary_fraction=0.5,
                min_samples=8,
                max_samples_per_phase=64,
                promote_margin=0.02,
                abort_margin=0.2,
                start_phase=CANARY,
            ),
        )
        try:
            controller.stage("bad")
            assert controller.state == CANARY
            plain_client = ServiceEvaluator(plain)
            client = ServiceEvaluator(service)
            budget = 200
            requests_used = None
            for i, request in enumerate(_request_stream(records, budget)):
                scores = client.score_tiles_batched(request.kernel, list(request.tiles))
                reference = plain_client.score_tiles_batched(
                    request.kernel, list(request.tiles)
                )
                if client.model_version == "good":
                    # Active responses must not even wiggle at float level.
                    assert scores.tobytes() == reference.tobytes()
                # "Hardware" ground truth agrees with the active model's
                # ranking, so the negated canary is maximally regressed.
                feedback.record_measurement(
                    request_key(request), direct.score_tiles_batched(
                        request.kernel, list(request.tiles)
                    )
                )
                if controller.step() == ROLLED_BACK:
                    requests_used = i + 1
                    break
            assert controller.state == ROLLED_BACK
            assert requests_used is not None and requests_used <= budget
            # Never promoted, never served after rollback, active untouched.
            assert all(t.state != PROMOTED for t in controller.transitions)
            assert registry.active_version == "good"
            assert registry.staged_version is None
            assert isinstance(service.get_rollout(), FullActivation)
            post = ServiceEvaluator(service)
            for request in _request_stream(records, 8):
                post.score_tiles_batched(request.kernel, list(request.tiles))
                assert post.model_version == "good"
            per_version = service.metrics()["per_version"]
            assert per_version["bad"]["canary"] > 0
        finally:
            plain.stop()
            service.stop()

    def test_healthy_rollout_promotes_through_shadow_and_canary(
        self, corpus, result_a
    ):
        """A staged checkpoint as good as the active one walks the whole
        state machine: staged -> shadow -> canary -> promoted."""
        records, scalers = corpus
        direct = LearnedEvaluator(result_a.model, scalers)
        registry = ModelRegistry()
        registry.publish(result_a, version="good")
        feedback = FeedbackCollector()
        service = CostModelService(
            registry, ServiceConfig(result_cache_entries=0), feedback=feedback
        )
        controller = RolloutController(
            service,
            feedback,
            RolloutConfig(
                canary_fraction=0.5,
                min_samples=6,
                max_samples_per_phase=64,
                promote_margin=0.02,
                abort_margin=0.2,
            ),
        )
        try:
            # Same weights, new version: accuracy provably equal.
            staged = controller.stage(result_a, version="good-retrained")
            assert controller.state == SHADOW
            client = ServiceEvaluator(service)
            states = {SHADOW}
            for request in _request_stream(records, 120):
                client.score_tiles_batched(request.kernel, list(request.tiles))
                if controller.state == SHADOW:
                    assert client.model_version == "good"  # shadow never serves
                feedback.record_measurement(
                    request_key(request),
                    direct.score_tiles_batched(request.kernel, list(request.tiles)),
                )
                states.add(controller.step())
                if controller.state == PROMOTED:
                    break
            assert states >= {SHADOW, CANARY, PROMOTED}
            assert registry.active_version == staged
            assert registry.staged_version is None
            after = ServiceEvaluator(service)
            after.score_tiles_batched(records[0].kernel, enumerate_tile_sizes(records[0].kernel)[:4])
            assert after.model_version == staged
        finally:
            service.stop()

    def test_stage_over_live_rollout_raises(self, corpus, result_a):
        registry = ModelRegistry()
        registry.publish(result_a, version="good")
        feedback = FeedbackCollector()
        service = CostModelService(registry, ServiceConfig(), feedback=feedback)
        controller = RolloutController(service, feedback)
        try:
            controller.stage(result_a)
            with pytest.raises(RuntimeError):
                controller.stage(result_a)
            assert controller.abort() == ROLLED_BACK
            assert controller.step() == ROLLED_BACK  # idempotent once settled
        finally:
            service.stop()

    def test_transitions_are_journaled_through_the_service(self, result_a, tmp_path):
        registry = ModelRegistry()
        registry.publish(result_a, version="good")
        feedback = FeedbackCollector()
        with OpsJournal(tmp_path / "ops.jsonl") as journal:
            service = CostModelService(
                registry, ServiceConfig(), feedback=feedback, journal=journal
            )
            try:
                RolloutController(service, feedback).stage(result_a, version="next")
            finally:
                service.stop()
            events = journal.timeline(("rollout.",))
        assert [(e["kind"], e["state"], e["staged_version"]) for e in events] == [
            ("rollout.transition", SHADOW, "next")
        ]

    def test_undecided_rollout_rolls_back_after_budget(self, corpus, result_a):
        """A staged version stuck between the margins must not limp
        forever: the per-phase sample budget forces a rollback."""
        records, _ = corpus
        registry = ModelRegistry()
        registry.publish(result_a, version="good")
        # Window smaller than the phase budget: the budget clock must run
        # on the monotone join total, not the saturating window count.
        feedback = FeedbackCollector(window=4)
        service = CostModelService(
            registry, ServiceConfig(result_cache_entries=0), feedback=feedback
        )
        controller = RolloutController(
            service,
            feedback,
            RolloutConfig(
                min_samples=4,
                max_samples_per_phase=8,
                promote_margin=0.0,
                abort_margin=1.0,  # unreachable: nothing aborts early
                start_phase=CANARY,
                canary_fraction=1.0,
            ),
        )
        try:
            controller.stage(result_a, version="undecided")
            # Feed errors in the dead zone between the margins.
            for i in range(12):
                feedback.record_prediction("undecided", ("k", i), [1.0, 2.0, 3.0])
                feedback.record_prediction("good", ("g", i), [1.0, 2.0, 3.0])
                feedback.record_measurement(("k", i), [0.3, 0.1, 0.2])
                feedback.record_measurement(("g", i), [0.1, 0.2, 0.3])
                controller.step()
            assert controller.state == ROLLED_BACK
            assert "undecided" not in (registry.staged_version,)
        finally:
            service.stop()


# ---------------------------------------------------------------------- #
# wall-clock phase budgets
# ---------------------------------------------------------------------- #


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _timed_controller(service, feedback, clock, **overrides):
    defaults = dict(
        min_samples=4,
        max_samples_per_phase=100,
        promote_margin=0.05,
        abort_margin=1.0,
        start_phase=CANARY,
        canary_fraction=1.0,
        max_seconds_per_phase=30.0,
    )
    defaults.update(overrides)
    return RolloutController(
        service, feedback, RolloutConfig(**defaults), clock=clock
    )


class TestTimeBudgets:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RolloutConfig(max_seconds_per_phase=0.0)
        with pytest.raises(ValueError):
            RolloutConfig(max_seconds_per_phase=-1.0)
        assert RolloutConfig(max_seconds_per_phase=None).max_seconds_per_phase is None

    def test_timeout_without_evidence_rolls_back(self, result_a):
        """A bursty/low-traffic deployment that never reaches min_samples
        must still conclude: the wall-clock ceiling rolls it back."""
        registry = ModelRegistry()
        registry.publish(result_a, version="good")
        feedback = FeedbackCollector()
        service = CostModelService(registry, ServiceConfig(), feedback=feedback)
        clock = _FakeClock()
        controller = _timed_controller(service, feedback, clock)
        try:
            controller.stage(result_a, version="slow")
            assert controller.step() == CANARY  # within budget, no verdict
            clock.now = 29.9
            assert controller.step() == CANARY
            clock.now = 30.0
            assert controller.step() == ROLLED_BACK
            assert registry.staged_version is None
            assert registry.active_version == "good"
            assert "wall-clock" in controller.transitions[-1].reason
        finally:
            service.stop()

    def test_timeout_in_dead_zone_rolls_back(self, result_a):
        """Evidence stuck between the margins at the ceiling concludes
        too — the sample budget alone would have waited forever."""
        registry = ModelRegistry()
        registry.publish(result_a, version="good")
        feedback = FeedbackCollector()
        service = CostModelService(registry, ServiceConfig(), feedback=feedback)
        clock = _FakeClock()
        controller = _timed_controller(
            service, feedback, clock, promote_margin=0.0, abort_margin=1.0
        )
        try:
            controller.stage(result_a, version="meh")
            for i in range(6):  # dead zone: staged worse, but under abort
                feedback.record_prediction("meh", ("k", i), [1.0, 2.0, 3.0])
                feedback.record_prediction("good", ("g", i), [1.0, 2.0, 3.0])
                feedback.record_measurement(("k", i), [2.0, 1.0, 3.0])
                feedback.record_measurement(("g", i), [1.0, 2.0, 3.0])
            assert controller.step() == CANARY  # undecided, budget left
            clock.now = 31.0
            assert controller.step() == ROLLED_BACK
            assert "undecided" in controller.transitions[-1].reason
        finally:
            service.stop()

    def test_good_evidence_still_promotes_at_the_ceiling(self, result_a):
        """The ceiling forces a *decision*, not a rollback: a window
        within the promote margin advances even when time ran out."""
        registry = ModelRegistry()
        registry.publish(result_a, version="good")
        feedback = FeedbackCollector()
        service = CostModelService(registry, ServiceConfig(), feedback=feedback)
        clock = _FakeClock()
        controller = _timed_controller(service, feedback, clock)
        try:
            controller.stage(result_a, version="fine")
            for i in range(4):
                feedback.record_prediction("fine", ("k", i), [1.0, 2.0, 3.0])
                feedback.record_prediction("good", ("g", i), [1.0, 2.0, 3.0])
                feedback.record_measurement(("k", i), [1.0, 2.0, 3.0])
                feedback.record_measurement(("g", i), [1.0, 2.0, 3.0])
            clock.now = 1000.0
            assert controller.step() == PROMOTED
            assert registry.active_version == "fine"
        finally:
            service.stop()

    def test_phase_clock_resets_on_shadow_to_canary(self, result_a):
        """Each phase gets its own wall-clock budget: time spent in
        shadow does not count against the canary phase."""
        registry = ModelRegistry()
        registry.publish(result_a, version="good")
        feedback = FeedbackCollector()
        service = CostModelService(registry, ServiceConfig(), feedback=feedback)
        clock = _FakeClock()
        controller = _timed_controller(
            service, feedback, clock, start_phase=SHADOW, max_seconds_per_phase=10.0
        )
        try:
            controller.stage(result_a, version="twophase")
            for i in range(4):
                feedback.record_prediction("twophase", ("k", i), [1.0, 2.0, 3.0])
                feedback.record_prediction("good", ("g", i), [1.0, 2.0, 3.0])
                feedback.record_measurement(("k", i), [1.0, 2.0, 3.0])
                feedback.record_measurement(("g", i), [1.0, 2.0, 3.0])
            clock.now = 8.0
            assert controller.step() == CANARY  # advanced at t=8
            clock.now = 16.0  # 16s total, but only 8s into the canary
            assert controller.step() == CANARY
            clock.now = 18.1  # 10.1s into the canary, no fresh samples
            assert controller.step() == ROLLED_BACK
        finally:
            service.stop()

    def test_no_ceiling_means_sample_budget_only(self, result_a):
        registry = ModelRegistry()
        registry.publish(result_a, version="good")
        feedback = FeedbackCollector()
        service = CostModelService(registry, ServiceConfig(), feedback=feedback)
        clock = _FakeClock()
        controller = _timed_controller(
            service, feedback, clock, max_seconds_per_phase=None
        )
        try:
            controller.stage(result_a, version="patient")
            clock.now = 1e9
            assert controller.step() == CANARY  # waits for samples forever
        finally:
            service.stop()


# ---------------------------------------------------------------------- #
# rollout-aware result cache
# ---------------------------------------------------------------------- #


class TestRolloutAwareResultCache:
    def _service(self, result_a, result_bad, fraction):
        registry = ModelRegistry()
        registry.publish(result_a, version="active")
        registry.stage(save_model_bytes(result_bad), version="staged")
        feedback = FeedbackCollector()
        service = CostModelService(
            registry,
            ServiceConfig(
                result_cache_entries=64, shadow_cache_hit_fraction=fraction
            ),
            feedback=feedback,
        )
        return service, feedback

    def test_cache_hits_feed_staged_shadow_evidence(self, corpus, result_a, result_bad):
        """With shadow sampling off the execution path entirely
        (sample_fraction=0), staged evidence can *only* come from the
        sampled cache hits — the high-hit-rate deployment scenario."""
        records, _ = corpus
        service, feedback = self._service(result_a, result_bad, fraction=1.0)
        try:
            service.set_rollout(ShadowScore("staged", sample_fraction=0.0))
            request = _request_stream(records, 1)[0]
            future = service.submit(request)
            service.flush()
            executed = future.result(timeout=30)
            assert not executed.cache_hit
            assert service.metrics()["per_version"].get("staged", {}).get(
                "shadow", 0.0
            ) == 0.0
            hit_future = service.submit(request)
            hit = hit_future.result(timeout=30)
            assert hit.cache_hit and hit.model_version == "active"
            service.flush()  # drains the shadow backlog
            metrics = service.metrics()
            assert metrics["cache_hit_shadows"] == 1.0
            assert metrics["per_version"]["staged"]["shadow"] == 1.0
            assert metrics["shadow_forwards"] >= 1.0
            # The staged prediction is pending a measurement join.
            feedback.record_measurement(
                request_key(request), [0.1, 0.2, 0.3, 0.4][: len(request.tiles)]
            )
            assert feedback.error_window("staged").count >= 1
        finally:
            service.stop()

    def test_canary_cache_hits_also_sampled(self, corpus, result_a, result_bad):
        """A canary policy has no shadow rule of its own; sampled cache
        hits still target its staged version."""
        records, _ = corpus
        service, _ = self._service(result_a, result_bad, fraction=1.0)
        try:
            service.set_rollout(CanaryFraction("staged", fraction=0.0))
            request = _request_stream(records, 1)[0]
            service.submit(request)
            service.flush()
            service.submit(request)  # cache hit
            service.flush()
            metrics = service.metrics()
            assert metrics["cache_hit_shadows"] == 1.0
            assert metrics["per_version"]["staged"]["shadow"] == 1.0
        finally:
            service.stop()

    def test_sampling_disabled_by_default(self, corpus, result_a, result_bad):
        records, _ = corpus
        service, _ = self._service(result_a, result_bad, fraction=0.0)
        try:
            service.set_rollout(ShadowScore("staged", sample_fraction=0.0))
            request = _request_stream(records, 1)[0]
            service.submit(request)
            service.flush()
            service.submit(request)
            service.flush()
            metrics = service.metrics()
            assert metrics["cache_hit_shadows"] == 0.0
            assert metrics["per_version"].get("staged", {}).get("shadow", 0.0) == 0.0
        finally:
            service.stop()

    def test_no_rollout_means_no_sampling(self, corpus, result_a):
        """Without a staged target the knob is inert — cache hits stay
        free."""
        records, _ = corpus
        registry = ModelRegistry()
        registry.publish(result_a, version="only")
        service = CostModelService(
            registry,
            ServiceConfig(result_cache_entries=64, shadow_cache_hit_fraction=1.0),
        )
        try:
            request = _request_stream(records, 1)[0]
            service.submit(request)
            service.flush()
            hit = service.submit(request).result(timeout=30)
            assert hit.cache_hit
            service.flush()
            assert service.metrics()["cache_hit_shadows"] == 0.0
        finally:
            service.stop()


# ---------------------------------------------------------------------- #
# all three policies x both executors
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def rollout_process_service(corpus, result_a, result_bad):
    registry = ModelRegistry()
    registry.publish(result_a, version="good")
    registry.stage(result_bad, version="bad")
    feedback = FeedbackCollector()
    service = CostModelService(
        registry,
        ServiceConfig(executor="process", replicas=2, result_cache_entries=0),
        feedback=feedback,
    )
    yield service
    service.stop()


@pytest.fixture(scope="module")
def rollout_thread_service(corpus, result_a, result_bad):
    registry = ModelRegistry()
    registry.publish(result_a, version="good")
    registry.stage(result_bad, version="bad")
    feedback = FeedbackCollector()
    service = CostModelService(
        registry,
        ServiceConfig(executor="thread", replicas=2, result_cache_entries=0),
        feedback=feedback,
    )
    yield service
    service.stop()


class TestPoliciesOnBothExecutors:
    @pytest.fixture(params=["thread", "process"])
    def rollout_service(
        self, request, rollout_thread_service, rollout_process_service
    ):
        service = (
            rollout_thread_service
            if request.param == "thread"
            else rollout_process_service
        )
        yield service
        service.set_rollout(FullActivation())

    def test_full_activation_serves_active_only(self, corpus, rollout_service):
        records, _ = corpus
        rollout_service.set_rollout(FullActivation())
        client = ServiceEvaluator(rollout_service, timeout_s=120.0)
        for request in _request_stream(records, 8):
            client.score_tiles_batched(request.kernel, list(request.tiles))
            assert client.model_version == "good"
            assert not client.served_by_canary

    def test_canary_routes_both_versions(self, corpus, rollout_service):
        records, _ = corpus
        policy = CanaryFraction("bad", 0.5)
        rollout_service.set_rollout(policy)
        client = ServiceEvaluator(rollout_service, timeout_s=120.0)
        for request in _request_stream(records, 24):
            client.score_tiles_batched(request.kernel, list(request.tiles))
            assert client.model_version == policy.route(request, "good")
        assert set(client.version_counts) == {"good", "bad"}

    def test_shadow_scores_off_the_response_path(self, corpus, rollout_service):
        records, scalers = corpus
        feedback = rollout_service.feedback
        before = feedback.error_window("bad").count
        rollout_service.set_rollout(ShadowScore("bad", 1.0))
        client = ServiceEvaluator(rollout_service, timeout_s=120.0)
        for request in _request_stream(records, 10):
            scores = client.score_tiles_batched(request.kernel, list(request.tiles))
            assert client.model_version == "good"  # responses: active only
            assert client.last_response.shadowed_by == "bad"
            # Ground truth = the active model's own ranking: the negated
            # shadow must look maximally wrong, the active model perfect.
            feedback.record_measurement(request_key(request), scores)
        assert feedback.error_window("bad").count >= before + 10
        assert feedback.error_window("bad").mean_error > 0.9
        assert feedback.error_window("good").mean_error == 0.0

    def test_canary_responses_match_staged_model_exactly(
        self, corpus, result_bad, rollout_service
    ):
        """A canary-served response is the staged checkpoint's own score,
        bitwise, at equal batch shape."""
        records, scalers = corpus
        staged_direct = LearnedEvaluator(result_bad.model, scalers)
        rollout_service.set_rollout(CanaryFraction("bad", 1.0))
        client = ServiceEvaluator(rollout_service, timeout_s=120.0)
        for request in _request_stream(records, 6):
            scores = client.score_tiles_batched(request.kernel, list(request.tiles))
            assert client.model_version == "bad"
            assert client.served_by_canary
            reference = staged_direct.score_tiles_batched(
                request.kernel, list(request.tiles)
            )
            np.testing.assert_array_equal(scores, reference)


class TestTwoLiveVersions:
    @pytest.mark.parametrize(
        "executor, replicas", [("thread", 1), ("thread", 2), ("process", 2)]
    )
    def test_thread_executor_keeps_both_pools_warm(
        self, corpus, result_a, result_bad, executor, replicas
    ):
        """Two live versions read 2 whatever the executor or shard count."""
        records, _ = corpus
        registry = _canary_registry(result_a, result_bad)
        service = CostModelService(
            registry,
            ServiceConfig(executor=executor, replicas=replicas, result_cache_entries=0),
            rollout=CanaryFraction("bad", 0.5),
        )
        try:
            client = ServiceEvaluator(service)
            for request in _request_stream(records, 24):
                client.score_tiles_batched(request.kernel, list(request.tiles))
            assert service.metrics()["evaluator_live_versions"] == 2
        finally:
            service.stop()

    def test_process_workers_switch_versions_without_respawn(
        self, corpus, rollout_process_service
    ):
        """Alternating active/staged batches must ride the warm per-version
        evaluators, never a worker restart."""
        records, _ = corpus
        service = rollout_process_service
        service.set_rollout(CanaryFraction("bad", 0.5))
        try:
            client = ServiceEvaluator(service, timeout_s=120.0)
            for request in _request_stream(records, 32):
                client.score_tiles_batched(request.kernel, list(request.tiles))
            details = service.executor.shard_stats()
            assert all(d["restarts"] == 0 for d in details)
            assert any(d["live_versions"] == 2 for d in details)
            assert set(client.version_counts) == {"good", "bad"}
        finally:
            service.set_rollout(FullActivation())


# ---------------------------------------------------------------------- #
# in-thread cross-kernel fused forwards (the only tile path)
# ---------------------------------------------------------------------- #


class TestInThreadFusedForwards:
    def test_single_command_batch_is_bitwise(self, corpus, result_a):
        """At equal batch shape (one tile command in the batch) the served
        scores are bitwise those of the direct evaluator."""
        records, scalers = corpus
        kernel = records[0].kernel
        tiles = enumerate_tile_sizes(kernel)[:6]
        service = CostModelService(result_a, ServiceConfig(result_cache_entries=0))
        try:
            served = ServiceEvaluator(service).score_tiles_batched(kernel, tiles)
            direct = LearnedEvaluator(result_a.model, scalers).score_tiles_batched(
                kernel, tiles
            )
            assert served.tobytes() == direct.tobytes()
        finally:
            service.stop()

    def test_multi_kernel_batch_costs_one_forward(self, corpus, result_a):
        """N distinct kernels in one flushed batch cost one forward per
        shard they touch: 1 at ``replicas=1``, 2 at ``replicas=2``."""
        records, scalers = corpus
        direct = LearnedEvaluator(result_a.model, scalers)
        for replicas in (1, 2):
            service = CostModelService(
                result_a,
                ServiceConfig(
                    max_batch_size=16, replicas=replicas, result_cache_entries=0
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
                    for r in records
                ]
                service.flush()
                responses = [f.result(timeout=30) for f in futures]
                assert all(r.error is None for r in responses)
                shards_touched = {
                    service.executor.shard_for(r.kernel.fingerprint())
                    for r in records
                }
                assert len(shards_touched) == replicas
                assert service.stats.snapshot()["model_forwards"] == float(replicas)
                # Fusion moves scores only at float32 rounding level.
                for record, response in zip(records, responses):
                    reference = direct.score_tiles_batched(
                        record.kernel, enumerate_tile_sizes(record.kernel)[:4]
                    )
                    np.testing.assert_allclose(response.value, reference, rtol=1e-5)
            finally:
                service.stop()


# ---------------------------------------------------------------------- #
# continuous learning: feedback -> records -> fine-tune
# ---------------------------------------------------------------------- #


class TestContinuousLearningHook:
    def _collected_feedback(self, corpus, result_a, n=24):
        records, _ = corpus
        from repro.tpu import TpuSimulator

        simulator = TpuSimulator()
        feedback = FeedbackCollector()
        service = CostModelService(
            result_a, ServiceConfig(result_cache_entries=0), feedback=feedback
        )
        try:
            client = ServiceEvaluator(service)
            for request in _request_stream(records, n):
                client.score_tiles_batched(request.kernel, list(request.tiles))
                feedback.record_measurement(
                    request_key(request),
                    tile_measurement(simulator, request.kernel, request.tiles),
                )
        finally:
            service.stop()
        return feedback

    def test_feedback_converts_to_tile_records(self, corpus, result_a):
        feedback = self._collected_feedback(corpus, result_a)
        records = feedback_to_tile_records(feedback.samples())
        assert records
        for record in records:
            assert record.num_samples == len(record.tiles)
            assert record.program == "feedback"
            assert np.all(record.runtimes > 0)
        # Same kernel queried repeatedly merges into one record.
        fingerprints = [r.kernel.fingerprint() for r in records]
        assert len(fingerprints) == len(set(fingerprints))

    def test_fine_tune_on_feedback_returns_trainable_checkpoint(
        self, corpus, result_a
    ):
        from repro.models import TrainConfig

        feedback = self._collected_feedback(corpus, result_a)
        # fine_tune trains the model object in place: work on a copy so
        # the module-scoped fixture stays pristine.
        copy = load_model_bytes(save_model_bytes(result_a))
        tuned = fine_tune_on_feedback(
            copy, feedback.drain_samples(), TrainConfig(steps=3)
        )
        assert tuned is not None
        assert save_model_bytes(tuned)  # stageable through the registry
        assert fine_tune_on_feedback(result_a, [], None) is None
