"""Tracing + telemetry registry + HTTP ops gateway.

The observability layer's contracts, each pinned where it can actually
break: trace contexts must round-trip the wire without confusing old
peers, worker spans must assemble across the process boundary into one
tree, the trace ring buffer must stay bounded, sampling must be a pure
function of the trace id, the registry must stay consistent under
concurrent writers, the Prometheus exposition must be well-formed, and
the gateway must answer over a real socket.
"""
import json
import os
import threading
import time
import urllib.error
import urllib.request
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import enumerate_tile_sizes
from repro.data import Scalers, build_tile_dataset
from repro.models import LearnedPerformanceModel, ModelConfig
from repro.models.trainer import TrainResult
from repro.serving import (
    AlertEngine,
    ContinuousProfiler,
    CostModelService,
    Histogram,
    IncidentReporter,
    MetricsGateway,
    OpsJournal,
    ServiceConfig,
    ServiceEvaluator,
    TelemetryRegistry,
    ThresholdRule,
    TraceContext,
    Tracer,
    decode_request,
    encode_request,
    slo_burn_rate,
    trace_unit_hash,
)
from repro.serving import telemetry
from repro.serving.http_gateway import PROMETHEUS_CONTENT_TYPE
from repro.serving.profiler import STAGE_BUCKETS, _StageStats
from repro.serving.protocol import TileScoresRequest
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


def _tile_request(record, trace=None):
    tiles = enumerate_tile_sizes(record.kernel)[:4]
    return TileScoresRequest(kernel=record.kernel, tiles=tiles, trace=trace)


# ---------------------------------------------------------------------- #
# wire round-trip + backwards compatibility
# ---------------------------------------------------------------------- #


class TestWireRoundTrip:
    def test_context_round_trips_through_wire_dict(self):
        ctx = TraceContext(trace_id="t-abc-1", span_id="s-abc-2")
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    def test_malformed_wire_entries_decode_to_none(self):
        for entry in (None, 42, "t-1", [], {}, {"trace_id": "t"}, {"span_id": "s"},
                      {"trace_id": 1, "span_id": "s"}):
            assert TraceContext.from_wire(entry) is None

    def test_untraced_request_bytes_carry_no_trace_key(self, corpus):
        """New-writer/old-reader compatibility: a request without a trace
        serializes byte-identically to the pre-telemetry format — no
        ``trace`` key for an old peer to choke on (or even see)."""
        records, _ = corpus
        request = _tile_request(records[0])
        payload = json.loads(request.to_bytes().split(b"\n", 1)[0])
        assert "trace" not in payload

    def test_traced_request_round_trips_through_codec(self, corpus):
        records, _ = corpus
        ctx = TraceContext(trace_id="t-deadbeef-1", span_id="s-deadbeef-2")
        request = _tile_request(records[0], trace=ctx)
        decoded = decode_request(encode_request(request))
        assert decoded.trace == ctx
        assert decoded.cache_key() == request.cache_key()

    def test_old_reader_payload_without_trace_decodes(self, corpus):
        """Old-writer/new-reader compatibility: bytes from a peer that
        has never heard of tracing decode with ``trace=None``."""
        records, _ = corpus
        frame = encode_request(_tile_request(records[0]))
        payload = json.loads(
            _tile_request(records[0]).to_bytes().split(b"\n", 1)[0]
        )
        assert "trace" not in payload  # genuinely old-format bytes
        decoded = decode_request(frame)
        assert decoded.trace is None

    def test_trace_never_contaminates_the_cache_key(self, corpus):
        records, _ = corpus
        bare = _tile_request(records[0])
        traced = _tile_request(
            records[0], trace=TraceContext(trace_id="t-1", span_id="s-1")
        )
        assert bare.cache_key() == traced.cache_key()


# ---------------------------------------------------------------------- #
# sampling
# ---------------------------------------------------------------------- #


class TestSampling:
    def test_unit_hash_is_deterministic_and_in_range(self):
        for i in range(100):
            value = trace_unit_hash(f"t-{i}")
            assert 0.0 <= value < 1.0
            assert value == trace_unit_hash(f"t-{i}")

    def test_salt_changes_the_subset(self):
        ids = [f"t-{i}" for i in range(256)]
        plain = {i for i in ids if trace_unit_hash(i) < 0.5}
        with mock.patch.object(telemetry, "TRACE_SALT", "x"):
            salted = {i for i in ids if trace_unit_hash(i) < 0.5}
        assert plain != salted

    def test_verdict_is_identical_across_tracer_instances(self):
        a = Tracer(sample_rate=0.3)
        b = Tracer(sample_rate=0.3)
        for i in range(200):
            assert a.should_sample(f"t-{i}") == b.should_sample(f"t-{i}")

    def test_rate_extremes(self):
        assert all(Tracer(sample_rate=1.0).should_sample(f"t-{i}") for i in range(20))
        assert not any(Tracer(sample_rate=0.0).should_sample(f"t-{i}") for i in range(20))

    def test_sampled_fraction_tracks_the_rate(self):
        tracer = Tracer(sample_rate=0.25)
        hits = sum(tracer.should_sample(f"t-{i}") for i in range(4000))
        assert 0.20 < hits / 4000 < 0.30

    def test_sampled_out_ingress_records_nothing(self):
        tracer = Tracer(sample_rate=0.0)
        request = type("R", (), {"trace": None})()
        assert tracer.ingress(request) is None
        assert tracer.unsampled == 1
        assert tracer.snapshot()["spans_recorded"] == 0.0

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(max_traces=0)


# ---------------------------------------------------------------------- #
# span recording + tree assembly
# ---------------------------------------------------------------------- #


class TestTraceAssembly:
    def test_tree_nests_children_under_parents(self):
        tracer = Tracer()
        ctx = tracer.ingress(type("R", (), {"trace": None})())
        with tracer.span(ctx, "outer") as outer:
            tracer.event(outer, "marker", attrs={"k": "v"})
        tracer.finish(ctx)
        tree = tracer.trace(ctx.trace_id)
        assert tree["span_count"] == 3
        root = tree["roots"][0]
        assert root["name"] == "request"
        assert root["end"] is not None
        outer_node = root["children"][0]
        assert outer_node["name"] == "outer"
        assert outer_node["children"][0]["name"] == "marker"
        assert outer_node["children"][0]["status"] == "event"

    def test_remote_parent_adopted_at_ingress(self):
        """A request that arrives already carrying a context keeps its
        trace id, and the server root hangs under the remote span."""
        tracer = Tracer()
        remote = TraceContext(trace_id="t-client-1", span_id="s-client-1")
        ctx = tracer.ingress(type("R", (), {"trace": remote})())
        assert ctx.trace_id == "t-client-1"
        tree = tracer.trace("t-client-1")
        # The remote parent span lives in another process; the local
        # span still renders, as a root.
        assert tree["roots"][0]["parent_id"] == "s-client-1"

    def test_raw_spans_from_another_process_join_the_tree(self):
        tracer = Tracer()
        ctx = tracer.ingress(type("R", (), {"trace": None})())
        tracer.record_raw(
            {
                "trace_id": ctx.trace_id,
                "parent_id": ctx.span_id,
                "name": "worker.forward",
                "start": 1.0,
                "end": 2.0,
                "process": "worker-3",
                "attrs": {"pid": 12345},
            }
        )
        tree = tracer.trace(ctx.trace_id)
        worker = tree["roots"][0]["children"][0]
        assert worker["name"] == "worker.forward"
        assert worker["process"] == "worker-3"
        assert worker["attrs"]["pid"] == 12345

    def test_record_raw_without_trace_id_is_a_noop(self):
        tracer = Tracer()
        tracer.record_raw({"name": "orphan"})
        assert tracer.snapshot()["spans_recorded"] == 0.0

    def test_span_context_manager_marks_errors(self):
        tracer = Tracer()
        ctx = tracer.ingress(type("R", (), {"trace": None})())
        with pytest.raises(RuntimeError):
            with tracer.span(ctx, "doomed"):
                raise RuntimeError("boom")
        tree = tracer.trace(ctx.trace_id)
        assert tree["roots"][0]["children"][0]["status"] == "error"

    def test_render_is_ascii_and_mentions_every_span(self):
        tracer = Tracer()
        ctx = tracer.ingress(type("R", (), {"trace": None})())
        with tracer.span(ctx, "stage"):
            pass
        tracer.finish(ctx)
        text = tracer.render(ctx.trace_id)
        assert "request" in text and "stage" in text
        assert "└──" in text
        assert tracer.render("t-missing").endswith("not retained")

    def test_ring_buffer_bounds_and_eviction_accounting(self):
        tracer = Tracer(max_traces=4)
        ids = []
        for _ in range(10):
            ctx = tracer.ingress(type("R", (), {"trace": None})())
            tracer.finish(ctx)
            ids.append(ctx.trace_id)
        snap = tracer.snapshot()
        assert snap["traces_retained"] == 4.0
        assert snap["traces_started"] == 10.0
        assert snap["traces_evicted"] == 6.0
        # The newest four survive, oldest first in the buffer.
        assert [t["trace_id"] for t in tracer.recent(10)] == ids[-1:-5:-1]
        assert tracer.trace(ids[0]) is None
        # Canonical counter alias alongside the legacy key.
        assert snap["trace_ring_evicted"] == 6.0

    def test_eviction_counter_lands_in_exposition_as_a_total(self):
        tracer = Tracer(max_traces=1)
        for _ in range(3):
            ctx = tracer.ingress(type("R", (), {"trace": None})())
            tracer.finish(ctx)
        registry = TelemetryRegistry()
        registry.register_collector(
            "tracer", tracer.snapshot, counters=("trace_ring_evicted",)
        )
        text = registry.prometheus()
        assert "repro_trace_ring_evicted_total 2" in text


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #


class TestRegistry:
    def test_collectors_merge_in_registration_order(self):
        registry = TelemetryRegistry()
        registry.register_collector("a", lambda: {"x": 1.0, "shared": "a"})
        registry.register_collector("b", lambda: {"y": 2.0, "shared": "b"})
        snap = registry.collect()
        assert snap["x"] == 1.0 and snap["y"] == 2.0
        assert snap["shared"] == "b"  # later registration wins

    def test_failing_collector_is_skipped_and_counted(self):
        registry = TelemetryRegistry()
        registry.register_collector("ok", lambda: {"fine": 1.0})
        registry.register_collector("bad", lambda: 1 / 0)
        snap = registry.collect()
        assert snap["fine"] == 1.0
        assert snap["telemetry_collector_errors"] == 1.0

    def test_snapshot_consistent_under_concurrent_writers(self):
        """Writers hammer a collector-backed component (a counter and a
        histogram under the component's own lock) while readers collect:
        no reader may raise, per-snapshot monotonicity holds for
        counters, and the final totals are exact."""
        registry = TelemetryRegistry()
        histogram = Histogram(buckets=(0.5, 1.0))
        component = {"value": 0}
        component_lock = threading.Lock()

        def component_snapshot():
            with component_lock:
                return {
                    "writes": float(component["value"]),
                    "lat": histogram.snapshot(),
                    "component_value": float(component["value"]),
                }

        registry.register_collector(
            "component", component_snapshot, counters=("writes",)
        )
        writers, per_writer = 4, 500
        stop = threading.Event()
        errors: list[BaseException] = []

        def read():
            try:
                last = 0.0
                while not stop.is_set():
                    snap = registry.collect()
                    assert last <= snap["writes"] <= writers * per_writer
                    last = snap["writes"]
                    hist = snap["lat"]
                    assert hist["buckets"]["0.5"] <= hist["buckets"]["1.0"] <= hist["count"]
            except BaseException as exc:
                errors.append(exc)

        def write():
            for i in range(per_writer):
                with component_lock:
                    histogram.observe(0.25 if i % 2 else 0.75)
                    component["value"] += 1

        readers = [threading.Thread(target=read) for _ in range(2)]
        for t in readers:
            t.start()
        writer_threads = [threading.Thread(target=write) for _ in range(writers)]
        for t in writer_threads:
            t.start()
        for t in writer_threads:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert not errors
        snap = registry.collect()
        assert snap["writes"] == float(writers * per_writer)
        assert snap["component_value"] == float(writers * per_writer)
        assert snap["lat"]["count"] == float(writers * per_writer)

    def test_slo_burn_rate(self):
        assert slo_burn_rate(0.01, 0.99) == pytest.approx(1.0)
        assert slo_burn_rate(0.05, 0.99) == pytest.approx(5.0)
        assert slo_burn_rate(0.0, 1.0) == 0.0
        assert slo_burn_rate(0.001, 1.0) == 1e9


class TestHistogram:
    """The one ``le``-bucket implementation, against its definition: a
    bucket counts the samples ``<=`` its bound — a sample *equal* to a
    bound included, which is where a ``bisect_right`` slip would show."""

    durations = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                 min_size=1, max_size=8).map(tuple),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_buckets_count_samples_at_or_below_each_bound(self, buckets, data):
        samples = data.draw(
            st.lists(st.one_of(self.durations, st.sampled_from(buckets)), max_size=40)
        )
        histogram = Histogram(buckets)  # sorted or not
        running = 0.0
        for value in samples:
            histogram.observe(value)
            running += value
        snap = histogram.snapshot()
        assert set(snap["buckets"]) == {str(bound) for bound in buckets}
        for bound in buckets:
            assert snap["buckets"][str(bound)] == sum(v <= bound for v in samples)
        assert snap["count"] == len(samples)
        assert snap["sum"] == running
        registry = TelemetryRegistry()
        registry.register_collector("h", lambda: {"h": snap})
        lines = registry.prometheus().splitlines()
        assert f'repro_h_bucket{{le="+Inf"}} {len(samples)}' in lines
        assert f"repro_h_count {len(samples)}" in lines

    @given(
        st.lists(
            st.tuples(
                st.one_of(durations, st.sampled_from(STAGE_BUCKETS)),
                st.sampled_from([None, "t-1", "t-2", "t-3"]),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_stage_stats_are_that_histogram_plus_exemplars(self, samples):
        stats = _StageStats()
        running, max_s, last, worst = 0.0, 0.0, None, None
        for duration, trace_id in samples:
            stats.observe(duration, trace_id)
            running += duration
            last = trace_id or last
            if duration >= max_s:
                max_s, worst = duration, trace_id or worst
        durations = [duration for duration, _ in samples]
        assert stats.to_dict() == {
            "count": float(len(samples)),
            "sum": running,
            "mean_s": running / len(samples) if samples else 0.0,
            "max_s": max(durations, default=0.0),
            "buckets": {
                str(bound): float(sum(d <= bound for d in durations))
                for bound in STAGE_BUCKETS
            },
            "exemplar": last,
            "worst_exemplar": worst,
        }


class TestJournalEncodesOnce:
    def test_one_json_dumps_per_record(self, tmp_path, monkeypatch):
        """Complexity pin: an event is serialised once, where its ``seq``
        is known — not once more before the lock with a placeholder."""
        from repro.serving import journal as journal_module

        calls = []

        class CountingJson:
            loads = staticmethod(json.loads)

            @staticmethod
            def dumps(obj, **kwargs):
                calls.append(dict(obj))
                return json.dumps(obj, **kwargs)

        monkeypatch.setattr(journal_module, "json", CountingJson)
        with OpsJournal(tmp_path / "ops.jsonl") as journal:
            assert journal.snapshot()["journal_write_errors"] == 0.0
            for n in range(3):
                journal.record("pin.event", n=n)
            assert [entry["seq"] for entry in calls] == [1, 2, 3]
            assert [e["n"] for e in journal.replay()] == [0, 1, 2]


class TestPrometheusExposition:
    def test_counters_get_total_suffix_and_type_lines(self):
        registry = TelemetryRegistry()
        registry.register_collector(
            "c", lambda: {"requests": 3.0, "depth": 2.5}, counters=("requests",)
        )
        text = registry.prometheus()
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 3" in text
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 2.5" in text
        assert text.endswith("\n")

    def test_labeled_families_become_labeled_series(self):
        registry = TelemetryRegistry()
        registry.register_collector(
            "stats",
            lambda: {
                "per_shard": {"0": {"requests": 5.0}, "1": {"requests": 7.0}},
                "per_version": {"v1": {"served": 2.0}},
            },
            families={"per_shard": "shard", "per_version": "version"},
        )
        text = registry.prometheus()
        assert 'repro_per_shard_requests{shard="0"} 5' in text
        assert 'repro_per_shard_requests{shard="1"} 7' in text
        assert 'repro_per_version_served{version="v1"} 2' in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = TelemetryRegistry()
        histogram = Histogram(buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        registry.register_collector("c", lambda: {"lat": histogram.snapshot()})
        text = registry.prometheus()
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="1.0"} 3' in text
        assert 'repro_lat_bucket{le="+Inf"} 4' in text
        assert "repro_lat_count 4" in text
        assert "repro_lat_sum 6.05" in text

    def test_strings_land_in_the_info_series_and_lists_are_skipped(self):
        registry = TelemetryRegistry()
        registry.register_collector(
            "meta",
            lambda: {
                "active_version": 'v"1\\x',
                "transitions": [{"noise": 1}],
            },
        )
        text = registry.prometheus()
        assert 'active_version="v\\"1\\\\x"' in text
        assert "repro_info" in text
        assert "transitions" not in text

    def test_label_values_escape_newlines(self):
        """An unescaped newline in a label value truncates the sample
        line and corrupts the whole scrape — the exposition format
        requires it spelled \\n."""
        registry = TelemetryRegistry()
        registry.register_collector(
            "meta",
            lambda: {"per_shard": {"bad\nname": {"x": 1.0}}},
            families={"per_shard": "shard"},
        )
        text = registry.prometheus()
        assert 'shard="bad\\nname"' in text
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            # Every sample line still ends in a parsable value.
            float(line.rpartition(" ")[2])

    def test_nonfinite_gauges_render_per_exposition_format(self):
        """Prometheus parsers accept NaN/+Inf/-Inf, not Python's
        nan/inf spellings."""
        registry = TelemetryRegistry()
        registry.register_collector(
            "c",
            lambda: {
                "g_nan": float("nan"),
                "g_pinf": float("inf"),
                "g_ninf": float("-inf"),
            },
        )
        text = registry.prometheus()
        assert "repro_g_nan NaN" in text
        assert "repro_g_pinf +Inf" in text
        assert "repro_g_ninf -Inf" in text
        assert "nan\n" not in text and " inf" not in text

    def test_exposition_parses_line_by_line(self):
        """Every non-comment line must be `name{labels} value` with a
        float-parsable value — the format Prometheus actually scrapes."""
        registry = TelemetryRegistry()
        histogram = Histogram()
        histogram.observe(0.2)
        registry.register_collector(
            "s",
            lambda: {
                "a": 1.0,
                "b": histogram.snapshot(),
                "per_shard": {"0": {"x": 1.0}},
                "note": "hello world",
            },
            counters=("a",),
            families={"per_shard": "shard"},
        )
        for line in registry.prometheus().strip().splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE ")
                continue
            name_part, _, value_part = line.rpartition(" ")
            assert name_part and not name_part.endswith(" ")
            float(value_part)  # must parse


# ---------------------------------------------------------------------- #
# end-to-end: spans across the process boundary
# ---------------------------------------------------------------------- #


class TestServiceTracing:
    def test_trace_spans_all_four_layers_including_worker_subprocess(
        self, corpus, result_a
    ):
        """One sampled request through the process executor must leave a
        tree with frontend, scheduler, executor, and worker spans — the
        worker span recorded in a different pid than the service."""
        records, _ = corpus
        tracer = Tracer(sample_rate=1.0)
        service = CostModelService(
            result_a,
            ServiceConfig(executor="process", replicas=2, result_cache_entries=0),
            tracer=tracer,
        ).start()
        try:
            client = ServiceEvaluator(service, timeout_s=120.0)
            record = records[0]
            client.score_tiles_batched(
                record.kernel, enumerate_tile_sizes(record.kernel)[:4]
            )
            traces = tracer.recent(5)
            assert traces, "sampled request left no trace"
            tree = tracer.trace(traces[0]["trace_id"])
            spans = []

            def flatten(node):
                spans.append(node)
                for kid in node["children"]:
                    flatten(kid)

            for root in tree["roots"]:
                flatten(root)
            by_process = {s["process"] for s in spans}
            assert "frontend" in by_process
            assert "scheduler" in by_process
            assert "executor" in by_process
            worker_spans = [
                s for s in spans if s["process"].startswith("worker-")
            ]
            assert worker_spans, f"no worker span in {sorted(by_process)}"
            assert worker_spans[0]["attrs"]["pid"] != os.getpid()
            names = {s["name"] for s in spans}
            assert {"request", "queue.wait", "executor.dispatch",
                    "worker.forward"} <= names
            # The worker span hangs under the executor dispatch span.
            dispatch_ids = {
                s["span_id"] for s in spans if s["name"] == "executor.dispatch"
            }
            assert worker_spans[0]["parent_id"] in dispatch_ids
        finally:
            service.stop()

    def test_disabled_tracer_attaches_nothing(self, corpus, result_a):
        records, _ = corpus
        service = CostModelService(
            result_a, ServiceConfig(replicas=1, result_cache_entries=0)
        ).start()
        try:
            client = ServiceEvaluator(service)
            record = records[0]
            client.score_tiles_batched(
                record.kernel, enumerate_tile_sizes(record.kernel)[:4]
            )
            assert service.tracer is None
            assert "trace_sample_rate" not in service.metrics()
        finally:
            service.stop()

    def test_response_carries_the_trace_id(self, corpus, result_a):
        records, _ = corpus
        tracer = Tracer(sample_rate=1.0)
        service = CostModelService(
            result_a,
            ServiceConfig(replicas=1, result_cache_entries=4),
            tracer=tracer,
        ).start()
        try:
            record = records[0]
            request = _tile_request(record)
            response = service.submit(request).result(timeout=120.0)
            assert response.trace_id
            assert tracer.trace(response.trace_id) is not None
            # Second submission hits the result cache — still traced.
            cached = service.submit(_tile_request(record)).result(timeout=120.0)
            assert cached.trace_id and cached.trace_id != response.trace_id
            tree = tracer.trace(cached.trace_id)
            names = {r["name"] for r in tree["roots"]} | {
                k["name"] for r in tree["roots"] for k in r["children"]
            }
            assert "cache.hit" in names
        finally:
            service.stop()

    def test_refused_submission_closes_its_root_span(self, corpus, result_a):
        """``submit`` opens the root span before enqueueing; when the
        scheduler refuses (closed, not only overloaded) nothing will ever
        resolve the request, so ``submit`` itself must close the span —
        an open root would sit in the trace ring forever."""
        records, _ = corpus
        tracer = Tracer(sample_rate=1.0)
        service = CostModelService(
            result_a, ServiceConfig(result_cache_entries=0), tracer=tracer
        )
        service.stop()
        with pytest.raises(RuntimeError, match="scheduler is closed"):
            service.submit(_tile_request(records[0]))
        (summary,) = tracer.recent(1)
        assert summary["status"] == "error"
        (root,) = tracer.trace(summary["trace_id"])["roots"]
        assert root["name"] == "request" and root["end"] is not None
        # A closed scheduler is not load shedding.
        assert [kid["name"] for kid in root["children"]] == []
        assert service.stats.snapshot()["overload_rejections"] == 0.0


# ---------------------------------------------------------------------- #
# HTTP gateway over a real socket
# ---------------------------------------------------------------------- #


def _get(address, path):
    host, port = address
    with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read()


@pytest.fixture(scope="module")
def ops_gateway(result_a, tmp_path_factory):
    """A gateway over a service with every readout but the prober."""
    journal = OpsJournal(tmp_path_factory.mktemp("ops") / "ops.jsonl")
    service = CostModelService(
        result_a,
        ServiceConfig(replicas=1, result_cache_entries=0),
        tracer=Tracer(sample_rate=1.0),
        profiler=ContinuousProfiler(),
        journal=journal,
    )
    service.attach_alerts(AlertEngine())
    service.attach_incidents(IncidentReporter())
    try:
        with MetricsGateway(service) as gateway:
            yield gateway
    finally:
        service.stop()
        journal.close()


class TestGateway:
    @pytest.mark.parametrize(
        "path, status",
        [
            ("/metrics?format=json", 200),
            ("/metrics?format=jsn", 400),
            ("/metrics?format=text", 400),
            ("/traces/t-missing?format=text", 404),
            ("/traces/t-missing?format=chrome", 400),
            ("/traces/recent?format=text", 400),
            ("/profile?format=text", 400),
            ("/profile?format=folded", 400),
            ("/alerts?format=text", 400),
            ("/incidents?format=text", 400),
            ("/incidents/inc-1?format=text", 400),
            ("/events/recent?format=json", 400),
            ("/healthz?format=json", 400),
            ("/probes?format=text", 503),  # no prober: the 503 comes first
        ],
    )
    def test_a_format_the_route_does_not_serve_is_a_typed_400(
        self, ops_gateway, path, status
    ):
        try:
            got, _, body = _get(ops_gateway.address, path)
        except urllib.error.HTTPError as exc:
            got, body = exc.code, exc.read()
        assert got == status
        if status == 400:
            fmt = path.rsplit("format=", 1)[1]
            assert f"got '{fmt}'" in json.loads(body)["error"]

    def test_endpoints_over_a_real_socket(self, corpus, result_a):
        records, _ = corpus
        tracer = Tracer(sample_rate=1.0)
        service = CostModelService(
            result_a,
            ServiceConfig(replicas=1, result_cache_entries=0),
            tracer=tracer,
        ).start()
        try:
            with MetricsGateway(service) as gateway:
                client = ServiceEvaluator(service, timeout_s=120.0)
                record = records[0]
                client.score_tiles_batched(
                    record.kernel, enumerate_tile_sizes(record.kernel)[:4]
                )

                status, ctype, body = _get(gateway.address, "/healthz")
                health = json.loads(body)
                assert status == 200 and ctype.startswith("application/json")
                assert health["status"] == "ok" and health["tracing"] is True

                status, ctype, body = _get(gateway.address, "/metrics")
                assert status == 200 and ctype == PROMETHEUS_CONTENT_TYPE
                text = body.decode()
                assert "repro_requests_total" in text
                assert "repro_slo_burn_rate" in text

                status, _, body = _get(gateway.address, "/metrics?format=json")
                snap = json.loads(body)
                assert snap["requests"] >= 1.0

                status, _, body = _get(gateway.address, "/traces/recent?n=5")
                recent = json.loads(body)["traces"]
                assert recent and recent[0]["span_count"] >= 1

                trace_id = recent[0]["trace_id"]
                status, _, body = _get(gateway.address, f"/traces/{trace_id}")
                tree = json.loads(body)
                assert status == 200 and tree["trace_id"] == trace_id

                status, ctype, body = _get(
                    gateway.address, f"/traces/{trace_id}?format=text"
                )
                assert status == 200 and b"request" in body

                # The gateway's own instruments land in the registry. An
                # access is counted before routing, so all seven GETs (this
                # one included) are in; a request is counted after its
                # response is written, on the handler's own thread, so the
                # sixth's increment may still be racing this snapshot.
                status, _, body = _get(gateway.address, "/metrics?format=json")
                snap = json.loads(body)
                assert snap["gateway_accesses"] == {
                    "healthz": 1.0, "metrics": 3.0, "traces": 3.0
                }
                assert 0.0 <= snap["gateway_requests"] <= 6.0
                assert snap["gateway_errors"] == 0.0
        finally:
            service.stop()

    def test_observability_endpoints(self, corpus, result_a, tmp_path):
        """``/profile``, ``/alerts``, ``/events/recent``, and the
        per-endpoint access family — the active-observability
        surface over a real socket."""
        records, _ = corpus
        journal = OpsJournal(tmp_path / "ops.jsonl")
        service = CostModelService(
            result_a,
            ServiceConfig(replicas=1, result_cache_entries=0),
            tracer=Tracer(sample_rate=1.0),
            profiler=ContinuousProfiler(),
            journal=journal,
        ).start()
        try:
            service.attach_alerts(
                AlertEngine(
                    rules=[
                        ThresholdRule(
                            name="any_traffic", metric="requests", threshold=0.0
                        )
                    ]
                )
            )
            with MetricsGateway(service) as gateway:
                client = ServiceEvaluator(service, timeout_s=120.0)
                record = records[0]
                client.score_tiles_batched(
                    record.kernel, enumerate_tile_sizes(record.kernel)[:4]
                )
                service.alerts.evaluate()

                status, _, body = _get(gateway.address, "/traces/recent?n=1")
                trace_id = json.loads(body)["traces"][0]["trace_id"]

                status, _, body = _get(gateway.address, "/profile")
                profile = json.loads(body)
                assert status == 200
                stages = profile["stages"]
                assert stages["forward"]["count"] >= 1
                assert stages["queue.wait"]["exemplar"] == trace_id
                paths = [row["path"] for row in profile["flame"]]
                assert "request;forward;executor" in paths

                status, _, body = _get(gateway.address, "/alerts")
                board = json.loads(body)
                assert status == 200 and board["firing"] >= 1
                assert board["alerts"][0]["name"] == "any_traffic"

                status, _, body = _get(gateway.address, "/events/recent?n=10")
                events = json.loads(body)["events"]
                assert status == 200
                assert any(e["kind"] == "alert.transition" for e in events)

                status, _, body = _get(gateway.address, "/metrics")
                text = body.decode()
                assert 'repro_gateway_accesses_total{endpoint="profile"}' in text
                assert 'repro_gateway_accesses_total{endpoint="alerts"}' in text
        finally:
            service.stop()
            journal.close()

    def test_observability_endpoints_503_when_not_attached(
        self, corpus, result_a
    ):
        service = CostModelService(
            result_a, ServiceConfig(replicas=1, result_cache_entries=0)
        ).start()
        try:
            with MetricsGateway(service) as gateway:
                for path in ("/profile", "/alerts", "/events/recent"):
                    with pytest.raises(urllib.error.HTTPError) as exc:
                        _get(gateway.address, path)
                    assert exc.value.code == 503
        finally:
            service.stop()

    def test_error_statuses(self, corpus, result_a):
        service = CostModelService(
            result_a, ServiceConfig(replicas=1, result_cache_entries=0)
        ).start()
        try:
            with MetricsGateway(service) as gateway:
                with pytest.raises(urllib.error.HTTPError) as exc:
                    _get(gateway.address, "/nope")
                assert exc.value.code == 404
                # No tracer attached: trace endpoints are 503.
                with pytest.raises(urllib.error.HTTPError) as exc:
                    _get(gateway.address, "/traces/recent")
                assert exc.value.code == 503
                # Counters are incremented after the response is written,
                # so give the handler thread a beat to finish accounting.
                for _ in range(100):
                    errors = json.loads(service.telemetry.json())[
                        "gateway_errors"
                    ]
                    if errors >= 2.0:
                        break
                    time.sleep(0.01)
                assert errors >= 2.0
        finally:
            service.stop()

    def test_unknown_trace_is_404_with_tracer(self, corpus, result_a):
        service = CostModelService(
            result_a,
            ServiceConfig(replicas=1, result_cache_entries=0),
            tracer=Tracer(sample_rate=1.0),
        ).start()
        try:
            with MetricsGateway(service) as gateway:
                with pytest.raises(urllib.error.HTTPError) as exc:
                    _get(gateway.address, "/traces/t-missing")
                assert exc.value.code == 404
                with pytest.raises(urllib.error.HTTPError) as exc:
                    _get(gateway.address, "/traces/recent?n=zebra")
                assert exc.value.code == 400
        finally:
            service.stop()

    def test_close_is_idempotent_and_port_is_ephemeral(self, corpus, result_a):
        service = CostModelService(
            result_a, ServiceConfig(replicas=1, result_cache_entries=0)
        )
        gateway = MetricsGateway(service)
        assert gateway.address[1] > 0
        gateway.close()
        gateway.close()
        with pytest.raises((ConnectionError, urllib.error.URLError, OSError)):
            _get(gateway.address, "/healthz")
