"""Characterisation pin of the metric surface: what an operator can see.

Everything a served cost model tells its operator goes through one
surface — ``service.metrics()``, the Prometheus exposition, and the ops
gateway's JSON / text endpoints. This file records that surface's
response to known inputs, the way a detector is calibrated by injecting
known sources: a *scripted* run (``ServingStats`` + profiler + journal +
alert engine + incident reporter under one injected clock, through a
bare ``TelemetryRegistry`` and a gateway bound to a stub service) whose
every value is pinned, and a *live* run (a real flush-driven service
with tracer, profiler, journal, feedback, alerts, incidents, rollout and
placement controllers, gateway, then a prober) whose deterministic
counters are pinned by value and whose timings are pinned by series
name, ``# TYPE`` and label set only.

The expected dump is ``tests/golden/metrics_pin.json``. It only touches
public names that a refactor of the metric plumbing must keep, so the
same file runs unchanged before and after one; ``python
tests/test_metrics_pin.py`` rewrites the golden file from the code in
``PYTHONPATH`` (do that at the *parent* of a refactor, never after it).

Series order and JSON key order are not part of the contract: the
exposition is compared as a sorted multiset of parsed samples, JSON as
parsed documents.
"""
import json
import re
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.compiler import enumerate_tile_sizes
from repro.data import Scalers, build_tile_dataset
from repro.evaluation import ServingStats
from repro.models import LearnedPerformanceModel, ModelConfig
from repro.models.trainer import TrainResult
from repro.serving import (
    AlertEngine,
    AnomalyRule,
    BurnRateRule,
    ContinuousProfiler,
    CostModelService,
    FeedbackCollector,
    GoldenProbe,
    IncidentReporter,
    MetricsGateway,
    OpsJournal,
    PlacementConfig,
    PlacementController,
    RolloutController,
    ServiceConfig,
    SyntheticProber,
    TelemetryRegistry,
    ThresholdRule,
    TileScoresRequest,
    Tracer,
    request_key,
)
from repro.workloads import vision

GOLDEN = Path(__file__).with_name("golden") / "metrics_pin.json"
SMALL = dict(hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2, lstm_hidden=16)

#: Samples of the live run whose *values* are wall-clock measurements (or
#: byte counts of records that embed them); they are pinned by name,
#: type and label set.
_LIVE_SERIES = re.compile(
    r"qps|latency_(mean|p\d+|max|ewma)|shard_latency_ewma|seconds|queue_pressure"
    r"|flush_interval_effective|journal_bytes_written|journal_size_bytes"
    r"|gateway_latency_s_sum|" + r'gateway_latency_s_bucket\{le="[^+]'
)
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$")


class FakeClock:
    def __init__(self, t: float) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ---------------------------------------------------------------------- #
# dump helpers
# ---------------------------------------------------------------------- #


def parse_exposition(text: str, live=None) -> dict:
    """Exposition text → ``{"types": {series: kind}, "samples": [...]}``.

    Every sample line must be ``name{labels} value`` with a float-parsable
    value; ``live`` (a compiled pattern) names series whose value is
    replaced by ``live``. ``samples`` is the sorted list of re-joined
    lines — a multiset, so series order does not matter.
    """
    assert text.endswith("\n")
    types: dict[str, str] = {}
    samples: list[str] = []
    sampled: set[str] = set()
    for line in text.splitlines():
        if line.startswith("#"):
            marker, kind, series, value = line.split(" ")
            assert (marker, kind) == ("#", "TYPE"), line
            assert series not in types, f"duplicate TYPE line for {series}"
            types[series] = value
            continue
        match = _SAMPLE.match(line)
        assert match, f"malformed sample line: {line!r}"
        series, labels, value = match.groups()
        float(value)  # must parse (NaN / +Inf / -Inf included)
        if live is not None and live.search(series + (labels or "")):
            value = "live"
        sampled.add(series)
        samples.append(f"{series}{labels or ''} {value}")
    assert sampled == set(types), "series without a TYPE line"
    return {"types": types, "samples": sorted(samples)}


def only(parsed: dict, word: str) -> dict:
    """The part of a parsed exposition whose series names contain ``word``."""
    return {
        "types": {k: v for k, v in parsed["types"].items() if word in k},
        "samples": [s for s in parsed["samples"] if word in re.split(r"[{ ]", s)[0]],
    }


def brief_events(events, keep=("seq", "ts", "kind", "trace_id")) -> list:
    """Journal events by the ``keep`` values and the other field names: an
    ``incident.report`` event nests a whole report (pinned through
    ``/incidents/<id>``), and a live event's ``ts`` is wall time."""
    return [
        {
            **{k: event[k] for k in keep if k in event},
            "fields": sorted(set(event) - set(keep)),
        }
        for event in events
    ]


def key_tree(value, live=None, path=""):
    """A snapshot's shape: dict keys kept, leaves replaced by their type
    name — or kept by value when ``live`` is given and does not match the
    leaf's path."""
    if isinstance(value, dict):
        return {
            str(k): key_tree(v, live, f"{path}.{k}" if path else str(k))
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [key_tree(v, live, path) for v in value]
    if live is not None and not live.search(path):
        return value
    return type(value).__name__


def http_get(address, path: str) -> dict:
    host, port = address
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10) as resp:
            status, ctype, body = resp.status, resp.headers["Content-Type"], resp.read()
    except urllib.error.HTTPError as exc:
        status, ctype, body = exc.code, exc.headers["Content-Type"], exc.read()
    return {"status": status, "content_type": ctype, "body": body.decode()}


def get_json(address, path: str, shape_only: bool = False) -> dict:
    """One GET whose body is JSON: parsed, and reduced to its key tree
    when only its shape is deterministic."""
    out = http_get(address, path)
    document = json.loads(out.pop("body"))
    out["json"] = key_tree(document) if shape_only else document
    return out


def settle_gateway(registry, requests: int) -> None:
    """The gateway counts a request *after* answering it, on the handler
    thread; wait until every answered request has been counted."""
    deadline = time.monotonic() + 10.0
    while registry.collect()["gateway_requests"] < requests:
        assert time.monotonic() < deadline, "gateway never counted its requests"
        time.sleep(0.005)


# ---------------------------------------------------------------------- #
# scripted run: every value injected
# ---------------------------------------------------------------------- #


class StubService:
    """The attributes ``CostModelService`` declares for its ops surface,
    holding scripted components."""

    is_running = True
    tracer = None
    profiler = None
    journal = None
    alerts = None
    prober = None
    incidents = None

    def __init__(self, telemetry, **components) -> None:
        self.telemetry = telemetry
        self.stats = ServingStats()
        self.registry = type("Registry", (), {"active_version": "v-scripted"})()
        self.board = {"breakers": {}, "breaker_open_seconds": 0.0}
        for name, component in components.items():
            setattr(self, name, component)

    def breaker_board(self) -> dict:
        return self.board


def scripted_dump(tmp: Path) -> dict:
    clock = FakeClock(1000.0)
    registry = TelemetryRegistry()
    profiler = ContinuousProfiler(snapshot_interval_s=10.0, max_snapshots=2, clock=clock)
    journal = OpsJournal(tmp / "scripted.jsonl", clock=clock)
    slo = {"slo_burn_rate": 0.5, "slo_window_samples": 1.0}
    engine = AlertEngine(
        source=registry.collect,
        rules=[
            ThresholdRule(
                name="errors_high", metric="errors", threshold=0.0, op=">",
                for_s=5.0, keep_s=5.0, severity="critical",
                description="any failed response",
            ),
            ThresholdRule(name="stage_forward", metric="profiler_stage.forward.count",
                          threshold=2.0, op=">="),
            BurnRateRule(name="burn", threshold=2.0, min_samples=4),
            AnomalyRule(name="p99_anomaly", metric="latency_p99_s", warmup=1),
        ],
        clock=clock,
        journal=journal,
        exemplar=lambda: "t-scripted-exemplar",
    )
    reporter = IncidentReporter(max_reports=4, journal_window=6, clock=clock)
    service = StubService(
        registry, profiler=profiler, journal=journal, alerts=engine, incidents=reporter
    )
    stats = service.stats
    registry.register_collector(
        "serving_stats", lambda: service.stats.snapshot(), counters=ServingStats._COUNTERS
    )
    registry.register_collector("slo", lambda: dict(slo))
    profiler.register_into(registry)
    journal.register_into(registry)
    engine.register_into(registry)
    reporter.register_into(registry)
    reporter.bind(service)

    dump: dict = {
        "fresh.collect": key_tree(registry.collect(), re.compile(r"^qps$")),
        "fresh.exposition": parse_exposition(registry.prometheus(), re.compile("qps")),
        "empty_shard_entry": ServingStats.empty_shard_entry(),
        "empty_version_entry": ServingStats.empty_version_entry(),
    }

    # t=1000: healthy traffic on three shards, one cache hit.
    for latency, shard in ((0.001, 0), (0.002, 0), (0.004, 0), (0.010, 1), (0.020, 2)):
        stats.record_response(latency, cache_hit=False, shard=shard)
        stats.record_route("v1", canary=shard == 2)
    stats.record_response(0.0, cache_hit=True)
    stats.record_route("v1")
    stats.record_batch(4, forwards=2)
    stats.record_batch(2, forwards=1)
    stats.record_shard(0, forwards=2)
    stats.record_shard(1, forwards=1)
    stats.record_route("v2", shadow=True)
    stats.record_route("v2", shadow=True, error=True)
    stats.record_route(None)
    # Samples on a bucket bound, between bounds, above the last bound,
    # zero, clamped-negative, an unknown stage and a custom flame path.
    profiler.record_stage("queue.wait", 0.0001, trace_id="t-1")
    profiler.record_stage("forward", 0.005, trace_id="t-2")
    profiler.record_stage("forward", 0.0051)
    profiler.record_stage("compose", 0.0)
    profiler.record_stage("serialize", -1.0, trace_id="t-3")
    profiler.record_stage("custom.stage", 0.3, path="request;custom;inner")
    journal.record("registry.activate", version="v1")
    dump["t1000.transitions"] = engine.evaluate()

    # t=1003: shard 1 starts failing; the burn rate crosses its bound.
    clock.advance(3.0)
    for latency in (0.5, 0.6, 0.7):
        stats.record_response(latency, cache_hit=False, error=True, shard=1)
        stats.record_route("v1", error=True)
    slo.update(slo_burn_rate=4.0, slo_window_samples=9.0)
    journal.record("worker.respawn", trace_id="t-4", shard=1)
    service.board = {
        "breakers": {
            "0": {"state": "closed", "consecutive_failures": 0.0},
            "1": {"state": "open", "consecutive_failures": 5.0},
        },
        "breaker_open_seconds": 1.5,
    }
    dump["t1003.transitions"] = engine.evaluate()

    # t=1012: past the pending hold and the profiler's interval.
    clock.advance(9.0)
    profiler.record_stage("forward", 7.0, trace_id="t-5")
    profiler.record_stage("batch.cut", 0.00025)
    dump["t1012.transitions"] = engine.evaluate()

    # t=1020: a rebalance relabels shard 2 into shard 0; the burn clears.
    clock.advance(8.0)
    stats.relabel_shards({2: 0})
    stats.reset_shards([1])
    stats.record_placement_change(3)
    slo.update(slo_burn_rate=0.1)
    dump["t1020.transitions"] = engine.evaluate()
    reporter.open_incident({"name": "drill", "to": "firing", "severity": "warning"})

    dump["stats.snapshot"] = key_tree(stats.snapshot(), re.compile(r"^qps$"))
    dump["stats.shard_snapshot"] = stats.shard_snapshot()
    dump["stats.version_snapshot"] = stats.version_snapshot()
    dump["stats.slo_window"] = stats.slo_window(0.25)
    dump["profiler.snapshot"] = profiler.snapshot()
    dump["collect"] = key_tree(registry.collect(), re.compile(r"^qps$"))
    dump["exposition"] = parse_exposition(registry.prometheus(), re.compile("qps"))
    dump["journal.replay"] = brief_events(journal.replay())

    with MetricsGateway(service) as gateway:
        address = gateway.address
        paths = [
            "/profile", "/profile?format=text", "/profile?format=folded",
            "/alerts", "/alerts?format=text",
            "/incidents", "/incidents/inc-1", "/incidents/inc-1?format=text",
            "/incidents/inc-2", "/incidents/inc-9", "/incidents/inc-9?format=text",
            "/incidents/inc-1/extra",
            "/events/recent", "/events/recent?n=2", "/events/recent?n=0",
            "/events/recent?n=1001", "/events/recent?n=x",
            "/healthz", "/healthz/", "/profile/", "/",
            "/traces/recent", "/traces/t-1", "/traces", "/probes",
            "/healthz?format=json", "/events/recent?format=text",
            "/incidents?format=json", "/probes?format=json",
        ]
        for path in paths:
            out = http_get(address, path)
            if out["content_type"] == "application/json":
                out["json"] = json.loads(out.pop("body"))
                if "events" in out["json"]:
                    out["json"]["events"] = brief_events(out["json"]["events"])
            dump[f"GET {path}"] = out
        settle_gateway(registry, len(paths))
        dump["gateway.exposition"] = only(
            parse_exposition(registry.prometheus(), _LIVE_SERIES),
            "gateway",
        )
        scrape = http_get(address, "/metrics")
        assert 'repro_gateway_accesses_total{endpoint="metrics"} 1' in scrape["body"]
        dump["GET /metrics"] = {k: scrape[k] for k in ("status", "content_type")}
    journal.close()

    # Nothing attached: every component endpoint answers its own 503.
    with MetricsGateway(StubService(TelemetryRegistry())) as gateway:
        for path in ("/traces/recent", "/traces/", "/profile", "/alerts",
                     "/events/recent", "/probes", "/incidents", "/incidents/inc-1",
                     "/healthz", "/nope"):
            dump[f"bare GET {path}"] = get_json(gateway.address, path)
    return dump


# ---------------------------------------------------------------------- #
# live run: a real service, flush-driven
# ---------------------------------------------------------------------- #


def build_model():
    ds = build_tile_dataset(
        [vision.image_embed(0)], max_kernels_per_program=4, max_tiles_per_kernel=6, seed=0
    )
    scalers = Scalers.fit_tile(ds.records)
    model = LearnedPerformanceModel(
        ModelConfig(task="tile", reduction="column-wise", **SMALL), seed=0
    )
    return ds.records, TrainResult(model=model, scalers=scalers, loss_history=[])


def live_dump(tmp: Path) -> dict:
    records, result = build_model()
    journal = OpsJournal(tmp / "live.jsonl")
    tracer = Tracer(sample_rate=1.0, max_traces=64)
    feedback = FeedbackCollector()
    service = CostModelService(
        result,
        # A latency objective no forward can miss, however loaded the box.
        ServiceConfig(replicas=2, result_cache_entries=64, slo_target_latency_s=60.0),
        feedback=feedback,
        tracer=tracer,
        profiler=ContinuousProfiler(),
        journal=journal,
    )
    dump: dict = {}
    try:
        engine = AlertEngine(
            rules=[
                ThresholdRule(name="has_traffic", metric="requests", threshold=0.0,
                              severity="critical"),
                BurnRateRule(name="burn", min_samples=1_000_000),
            ]
        )
        service.attach_alerts(engine)
        service.attach_incidents(IncidentReporter())
        RolloutController(service, feedback)
        placement = PlacementController(service, PlacementConfig(min_interval_requests=1))

        requests = [
            TileScoresRequest(r.kernel, tuple(enumerate_tile_sizes(r.kernel)[:3]))
            for r in records[:4]
        ]
        # One micro-batch of four kernels, then the same four again (all
        # result-cache hits), then one malformed request.
        futures = [service.submit(request) for request in requests]
        service.flush()
        responses = [f.result(timeout=60) for f in futures]
        assert all(r.error is None for r in responses)
        for request, response in zip(requests, responses):
            feedback.record_measurement(request_key(request), response.value)
        hits = [service.submit(request).result(timeout=60) for request in requests]
        assert all(h.cache_hit for h in hits)
        bad = service.submit(TileScoresRequest(kernel=None, tiles=()))
        service.flush()
        assert bad.result(timeout=60).error is not None
        placement.step()
        engine.evaluate()

        dump["metrics.tree"] = key_tree(service.metrics())
        dump["metrics.values"] = key_tree(service.metrics(), _LIVE_SERIES)
        dump["exposition"] = parse_exposition(service.telemetry.prometheus(), _LIVE_SERIES)

        trace_id = hits[0].trace_id
        assert trace_id and tracer.trace(trace_id) is not None
        with MetricsGateway(service) as gateway:
            address = gateway.address
            for path in ("/healthz", "/metrics?format=json", "/traces/recent",
                         "/traces/recent?n=1", f"/traces/{trace_id}",
                         "/profile", "/alerts",
                         "/incidents", "/incidents/inc-1"):
                label = path.replace(trace_id, "<id>")
                dump[f"GET {label}"] = get_json(address, path, shape_only=True)
            for path in ("/events/recent", "/events/recent?n=1"):
                out = get_json(address, path)
                out["json"]["events"] = brief_events(
                    out["json"]["events"], keep=("seq", "kind")
                )
                dump[f"GET {path}"] = out
            for path in ("/probes", "/traces/recent?n=0", "/traces/recent?n=1001",
                         "/traces/recent?n=abc", "/traces/t-unknown",
                         "/traces/t-unknown?format=chrome", "/incidents/inc-404",
                         "/nope", "/traces", "/traces/a/b", "/metrics/",
                         "/incidents/inc-404?format=text", "/profile?format=text",
                         "/profile?format=folded", "/alerts?format=text",
                         "/incidents/inc-1?format=text", "/metrics?format=jsn",
                         "/metrics?format=text", "/traces/recent?format=text",
                         "/traces/recent?n=0&format=text"):
                dump[f"GET {path}"] = get_json(address, path)
            dump["GET /traces/<id>?format=chrome"] = get_json(
                address, f"/traces/{trace_id}?format=chrome"
            )
            dump["GET /traces/t-unknown?format=text"] = http_get(
                address, "/traces/t-unknown?format=text"
            )
            for path in (f"/traces/{trace_id}?format=text", "/metrics"):
                out = http_get(address, path)
                assert out.pop("body").endswith("\n")
                dump[f"GET {path.replace(trace_id, '<id>')}"] = out
            settle_gateway(service.telemetry, 35)
            dump["gateway.exposition"] = only(
                parse_exposition(service.telemetry.prometheus(), _LIVE_SERIES),
                "gateway",
            )

            # The prober joins late: /probes was a 503 above.
            prober = SyntheticProber(
                [GoldenProbe(r.kernel, tuple(enumerate_tile_sizes(r.kernel)[:3]))
                 for r in records[:2]]
            )
            service.attach_prober(prober)
            assert prober.sweep()["failures"] == 0
            dump["probed GET /probes"] = get_json(address, "/probes", shape_only=True)
            dump["probed GET /healthz"] = get_json(address, "/healthz", shape_only=True)
            settle_gateway(service.telemetry, 37)
            dump["probed.exposition"] = only(
                parse_exposition(service.telemetry.prometheus(), _LIVE_SERIES),
                "prober",
            )
            dump["probed.metrics.tree"] = {
                key: tree
                for key, tree in key_tree(service.metrics()).items()
                if key.startswith("prober")
            }
    finally:
        service.stop()
        journal.close()
    return dump


def build_dump() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        dump = {
            **{f"scripted/{k}": v for k, v in scripted_dump(Path(tmp)).items()},
            **{f"live/{k}": v for k, v in live_dump(Path(tmp)).items()},
        }
    # Through JSON once, so tuples / int keys compare as the golden file
    # stores them.
    return json.loads(json.dumps(dump))


# ---------------------------------------------------------------------- #
# the pin
# ---------------------------------------------------------------------- #

_golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.fixture(scope="module")
def dump():
    return build_dump()


def test_dump_has_exactly_the_pinned_sections(dump):
    assert _golden, f"{GOLDEN} is missing"
    assert sorted(dump) == sorted(_golden)


@pytest.mark.parametrize("section", sorted(_golden))
def test_section_matches_the_pin(dump, section):
    assert dump[section] == _golden[section]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(build_dump(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(GOLDEN.read_text().splitlines())} lines)", file=sys.stderr)
