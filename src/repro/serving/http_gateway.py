"""Read-only HTTP ops gateway: metrics exposition + trace lookup.

The first third of the ROADMAP's "multi-protocol edge gateway + live ops
console" item: a minimal stdlib ``http.server`` endpoint bound to one
:class:`~repro.serving.service.CostModelService`, serving the telemetry
registry and the tracer over plain HTTP so standard tooling (Prometheus,
``curl``, a browser) can watch a running service without linking against
it. Deliberately **read-only** — control verbs (drain, rollback, scale)
and runbook automation stay future work; this surface can be pointed at
a production service without handing out a control plane.

Endpoints:

* ``GET /healthz`` — liveness + the active checkpoint version, plus a
  ``status: ok | degraded | failing`` verdict folded from recent
  synthetic-probe results, open circuit breakers, and firing alerts
  (``failing`` answers 503 so a load balancer can act on it; the JSON
  stays backwards compatible).
* ``GET /metrics`` — the registry snapshot in Prometheus text
  exposition format; ``?format=json`` returns the same snapshot as one
  JSON document (nested dicts intact).
* ``GET /traces/recent`` — summaries of the newest retained traces
  (``?n=`` bounds the count, default 20).
* ``GET /traces/<trace_id>`` — one assembled trace tree as JSON;
  ``?format=text`` returns the ASCII rendering.
* ``GET /profile`` — the continuous profiler's report: per-stage
  exemplar-linked histograms, flame-style call-path table, interval
  snapshots.
* ``GET /alerts`` — the alert engine's board (firing/pending counts +
  per-rule state).
* ``GET /events/recent`` — the newest ops-journal events (``?n=``
  bounds the count, default 50).
* ``GET /probes`` — the synthetic prober's board: corpus size, route
  matrix coverage, per-route pass/fail, recent verdicts.
* ``GET /incidents`` — auto-generated incident report summaries;
  ``GET /incidents/<id>`` one full report.

Two routes take a ``?format=``: ``/metrics?format=json`` and
``/traces/<id>?format=text``; every other body is JSON. Any other
``format`` value, on any route, answers a typed ``400`` rather than a
silent default, and so does a ``?n=`` on the ``/recent`` endpoints
outside the integers [1, 1000].

Trace endpoints answer ``503`` when the service has no tracer attached
(tracing disabled is the zero-overhead default) and ``404`` for ids the
ring buffer no longer retains; ``/profile``, ``/alerts``,
``/events/recent``, ``/probes``, and ``/incidents`` answer ``503`` the
same way when their component is not attached.

The gateway itself is instrumented: its request counter, error counter,
latency histogram, and a per-endpoint access breakdown land in the same
registry it serves, so a scrape shows the cost of scraping.
"""
from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .telemetry import Histogram

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _format(query: dict) -> str:
    return query.get("format", [""])[0]


class MetricsGateway:
    """Serve one service's telemetry registry + tracer over HTTP.

    Args:
        service: the :class:`CostModelService` to expose. Its lazy
            ``telemetry`` registry is built on construction (the gateway
            exists to read it) and the gateway's own metrics are
            registered into it.
        host: bind address (default loopback — an ops surface should
            not listen on all interfaces unless asked to).
        port: bind port; 0 picks a free one (read :attr:`address`).

    The server runs on a daemon thread pool (one thread per in-flight
    request, stdlib ``ThreadingHTTPServer``); every handler only *reads*
    service state, so a slow scrape can never block the serving path.
    Context-manager friendly; :meth:`close` is idempotent.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        # The gateway's own metrics: plain numbers under one lock, like
        # every other component's. Accesses are broken down per endpoint
        # and exposed as a labeled family
        # (``gateway_accesses{endpoint="..."}``) so gateway load is
        # attributable, not just a single total.
        self._metrics_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._latency = Histogram()
        self._accesses: dict[str, int] = {}
        service.telemetry.register_collector(
            "gateway",
            self._snapshot,
            counters=("gateway_requests", "gateway_errors", "gateway_accesses"),
            families={"gateway_accesses": "endpoint"},
        )
        gateway = self

        class _Handler(BaseHTTPRequestHandler):
            # Ops endpoints must not spam the service's stdout/stderr.
            def log_message(self, format, *args):  # noqa: A002
                pass

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                gateway._handle(self)

        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self.address: tuple[str, int] = self._server.server_address[:2]
        self._closed = False
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="metrics-gateway",
            daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #

    def _handle(self, handler: BaseHTTPRequestHandler) -> None:
        started = time.perf_counter()
        try:
            status = self._route(handler)
        except BrokenPipeError:
            status = 0  # peer went away mid-write; nothing to answer
        except Exception as exc:
            status = 500
            try:
                self._send(
                    handler, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except OSError:
                pass
        with self._metrics_lock:
            self._requests += 1
            if status >= 400:
                self._errors += 1
            self._latency.observe(time.perf_counter() - started)

    def _snapshot(self) -> dict:
        """Gateway accounting for the metrics registry: HTTP requests
        served, responses with status >= 400, request handling latency,
        and the per-endpoint access breakdown."""
        with self._metrics_lock:
            return {
                "gateway_requests": float(self._requests),
                "gateway_errors": float(self._errors),
                "gateway_latency_s": self._latency.snapshot(),
                "gateway_accesses": {
                    endpoint: float(count)
                    for endpoint, count in self._accesses.items()
                },
            }

    #: Bounds for the ``?n=`` limit on the ``/recent`` endpoints — large
    #: enough for any console, small enough that a scrape can't ask the
    #: gateway to serialize an unbounded dump.
    _MAX_N = 1000

    @staticmethod
    def _check_format(query: dict, accepted: tuple[str, ...]) -> str | None:
        """The error for a ``?format=`` the route does not serve, else ``None``."""
        fmt = _format(query)
        if fmt and fmt not in accepted:
            return f"format must be {' or '.join(accepted) or 'absent'}, got {fmt!r}"
        return None

    @classmethod
    def _parse_n(cls, query: dict, default: int) -> tuple[int | None, str | None]:
        """Parse the ``?n=`` limit; ``(n, None)`` or ``(None, error)``."""
        raw = query.get("n", [str(default)])[0]
        try:
            n = int(raw)
        except ValueError:
            return None, f"n must be an integer, got {raw!r}"
        if not 1 <= n <= cls._MAX_N:
            return None, f"n must be in [1, {cls._MAX_N}], got {n}"
        return n, None

    def _health_verdict(self) -> tuple[str, dict]:
        """Fold probes, breakers, and alerts into ``ok|degraded|failing``.

        A failing probe route is *verified* breakage (a known answer came
        back wrong, or not at all) → ``failing``. Open breakers or firing
        alerts mean the service is coping but impaired → ``degraded``.
        Components that aren't attached just don't vote.
        """
        detail: dict = {}
        status = "ok"
        alerts = self.service.alerts
        if alerts is not None:
            firing = int(alerts.snapshot()["alerts_firing"])
            detail["alerts_firing"] = firing
            if firing:
                status = "degraded"
        try:
            board = self.service.breaker_board()["breakers"]
        except Exception:
            board = {}
        open_breakers = sorted(
            shard
            for shard, snap in board.items()
            if snap.get("state") in ("open", "half-open")
        )
        detail["breakers_open"] = open_breakers
        if open_breakers:
            status = "degraded"
        prober = self.service.prober
        if prober is not None:
            health = prober.health()
            detail["probe_failing_routes"] = health["failing_routes"]
            detail["probes"] = health["probes"]
            if health["failing_routes"]:
                status = "failing"
        return status, detail

    # ------------------------------------------------------------------ #
    # routes: ``(self, component, rest, query)`` → ``(status, payload)``
    # or ``(status, payload, content type)``; ``None`` = no such route.
    # ``rest`` is the path below the family; a ``str`` payload is text.
    # ------------------------------------------------------------------ #

    def _healthz(self, registry, rest, query):
        status, detail = self._health_verdict()
        return 503 if status == "failing" else 200, {
            "status": status,
            "running": bool(self.service.is_running),
            "active_version": registry.active_version,
            "tracing": self.service.tracer is not None,
            **detail,
        }

    def _metrics(self, telemetry, rest, query):
        if _format(query) == "json":
            return 200, telemetry.json(), "application/json"
        return 200, telemetry.prometheus(), PROMETHEUS_CONTENT_TYPE

    def _traces(self, tracer, rest, query):
        if len(rest) != 1:
            return None
        if rest[0] == "recent":
            n, error = self._parse_n(query, default=20)
            error = self._check_format(query, ()) or error
            if error is not None:
                return 400, {"error": error}
            return 200, {"traces": tracer.recent(n)}
        trace_id = rest[0]
        if _format(query) == "text":
            rendered = tracer.render(trace_id)
            status = 404 if rendered.endswith("not retained") else 200
            return status, rendered + "\n"
        document = tracer.trace(trace_id)
        if document is None:
            return 404, {"error": f"trace {trace_id} not retained"}
        return 200, document

    def _profile(self, profiler, rest, query):
        return 200, profiler.profile()

    def _alerts(self, alerts, rest, query):
        return 200, alerts.alerts()

    def _events(self, journal, rest, query):
        n, error = self._parse_n(query, default=50)
        if error is not None:
            return 400, {"error": error}
        return 200, {"events": journal.recent(n)}

    def _probes(self, prober, rest, query):
        return 200, prober.board()

    def _incidents(self, incidents, rest, query):
        if not rest:
            return 200, {"incidents": incidents.reports()}
        if len(rest) != 1:
            return None
        incident_id = rest[0]
        report = incidents.report(incident_id)
        if report is None:
            return 404, {"error": f"incident {incident_id} not retained"}
        return 200, report

    #: Route family → (the one path it answers, or ``None`` for every
    #: path under ``/<family>``; the service attribute it reads; the 503
    #: message when that attribute is ``None``; the ``?format=`` values
    #: it serves besides its default; the route). The families are also
    #: the access-counter label — a fixed vocabulary, so label
    #: cardinality stays bounded no matter what paths clients probe.
    _ROUTES = {
        "healthz": ("/healthz", "registry", "", (), _healthz),
        "metrics": ("/metrics", "telemetry", "", ("json",), _metrics),
        "traces": (None, "tracer", "tracing is not enabled", ("text",), _traces),
        "profile": ("/profile", "profiler", "profiling is not enabled", (), _profile),
        "alerts": ("/alerts", "alerts", "alerting is not enabled", (), _alerts),
        "events": (
            "/events/recent", "journal", "ops journal is not enabled", (), _events
        ),
        "probes": (
            "/probes", "prober", "synthetic probing is not enabled", (), _probes
        ),
        "incidents": (
            None, "incidents", "incident reporting is not enabled", (), _incidents
        ),
    }

    def _route(self, handler: BaseHTTPRequestHandler) -> int:
        url = urlparse(handler.path)
        parts = [p for p in url.path.split("/") if p]
        family = parts[0] if parts else ""
        entry = self._ROUTES.get(family)
        # Counted before routing: a first /metrics scrape sees itself.
        with self._metrics_lock:
            label = family if entry is not None else "other"
            self._accesses[label] = self._accesses.get(label, 0) + 1
        answer = None
        if entry is not None:
            path, attribute, absent, formats, route = entry
            if path is None or path == url.path:
                component = getattr(self.service, attribute)
                query = parse_qs(url.query)
                error = self._check_format(query, formats)
                if component is None:
                    answer = 503, {"error": absent}
                elif error is not None:
                    answer = 400, {"error": error}
                else:
                    answer = route(self, component, parts[1:], query)
        if answer is None:
            answer = 404, {"error": f"no route for {url.path}"}
        return self._send(handler, *answer)

    @staticmethod
    def _send(
        handler: BaseHTTPRequestHandler,
        status: int,
        payload,
        content_type: str | None = None,
    ) -> int:
        """Answer with a text (``str``) or JSON (anything else) body."""
        if isinstance(payload, str):
            body = payload.encode()
            content_type = content_type or "text/plain; charset=utf-8"
        else:
            body = json.dumps(payload, default=str).encode()
            content_type = "application/json"
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)
        return status

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Stop serving; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._server.shutdown()
        self._thread.join(timeout=2)
        self._server.server_close()

    def __enter__(self) -> "MetricsGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["MetricsGateway", "PROMETHEUS_CONTENT_TYPE"]
