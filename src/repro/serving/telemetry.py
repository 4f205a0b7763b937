"""Telemetry substrate: end-to-end request tracing + a unified registry.

Two halves, both deliberately dependency-free (stdlib only):

**Tracing.** A :class:`TraceContext` (trace id + parent span id) rides on
a request across every layer boundary — in-process hand-off, the TCP
wire (as an optional JSON field old peers simply ignore), and the worker
pipe protocol — and each layer records :class:`Span`\\ s against it:
frontend recv/decode, queue wait, micro-batch cut, version routing,
executor dispatch, the forward inside a shard-worker subprocess,
result-cache hits, and retry/breaker/degradation events. Spans are
assembled into per-request trace trees held in a bounded ring buffer
(oldest trace evicted first).

Sampling is deterministic and hash-based, like the rollout layer's
:func:`~repro.serving.rollout.request_unit_hash`: the decision is a pure
function of the trace id, so the same id samples the same way on every
tracer instance and across processes — reproducible traces, no RNG.

**Zero overhead when disabled** follows the
:class:`~repro.serving.faults.FaultInjector` discipline exactly:
components hold ``None`` by default and every hook site is a single
``is not None`` check. An *unsampled* request costs one hash at ingress
and nothing after (its context is never attached).

**Metrics.** One model, pull only. A component (``ServingStats``,
``MicroBatcher``, ``PlacementController``, ``RolloutController``, circuit
breakers, ``FeedbackCollector``, the profiler, journal, prober, alert
engine, incident reporter, the gateway itself) owns its numbers and the
lock that guards them, renders them with a ``snapshot()``, and registers
that callback with a :class:`TelemetryRegistry` *together with its
exposition schema* — which of its keys are counters, which of its
sub-dicts are labeled families. :meth:`TelemetryRegistry.collect` calls
every collector once and merges the dicts; the same snapshot renders as
Prometheus text exposition (:meth:`TelemetryRegistry.prometheus`), with
the declared families emitted as labeled series and the declared
counters suffixed ``_total``. There are no registry-owned instruments:
the one :class:`Histogram` is a plain value a component embeds under its
own lock. SLO burn-rate gauges (:func:`slo_burn_rate`) derive from the
serving layer's latency windows/EWMAs.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from bisect import bisect_left
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

__all__ = [
    "Histogram",
    "Span",
    "TelemetryRegistry",
    "TraceContext",
    "Tracer",
    "slo_burn_rate",
    "trace_unit_hash",
]


# ---------------------------------------------------------------------- #
# trace context + spans
# ---------------------------------------------------------------------- #


def trace_unit_hash(trace_id: str, salt: str = "") -> float:
    """Deterministic hash of a trace id into ``[0, 1)``.

    The sampling decision is this value compared against the sample
    rate — a pure function of the id, so it is identical on every
    tracer instance, thread, and process (no RNG, no shared state).
    """
    digest = hashlib.sha256(f"{salt}:{trace_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class TraceContext:
    """The portable part of a trace: id + current parent span.

    Carried on requests (in-process by reference, on the wire as an
    optional JSON field, over the worker pipe as a ``(trace_id,
    span_id)`` token). ``sampled`` is stamped once at ingress; an
    unsampled context is never attached, so every downstream hook sees
    either a sampled context or ``None``.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    def child(self, span_id: str) -> "TraceContext":
        """The same trace, re-parented under ``span_id``."""
        return replace(self, span_id=span_id)

    def to_wire(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, entry) -> "TraceContext | None":
        """Rebuild from a wire dict; ``None`` on absent/malformed entries
        (a trace is never worth failing a request over)."""
        if not isinstance(entry, dict):
            return None
        trace_id = entry.get("trace_id")
        span_id = entry.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        return cls(trace_id=trace_id, span_id=span_id, sampled=True)


@dataclass
class Span:
    """One timed operation inside a trace.

    ``start``/``end`` are wall-clock (``time.time()``) so spans recorded
    in different processes on the same host line up on one axis.
    ``end`` is ``None`` while the span is open.
    """

    span_id: str
    trace_id: str
    name: str
    parent_id: str | None
    start: float
    end: float | None = None
    process: str = "service"
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return max((self.end or self.start) - self.start, 0.0)

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "name": self.name,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration_s": self.duration_s,
            "process": self.process,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Samples, records, and assembles per-request trace trees.

    Args:
        sample_rate: fraction of traces to record, in [0, 1]. The
            decision is :func:`trace_unit_hash`\\ (trace_id) < rate —
            deterministic per id.
        max_traces: ring-buffer bound on retained traces; starting a new
            trace beyond it evicts the oldest.
        salt: sampling-hash salt (distinct tracers can sample distinct
            subsets of the same id space).

    Thread-safe; shared by the frontends, the scheduler core, and the
    executor result path of one service. Worker subprocesses never hold
    a tracer — they return plain span dicts over the pipe, recorded here
    via :meth:`record_raw` (what "span assembly across the process
    boundary" means in practice).
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        max_traces: int = 256,
        salt: str = "",
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self.sample_rate = sample_rate
        self.max_traces = max_traces
        self.salt = salt
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, list[Span]]" = OrderedDict()
        self._ids = itertools.count(1)
        self._prefix = f"{os.getpid():x}"
        self.traces_started = 0
        self.traces_evicted = 0
        self.spans_recorded = 0
        self.unsampled = 0

    # ------------------------------------------------------------------ #
    # sampling + ingress
    # ------------------------------------------------------------------ #

    def _next_id(self, kind: str) -> str:
        return f"{kind}-{self._prefix}-{next(self._ids):08x}"

    def should_sample(self, trace_id: str) -> bool:
        """The deterministic sampling verdict for ``trace_id``."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return trace_unit_hash(trace_id, self.salt) < self.sample_rate

    def ingress(
        self,
        request,
        process: str = "frontend",
        name: str = "request",
        start: float | None = None,
    ) -> TraceContext | None:
        """Open (or adopt) a trace for one arriving request.

        Returns a sampled :class:`TraceContext` whose ``span_id`` is the
        server-side root span, or ``None`` when the trace sampled out —
        the caller then attaches nothing and pays nothing further.

        A request already carrying a context (stamped by a client, or by
        the wire decoder) keeps its trace id — the root span recorded
        here is parented under the remote span, so a cross-process tree
        still hangs together.
        """
        ctx = getattr(request, "trace", None)
        remote_parent: str | None = None
        if ctx is not None:
            if not ctx.sampled or not self.should_sample(ctx.trace_id):
                self.unsampled += 1
                return None
            trace_id, remote_parent = ctx.trace_id, ctx.span_id
        else:
            trace_id = self._next_id("t")
            if not self.should_sample(trace_id):
                self.unsampled += 1
                return None
        root = self.start_span(
            TraceContext(trace_id=trace_id, span_id=remote_parent or "", sampled=True),
            name,
            process=process,
            parent_id=remote_parent,
            start=start,
        )
        return TraceContext(trace_id=trace_id, span_id=root, sampled=True)

    # ------------------------------------------------------------------ #
    # span recording
    # ------------------------------------------------------------------ #

    def _append_locked(self, span: Span) -> None:
        spans = self._traces.get(span.trace_id)
        if spans is None:
            while len(self._traces) >= self.max_traces:
                self._traces.popitem(last=False)
                self.traces_evicted += 1
            spans = self._traces[span.trace_id] = []
            self.traces_started += 1
        spans.append(span)
        self.spans_recorded += 1

    def start_span(
        self,
        ctx: TraceContext,
        name: str,
        process: str = "service",
        parent_id: str | None = None,
        attrs: dict | None = None,
        start: float | None = None,
    ) -> str:
        """Open a span under ``ctx`` (parent defaults to ``ctx.span_id``);
        returns its span id for :meth:`end_span`."""
        span = Span(
            span_id=self._next_id("s"),
            trace_id=ctx.trace_id,
            name=name,
            parent_id=ctx.span_id if parent_id is None else (parent_id or None),
            start=time.time() if start is None else start,
            process=process,
            attrs=dict(attrs) if attrs else {},
        )
        with self._lock:
            self._append_locked(span)
        return span.span_id

    def end_span(
        self,
        trace_id: str,
        span_id: str,
        status: str = "ok",
        attrs: dict | None = None,
    ) -> None:
        now = time.time()
        with self._lock:
            for span in reversed(self._traces.get(trace_id, ())):
                if span.span_id == span_id:
                    if span.end is None:
                        span.end = now
                    span.status = status
                    if attrs:
                        span.attrs.update(attrs)
                    return

    def record(
        self,
        ctx: TraceContext,
        name: str,
        start: float,
        end: float | None = None,
        process: str = "service",
        attrs: dict | None = None,
        status: str = "ok",
        parent_id: str | None = None,
    ) -> str:
        """Record one already-timed span (start/end known up front)."""
        span = Span(
            span_id=self._next_id("s"),
            trace_id=ctx.trace_id,
            name=name,
            parent_id=ctx.span_id if parent_id is None else (parent_id or None),
            start=start,
            end=time.time() if end is None else end,
            process=process,
            status=status,
            attrs=dict(attrs) if attrs else {},
        )
        with self._lock:
            self._append_locked(span)
        return span.span_id

    def event(self, ctx: TraceContext, name: str, attrs: dict | None = None) -> str:
        """A zero-duration marker span (breaker opened, retry, ...)."""
        now = time.time()
        return self.record(ctx, name, start=now, end=now, attrs=attrs, status="event")

    def record_raw(self, span_dict: dict) -> None:
        """Record a span shipped as a plain dict from another process
        (shard workers return these over the pipe — they never hold a
        tracer themselves)."""
        trace_id = span_dict.get("trace_id")
        if not trace_id:
            return
        span = Span(
            span_id=span_dict.get("span_id") or self._next_id("s"),
            trace_id=trace_id,
            name=span_dict.get("name", "span"),
            parent_id=span_dict.get("parent_id"),
            start=float(span_dict.get("start", 0.0)),
            end=span_dict.get("end"),
            process=span_dict.get("process", "worker"),
            status=span_dict.get("status", "ok"),
            attrs=dict(span_dict.get("attrs") or {}),
        )
        with self._lock:
            self._append_locked(span)

    @contextmanager
    def span(
        self,
        ctx: TraceContext,
        name: str,
        process: str = "service",
        attrs: dict | None = None,
    ):
        """Context manager over :meth:`start_span`/:meth:`end_span`;
        yields the child context for nesting."""
        span_id = self.start_span(ctx, name, process=process, attrs=attrs)
        try:
            yield ctx.child(span_id)
        except BaseException:
            self.end_span(ctx.trace_id, span_id, status="error")
            raise
        self.end_span(ctx.trace_id, span_id)

    def finish(
        self,
        ctx: TraceContext,
        status: str = "ok",
        attrs: dict | None = None,
    ) -> None:
        """Close the context's current span (typically the root)."""
        self.end_span(ctx.trace_id, ctx.span_id, status=status, attrs=attrs)

    # ------------------------------------------------------------------ #
    # readout
    # ------------------------------------------------------------------ #

    def trace(self, trace_id: str) -> dict | None:
        """The assembled trace tree, or ``None`` for an unknown id."""
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                return None
            snapshot = [span.to_dict() for span in spans]
        children: dict[str | None, list[dict]] = {}
        ids = {entry["span_id"] for entry in snapshot}
        for entry in snapshot:
            parent = entry["parent_id"]
            # A span whose parent lives in another process's (or an
            # evicted) record still renders — as a root.
            children.setdefault(parent if parent in ids else None, []).append(entry)

        def build(entry: dict) -> dict:
            kids = sorted(
                children.get(entry["span_id"], ()), key=lambda e: e["start"]
            )
            return {**entry, "children": [build(kid) for kid in kids]}

        roots = sorted(children.get(None, ()), key=lambda e: e["start"])
        starts = [e["start"] for e in snapshot]
        ends = [e["end"] or e["start"] for e in snapshot]
        return {
            "trace_id": trace_id,
            "span_count": len(snapshot),
            "duration_s": max(ends) - min(starts) if snapshot else 0.0,
            "processes": sorted({e["process"] for e in snapshot}),
            "roots": [build(root) for root in roots],
        }

    def recent(self, n: int = 20) -> list[dict]:
        """Summaries of the newest ``n`` retained traces, newest first."""
        with self._lock:
            ids = list(self._traces)[-n:]
        out = []
        for trace_id in reversed(ids):
            tree = self.trace(trace_id)
            if tree is None:
                continue
            root = tree["roots"][0] if tree["roots"] else None
            out.append(
                {
                    "trace_id": trace_id,
                    "span_count": tree["span_count"],
                    "duration_s": tree["duration_s"],
                    "processes": tree["processes"],
                    "name": root["name"] if root else "",
                    "status": root["status"] if root else "",
                }
            )
        return out

    def render(self, trace_id: str) -> str:
        """ASCII trace tree — the ops-console view of one request."""
        tree = self.trace(trace_id)
        if tree is None:
            return f"trace {trace_id}: not retained"
        lines = [
            f"trace {trace_id} "
            f"({tree['span_count']} spans, {tree['duration_s'] * 1e3:.2f} ms, "
            f"processes: {', '.join(tree['processes'])})"
        ]

        def walk(node: dict, prefix: str, last: bool) -> None:
            branch = "└── " if last else "├── "
            attrs = node["attrs"]
            detail = (
                " {" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "}"
                if attrs
                else ""
            )
            mark = "" if node["status"] == "ok" else f" [{node['status']}]"
            lines.append(
                f"{prefix}{branch}{node['name']} "
                f"[{node['process']}] {node['duration_s'] * 1e3:.2f}ms"
                f"{mark}{detail}"
            )
            kids = node["children"]
            for i, kid in enumerate(kids):
                walk(kid, prefix + ("    " if last else "│   "), i == len(kids) - 1)

        roots = tree["roots"]
        for i, root in enumerate(roots):
            walk(root, "", i == len(roots) - 1)
        return "\n".join(lines)

    def snapshot(self) -> dict:
        """Tracer accounting for the metrics registry."""
        with self._lock:
            retained = len(self._traces)
        return {
            "trace_sample_rate": self.sample_rate,
            "traces_started": float(self.traces_started),
            "traces_retained": float(retained),
            "traces_evicted": float(self.traces_evicted),
            # The ring-eviction counter under its exposition name; kept
            # alongside the legacy key so existing dashboards survive.
            "trace_ring_evicted": float(self.traces_evicted),
            "traces_unsampled": float(self.unsampled),
            "spans_recorded": float(self.spans_recorded),
        }


# ---------------------------------------------------------------------- #
# metrics registry
# ---------------------------------------------------------------------- #


#: Default histogram buckets: latency-shaped, in seconds.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """Cumulative-bucket histogram (Prometheus ``le`` semantics).

    Not locked: a histogram lives inside a component that already
    serialises its record path (the profiler's stage lock, the gateway's
    metric lock), and its snapshot is read under that same lock.
    """

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets=DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        # counts is stored non-cumulative (one increment per observe, in
        # the first bucket whose bound is >= value); snapshot() exposes
        # the running-sum cumulative view.
        idx = bisect_left(self.buckets, value)
        if idx < len(self.counts):
            self.counts[idx] += 1

    def snapshot(self) -> dict:
        buckets = {}
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            buckets[str(bound)] = float(running)
        return {"count": float(self.count), "sum": self.sum, "buckets": buckets}


def slo_burn_rate(violation_fraction: float, objective: float) -> float:
    """How fast the error budget burns at the observed violation rate.

    ``1.0`` means exactly on budget (violations equal the allowance
    ``1 - objective``); ``> 1`` burns the budget early. An objective of
    1.0 leaves no budget, so any violation reads as an infinite burn —
    capped here to a large finite value to stay JSON-friendly.
    """
    budget = 1.0 - objective
    if budget <= 0.0:
        return 0.0 if violation_fraction <= 0.0 else 1e9
    return violation_fraction / budget


class TelemetryRegistry:
    """Component collectors, read in one pass, plus their exposition.

    A component keeps its own numbers under its own lock and registers a
    *collector* — a callback returning a dict merged into the snapshot —
    together with the schema the exposition needs for that dict: which
    keys are counters, and which sub-dicts are labeled families.
    ``collect()`` calls every collector once, in registration order;
    each component's contribution is internally consistent under its
    lock. Nothing is pushed, so the registry costs nothing until someone
    reads it.
    """

    #: Prefix of every exposed metric name.
    NAMESPACE = "repro"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._collectors: "OrderedDict[str, object]" = OrderedDict()
        self._counter_keys: set[str] = set()
        self._families: dict[str, str] = {}
        self.collector_errors = 0

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register_collector(
        self, name: str, fn, counters=(), families: dict | None = None
    ) -> None:
        """Register (or replace) the named snapshot contributor.

        ``counters`` names the snapshot keys that are semantically
        counters, so the exposition types them and adds the conventional
        ``_total`` suffix — by leaf key, wherever it appears in the
        merged snapshot (``requests`` also types ``per_shard``'s
        ``requests``). ``families`` maps a snapshot key whose value is a
        dict of members to the label name for them: the family renders
        as labeled series (``per_shard`` → ``{shard="0"}``) instead of
        one flattened metric name per member. Both are unions over every
        registration.
        """
        with self._lock:
            self._collectors[name] = fn
            self._counter_keys.update(counters)
            self._families.update(families or {})

    # ------------------------------------------------------------------ #
    # readout
    # ------------------------------------------------------------------ #

    def collect(self) -> dict:
        """One snapshot of every collector.

        Collector dicts merge in registration order (later wins on key
        collisions). A failing collector is skipped and counted — a
        metrics scrape must never take the serving path down with it.
        """
        with self._lock:
            collectors = list(self._collectors.values())
        out: dict = {}
        for fn in collectors:
            try:
                data = fn()
            except Exception:
                self.collector_errors += 1
                continue
            if data:
                out.update(data)
        if self.collector_errors:
            out["telemetry_collector_errors"] = float(self.collector_errors)
        return out

    # ------------------------------------------------------------------ #
    # Prometheus text exposition
    # ------------------------------------------------------------------ #

    @staticmethod
    def _sanitize(name: str) -> str:
        out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
        return out if not out[:1].isdigit() else f"_{out}"

    def _series_name(self, *parts: str) -> str:
        return self._sanitize("_".join((self.NAMESPACE, *parts)))

    @staticmethod
    def _format_labels(labels: dict) -> str:
        # Label-value escaping per the exposition format: backslash
        # first (so the other escapes aren't double-escaped), then
        # quote, then newline — an unescaped newline in a label value
        # would truncate the sample line and corrupt the whole scrape.
        if not labels:
            return ""
        escaped = {
            k: str(v)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            for k, v in labels.items()
        }
        inner = ",".join(f'{k}="{v}"' for k, v in sorted(escaped.items()))
        return "{" + inner + "}"

    @staticmethod
    def _format_value(value: float) -> str:
        # The exposition format spells non-finite values "NaN", "+Inf",
        # "-Inf" — Python's "nan"/"inf" spellings are rejected by
        # Prometheus parsers.
        if value != value:
            return "NaN"
        if value == float("inf"):
            return "+Inf"
        if value == float("-inf"):
            return "-Inf"
        return f"{value:.10g}"

    def prometheus(self) -> str:
        """The full snapshot in Prometheus text exposition format."""
        snap = self.collect()
        samples: "OrderedDict[str, list[tuple[dict, float]]]" = OrderedDict()
        types: dict[str, str] = {}
        infos: dict[str, str] = {}

        def emit(name: str, labels: dict, value, counter: bool) -> None:
            if isinstance(value, bool):
                value = float(value)
            if isinstance(value, (int, float)):
                series = self._series_name(name) + ("_total" if counter else "")
                samples.setdefault(series, []).append((labels, float(value)))
                types[series] = "counter" if counter else "gauge"
            elif isinstance(value, str):
                infos[self._sanitize(name)] = value

        def walk(key: str, value, labels: dict, prefix: str) -> None:
            name = f"{prefix}_{key}" if prefix else key
            if isinstance(value, dict):
                if "buckets" in value and "count" in value and "sum" in value:
                    self._emit_histogram(samples, types, name, labels, value)
                    return
                family = self._families.get(key)
                if family is not None:
                    for member, entry in value.items():
                        member_labels = {**labels, family: member}
                        if isinstance(entry, dict):
                            for sub, sub_value in entry.items():
                                walk(sub, sub_value, member_labels, name)
                        else:
                            emit(
                                name,
                                member_labels,
                                entry,
                                key in self._counter_keys,
                            )
                    return
                for sub, sub_value in value.items():
                    walk(sub, sub_value, labels, name)
                return
            if isinstance(value, (list, tuple)):
                return  # audit logs (transitions, plans) are not series
            emit(name, labels, value, key in self._counter_keys)

        for key, value in snap.items():
            walk(key, value, {}, "")

        lines: list[str] = []
        for series, rows in samples.items():
            lines.append(f"# TYPE {series} {types[series]}")
            for labels, value in rows:
                formatted = (
                    self._format_value(value)
                    if isinstance(value, float)
                    else str(value)
                )
                lines.append(f"{series}{self._format_labels(labels)} {formatted}")
        if infos:
            labels = self._format_labels(infos)
            info_series = self._series_name("info")
            lines.append(f"# TYPE {info_series} gauge")
            lines.append(f"{info_series}{labels} 1")
        return "\n".join(lines) + "\n"

    def _emit_histogram(
        self, samples, types, name: str, labels: dict, value: dict
    ) -> None:
        series = self._series_name(name)
        types[f"{series}_bucket"] = "counter"
        types[f"{series}_sum"] = "counter"
        types[f"{series}_count"] = "counter"
        for bound, count in value["buckets"].items():
            samples.setdefault(f"{series}_bucket", []).append(
                ({**labels, "le": bound}, float(count))
            )
        samples.setdefault(f"{series}_bucket", []).append(
            ({**labels, "le": "+Inf"}, float(value["count"]))
        )
        samples.setdefault(f"{series}_sum", []).append((labels, float(value["sum"])))
        samples.setdefault(f"{series}_count", []).append(
            (labels, float(value["count"]))
        )

    def json(self) -> str:
        """The snapshot as a JSON document (the gateway's JSON format)."""
        return json.dumps(self.collect(), default=str, sort_keys=True)
