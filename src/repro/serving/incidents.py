"""Automated incident reports from alert firings.

A firing alert (PR 8) tells an operator *that* something broke; finding
*what* still meant hand-correlating ``/events/recent``, ``/traces/<id>``,
``/profile``, and per-shard stats. This module automates that first
fifteen minutes of triage: an :class:`IncidentReporter` hooks the
:class:`~repro.serving.alerts.AlertEngine`'s transition observers and,
on every ``→ firing`` transition, self-assembles a bounded,
trace-correlated **incident report**:

* the breached rule, its transition, and its recent evaluated series;
* the :class:`~repro.serving.journal.OpsJournal` window around the
  first breach (probe failures, worker respawns, registry swaps,
  breaker transitions — the lifecycle events a human would grep for);
* the worst per-stage trace exemplars from the continuous profiler;
* per-shard metric z-scores (which shard is the outlier, numerically);
* recent synthetic-probe verdicts and failing routes (PR 10's prober);

reduced to a **ranked suspected-cause list** — e.g. *"shard 2 probe
known-answer failures (known_answer_mismatch) began at journal seq 412,
0.8 s after worker.respawn"*. Reports are journaled (``incident.open``
summary + full ``incident.report`` payload — a replayed journal carries
its own post-mortems) and served read-only from the gateway at
``/incidents`` and ``/incidents/<id>``.

Everything here is best-effort and bounded: a missing component
(no profiler, no prober, no journal) just leaves its section empty, an
exception while assembling evidence degrades the report rather than the
alert path, and the report ring keeps at most ``max_reports`` entries.
The reporter follows the stack's ``None``-hook discipline — a service
without one behaves exactly as before.
"""
from __future__ import annotations

import threading
import time
from collections import deque
from math import sqrt

from .journal import record_event

__all__ = ["IncidentReporter"]

#: Journal kinds that describe *operator-visible state changes* — the
#: events worth blaming. Probe failures are handled separately (they
#: carry the breach marker); alert transitions are the symptom, never
#: the cause.
_LIFECYCLE_PREFIXES = (
    "worker.",
    "registry.",
    "rollout.",
    "placement.",
    "breaker.",
    "service.",
)


def _shard_zscores(per_shard: dict) -> dict:
    """Population z-score of each shard's metrics against the fleet.

    ``per_shard`` is :meth:`ServingStats.shard_snapshot` output. A
    metric with zero spread across shards yields no z-scores (nothing
    is an outlier of a constant).
    """
    metrics = ("requests", "errors", "latency_p99_s", "latency_max_s")
    shards = sorted(per_shard)
    out: dict[str, dict[str, float]] = {shard: {} for shard in shards}
    if len(shards) < 2:
        return out
    for metric in metrics:
        values = [float(per_shard[s].get(metric, 0.0)) for s in shards]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        std = sqrt(var)
        if std <= 0.0:
            continue
        for shard, value in zip(shards, values):
            out[shard][metric] = (value - mean) / std
    return out


class IncidentReporter:
    """Turns alert firings into ranked, self-contained incident reports.

    Args:
        max_reports: bound on the retained report ring.
        journal_window: how many journal events around the first breach
            each report captures.
        clock: injectable time source (report timestamps only — the
            evidence carries its own).

    Wire-up (either order works; ``service.attach_incidents`` does both):
    :meth:`bind` a service for its journal/stats/profiler/prober, then
    :meth:`observe` an alert engine to hook its transition stream.
    Reports can also be forced for drills via :meth:`open_incident`.
    """

    def __init__(
        self,
        max_reports: int = 32,
        journal_window: int = 40,
        clock=time.time,
    ) -> None:
        if max_reports < 1:
            raise ValueError("max_reports must be >= 1")
        self.journal_window = journal_window
        self._clock = clock
        self._service = None
        self._engine = None
        self._lock = threading.Lock()
        self._reports: deque[dict] = deque(maxlen=max_reports)
        self._counter = 0
        self.opened = 0

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def bind(self, service) -> None:
        """Bind to a service (``service.attach_incidents`` calls this);
        hooks onto its alert engine when one is already attached."""
        self._service = service
        if service.alerts is not None:
            self.observe(service.alerts)

    def observe(self, engine) -> None:
        """Hook this reporter onto an alert engine's transition stream."""
        if self.on_transition not in engine.observers:
            engine.observers.append(self.on_transition)
        self._engine = engine

    def on_transition(self, move: dict) -> None:
        """Alert-engine observer: a ``→ firing`` move opens an incident."""
        if move.get("to") == "firing":
            self.open_incident(move)

    # ------------------------------------------------------------------ #
    # report assembly
    # ------------------------------------------------------------------ #

    def open_incident(self, move: dict) -> dict:
        """Assemble, retain, and journal a report for ``move``."""
        with self._lock:
            self._counter += 1
            incident_id = f"inc-{self._counter}"
        report = {
            "id": incident_id,
            "ts": self._clock(),
            "rule": dict(move),
            "series": self._gather(self._rule_series, move),
            "probes": self._gather(self._probe_evidence),
            "journal_window": self._gather(self._journal_evidence),
            "profile": self._gather(self._profile_evidence),
            "shard_zscores": self._gather(self._zscore_evidence),
        }
        report["causes"] = self._rank_causes(report)
        with self._lock:
            self._reports.append(report)
            self.opened += 1
        self._journal_report(report)
        return report

    @staticmethod
    def _gather(fn, *args):
        """Evidence is best-effort: a broken section degrades the report,
        never the alert path that triggered it."""
        try:
            return fn(*args)
        except Exception as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}

    def _rule_series(self, move: dict) -> list[dict]:
        if self._engine is None:
            return []
        return self._engine.series(move["name"])

    def _probe_evidence(self) -> dict:
        if self._service is None or self._service.prober is None:
            return {}
        prober = self._service.prober
        return {
            "failing_routes": prober.failing_routes(),
            "recent": prober.recent(10),
        }

    def _journal_evidence(self) -> list[dict]:
        if self._service is None or self._service.journal is None:
            return []
        # Newest-first from the in-memory tail; the report stores it
        # oldest-first, the way a post-mortem reads.
        return list(reversed(self._service.journal.recent(self.journal_window)))

    def _profile_evidence(self) -> dict:
        if self._service is None or self._service.profiler is None:
            return {}
        stages = self._service.profiler.profile().get("stages", {})
        return {
            stage: {
                "count": entry.get("count"),
                "max_s": entry.get("max_s"),
                "worst_exemplar": entry.get("worst_exemplar"),
            }
            for stage, entry in stages.items()
        }

    def _zscore_evidence(self) -> dict:
        if self._service is None:
            return {}
        return _shard_zscores(self._service.stats.shard_snapshot())

    # ------------------------------------------------------------------ #
    # cause ranking
    # ------------------------------------------------------------------ #

    def _rank_causes(self, report: dict) -> list[dict]:
        """Reduce the evidence to ranked suspected causes.

        Heuristics, strongest first: a failing probe route is *verified*
        breakage (known answer, known route); a per-shard error z-score
        outlier is strong circumstantial evidence; an open breaker and a
        recent lifecycle event are context; the breached rule itself is
        the floor. Scores are comparable across reports, not
        probabilities.
        """
        causes: list[dict] = []
        causes += self._probe_causes(report)
        causes += self._zscore_causes(report)
        causes += self._breaker_causes()
        causes += self._lifecycle_causes(report)
        rule = report["rule"]
        causes.append(
            {
                "score": 10,
                "kind": "rule_breach",
                "cause": (
                    f"alert rule {rule.get('name')!r} breached "
                    f"(value={rule.get('value')}); no stronger signal "
                    "isolated a component"
                ),
                "evidence": {"rule": rule.get("name")},
            }
        )
        causes.sort(key=lambda c: -c["score"])
        for rank, cause in enumerate(causes, start=1):
            cause["rank"] = rank
        return causes

    def _probe_causes(self, report: dict) -> list[dict]:
        probes = report.get("probes") or {}
        failing = probes.get("failing_routes") or {}
        events = report.get("journal_window")
        events = events if isinstance(events, list) else []
        causes = []
        for route, stats in failing.items():
            parts = route.split(":")
            shard = parts[1] if len(parts) == 3 else "?"
            seq = stats.get("first_failure_seq")
            reason = self._route_reason(probes, route)
            text = f"shard {shard} probe failures ({reason}) on route {route}"
            if seq is not None:
                text += f" began at journal seq {seq}"
                culprit = self._preceding_lifecycle_event(events, seq)
                if culprit is not None:
                    dt = None
                    ts = stats.get("first_failure_ts")
                    if ts is not None and culprit.get("ts") is not None:
                        dt = max(ts - culprit["ts"], 0.0)
                    after = f"{dt:.1f} s after " if dt is not None else "after "
                    text += f", {after}{culprit['kind']} (seq {culprit.get('seq')})"
            causes.append(
                {
                    "score": 100,
                    "kind": "probe_failure",
                    "cause": text,
                    "evidence": {
                        "route": route,
                        "shard": shard,
                        "reason": reason,
                        "first_failure_seq": seq,
                        "failures": stats.get("failures"),
                    },
                }
            )
        return causes

    @staticmethod
    def _route_reason(probes: dict, route: str) -> str:
        for verdict in probes.get("recent") or []:
            if verdict.get("route") == route and verdict.get("outcome") == "fail":
                return verdict.get("reason") or "unknown"
        return "unknown"

    @staticmethod
    def _preceding_lifecycle_event(events: list, seq: int) -> dict | None:
        """The nearest lifecycle event strictly before journal ``seq`` —
        the thing that most plausibly *caused* what broke at ``seq``."""
        best = None
        for entry in events:
            entry_seq = entry.get("seq")
            if entry_seq is None or entry_seq >= seq:
                continue
            kind = entry.get("kind", "")
            if not kind.startswith(_LIFECYCLE_PREFIXES):
                continue
            if kind.startswith(("service.start", "service.telemetry")):
                continue  # boot noise, present in every journal
            if best is None or entry_seq > best.get("seq", -1):
                best = entry
        return best

    def _zscore_causes(self, report: dict) -> list[dict]:
        zscores = report.get("shard_zscores")
        if not isinstance(zscores, dict):
            return []
        causes = []
        for shard, metrics in zscores.items():
            if not isinstance(metrics, dict):
                continue
            z_err = metrics.get("errors", 0.0)
            z_lat = metrics.get("latency_p99_s", 0.0)
            if z_err >= 1.0:
                causes.append(
                    {
                        "score": 70,
                        "kind": "shard_error_outlier",
                        "cause": (
                            f"shard {shard} error count is the fleet outlier "
                            f"(z={z_err:.2f})"
                        ),
                        "evidence": {"shard": shard, "z_errors": z_err},
                    }
                )
            elif z_lat >= 2.0:
                causes.append(
                    {
                        "score": 40,
                        "kind": "shard_latency_outlier",
                        "cause": (
                            f"shard {shard} p99 latency is the fleet outlier "
                            f"(z={z_lat:.2f})"
                        ),
                        "evidence": {"shard": shard, "z_latency_p99": z_lat},
                    }
                )
        return causes

    def _breaker_causes(self) -> list[dict]:
        service = self._service
        if service is None:
            return []
        try:
            board = service.breaker_board()["breakers"]
        except Exception:
            return []
        causes = []
        for shard, snap in board.items():
            if snap.get("state") in ("open", "half-open"):
                causes.append(
                    {
                        "score": 50,
                        "kind": "breaker_open",
                        "cause": (
                            f"shard {shard} circuit breaker is "
                            f"{snap.get('state')} "
                            f"({snap.get('consecutive_failures')} consecutive "
                            "failures)"
                        ),
                        "evidence": {"shard": shard, **snap},
                    }
                )
        return causes

    def _lifecycle_causes(self, report: dict) -> list[dict]:
        events = report.get("journal_window")
        if not isinstance(events, list):
            return []
        recent = [
            entry
            for entry in events
            if entry.get("kind", "").startswith(_LIFECYCLE_PREFIXES)
            and not entry.get("kind", "").startswith(
                ("service.start", "service.telemetry")
            )
        ]
        if not recent:
            return []
        last = recent[-1]
        return [
            {
                "score": 30,
                "kind": "recent_lifecycle_event",
                "cause": (
                    f"most recent lifecycle event before firing: "
                    f"{last.get('kind')} (seq {last.get('seq')})"
                ),
                "evidence": {k: last.get(k) for k in ("kind", "seq", "ts")},
            }
        ]

    # ------------------------------------------------------------------ #
    # journaling
    # ------------------------------------------------------------------ #

    def _journal_report(self, report: dict) -> None:
        if self._service is None:
            return
        journal = self._service.journal
        trace_id = report["rule"].get("trace_id")
        top = report["causes"][0] if report["causes"] else None
        record_event(
            journal,
            "incident.open",
            trace_id=trace_id,
            id=report["id"],
            rule=report["rule"].get("name"),
            severity=report["rule"].get("severity"),
            top_cause=top["cause"] if top else None,
            causes=len(report["causes"]),
        )
        # The full payload too: a replayed journal carries its own
        # post-mortems (reports are bounded, journals rotate).
        record_event(journal, "incident.report", trace_id=trace_id, **report)

    # ------------------------------------------------------------------ #
    # readout
    # ------------------------------------------------------------------ #

    def reports(self) -> list[dict]:
        """Report summaries, newest first (the gateway's ``/incidents``)."""
        with self._lock:
            items = list(self._reports)
        items.reverse()
        return [
            {
                "id": r["id"],
                "ts": r["ts"],
                "rule": r["rule"].get("name"),
                "severity": r["rule"].get("severity"),
                "top_cause": r["causes"][0]["cause"] if r["causes"] else None,
                "causes": len(r["causes"]),
            }
            for r in items
        ]

    def report(self, incident_id: str) -> dict | None:
        """One full report by id (``/incidents/<id>``), or ``None``."""
        with self._lock:
            for entry in self._reports:
                if entry["id"] == incident_id:
                    return entry
        return None

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Incident accounting for the metrics registry."""
        with self._lock:
            return {
                "incidents_opened": float(self.opened),
                "incidents_retained": float(len(self._reports)),
            }

    def register_into(self, registry) -> None:
        """Contribute incident accounting to a telemetry registry."""
        registry.register_collector(
            "incidents", self.snapshot, counters=("incidents_opened",)
        )
