"""Rule-based alerting engine over telemetry snapshots.

PR 7's :class:`~repro.serving.telemetry.TelemetryRegistry` made the
serving stack *visible*; nothing watched it. This module closes the
loop: a set of declarative rules is evaluated against registry
snapshots, and each rule drives a Prometheus-style alert state machine::

    inactive ──breach──▶ pending ──held for_s──▶ firing
        ▲                   │                       │
        └──────cleared──────┘        clear held keep_s (hysteresis)
        ▲                                           │
        └────────────────── resolved ◀──────────────┘

``for_s`` (the *pending hold*) stops one bad scrape from paging;
``keep_s`` (the *resolve hold*) stops a flapping metric from resolving
and re-firing every evaluation. ``resolved`` is a display state — the
next breach restarts the cycle from pending.

Three rule kinds, mirroring what production alerting actually runs on:

* :class:`ThresholdRule` — compare one snapshot metric against a bound
  (``queue depth > 100``, ``breaker open``, …).
* :class:`BurnRateRule` — the SLO rule: fires when the error budget
  burns faster than ``threshold`` (the registry's ``slo_burn_rate``
  gauge, derived from the serving latency window), gated on a minimum
  window population so an idle service never pages.
* :class:`AnomalyRule` — self-calibrating EWMA/z-score detector for
  metrics with no obvious static bound (latency EWMAs, queue pressure).
  Rules stay frozen dataclasses; the per-rule running mean/variance
  lives in the engine.

The engine is **pulled**, like the rollout and placement controllers:
call :meth:`AlertEngine.evaluate` from the ops loop — the clock is
injectable, so the whole state machine is deterministic under test.
Every transition is counted, journaled (``alert.transition`` events,
duck-typed journal), exemplar-linked to a recent trace id when a tracer
is attached, and visible at ``/alerts`` on the gateway.
"""
from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from math import sqrt

from .journal import record_event

__all__ = [
    "Alert",
    "AlertEngine",
    "AnomalyRule",
    "BurnRateRule",
    "ThresholdRule",
]

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _resolve(snapshot: dict, metric: str) -> float | None:
    """Look up a possibly dotted metric path in a snapshot dict
    (``per_shard.0.depth`` walks nested dicts; int-looking segments also
    try int keys). ``None`` when absent or non-numeric — an alert rule
    must never raise on a snapshot shape change."""
    node = snapshot
    for part in metric.split("."):
        if not isinstance(node, dict):
            return None
        if part in node:
            node = node[part]
        elif part.isdigit() and int(part) in node:
            node = node[int(part)]
        else:
            return None
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


# ---------------------------------------------------------------------- #
# rules
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ThresholdRule:
    """Breach when ``snapshot[metric] <op> threshold``."""

    name: str
    metric: str
    threshold: float
    op: str = ">"
    for_s: float = 0.0
    keep_s: float = 0.0
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison op {self.op!r}")
        if self.for_s < 0 or self.keep_s < 0:
            raise ValueError("for_s and keep_s must be >= 0")

    def value(self, snapshot: dict, state: dict) -> float | None:
        return _resolve(snapshot, self.metric)

    def breached(self, value: float, state: dict) -> bool:
        return _OPS[self.op](value, self.threshold)

    def detail(self) -> dict:
        return {"metric": self.metric, "op": self.op, "threshold": self.threshold}


@dataclass(frozen=True)
class BurnRateRule:
    """Breach when the SLO error budget burns faster than ``threshold``.

    Reads the registry's ``slo_burn_rate`` gauge (1.0 = exactly on
    budget) and gates on ``min_samples`` in the latency window
    (``slo_window_samples``) — a burn rate computed over three requests
    is noise, not a page.
    """

    #: The gauge counting the samples behind ``metric``'s window.
    SAMPLES_METRIC = "slo_window_samples"

    name: str
    threshold: float = 2.0
    metric: str = "slo_burn_rate"
    min_samples: int = 32
    for_s: float = 0.0
    keep_s: float = 0.0
    severity: str = "critical"
    description: str = ""

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")
        if self.for_s < 0 or self.keep_s < 0:
            raise ValueError("for_s and keep_s must be >= 0")

    def value(self, snapshot: dict, state: dict) -> float | None:
        samples = _resolve(snapshot, self.SAMPLES_METRIC)
        if samples is not None and samples < self.min_samples:
            return None  # under-populated window: no verdict either way
        return _resolve(snapshot, self.metric)

    def breached(self, value: float, state: dict) -> bool:
        return value > self.threshold

    def detail(self) -> dict:
        return {
            "metric": self.metric,
            "threshold": self.threshold,
            "min_samples": self.min_samples,
        }


@dataclass(frozen=True)
class AnomalyRule:
    """Breach when ``snapshot[metric]`` deviates more than ``z_threshold``
    standard deviations from its own EWMA baseline.

    The baseline (EWMA mean + EWMA variance, West-style) is held by the
    engine per rule and updated on every evaluation — including breaching
    ones, so a *persistent* shift eventually becomes the new normal and
    the alert resolves itself; only the transient is anomalous. ``warmup``
    evaluations must pass before the rule can breach at all.
    """

    name: str
    metric: str
    z_threshold: float = 3.0
    alpha: float = 0.1
    warmup: int = 10
    min_std: float = 1e-9
    for_s: float = 0.0
    keep_s: float = 0.0
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.z_threshold <= 0:
            raise ValueError("z_threshold must be > 0")
        if self.for_s < 0 or self.keep_s < 0:
            raise ValueError("for_s and keep_s must be >= 0")

    def value(self, snapshot: dict, state: dict) -> float | None:
        return _resolve(snapshot, self.metric)

    def breached(self, value: float, state: dict) -> bool:
        n = state.get("n", 0)
        mean = state.get("mean", 0.0)
        var = state.get("var", 0.0)
        if n == 0:
            state.update(n=1, mean=value, var=0.0, z=0.0)
            return False
        std = sqrt(max(var, 0.0))
        z = abs(value - mean) / max(std, self.min_std)
        state["z"] = z
        # Update the baseline after scoring: today's sample must not
        # vouch for itself.
        delta = value - mean
        mean += self.alpha * delta
        var = (1.0 - self.alpha) * (var + self.alpha * delta * delta)
        state.update(n=n + 1, mean=mean, var=var)
        return n >= self.warmup and z > self.z_threshold

    def detail(self) -> dict:
        return {
            "metric": self.metric,
            "z_threshold": self.z_threshold,
            "alpha": self.alpha,
            "warmup": self.warmup,
        }


# ---------------------------------------------------------------------- #
# alert state
# ---------------------------------------------------------------------- #

INACTIVE = "inactive"
PENDING = "pending"
FIRING = "firing"
RESOLVED = "resolved"


@dataclass
class Alert:
    """One rule's live state (mutated only by the engine, under its lock)."""

    rule: object
    state: str = INACTIVE
    since: float = 0.0
    pending_since: float | None = None
    clear_since: float | None = None
    last_value: float | None = None
    transitions: int = 0
    fired_count: int = 0
    exemplar_trace_id: str | None = None
    rule_state: dict = field(default_factory=dict)
    #: Bounded (ts, value) history — what an incident report shows as
    #: "the breached rule and its recent series".
    series: deque = field(default_factory=lambda: deque(maxlen=64))

    def to_dict(self) -> dict:
        rule = self.rule
        out = {
            "name": rule.name,
            "severity": rule.severity,
            "state": self.state,
            "since": self.since,
            "last_value": self.last_value,
            "transitions": self.transitions,
            "fired_count": self.fired_count,
            "for_s": rule.for_s,
            "keep_s": rule.keep_s,
            "exemplar_trace_id": self.exemplar_trace_id,
        }
        out.update(rule.detail())
        if self.rule_state.get("z") is not None:
            out["z"] = self.rule_state["z"]
        if rule.description:
            out["description"] = rule.description
        return out


class AlertEngine:
    """Evaluates rules against snapshots and runs their state machines.

    Args:
        source: zero-arg callable returning the metrics snapshot dict
            (typically ``service.telemetry.collect``). Optional — each
            :meth:`evaluate` call may also be handed a snapshot directly.
        rules: initial rule set (more via :meth:`add_rule`).
        clock: time source for hold windows and transition stamps
            (injectable — the whole machine is deterministic under a
            fake clock).
        journal: duck-typed ops journal; every transition is recorded
            as an ``alert.transition`` event when present.
        exemplar: zero-arg callable returning a recent trace id (or
            ``None``) — stamped onto transitions so a firing alert links
            to a concrete request trace. Wire to
            ``lambda: next(iter(tracer.recent(1)), {}).get("trace_id")``
            or let the service do it.

    ``evaluate()`` returns the transitions it made and ``alerts()`` is
    the gateway's ``/alerts`` payload.
    """

    def __init__(
        self,
        source=None,
        rules=(),
        clock=time.time,
        journal=None,
        exemplar=None,
    ) -> None:
        self._source = source
        self._clock = clock
        self.journal = journal
        self._exemplar = exemplar
        self._lock = threading.Lock()
        self._alerts: dict[str, Alert] = {}
        #: Transition observers: callables invoked with each transition
        #: dict, outside the engine lock, right after journaling. The
        #: incident reporter hooks here; observer exceptions are
        #: swallowed — a broken reporter must never break alerting.
        self.observers: list = []
        self.evaluations = 0
        self.transitions_total = 0
        for rule in rules:
            self.add_rule(rule)

    def bind(self, service) -> None:
        """Bind to a service (``service.attach_alerts`` calls this).

        Fills in whatever the constructor left unset: the service's
        telemetry snapshot as the source, its journal, a recent-trace
        exemplar from its tracer — and hooks the service's incident
        reporter, if one is attached, onto this engine's transitions.
        """
        if self._source is None:
            self._source = service.telemetry.collect
        if self.journal is None:
            self.journal = service.journal
        tracer = service.tracer
        if self._exemplar is None and tracer is not None:

            def _exemplar() -> str | None:
                recent = tracer.recent(1)
                return recent[0]["trace_id"] if recent else None

            self._exemplar = _exemplar
        if service.incidents is not None:
            service.incidents.observe(self)

    def add_rule(self, rule) -> None:
        """Register a rule (name must be unique across the engine)."""
        with self._lock:
            if rule.name in self._alerts:
                raise ValueError(f"alert rule {rule.name!r} already registered")
            self._alerts[rule.name] = Alert(rule=rule, since=self._clock())

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, snapshot: dict | None = None) -> list[dict]:
        """Run one evaluation pass; returns the transitions made.

        Each transition dict carries ``name``, ``from``, ``to``,
        ``value``, ``severity``, ``ts``, and (when available) an
        exemplar ``trace_id`` — the same payload that lands in the
        journal.
        """
        if snapshot is None:
            if self._source is None:
                raise ValueError("no snapshot given and no source configured")
            snapshot = self._source()
        now = self._clock()
        transitions: list[dict] = []
        with self._lock:
            self.evaluations += 1
            for alert in self._alerts.values():
                move = self._step_locked(alert, snapshot, now)
                if move is not None:
                    transitions.append(move)
            self.transitions_total += len(transitions)
        # Journal outside the lock: the journal takes its own lock and
        # does IO; holding ours across that invites ordering deadlocks.
        for move in transitions:
            record_event(
                self.journal,
                "alert.transition",
                trace_id=move.get("trace_id"),
                **{k: v for k, v in move.items() if k != "trace_id"},
            )
        # Observers also run outside the lock (they may call back into
        # alerts()/series()); journal first so an incident report can
        # already see its own triggering transition in the journal.
        for observer in list(self.observers):
            for move in transitions:
                try:
                    observer(move)
                except Exception:
                    pass
        return transitions

    def _step_locked(self, alert: Alert, snapshot: dict, now: float) -> dict | None:
        rule = alert.rule
        value = rule.value(snapshot, alert.rule_state)
        breach = (
            rule.breached(value, alert.rule_state) if value is not None else False
        )
        if value is not None:
            alert.last_value = value
            alert.series.append((now, value))
        state = alert.state

        if state in (INACTIVE, RESOLVED):
            if breach:
                if rule.for_s > 0:
                    alert.pending_since = now
                    return self._transition_locked(alert, PENDING, now)
                return self._fire_locked(alert, now)
            return None

        if state == PENDING:
            if not breach:
                alert.pending_since = None
                return self._transition_locked(alert, INACTIVE, now)
            # `is None` (not truthiness): an epoch-zero fake clock makes
            # a legitimate pending_since of 0.0.
            pending_since = (
                alert.pending_since if alert.pending_since is not None else now
            )
            if now - pending_since >= rule.for_s:
                return self._fire_locked(alert, now)
            return None

        # FIRING: require the clear condition to hold keep_s before
        # resolving (hysteresis against flapping metrics).
        if breach:
            alert.clear_since = None
            return None
        if alert.clear_since is None:
            alert.clear_since = now
        if now - alert.clear_since >= rule.keep_s:
            alert.clear_since = None
            alert.pending_since = None
            return self._transition_locked(alert, RESOLVED, now)
        return None

    def _fire_locked(self, alert: Alert, now: float) -> dict:
        alert.fired_count += 1
        alert.clear_since = None
        return self._transition_locked(alert, FIRING, now)

    def _transition_locked(self, alert: Alert, to: str, now: float) -> dict:
        frm = alert.state
        alert.state = to
        alert.since = now
        alert.transitions += 1
        trace_id = None
        if self._exemplar is not None:
            try:
                trace_id = self._exemplar()
            except Exception:
                trace_id = None
        if trace_id is not None:
            alert.exemplar_trace_id = trace_id
        return {
            "name": alert.rule.name,
            "from": frm,
            "to": to,
            "value": alert.last_value,
            "severity": alert.rule.severity,
            "ts": now,
            "trace_id": trace_id,
        }

    # ------------------------------------------------------------------ #
    # readout
    # ------------------------------------------------------------------ #

    def alerts(self) -> dict:
        """The full alert board (the gateway's ``/alerts`` payload)."""
        with self._lock:
            rows = [alert.to_dict() for alert in self._alerts.values()]
            evaluations = self.evaluations
            transitions = self.transitions_total
        severity_rank = {"critical": 0, "warning": 1}
        state_rank = {FIRING: 0, PENDING: 1, RESOLVED: 2, INACTIVE: 3}
        rows.sort(
            key=lambda r: (
                state_rank.get(r["state"], 9),
                severity_rank.get(r["severity"], 9),
                r["name"],
            )
        )
        return {
            "firing": sum(1 for r in rows if r["state"] == FIRING),
            "pending": sum(1 for r in rows if r["state"] == PENDING),
            "evaluations": evaluations,
            "transitions": transitions,
            "alerts": rows,
        }

    def state(self, name: str) -> str:
        """The named rule's current state."""
        with self._lock:
            return self._alerts[name].state

    def series(self, name: str) -> list[dict]:
        """The named rule's recent evaluated values, oldest first."""
        with self._lock:
            points = list(self._alerts[name].series)
        return [{"ts": ts, "value": value} for ts, value in points]

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Alert accounting for the metrics registry."""
        with self._lock:
            states = [alert.state for alert in self._alerts.values()]
            return {
                "alerts_firing": float(states.count(FIRING)),
                "alerts_pending": float(states.count(PENDING)),
                "alerts_rules": float(len(states)),
                "alert_evaluations": float(self.evaluations),
                "alert_transitions": float(self.transitions_total),
            }

    def register_into(self, registry) -> None:
        """Contribute alert accounting to a telemetry registry."""
        registry.register_collector(
            "alerts",
            self.snapshot,
            counters=("alert_evaluations", "alert_transitions"),
        )
