"""Resilience primitives: typed faults, retries, breakers, degradation.

The serving contract this PR establishes: **every request resolves within
its deadline as exactly one of a correct answer, a typed error, or a
degraded-flagged analytical answer — never a hang.** This module holds
the building blocks the rest of the stack composes to honor it:

* typed serving faults (:class:`DeadlineExceeded`, :class:`Overloaded`,
  :class:`ConnectionLost`, :class:`WorkerFailure`,
  :class:`ServiceUnavailable`) with stable wire codes (the code strings
  themselves live in :mod:`.protocol` so the wire vocabulary has no
  dependency on this module);
* :class:`RetryPolicy` — client-side exponential backoff with
  *deterministic* jitter keyed by an idempotent request id
  (:func:`idempotency_key`), so a retry schedule is reproducible and two
  clients retrying the same content de-synchronize instead of
  thundering-herding;
* :class:`CircuitBreaker` — the per-shard consecutive-failure breaker
  (closed → open → half-open probe) the service consults before
  dispatching to a shard;
* :class:`CrashLoopBackoff` — exponential respawn suppression for a
  worker that dies on every boot, so the respawn path cannot spin hot;
* :class:`AnalyticalFallback` — graceful degradation: answers any
  request shape from the paper's analytical TPU model
  (:class:`~repro.tpu.analytical.AnalyticalModel`) when the learned path
  is unavailable, so tuners keep making progress through an outage.
  Degraded answers are tagged ``degraded=True`` on the wire and are never
  result-cached (an outage must not poison the cache with analytical
  values).
"""
from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..compiler.tiling import default_tile
from ..tpu.analytical import AnalyticalModel
from .protocol import (
    ERROR_DEADLINE_EXCEEDED,
    ERROR_DISCONNECTED,
    ERROR_OVERLOADED,
    ERROR_UNAVAILABLE,
    ERROR_WORKER_FAILURE,
    KernelRuntimeRequest,
    ProgramRuntimesRequest,
    Request,
    Response,
    TileScoresRequest,
)

#: The registry-version stamp of degraded responses: they were produced by
#: the analytical model, not by any published checkpoint.
ANALYTICAL_VERSION = "analytical"


# ---------------------------------------------------------------------- #
# typed serving faults
# ---------------------------------------------------------------------- #


class ServingFault(RuntimeError):
    """Base of every typed serving failure; ``code`` is its wire form."""

    code: str = ERROR_UNAVAILABLE


class DeadlineExceeded(ServingFault):
    """The request's deadline elapsed before an answer was produced."""

    code = ERROR_DEADLINE_EXCEEDED


class Overloaded(ServingFault):
    """Admission control shed the request: the scheduler backlog is at
    its bound and queueing further would only grow latency past every
    deadline anyway."""

    code = ERROR_OVERLOADED


class ConnectionLost(ServingFault):
    """The transport connection died mid-request (either side)."""

    code = ERROR_DISCONNECTED


class WorkerFailure(ServingFault):
    """Shard-worker infrastructure failed the request (died, hung past
    the dispatch timeout, or was unreachable) and no degraded answer was
    available."""

    code = ERROR_WORKER_FAILURE


class ServiceUnavailable(ServingFault):
    """The service cannot take or answer requests right now."""

    code = ERROR_UNAVAILABLE


_FAULT_TYPES: dict[str, type[ServingFault]] = {
    cls.code: cls
    for cls in (
        DeadlineExceeded,
        Overloaded,
        ConnectionLost,
        WorkerFailure,
        ServiceUnavailable,
    )
}


def fault_for(response: Response) -> ServingFault | None:
    """The typed exception a response's ``error_code`` maps to (or None).

    Unrecognized codes (a newer server) degrade to
    :class:`ServiceUnavailable` rather than an untyped error.
    """
    if response.error_code is None:
        return None
    cls = _FAULT_TYPES.get(response.error_code, ServiceUnavailable)
    return cls(response.error or response.error_code)


# ---------------------------------------------------------------------- #
# retry policy
# ---------------------------------------------------------------------- #


def idempotency_key(request: Request) -> str:
    """A stable content-derived id for one logical request.

    Two submissions of the same query content share the key — it is what
    makes a retry *the same request* rather than a new one, and it seeds
    the deterministic retry jitter so equal-content clients back off on
    different schedules.
    """
    cache_key = getattr(request, "cache_key", lambda: None)()
    if cache_key is not None:
        material = repr(cache_key)
    else:
        material = f"{type(request).__name__}:{','.join(request.fingerprints())}"
    return hashlib.sha256(material.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry schedule: exponential backoff, deterministic jitter.

    Attributes:
        max_attempts: total tries including the first.
        base_backoff_s: backoff before the first retry (then doubled).
        max_backoff_s: cap on any single backoff.
        multiplier: geometric growth factor between retries.
    """

    #: Wire error codes worth retrying — transient transport/capacity
    #: faults. Deadline expiry is deliberately not among them: the budget
    #: is already spent.
    RETRYABLE_CODES = (
        ERROR_OVERLOADED,
        ERROR_DISCONNECTED,
        ERROR_UNAVAILABLE,
        ERROR_WORKER_FAILURE,
    )

    max_attempts: int = 4
    base_backoff_s: float = 0.02
    max_backoff_s: float = 1.0
    multiplier: float = 2.0

    def backoff_s(self, retry: int, key: str) -> float:
        """Backoff before the ``retry``-th retry (0-based) of request ``key``.

        Jitter is deterministic — a hash of ``(key, retry)`` scales the
        exponential cap into ``[cap/2, cap)`` — so a retry schedule is
        exactly reproducible while distinct requests still spread out.
        """
        cap = min(
            self.base_backoff_s * self.multiplier**retry, self.max_backoff_s
        )
        digest = hashlib.sha256(f"{key}:{retry}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64
        return cap * (0.5 + 0.5 * unit)

    def retryable(self, code: str | None) -> bool:
        return code is not None and code in self.RETRYABLE_CODES


# ---------------------------------------------------------------------- #
# circuit breaker
# ---------------------------------------------------------------------- #


class CircuitBreaker:
    """Per-shard consecutive-failure circuit breaker (thread-safe).

    Closed: every dispatch allowed. ``failure_threshold`` consecutive
    failures open it; while open, dispatches are refused (the service
    degrades them) until ``reset_s`` has passed, after which exactly one
    *probe* dispatch is allowed through (half-open). A successful probe
    closes the breaker; a failed one reopens it for another ``reset_s``.

    Args:
        failure_threshold: consecutive failures that open the breaker.
        reset_s: open-state dwell before a half-open probe is allowed.
        clock: injectable time source (tests drive it manually).
        on_transition: optional ``fn(from_state, to_state)`` invoked
            *outside* the breaker lock on every state change (the ops
            journal hook — a callback that takes its own locks must not
            run under ours).
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_s: float = 2.0,
        clock=time.monotonic,
        on_transition=None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_s < 0:
            raise ValueError("reset_s must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_s = reset_s
        self.on_transition = on_transition
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive = 0
        self._opened_at: float | None = None
        self._probing = False
        self.opens = 0
        self.probes = 0
        self._open_seconds = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May the caller dispatch to this shard right now?

        While open, returns False until ``reset_s`` has dwelt, then True
        exactly once (the half-open probe); further calls return False
        until the probe reports back.
        """
        with self._lock:
            before = self._state
            if self._state == "closed":
                return True
            if self._state == "open":
                assert self._opened_at is not None
                if self._clock() - self._opened_at < self.reset_s:
                    return False
                self._state = "half-open"
                self._probing = False
            # half-open: admit a single probe.
            if self._probing:
                verdict = False
            else:
                self._probing = True
                self.probes += 1
                verdict = True
            after = self._state
        self._notify(before, after)
        return verdict

    def _notify(self, before: str, after: str) -> None:
        """Invoke ``on_transition`` when the state actually changed.

        Always called with the breaker lock released — the journal takes
        its own lock and does IO. A failing callback is swallowed:
        observability must never change breaker behavior.
        """
        if before == after or self.on_transition is None:
            return
        try:
            self.on_transition(before, after)
        except Exception:
            pass

    def record_success(self) -> None:
        """A dispatch succeeded: close (and settle open-time accounting)."""
        with self._lock:
            before = self._state
            if self._state != "closed" and self._opened_at is not None:
                self._open_seconds += self._clock() - self._opened_at
                self._opened_at = None
            self._state = "closed"
            self._consecutive = 0
            self._probing = False
        self._notify(before, "closed")

    def record_failure(self) -> None:
        """A dispatch failed: count it; open at the threshold or on a
        failed probe."""
        with self._lock:
            before = self._state
            self._consecutive += 1
            if self._state == "half-open" or (
                self._state == "closed"
                and self._consecutive >= self.failure_threshold
            ):
                if self._state != "open":
                    self.opens += 1
                self._state = "open"
                self._opened_at = self._clock()
                self._probing = False
            after = self._state
        self._notify(before, after)

    def open_seconds(self) -> float:
        """Cumulative seconds spent open/half-open (including a current
        open window) — the breaker-open visibility `metrics()` exposes."""
        with self._lock:
            total = self._open_seconds
            if self._opened_at is not None:
                total += self._clock() - self._opened_at
            return total

    #: Numeric encoding of breaker states for metrics exposition (a
    #: labeled gauge can be graphed/alerted on; the string cannot).
    _STATE_CODES = {"closed": 0.0, "half-open": 1.0, "open": 2.0}

    def snapshot(self) -> dict:
        with self._lock:
            open_s = self._open_seconds
            if self._opened_at is not None:
                open_s += self._clock() - self._opened_at
            return {
                "state": self._state,
                "state_code": self._STATE_CODES.get(self._state, -1.0),
                "consecutive_failures": self._consecutive,
                "opens": self.opens,
                "probes": self.probes,
                "open_seconds": open_s,
            }


# ---------------------------------------------------------------------- #
# crash-loop backoff
# ---------------------------------------------------------------------- #


class CrashLoopBackoff:
    """Exponential respawn suppression for a crash-looping worker.

    The *first* failure is free — a lone worker death respawns
    immediately, preserving the executor's seamless single-kill recovery.
    From the second consecutive failure on, each one doubles the
    suppression window (capped); while the window is live,
    :meth:`remaining` is positive and the executor refuses to respawn —
    the shard fails fast (and the service degrades) instead of burning a
    core on spawn/crash cycles. One successful round-trip resets the
    backoff to zero.
    """

    def __init__(
        self,
        base_s: float = 0.05,
        max_s: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        self.base_s = base_s
        self.max_s = max_s
        self._clock = clock
        self._lock = threading.Lock()
        self.failures = 0
        self._until: float | None = None

    def record_failure(self) -> float:
        """Start/extend the suppression window; returns its length."""
        with self._lock:
            self.failures += 1
            if self.failures == 1:
                # One death is routine attrition, not a crash loop.
                self._until = None
                return 0.0
            window = min(
                self.base_s * (2.0 ** (self.failures - 2)), self.max_s
            )
            self._until = self._clock() + window
            return window

    def record_success(self) -> None:
        with self._lock:
            self.failures = 0
            self._until = None

    def remaining(self) -> float:
        """Seconds of suppression left (0 when a respawn is allowed)."""
        with self._lock:
            if self._until is None:
                return 0.0
            return max(0.0, self._until - self._clock())


# ---------------------------------------------------------------------- #
# graceful degradation
# ---------------------------------------------------------------------- #


class AnalyticalFallback:
    """Answer any request shape from the analytical TPU model.

    The degraded-path evaluator: no checkpoint, no worker, no state beyond
    the analytical model's own memo — it can answer while every learned
    replica is down. Values are honest analytical estimates (seconds), so
    lower-is-better tile ranking and program comparison keep working;
    absolute scale differs from the learned model, which is exactly why
    degraded responses are flagged and never cached.

    Raises ``ValueError`` from :meth:`answer` when a request cannot be
    answered analytically (e.g. no kernel with tile-size options) — the
    caller then falls back to a typed error instead.
    """

    def __init__(self, model: AnalyticalModel | None = None) -> None:
        self.model = model or AnalyticalModel()
        self._lock = threading.Lock()
        self.answers = 0
        self.failures = 0

    def answer(self, request: Request) -> np.ndarray | float:
        try:
            value = self._answer(request)
        except Exception:
            with self._lock:
                self.failures += 1
            raise
        with self._lock:
            self.answers += 1
        return value

    def _answer(self, request: Request) -> np.ndarray | float:
        if isinstance(request, TileScoresRequest):
            return np.asarray(
                [self.model.estimate(request.kernel, t) for t in request.tiles],
                dtype=np.float64,
            )
        if isinstance(request, KernelRuntimeRequest):
            kernel = request.kernel
            return float(self.model.estimate(kernel, default_tile(kernel)))
        if isinstance(request, ProgramRuntimesRequest):
            return np.asarray(
                [self._program(kernels) for kernels in request.programs],
                dtype=np.float64,
            )
        raise ValueError(
            f"no analytical answer for {type(request).__name__}"
        )

    def _program(self, kernels) -> float:
        total = 0.0
        answered = 0
        for kernel in kernels:
            if not kernel.has_tile_options():
                # Kernels the analytical model cannot price (no tile-size
                # options) contribute nothing; the estimate stays a valid
                # lower-is-better comparator as long as at least one
                # kernel was priced.
                continue
            total += self.model.estimate(kernel, default_tile(kernel))
            answered += 1
        if kernels and answered == 0:
            raise ValueError("no kernel in the program is analytically priceable")
        return total


__all__ = [
    "ANALYTICAL_VERSION",
    "AnalyticalFallback",
    "CircuitBreaker",
    "ConnectionLost",
    "CrashLoopBackoff",
    "DeadlineExceeded",
    "Overloaded",
    "RetryPolicy",
    "ServiceUnavailable",
    "ServingFault",
    "WorkerFailure",
    "fault_for",
    "idempotency_key",
]
