"""Deployment control plane: rollout policies and the rollout controller.

The registry can already stage a checkpoint without serving it and
hot-swap atomically at micro-batch boundaries; this module decides *when*
that swap should happen, from evidence. A :class:`RolloutPolicy` is a
version chooser in front of the scheduler's per-batch snapshot: for every
request it names the version that must serve it (response path) and,
optionally, a version that should score it off the response path. The
service groups each micro-batch by chosen version and executes each group
as its own version-pure batch — so the PR 2 invariant (no response, and
no micro-batch, ever mixes checkpoints) survives the rollout machinery
untouched.

Three policies:

* :class:`FullActivation` — every request to the active version; today's
  behaviour and the default. Zero per-request cost beyond a method call.
* :class:`CanaryFraction` — a configured fraction of requests routes to
  the staged version, chosen **deterministically by request hash** (a
  sha256 over the request's stable identity): the same request always
  lands on the same side, across processes and across runs, so canary
  results are reproducible and cache routing stays coherent.
* :class:`ShadowScore` — every response is served by the active version;
  the staged version additionally scores a sampled fraction of the same
  traffic *after* the responses resolve. Clients never observe the
  staged model; its accuracy window fills anyway.

The :class:`RolloutController` drives the staged-checkpoint state machine
(``staged → shadow → canary → promoted``, or ``→ rolled_back`` at any
evaluated step) from the per-version error windows a
:class:`~repro.serving.feedback.FeedbackCollector` maintains, with
configurable promotion/abort margins and a bounded per-phase sample
budget — a staged checkpoint that cannot *prove* itself within the
budget is rolled back, never promoted by default.
"""
from __future__ import annotations

import hashlib
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .feedback import FeedbackCollector, request_key
from .journal import record_event
from .protocol import Request

#: Rollout state-machine states (module constants, JSON-friendly).
IDLE = "idle"
SHADOW = "shadow"
CANARY = "canary"
PROMOTED = "promoted"
ROLLED_BACK = "rolled_back"

ROLLOUT_STATES = (IDLE, SHADOW, CANARY, PROMOTED, ROLLED_BACK)

_SHADOW_FRACTION = 1.0
"""Traffic share the shadow phase scores off-path."""


def regressed_checkpoint(result):
    """A deterministically *regressed* copy of a checkpoint, for drills.

    Round-trips the checkpoint through its sealed-blob form (so the
    original is untouched) and negates the readout head: every score
    ranking is exactly reversed — the worst regression a rollout can
    face, and a reproducible one. This is the injection used by the
    rollback tests, the detection-latency checks of
    ``benchmarks/bench_serving.py``'s rollout section, and the example's
    canary-rollback demo; production analogues
    are the periodic rollback drills that prove the abort path still
    works.

    Accepts a ``TrainResult`` or sealed blob bytes; returns a fresh
    ``TrainResult``.
    """
    from ..models.serialize import load_model_bytes, save_model_bytes

    blob = result if isinstance(result, bytes) else save_model_bytes(result)
    bad = load_model_bytes(blob)
    head = getattr(bad.model, "head", None)
    if head is None:
        head = bad.model.node_head
    for param in head.parameters():
        param.data *= -1.0
    return bad


def request_unit_hash(request: Request, salt: str = "") -> float:
    """Deterministic float in [0, 1) from a request's stable identity.

    Built on :func:`~repro.serving.feedback.request_key` (kernel
    fingerprints + tile dims), hashed with sha256 — uniform, stable
    across processes/machines, and independent of Python's per-process
    ``hash()`` randomization. The ``salt`` lets distinct rollouts sample
    distinct request subsets while staying individually deterministic.
    """
    digest = hashlib.sha256(
        (salt + "|" + repr(request_key(request))).encode()
    ).digest()
    return int.from_bytes(digest[:8], "little") / 2**64


class RolloutPolicy(ABC):
    """Per-request version chooser in front of the per-batch snapshot.

    ``route`` names the version that serves the request (the response
    path); ``shadow`` optionally names a version that should score the
    request off the response path. The service validates both against
    the registry and falls back to the active version, so a policy
    holding a version that was rolled back mid-flight degrades safely.
    """

    #: The staged version this policy is exercising (``None`` for the
    #: default full-activation policy) — surfaced in service metrics.
    staged_version: str | None = None

    @abstractmethod
    def route(self, request: Request, active: str) -> str:
        """The version that must serve ``request`` on the response path."""

    def shadow(self, request: Request, active: str) -> str | None:
        """A version to score ``request`` off the response path, if any."""
        return None

    def describe(self) -> dict:
        """Metrics-friendly summary of the policy in force."""
        return {"policy": type(self).__name__, "staged_version": self.staged_version}


class FullActivation(RolloutPolicy):
    """Serve everything with the active version (the default)."""

    def route(self, request: Request, active: str) -> str:
        return active


class CanaryFraction(RolloutPolicy):
    """Route a deterministic fraction of requests to the staged version.

    Args:
        staged_version: registry version receiving the canary slice.
        fraction: share of requests to route there, in [0, 1].
        salt: optional hash salt (distinct rollouts sample distinct
            request subsets; same salt = same routing, always).
    """

    def __init__(self, staged_version: str, fraction: float, salt: str = "") -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.staged_version = staged_version
        self.fraction = fraction
        self.salt = salt

    def route(self, request: Request, active: str) -> str:
        if request_unit_hash(request, self.salt) < self.fraction:
            return self.staged_version
        return active

    def describe(self) -> dict:
        return {**super().describe(), "fraction": self.fraction}


class ShadowScore(RolloutPolicy):
    """Serve with the active version; staged scores a sample off-path.

    Args:
        staged_version: version that shadow-scores sampled requests.
        sample_fraction: share of traffic to shadow, in [0, 1]
            (deterministic by request hash, like the canary split).
        salt: optional hash salt.
    """

    def __init__(
        self, staged_version: str, sample_fraction: float = 1.0, salt: str = ""
    ) -> None:
        if not 0.0 <= sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in [0, 1]")
        self.staged_version = staged_version
        self.sample_fraction = sample_fraction
        self.salt = salt

    def route(self, request: Request, active: str) -> str:
        return active

    def shadow(self, request: Request, active: str) -> str | None:
        if request_unit_hash(request, self.salt) < self.sample_fraction:
            return self.staged_version
        return None

    def describe(self) -> dict:
        return {**super().describe(), "sample_fraction": self.sample_fraction}


@dataclass(frozen=True)
class RolloutConfig:
    """Promotion/abort thresholds of the rollout state machine.

    Attributes:
        canary_fraction: request share the canary phase routes to the
            staged version.
        min_samples: joined feedback observations the staged version
            needs *within the current phase* before any decision.
        max_samples_per_phase: decision budget — a staged version still
            undecided (between the margins) after this many fresh
            observations is rolled back, not left limping forever.
        promote_margin: staged advances when its windowed mean error is
            within this margin of the active version's.
        abort_margin: staged rolls back the moment its windowed mean
            error exceeds the active version's by more than this.
        start_phase: ``"shadow"`` (default: observe before serving) or
            ``"canary"`` (skip shadow, go straight to a traffic slice).
        max_seconds_per_phase: wall-clock ceiling per phase, alongside
            the sample budget. The sample budget alone only concludes a
            rollout that *sees traffic*; a bursty or low-volume
            deployment could otherwise hold a staged checkpoint (and its
            warm executor state) in limbo indefinitely. At the ceiling
            the phase is decided on whatever evidence exists: a window
            already within the promote margin advances, anything else —
            including no evidence at all — rolls back. ``None``
            (default) keeps the sample budget as the only bound.
    """

    canary_fraction: float = 0.25
    min_samples: int = 24
    max_samples_per_phase: int = 200
    promote_margin: float = 0.05
    abort_margin: float = 0.15
    start_phase: str = SHADOW
    max_seconds_per_phase: float | None = None

    def __post_init__(self) -> None:
        if self.start_phase not in (SHADOW, CANARY):
            raise ValueError("start_phase must be 'shadow' or 'canary'")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.max_samples_per_phase < self.min_samples:
            raise ValueError("max_samples_per_phase must be >= min_samples")
        if self.abort_margin < self.promote_margin:
            raise ValueError("abort_margin must be >= promote_margin")
        if self.max_seconds_per_phase is not None and self.max_seconds_per_phase <= 0:
            raise ValueError("max_seconds_per_phase must be > 0 (or None)")


@dataclass(frozen=True)
class RolloutTransition:
    """One recorded state-machine transition (for audit/metrics)."""

    state: str
    reason: str
    staged_version: str | None
    staged_samples: int
    at: float


class RolloutController:
    """Drives staged checkpoints through shadow/canary to promotion.

    Args:
        service: the :class:`~repro.serving.service.CostModelService`
            whose rollout-policy slot and registry this controller owns
            while a rollout is in flight.
        feedback: the collector whose per-version error windows supply
            the evidence (the service should share this instance).
        config: thresholds; defaults are conservative.
        clock: injectable monotonic clock backing the per-phase
            wall-clock budget (tests drive it with a fake).

    The controller is intentionally *pulled*, not threaded: callers
    invoke :meth:`step` at their own cadence (per request, per batch,
    per tick) and get the current state back. All transitions are
    serialized under one lock, so concurrent steppers are safe, and each
    is recorded in the service's ops journal (when one is attached) as a
    ``rollout.transition`` event.
    """

    def __init__(
        self,
        service,
        feedback: FeedbackCollector,
        config: RolloutConfig | None = None,
        clock=time.monotonic,
    ) -> None:
        self.service = service
        self.feedback = feedback
        self.config = config or RolloutConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self.state = IDLE
        self.staged: str | None = None
        self._active_at_stage: str | None = None
        self._phase_entry_count = 0
        self._phase_entered_at: float | None = None
        self.transitions: list[RolloutTransition] = []
        # Contribute the controller's state machine to the service's
        # telemetry registry (fakes/mocks without one simply skip this).
        try:
            registry = getattr(service, "telemetry", None)
            if registry is not None:
                registry.register_collector(
                    "rollout_controller",
                    lambda: {"rollout_controller": self.describe()},
                )
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def stage(self, result, version: str | None = None) -> str:
        """Stage a checkpoint and start the rollout state machine.

        Args:
            result: a ``TrainResult``, pre-serialized blob bytes, or the
                name of an already-published registry version.
            version: explicit version name when publishing.

        Returns the staged version string. The previous rollout (if any)
        must have concluded; staging over a live rollout raises.
        """
        with self._lock:
            if self.state in (SHADOW, CANARY):
                raise RuntimeError(
                    f"rollout of {self.staged!r} still in flight ({self.state})"
                )
            registry = self.service.registry
            staged = registry.stage(result, version=version)
            self.staged = staged
            self._active_at_stage = registry.active_version
            self.feedback.reset_version(staged)
            if self.config.start_phase == CANARY:
                policy = CanaryFraction(
                    staged, self.config.canary_fraction, salt=staged
                )
                next_state = CANARY
            else:
                policy = ShadowScore(staged, _SHADOW_FRACTION, salt=staged)
                next_state = SHADOW
            self.service.set_rollout(policy)
            self._phase_entry_count = self.feedback.error_window(staged).total
            self._phase_entered_at = self._clock()
            self._transition_locked(next_state, "staged")
            return staged

    def step(self) -> str:
        """Evaluate the windows and advance the state machine one notch.

        Returns the (possibly new) state. Idempotent outside the live
        phases. Decision rule per phase, in priority order once
        ``min_samples`` fresh staged observations exist:

        1. staged mean error > active + ``abort_margin`` → roll back;
        2. staged mean error <= active + ``promote_margin`` → advance
           (shadow → canary, canary → promote);
        3. still undecided after ``max_samples_per_phase`` → roll back.

        With ``max_seconds_per_phase`` set, hitting the wall-clock
        ceiling forces a decision on whatever evidence exists: a window
        already within the promote margin advances, anything else —
        insufficient samples included — rolls back. Bursty and
        low-traffic deployments therefore always converge to a terminal
        state; they never hold a staged checkpoint in limbo.
        """
        with self._lock:
            if self.state not in (SHADOW, CANARY):
                return self.state
            staged_window = self.feedback.error_window(self.staged)
            active_window = self.feedback.error_window(self._active_at_stage)
            # Progress is measured on the *monotone* join total, never the
            # bounded window count — a saturated ring buffer must not
            # freeze the budget clock.
            fresh = staged_window.total - self._phase_entry_count
            timed_out = (
                self.config.max_seconds_per_phase is not None
                and self._phase_entered_at is not None
                and self._clock() - self._phase_entered_at
                >= self.config.max_seconds_per_phase
            )
            if fresh < self.config.min_samples or active_window.count == 0:
                if timed_out:
                    return self._rollback_locked(
                        f"phase wall-clock budget "
                        f"({self.config.max_seconds_per_phase:.1f}s) exhausted "
                        f"with {fresh} samples (< min_samples "
                        f"{self.config.min_samples})"
                    )
                return self.state
            gap = staged_window.mean_error - active_window.mean_error
            if gap > self.config.abort_margin:
                return self._rollback_locked(
                    f"error regression: staged {staged_window.mean_error:.4f} "
                    f"vs active {active_window.mean_error:.4f}"
                )
            if gap <= self.config.promote_margin:
                return self._advance_locked(staged_window.total)
            if fresh >= self.config.max_samples_per_phase:
                return self._rollback_locked(
                    f"undecided after {fresh} samples "
                    f"(gap {gap:.4f} between margins)"
                )
            if timed_out:
                return self._rollback_locked(
                    f"phase wall-clock budget "
                    f"({self.config.max_seconds_per_phase:.1f}s) exhausted, "
                    f"undecided (gap {gap:.4f} between margins)"
                )
            return self.state

    def abort(self, reason: str = "operator abort") -> str:
        """Roll back immediately, whatever the windows say."""
        with self._lock:
            if self.state not in (SHADOW, CANARY):
                return self.state
            return self._rollback_locked(reason)

    # ------------------------------------------------------------------ #
    # internals (lock held)
    # ------------------------------------------------------------------ #

    def _advance_locked(self, staged_total: int) -> str:
        if self.state == SHADOW:
            self.service.set_rollout(
                CanaryFraction(
                    self.staged, self.config.canary_fraction, salt=self.staged
                )
            )
            self._phase_entry_count = staged_total
            self._phase_entered_at = self._clock()
            return self._transition_locked(CANARY, "shadow window within margin")
        self.service.registry.activate(self.staged)
        self.service.set_rollout(FullActivation())
        return self._transition_locked(PROMOTED, "canary window within margin")

    def _rollback_locked(self, reason: str) -> str:
        self.service.set_rollout(FullActivation())
        self.service.registry.clear_staged()
        return self._transition_locked(ROLLED_BACK, reason)

    def _transition_locked(self, state: str, reason: str) -> str:
        self.state = state
        transition = RolloutTransition(
            state=state,
            reason=reason,
            staged_version=self.staged,
            staged_samples=self.feedback.error_window(self.staged).total,
            at=time.time(),
        )
        self.transitions.append(transition)
        # Safe under our lock: the journal only takes its own lock and
        # never calls back out.
        record_event(
            self.service.journal,
            "rollout.transition",
            state=state,
            reason=reason,
            staged_version=self.staged,
            staged_samples=transition.staged_samples,
        )
        return state

    def describe(self) -> dict:
        """Metrics-friendly controller summary."""
        with self._lock:
            return {
                "state": self.state,
                "staged_version": self.staged,
                "active_at_stage": self._active_at_stage,
                "transitions": [
                    {"state": t.state, "reason": t.reason, "samples": t.staged_samples}
                    for t in self.transitions
                ],
            }
