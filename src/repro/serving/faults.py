"""Deterministic fault injection for the serving stack (the chaos harness).

Production serving treats failure as a first-class, continuously-exercised
input: a resilience property that is not exercised by injected faults is a
property the next refactor silently loses. This module is the injection
half of that discipline — a declarative, seedable description of *what*
breaks *when*, wired into the serving stack at four named hook points:

* ``frontend.recv`` — the socket frontend's ingress path (drop a peer's
  connection mid-stream, corrupt its bytes, delay ingestion);
* ``executor.dispatch`` — the process executor's per-shard dispatch (kill
  a worker with SIGKILL, *hang* it with SIGSTOP — alive but unresponsive,
  the failure mode timeouts exist for — or delay the dispatch);
* ``worker.forward`` — inside the shard worker subprocess, before a
  forward executes (hang, die mid-request, or add latency);
* ``registry.load`` — checkpoint blob shipping (corrupt the bytes in
  flight, delay the transfer).

A :class:`FaultPlan` is a tuple of :class:`FaultRule`\\ s plus a seed; a
:class:`FaultInjector` holds the plan's runtime state (per-rule event and
firing counters, a seeded RNG for probabilistic rules) and is consulted by
the serving components that were handed one. **Zero overhead when
disabled**: components hold ``None`` by default and the hook sites are a
single ``is not None`` check — no injector object, no counters, no RNG on
the healthy path.

Rules are deterministic by construction: eligibility is counted per rule
(``after`` skips warmup events, ``every_n`` fires periodically, ``count``
bounds total firings), so the same plan against the same request sequence
injects the same faults. Probabilistic rules (``probability < 1``) draw
from the plan's seeded RNG; they stay reproducible for a single-threaded
event stream and statistically stable for concurrent ones.

Worker subprocesses cannot share the parent's injector state: the
executor passes :meth:`FaultPlan.subset`\\ (``"worker."``) to each spawned
worker, which builds its own injector. Worker-side counters therefore
restart with the process — parent-side hooks (``executor.dispatch``,
``registry.load``) are the ones to use when a fault must fire an exact
total number of times across respawns.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from random import Random

#: The named hook points the serving stack consults an injector at.
FAULT_HOOKS = (
    "frontend.recv",
    "executor.dispatch",
    "worker.forward",
    "registry.load",
)

#: Fault kinds. Which kinds are meaningful depends on the hook: ``kill`` /
#: ``hang`` act on a worker process (SIGKILL / SIGSTOP at dispatch,
#: ``os._exit`` / sleep inside the worker), ``drop`` severs a frontend
#: connection, ``corrupt`` flips blob or frame bytes, ``delay`` sleeps.
FAULT_KINDS = ("kill", "hang", "delay", "drop", "corrupt")


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: where, what, and on which events.

    Attributes:
        hook: the hook point this rule listens on (:data:`FAULT_HOOKS`).
        kind: the fault to inject (:data:`FAULT_KINDS`).
        after: skip this many eligible events before the rule may fire
            (lets a system warm up before chaos starts).
        every_n: fire on every Nth eligible event past ``after`` (1 =
            every eligible event).
        count: maximum total firings (``None`` = unlimited — the
            crash-loop regime).
        probability: chance of firing on an otherwise-eligible event
            (drawn from the plan's seeded RNG; 1.0 = deterministic).
        delay_s: sleep duration for ``delay`` rules, and the hang
            duration for worker-side ``hang`` rules (0 = a very long
            hang, left to the watchdog to resolve).
        shard: restrict the rule to one shard index (``None`` = all) for
            the executor/worker hooks.
    """

    hook: str
    kind: str
    after: int = 0
    every_n: int = 1
    count: int | None = 1
    probability: float = 1.0
    delay_s: float = 0.0
    shard: int | None = None

    def __post_init__(self) -> None:
        if self.hook not in FAULT_HOOKS:
            raise ValueError(f"unknown fault hook {self.hook!r}; choose from {FAULT_HOOKS}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if self.after < 0 or self.every_n < 1:
            raise ValueError("after must be >= 0 and every_n >= 1")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1 (or None for unlimited)")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")


@dataclass(frozen=True)
class FaultPlan:
    """A chaos schedule: fault rules plus the seed for probabilistic ones."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def subset(self, prefix: str) -> "FaultPlan":
        """The plan restricted to hooks starting with ``prefix``.

        Used to ship only the ``worker.`` rules into worker subprocesses
        (the full plan would be dead weight there, and parent-side state
        does not cross the process boundary anyway).
        """
        return FaultPlan(
            rules=tuple(r for r in self.rules if r.hook.startswith(prefix)),
            seed=self.seed,
        )

    def hooks(self) -> set[str]:
        """The hook points this plan can fire at."""
        return {rule.hook for rule in self.rules}


def corrupt_bytes(data: bytes) -> bytes:
    """Deterministically corrupt ``data``: flip the middle byte.

    One flipped byte is the minimal corruption a content hash must catch —
    exactly what the sealed-blob integrity check exists for.
    """
    if not data:
        return b"\x00"
    k = len(data) // 2
    return data[:k] + bytes([data[k] ^ 0xFF]) + data[k + 1:]


class FaultInjector:
    """Runtime state of one :class:`FaultPlan` (thread-safe).

    Components that were handed an injector call :meth:`fire` at their
    hook points and interpret the returned rule (or apply the shared
    helpers :meth:`filter_blob` / :meth:`maybe_delay`). Every *eligible*
    event advances the matching rules' event counters whether or not a
    rule fires, which is what makes ``after`` / ``every_n`` schedules
    deterministic.
    """

    def __init__(self, plan: FaultPlan, armed: bool = True) -> None:
        self.plan = plan
        #: While disarmed, :meth:`fire` is inert and advances no counters —
        #: a benchmark wires the injector through the whole stack once,
        #: then :meth:`arm`\ s it exactly at its chaos phase so warmup and
        #: baseline traffic cannot eat the rules' ``after`` budgets.
        self.armed = armed
        self._rng = Random(plan.seed)
        self._lock = threading.Lock()
        self._by_hook: dict[str, list[int]] = {}
        for index, rule in enumerate(plan.rules):
            self._by_hook.setdefault(rule.hook, []).append(index)
        self._events = [0] * len(plan.rules)
        self._fired = [0] * len(plan.rules)

    def fire(self, hook: str, shard: int | None = None) -> FaultRule | None:
        """The first rule triggering on this event at ``hook``, or None.

        All matching rules advance their event counters; at most one rule
        fires per event (first in plan order wins). Inert (no counter
        movement) while disarmed.
        """
        if not self.armed:
            return None
        indices = self._by_hook.get(hook)
        if not indices:
            return None
        triggered: FaultRule | None = None
        with self._lock:
            for index in indices:
                rule = self.plan.rules[index]
                if rule.shard is not None and rule.shard != shard:
                    continue
                n = self._events[index]
                self._events[index] = n + 1
                if n < rule.after:
                    continue
                if rule.count is not None and self._fired[index] >= rule.count:
                    continue
                if (n - rule.after) % rule.every_n != 0:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                if triggered is None:
                    self._fired[index] += 1
                    triggered = rule
        return triggered

    def arm(self, armed: bool = True) -> None:
        """Start (or stop) injecting; counters only move while armed."""
        self.armed = armed

    # ------------------------------------------------------------------ #
    # hook-site helpers
    # ------------------------------------------------------------------ #

    def filter_blob(self, hook: str, blob: bytes, shard: int | None = None) -> bytes:
        """Apply any ``corrupt`` / ``delay`` rule at ``hook`` to ``blob``."""
        rule = self.fire(hook, shard=shard)
        self.maybe_delay(rule)
        if rule is not None and rule.kind == "corrupt":
            return corrupt_bytes(blob)
        return blob

    @staticmethod
    def maybe_delay(rule: FaultRule | None) -> bool:
        """Sleep out a ``delay`` rule; True if one was applied."""
        if rule is not None and rule.kind == "delay":
            if rule.delay_s > 0:
                time.sleep(rule.delay_s)
            return True
        return False

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def exhausted(self) -> bool:
        """True once every count-bounded rule has fired its full count
        (the chaos phase of a benchmark is over)."""
        with self._lock:
            return all(
                rule.count is not None and self._fired[i] >= rule.count
                for i, rule in enumerate(self.plan.rules)
            )

    def snapshot(self) -> list[dict]:
        """Per-rule accounting: eligible events seen and faults fired."""
        with self._lock:
            return [
                {
                    "hook": rule.hook,
                    "kind": rule.kind,
                    "shard": rule.shard,
                    "events": self._events[i],
                    "fired": self._fired[i],
                }
                for i, rule in enumerate(self.plan.rules)
            ]


__all__ = [
    "FAULT_HOOKS",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "corrupt_bytes",
]
