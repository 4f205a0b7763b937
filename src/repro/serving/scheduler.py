"""Micro-batching scheduler: coalesce queued requests into batches.

Clients submit requests from any thread and immediately get a
:class:`concurrent.futures.Future`. The scheduler holds the pending
requests in arrival order and releases them in *micro-batches*. The batch
executor (the service's worker loop) turns each micro-batch into as few
model forwards as possible. A pending batch is cut on the first of four
conditions:

* **full** — ``max_batch_size`` requests are pending;
* **aged** — the oldest pending request has waited ``flush_interval_s``,
  the classic latency/throughput dial of serving systems and the upper
  bound on what batching may cost a request;
* **quiet** (``adaptive_flush`` only) — no request has arrived for a few
  times the gap at which requests had been joining the queue: the burst
  that was filling the batch is over, and the rest of the window would be
  spent waiting for nobody. Closed-loop tuners refill their window within
  a fraction of a millisecond of the previous answers and then block, so
  their batch goes out when the refill ends instead of when the window
  does; evenly spaced dense arrivals never fall quiet and keep the full
  window;
* **complete** (``adaptive_flush`` only) — every caller a frontend has
  attached (:meth:`MicroBatcher.attach_caller`; the socket frontend
  attaches each open connection) has a request pending. Nobody else can
  send, so the rest of the window would be spent waiting for nobody. With
  no caller attached — the in-process frontend attaches none — the rule
  never fires, and one idle attached caller keeps it off.

With ``adaptive_flush`` the age cutoff itself also follows the observed
inter-arrival gap (an EMA over all arrivals): when arrivals are sparser
than the flush window — a lone synchronous client whose next request only
arrives after the current one resolves — waiting can never coalesce
anything, so the batch is cut immediately; when arrivals are dense, the
full window applies and coalescing wins. This removes the fixed-window
latency tax in the 1-client regime while keeping the many-client
throughput win.

The scheduler is transport-agnostic and knows nothing about models; it is
the scheduling core that every transport frontend (the in-process client
path and the socket frontend alike) feeds.
"""
from __future__ import annotations

import threading
import time
from collections.abc import Hashable, Iterable
from concurrent.futures import Future
from dataclasses import dataclass, field

from .protocol import Request
from .resilience import Overloaded


@dataclass
class PendingRequest:
    """One queued request: payload, arrival time, and its future.

    ``routed_version`` / ``shadowed_by`` are stamped at batch-execution
    time by the service's rollout version chooser (the policy in front of
    the per-batch snapshot), so the executor split and the response tags
    always agree — a canary batch is version-pure by construction.

    ``expires_at`` (perf_counter time) is the request's deadline, stamped
    at submission from its own ``deadline_s`` (``None``: it never
    expires); the service sheds requests past it before dispatch with a
    typed ``deadline_exceeded`` instead of spending a forward on an
    answer the client has stopped waiting for.

    ``shard`` is stamped when the service places the request in a
    coalesced command group; a request that never reaches one (malformed,
    shed, answered from the result cache) stays shard-less, which is
    what keeps it out of the per-shard stats.

    ``caller`` is the token of the attached caller that sent the request
    (the socket frontend passes its connection), or ``None`` for a
    request nobody attached — those never complete the caller set.

    This is the one per-request record of the serving path: every hook
    reads the request's ``trace`` / ``synthetic`` tags through it.
    """

    request: Request
    enqueued_at: float
    future: Future = field(default_factory=Future, repr=False)
    routed_version: str | None = None
    shadowed_by: str | None = None
    expires_at: float | None = None
    shard: int | None = None
    caller: Hashable | None = field(default=None, repr=False)

    @property
    def trace(self):
        """The request's sampled trace context, or ``None``."""
        return self.request.trace

    @property
    def synthetic(self) -> bool:
        """True for a prober probe (excluded from business observers)."""
        return self.request.synthetic


class MicroBatcher:
    """Thread-safe request queue with size/age batch-cut policy.

    Only the service builds one, from its
    :class:`~repro.serving.service.ServiceConfig` fields of the same
    names; there is no default copy of them here.

    Args:
        max_batch_size: cut a batch as soon as this many requests queue up.
        flush_interval_s: cut a batch once the oldest pending request has
            waited this long, even if the batch is not full (bounds the
            latency a lone client pays for batching).
        adaptive_flush: derive the effective age cutoff from the observed
            inter-arrival EMA — collapse it to zero while arrivals are
            sparser than the window (waiting cannot coalesce), restore the
            full window while they are dense — and cut a batch early once
            arrivals have stopped (see :meth:`cut_wait`) or every
            attached caller is waiting (see :meth:`complete`).
        max_pending: admission-control bound on the queue — a submission
            arriving with this many requests already pending is shed
            immediately with a typed :class:`~.resilience.Overloaded`
            instead of queueing unboundedly (0 = unbounded, the
            pre-resilience behavior).
    """

    #: Smoothing weight of the inter-arrival gap EMAs. The first observed
    #: gap initializes an EMA directly (a lone synchronous client flips to
    #: the zero-wait regime on its second request); afterwards a small
    #: weight keeps one long inter-burst gap — e.g. the execution time of
    #: the previous batch, during which every client was blocked — from
    #: spiking the estimate above the window and prematurely cutting the
    #: next batch.
    _GAP_EMA_ALPHA = 0.1

    #: Cap on one observed inter-arrival gap: a single long idle pause
    #: (e.g. between benchmark phases) must not dominate the EMA for the
    #: first requests of the next burst.
    _GAP_CLAMP_S = 0.25

    #: A pending batch is cut once the queue has been quiet for this many
    #: within-burst gaps. Generous against scheduling jitter between two
    #: requests of one burst, and still a small fraction of the window for
    #: the tens-of-microseconds gaps of a refilling client window.
    _QUIET_GAPS = 4.0

    #: Smoothing weight of the queue-pressure EMA (sampled at each batch
    #: cut as pending / max_batch_size — the placement controller's
    #: autoscaling signal).
    _PRESSURE_ALPHA = 0.2

    def __init__(
        self,
        max_batch_size: int,
        flush_interval_s: float,
        adaptive_flush: bool,
        max_pending: int,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if flush_interval_s < 0:
            raise ValueError("flush_interval_s must be >= 0")
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0 (0 = unbounded)")
        self.max_batch_size = max_batch_size
        self.flush_interval_s = flush_interval_s
        self.adaptive_flush = adaptive_flush
        self.max_pending = max_pending
        self._gap_ema: float | None = None
        self._burst_gap_ema: float | None = None
        self._pressure_ema = 0.0
        self._last_arrival: float | None = None
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._pending: list[PendingRequest] = []
        self._callers: set = set()
        self._closed = False
        self.submitted = 0
        self.rejected = 0
        #: Duck-typed continuous profiler (anything with
        #: ``record_stage(stage, duration_s, ...)``); ``None`` by default
        #: — the hook in :meth:`_cut` is one None-check, so the
        #: unprofiled scheduler is unchanged.
        self.profiler = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    def submit(self, request: Request, caller: Hashable | None = None) -> Future:
        """Enqueue a request; returns the future its response resolves.

        ``caller`` names the attached caller that sent it (see
        :meth:`attach_caller`); ``None`` for anyone else.

        Raises:
            Overloaded: the queue is at ``max_pending`` (admission
                control sheds at the door, not after queueing).
            RuntimeError: the scheduler is closed.
        """
        pending = PendingRequest(
            request=request, enqueued_at=time.perf_counter(), caller=caller
        )
        deadline = request.deadline_s
        if deadline is not None:
            pending.expires_at = pending.enqueued_at + deadline
        with self._nonempty:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if self.max_pending and len(self._pending) >= self.max_pending:
                self.rejected += 1
                raise Overloaded(
                    f"scheduler backlog at {len(self._pending)} requests "
                    f"(max_pending={self.max_pending})"
                )
            self.observe_arrival(pending.enqueued_at, bool(self._pending))
            self._pending.append(pending)
            self.submitted += 1
            self._nonempty.notify()
        return pending.future

    def observe_arrival(self, at: float, joins_pending: bool) -> None:
        """Fold one arrival at time ``at`` into the gap estimates.

        Every gap feeds the overall EMA behind the sparse-arrival rule. A
        gap whose arrival ``joins_pending`` requests — the two waited in
        the queue together — also feeds the *within-burst* EMA behind the
        quiet rule; the gap in front of a burst's first request (it finds
        the queue empty: the previous batch is out being executed) never
        does, however long it is. :meth:`submit` calls this under the
        lock; it reads no clock, so tests drive it with explicit times.
        """
        if self._last_arrival is not None:
            gap = min(at - self._last_arrival, self._GAP_CLAMP_S)
            self._gap_ema = self._smoothed(self._gap_ema, gap)
            if joins_pending:
                self._burst_gap_ema = self._smoothed(self._burst_gap_ema, gap)
        self._last_arrival = at

    def _smoothed(self, ema: float | None, gap: float) -> float:
        if ema is None:
            return gap
        return (1.0 - self._GAP_EMA_ALPHA) * ema + self._GAP_EMA_ALPHA * gap

    @property
    def arrival_gap_ema_s(self) -> float | None:
        """Smoothed inter-arrival gap (None before two submissions)."""
        with self._lock:
            return self._gap_ema

    def effective_flush_interval(self) -> float:
        """The age cutoff currently in force.

        Fixed mode returns ``flush_interval_s``. Adaptive mode collapses
        the cutoff to zero while the inter-arrival EMA exceeds the window:
        the expected wait for even one more co-batchable request is longer
        than we are willing to hold the batch, so holding it buys nothing
        (the lone-synchronous-client regime). Dense arrivals restore the
        full window.
        """
        if not self.adaptive_flush or self._gap_ema is None:
            return self.flush_interval_s
        if self._gap_ema >= self.flush_interval_s:
            return 0.0
        return self.flush_interval_s

    def cut_wait(self, now: float, oldest: float, last: float) -> float:
        """Seconds until a pending, not yet full batch is due (<= 0: now).

        Args:
            now: the current time.
            oldest: arrival time of the oldest pending request.
            last: arrival time of the newest pending request.

        The batch is due once it has *aged* — ``oldest`` is
        :meth:`effective_flush_interval` in the past — or, with
        ``adaptive_flush``, once the queue has been *quiet* for
        ``_QUIET_GAPS`` within-burst gaps since ``last``, whichever comes
        first; the window therefore stays the upper bound. Reads the gap
        estimates :meth:`observe_arrival` maintains and no clock.
        """
        due = oldest + self.effective_flush_interval()
        if self.adaptive_flush and self._burst_gap_ema is not None:
            due = min(due, last + self._QUIET_GAPS * self._burst_gap_ema)
        return due - now

    def attach_caller(self, token: Hashable) -> None:
        """Count ``token`` (not ``None``) among the callers that can still
        send: while it is attached and idle, :meth:`complete` stays off."""
        with self._lock:
            self._callers.add(token)

    def detach_caller(self, token: Hashable) -> None:
        """Stop counting ``token``; idempotent. Wakes :meth:`next_batch`:
        the callers left may all be waiting already."""
        with self._nonempty:
            self._callers.discard(token)
            self._nonempty.notify()

    def complete(self, callers: Iterable[Hashable | None]) -> bool:
        """True when the pending batch is due because nobody else can send.

        ``callers`` are the ``caller`` tokens of the pending requests. With
        ``adaptive_flush`` and at least one caller attached, the batch is
        *complete* once every attached caller is among them; a caller
        with several requests pending counts once, and ``None`` (a request
        no frontend attached) never stands in for anyone. Fixed mode never
        completes. Reads no clock, so tests drive it with explicit state.
        """
        return (
            self.adaptive_flush
            and bool(self._callers)
            and self._callers.issubset(callers)
        )

    def next_batch(self, timeout: float | None = None) -> list[PendingRequest]:
        """Block until a batch is due, then return it (oldest first).

        A batch is due when ``max_batch_size`` requests are pending, when
        :meth:`complete` says every attached caller is waiting, or when
        :meth:`cut_wait` says so. Returns ``[]`` on ``timeout`` (the
        caller's chance to notice shutdown) and after :meth:`close` once
        the queue has drained.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._nonempty:
            while True:
                if self._pending:
                    if (
                        len(self._pending) >= self.max_batch_size
                        or self._closed
                        or self.complete(p.caller for p in self._pending)
                    ):
                        return self._cut()
                    wait = self.cut_wait(
                        time.perf_counter(),
                        self._pending[0].enqueued_at,
                        self._pending[-1].enqueued_at,
                    )
                    if wait <= 0:
                        return self._cut()
                elif self._closed:
                    return []
                else:
                    wait = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        if not self._pending:
                            # An idle tick is a genuine zero-pressure
                            # observation: without it the EMA would
                            # freeze at the last burst's value and keep
                            # autoscaling long after traffic stopped.
                            self._pressure_ema *= 1.0 - self._PRESSURE_ALPHA
                        return []
                    wait = remaining if wait is None else min(wait, remaining)
                self._nonempty.wait(wait)

    def drain(self) -> list[PendingRequest]:
        """Take whatever is pending right now, without blocking (tests,
        manual pumping, and shutdown all want an immediate cut)."""
        with self._lock:
            return self._cut()

    def close(self) -> None:
        """Refuse new submissions; wakes any blocked :meth:`next_batch`."""
        with self._nonempty:
            self._closed = True
            self._nonempty.notify_all()

    def register_into(self, registry) -> None:
        """Contribute queue accounting to a telemetry registry.

        Duck-typed (any object with ``register_collector``) so the
        scheduling core keeps zero imports on the telemetry module.
        """

        def _snapshot() -> dict:
            with self._lock:
                return {
                    "scheduler_submitted": float(self.submitted),
                    "scheduler_rejected": float(self.rejected),
                    "scheduler_pending_now": float(len(self._pending)),
                    "scheduler_max_pending": float(self.max_pending),
                }

        registry.register_collector(
            "scheduler",
            _snapshot,
            counters=("scheduler_submitted", "scheduler_rejected"),
        )

    def queue_pressure(self) -> float:
        """Smoothed backlog at batch-cut time, in units of batch capacity.

        ~0 means batches are cut with room to spare (arrivals are the
        bottleneck); ~1 means every cut goes out full with a queue still
        behind it (execution is the bottleneck); > 1 means the backlog
        exceeds one batch — the signal the placement controller's replica
        autoscaling grows the shard count on.
        """
        with self._lock:
            return self._pressure_ema

    def _cut(self) -> list[PendingRequest]:
        depth = len(self._pending) / self.max_batch_size
        self._pressure_ema = (
            (1.0 - self._PRESSURE_ALPHA) * self._pressure_ema
            + self._PRESSURE_ALPHA * depth
        )
        batch = self._pending[: self.max_batch_size]
        del self._pending[: self.max_batch_size]
        if self.profiler is not None and batch:
            # The batching delay this cut imposed: the age of the oldest
            # request at the moment the batch went out.
            self.profiler.record_stage(
                "batch.cut", time.perf_counter() - batch[0].enqueued_at
            )
        return batch
