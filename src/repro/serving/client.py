"""Clients: the existing evaluator interface, served over any transport.

Both clients speak the same protocol as
:class:`~repro.autotuner.LearnedEvaluator` — ``score_tiles_batched``
(:class:`~repro.autotuner.TileScorer`), ``kernel_runtime``,
``program_runtime`` and ``program_runtimes_batched``
(:class:`~repro.autotuner.ProgramCostModel`) — so ``model_tile_autotune``
and ``model_fusion_autotune`` run against a shared service unchanged —
point N tuner threads or processes at one service and their queries
coalesce into the same micro-batches. A tile query travels as a
``TileScoresRequest``; every runtime query, ``kernel_runtime`` included
(a one-kernel program), travels as a ``ProgramRuntimesRequest``.

* :class:`ServiceEvaluator` — the in-process path: submits straight into
  the service's scheduler. Against a service without a worker thread it
  pumps the queue itself (submit, :meth:`CostModelService.flush`, wait) —
  fully synchronous and deterministic, which is also how the equivalence
  tests drive it.
* :class:`SocketEvaluator` — the remote path: the same facade over a TCP
  connection to a :class:`~repro.serving.frontend.SocketFrontend`, so a
  tuner in another process or on another machine shares the same warm
  model. Served values cross the wire as raw dtype-tagged bytes and are
  bitwise-identical to in-process responses at equal batch shape.
"""
from __future__ import annotations

import dataclasses
import itertools
import socket
import time
from concurrent import futures as _futures

import numpy as np

from ..compiler.kernels import Kernel
from ..compiler.tiling import TileConfig
from .protocol import (
    NEED_KERNEL_PREFIX,
    ProgramRuntimesRequest,
    Request,
    Response,
    TileScoresRequest,
    WireError,
    encode_request,
    recv_frame,
    send_frame,
)
from .resilience import (
    ConnectionLost,
    DeadlineExceeded,
    RetryPolicy,
    ServingFault,
    fault_for,
    idempotency_key,
)
from .service import CostModelService


class EvaluatorClient:
    """Shared evaluator facade; transports implement :meth:`_call_once`.

    The shared :meth:`_call` wraps every transport round trip in the
    resilience envelope: it stamps the client's default deadline on
    requests that carry none, converts typed error responses into typed
    :class:`~.resilience.ServingFault` exceptions, and — when a
    :class:`~.resilience.RetryPolicy` is configured — retries retryable
    faults with exponential backoff and deterministic jitter keyed by the
    request's idempotency key (a retry is *the same request*: equal
    content, equal cache key, so a replay is answer-idempotent).

    Args:
        deadline_s: default per-request deadline stamped on submissions
            that carry none (None = no deadline, the pre-resilience
            behavior).
        retry: retry schedule for typed transient faults (None = fail on
            the first fault, the pre-resilience behavior).

    Attributes:
        last_response: the most recent :class:`Response` (version stamp,
            rollout tags, batch occupancy, latency) — what a client
            inspects to learn which checkpoint priced its query.
        version_counts: how many of this client's responses each
            checkpoint version served — under a canary rollout this is
            the client-side view of the traffic split (transports fill it
            via :meth:`_record`).
        retries: transport round trips beyond each request's first try.
        degraded_responses: answers served by the analytical fallback
            (tagged ``degraded=True`` by the service).
    """

    def __init__(
        self,
        deadline_s: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.last_response: Response | None = None
        self.version_counts: dict[str, int] = {}
        self.deadline_s = deadline_s
        self.retry = retry
        self.retries = 0
        self.degraded_responses = 0

    def _call_once(self, request: Request) -> Response:
        """One transport round trip (implemented by transports). Raises
        a typed :class:`~.resilience.ServingFault` on transport-level
        failure; returns the response otherwise (which may itself carry
        a typed ``error_code``)."""
        raise NotImplementedError

    def _stamp(self, request: Request) -> Request:
        """Apply the client's default deadline to an unstamped request."""
        if self.deadline_s is None:
            return request
        if getattr(request, "deadline_s", None) is not None:
            return request
        try:
            return dataclasses.replace(request, deadline_s=self.deadline_s)
        except TypeError:
            return request  # foreign request-like object: pass through

    def _call(self, request: Request) -> Response:
        request = self._stamp(request)
        policy = self.retry
        attempts = policy.max_attempts if policy is not None else 1
        key = idempotency_key(request) if policy is not None else ""
        fault: ServingFault | None = None
        for attempt in range(attempts):
            if attempt:
                self.retries += 1
                time.sleep(policy.backoff_s(attempt - 1, key))
            try:
                response = self._call_once(request)
            except ServingFault as exc:
                fault = exc
                if policy is not None and policy.retryable(exc.code):
                    continue
                raise
            fault = fault_for(response)
            if fault is not None:
                if policy is not None and policy.retryable(response.error_code):
                    continue
                raise fault
            if response.degraded:
                self.degraded_responses += 1
            return self._record(response)
        assert fault is not None
        raise fault

    def _record(self, response: Response) -> Response:
        """Account one response (transports call this from ``_call``)."""
        self.last_response = response
        if response.error is None:
            self.version_counts[response.model_version] = (
                self.version_counts.get(response.model_version, 0) + 1
            )
        return response

    @property
    def model_version(self) -> str | None:
        """Version that served the most recent request (None before any)."""
        return self.last_response.model_version if self.last_response else None

    @property
    def served_by_canary(self) -> bool:
        """True when the most recent response came from a staged version
        under a canary rollout policy."""
        return bool(self.last_response and self.last_response.canary)

    def score_tiles_batched(self, kernel: Kernel, tiles: list[TileConfig]) -> np.ndarray:
        """Rank scores for candidate tiles of one kernel (lower = faster;
        an empty list scores empty without a round trip)."""
        if not tiles:
            return np.zeros(0, dtype=np.float32)
        response = self._call(TileScoresRequest(kernel=kernel, tiles=tuple(tiles)))
        return np.asarray(response.unwrap())

    def kernel_runtime(self, kernel: Kernel, tile: TileConfig | None = None) -> float:
        """Predicted absolute runtime in seconds: the runtime of the
        one-kernel program (``tile`` ignored, as in
        :class:`~repro.autotuner.LearnedEvaluator`)."""
        return self.program_runtime([kernel])

    def program_runtime(self, kernels: list[Kernel]) -> float:
        """Predicted program runtime (one-program population query)."""
        response = self._call(
            ProgramRuntimesRequest(programs=(tuple(kernels),))
        )
        return float(np.asarray(response.unwrap())[0])

    def program_runtimes_batched(self, programs: list[list[Kernel]]) -> np.ndarray:
        """Predicted runtimes for many candidate programs (empty-safe)."""
        if not programs:
            return np.zeros(0, dtype=np.float64)
        response = self._call(
            ProgramRuntimesRequest(programs=tuple(tuple(p) for p in programs))
        )
        return np.asarray(response.unwrap())


class ServiceEvaluator(EvaluatorClient):
    """Evaluator facade over an in-process :class:`CostModelService`.

    Args:
        service: the service to query (shared across clients).
        timeout_s: max seconds to wait for any one response.
        deadline_s: default per-request deadline (see
            :class:`EvaluatorClient`).
        retry: retry schedule for typed transient faults. The service
            raises :class:`~.resilience.Overloaded` at submission when
            admission control sheds — with a policy, the client backs
            off and resubmits.
    """

    def __init__(
        self,
        service: CostModelService,
        timeout_s: float = 60.0,
        deadline_s: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(deadline_s=deadline_s, retry=retry)
        self.service = service
        self.timeout_s = timeout_s

    def _call_once(self, request: Request) -> Response:
        future = self.service.submit(request)  # may raise Overloaded
        if not self.service.is_running:
            self.service.flush()
        try:
            return future.result(timeout=self.timeout_s)
        except _futures.TimeoutError:
            raise DeadlineExceeded(
                f"no response within timeout_s={self.timeout_s}"
            ) from None


class SocketEvaluator(EvaluatorClient):
    """Evaluator facade over a TCP connection to a socket frontend.

    Args:
        address: ``(host, port)`` of a listening
            :class:`~repro.serving.frontend.SocketFrontend`.
        timeout_s: socket timeout for connect and per-response waits.
        deadline_s: default per-request deadline (see
            :class:`EvaluatorClient`).
        retry: retry schedule for typed transient faults. A broken or
            reset connection surfaces as a retryable
            :class:`~.resilience.ConnectionLost`; the next attempt
            reconnects (with a fresh kernel-interning set — the server's
            per-connection interner died with the old connection).

    One request is in flight per client at a time (the facade is
    synchronous); concurrency comes from many clients — each tuner
    thread/process owns its own connection, and the frontend funnels them
    all into the shared micro-batcher. Use as a context manager, or call
    :meth:`close`.

    Each kernel's graph is shipped once per connection; afterwards the
    client sends fingerprint-only references, and a server that evicted a
    kernel answers ``need_kernel`` to trigger a full resend — repeat
    queries for a warm kernel set pay almost no serialization.
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout_s: float = 60.0,
        deadline_s: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(deadline_s=deadline_s, retry=retry)
        self.address = (address[0], int(address[1]))
        self.timeout_s = timeout_s
        self._ids = itertools.count(1)
        self._known: set[str] = set()
        self._sock: socket.socket | None = None
        self.reconnects = 0
        self._connect()

    def _connect(self) -> None:
        """(Re)establish the connection; resets the interning contract."""
        if self._sock is not None:
            return
        self._known.clear()
        try:
            sock = socket.create_connection(self.address, timeout=self.timeout_s)
        except OSError as exc:
            raise ConnectionLost(
                f"cannot connect to {self.address[0]}:{self.address[1]}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._known.clear()

    def _roundtrip(self, body: bytes) -> Response:
        request_id = next(self._ids)
        try:
            send_frame(self._sock, request_id, body)
            while True:
                frame = recv_frame(self._sock)
                if frame is None:
                    raise WireError("server closed the connection mid-request")
                reply_id, reply_body = frame
                if reply_id != request_id:
                    continue  # stale reply from an abandoned request
                return Response.from_bytes(reply_body)
        except socket.timeout as exc:
            # The connection may still carry the stale reply; it cannot
            # be reused for the next request id.
            self._disconnect()
            raise DeadlineExceeded(
                f"no response within timeout_s={self.timeout_s}"
            ) from exc
        except (WireError, OSError) as exc:
            self._disconnect()
            raise ConnectionLost(str(exc)) from exc

    def _call_once(self, request: Request) -> Response:
        if self._sock is None:
            self.reconnects += 1
            self._connect()
        response = self._roundtrip(encode_request(request, known=self._known))
        if response.error is not None and response.error.startswith(
            NEED_KERNEL_PREFIX
        ):
            # The server evicted a referenced kernel: resend in full.
            self._known.difference_update(request.fingerprints())
            response = self._roundtrip(encode_request(request, known=None))
        if response.error is None:
            self._known.update(request.fingerprints())
        return response

    def close(self) -> None:
        """Close the connection; idempotent."""
        self._disconnect()

    def __enter__(self) -> "SocketEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
