"""Transport frontends: request ingress for the scheduler core.

A frontend owns how requests *arrive*; it never schedules or executes.
Every frontend feeds the same :class:`~repro.serving.service.CostModelService`
scheduler core, so micro-batching coalesces traffic across transports —
an in-process tuner thread and a remote socket client land in the same
micro-batch and share the same forward.

* :class:`InProcessFrontend` — the zero-copy path: requests pass by
  reference into the scheduler. This is what PR 2 shipped implicitly; it
  is now a named layer.
* :class:`SocketFrontend` — a length-prefixed TCP server speaking the
  typed protocol's wire form (:func:`~repro.serving.protocol.decode_request`
  / :meth:`~repro.serving.protocol.Response.to_bytes`), so tuners in
  other processes or machines share one warm model. Ingress is a single
  selector loop (not a thread per connection): one scheduling quantum
  drains *every* readable connection, so concurrent clients' requests
  enter the micro-batcher together and coalesce — and N connections cost
  one thread. Responses are written from future callbacks as their
  micro-batches resolve, correlated by request id, so a pipelining
  client gets replies in completion order.

  Each open connection is an attached caller of the scheduler
  (:meth:`~repro.serving.scheduler.MicroBatcher.attach_caller`, from
  accept until the connection is dropped), so under ``adaptive_flush`` a
  batch is cut as soon as every open connection has a request pending:
  two synchronous tuners no longer hold the first one's request for the
  flush window after the second one's has arrived. The set is *open*
  connections, not busy ones — an idle connection can still send — so
  one idle connection keeps the rule off. ``SyntheticProber.add_socket``
  holds such a connection between sweeps, so a socket-probed service
  batches as it did without the rule. A pipelining peer counts once
  however many requests it has pending; the rule can only cut a batch
  earlier than the age and quiet rules would, never later.

Pick the in-process frontend whenever the client can import the service
object (same interpreter, lowest latency). Pick the socket frontend when
clients live in other processes or hosts — its cost is one serialize +
deserialize per hop (mostly interned away for warm kernels), amortized
by the same micro-batching.
"""
from __future__ import annotations

import select
import selectors
import socket
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field, replace

from .faults import FaultInjector, corrupt_bytes
from .protocol import (
    ERROR_DISCONNECTED,
    ERROR_OVERLOADED,
    ERROR_UNAVAILABLE,
    NEED_KERNEL_PREFIX,
    Response,
    UnknownKernelError,
    WireError,
    decode_request,
    extract_frame,
    frame_bytes,
    kernel_interner,
)
from .resilience import Overloaded
from .service import CostModelService


class Frontend:
    """A request-ingress surface bound to one service (scheduler core)."""

    def __init__(self, service: CostModelService) -> None:
        self.service = service

    def close(self) -> None:
        """Release transport resources; idempotent."""

    def __enter__(self) -> "Frontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InProcessFrontend(Frontend):
    """The same-interpreter ingress path: submit by reference.

    Thin by design — naming the layer is the point, so both transports
    have the same shape and the service itself stays transport-blind.
    """

    def submit(self, request):
        """Enqueue a request; returns the response future."""
        return self.service.submit(request)


@dataclass(eq=False)  # identity hashing: connections live in a set
class _Connection:
    """Per-connection ingress state on the selector loop."""

    sock: socket.socket
    #: Partial-frame accumulation between readiness events.
    buffer: bytearray = field(default_factory=bytearray)
    #: Connection-scoped kernel interning: a client ships each kernel
    #: graph once, then references it by fingerprint (the graph is the
    #: dominant per-request serialization cost). Scoping per connection
    #: keeps peers from observing or poisoning each other's kernels.
    interner: dict = field(default_factory=kernel_interner)
    #: Serializes response writes (future callbacks race per connection).
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    #: Requests submitted but not yet answered, by request id. On
    #: disconnect every still-pending future is resolved with a typed
    #: ``disconnected`` response so no waiter (shadow scorer, test,
    #: service shed pass) blocks on a peer that will never read the
    #: answer.
    inflight: dict[int, Future] = field(default_factory=dict)
    inflight_lock: threading.Lock = field(default_factory=threading.Lock)
    broken: bool = False


class SocketFrontend(Frontend):
    """Length-prefixed TCP ingress: remote tuners share the warm model.

    Args:
        service: the scheduler core to feed.
        host: bind address (default loopback).
        port: bind port; 0 picks a free one (read :attr:`address`).
        fault_injector: optional chaos injector; its ``frontend.recv``
            rules apply to inbound socket reads (``drop`` severs the
            connection, ``corrupt`` flips a byte so framing fails and
            the peer is dropped, ``delay`` adds ingress latency).

    One background thread multiplexes accept + read over every
    connection with a selector; decoded requests are submitted straight
    into the service's micro-batcher. If the service has no worker
    thread, the loop pumps :meth:`CostModelService.flush` after each
    drain (deterministic single-threaded mode, used by tests); with a
    running worker, the loop only ingests and the worker executes.

    Counters (``connections``, ``frames_in``, ``frames_out``,
    ``decode_errors``) are exposed via :meth:`stats`.
    """

    #: Max total wait for one response write before the peer is dropped.
    _SEND_DEADLINE_S = 10.0

    #: Listen backlog.
    _BACKLOG = 64

    def __init__(
        self,
        service: CostModelService,
        host: str = "127.0.0.1",
        port: int = 0,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        super().__init__(service)
        self._faults = fault_injector
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(self._BACKLOG)
        self._listener.setblocking(False)
        self.address: tuple[str, int] = self._listener.getsockname()
        self._lock = threading.Lock()
        self._closed = False
        self._connections: set[_Connection] = set()
        self.connections = 0
        self.frames_in = 0
        self.frames_out = 0
        self.decode_errors = 0
        self.dropped_connections = 0
        self.abandoned_requests = 0
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        # Self-pipe so close() can interrupt a blocked select().
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._thread = threading.Thread(
            target=self._io_loop, name="socket-frontend-io", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # ingress loop
    # ------------------------------------------------------------------ #

    def _io_loop(self) -> None:
        while True:
            events = self._selector.select(timeout=0.5)
            if self._closed:
                return
            ingested = False
            for key, _mask in events:
                if key.data == "accept":
                    self._accept_ready()
                elif key.data == "wake":
                    try:
                        self._wake_r.recv(4096)
                    except OSError:
                        pass
                else:
                    ingested |= self._read_ready(key.data)
            if ingested and not self.service.is_running:
                # No worker thread: pump the scheduler on the IO thread
                # so a sync-mode service still answers socket clients.
                self.service.flush()

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(sock=sock)
            with self._lock:
                if self._closed:
                    sock.close()
                    return
                # Under the lock: close() drops (and detaches) exactly the
                # connections it finds here.
                self.service.scheduler.attach_caller(connection)
                self._connections.add(connection)
                self.connections += 1
            self._selector.register(sock, selectors.EVENT_READ, connection)

    def _read_ready(self, connection: _Connection) -> bool:
        """Drain one readable connection; True if any request was submitted."""
        try:
            data = connection.sock.recv(1 << 18)
        except BlockingIOError:
            return False
        except OSError:
            self._drop(connection)
            return False
        if not data:
            self._drop(connection)
            return False
        if self._faults is not None:
            rule = self._faults.fire("frontend.recv")
            if rule is not None:
                if rule.kind in ("drop", "kill"):
                    # Sever the connection mid-frame: the peer sees a
                    # reset and its in-flight requests resolve typed.
                    self._drop(connection)
                    return False
                if rule.kind == "corrupt":
                    data = corrupt_bytes(data)
                elif rule.kind in ("delay", "hang"):
                    FaultInjector.maybe_delay(rule)
        connection.buffer.extend(data)
        ingested = False
        while True:
            try:
                frame = extract_frame(connection.buffer)
            except WireError:
                # Framing is unrecoverable mid-stream: drop the peer.
                self._drop(connection)
                return ingested
            if frame is None:
                return ingested
            self._handle_frame(connection, *frame)
            ingested = True

    def _handle_frame(
        self, connection: _Connection, request_id: int, body: bytes
    ) -> None:
        with self._lock:
            self.frames_in += 1
        tracer = self.service.tracer
        recv_at = time.time() if tracer is not None else 0.0
        try:
            request = decode_request(body, interner=connection.interner)
        except UnknownKernelError as exc:
            # Interner miss on a fingerprint-only reference: ask the
            # client to retry with the kernel attached (the pipe-executor
            # miss/retry contract, over TCP).
            self._send(
                connection,
                request_id,
                Response(
                    value=None,
                    model_version=self.service.registry.active_version or "",
                    error=f"{NEED_KERNEL_PREFIX} {exc.fingerprint}",
                ),
                deadline_s=1.0,  # IO thread: never stall other peers' ingress
            )
            return
        except WireError as exc:
            with self._lock:
                self.decode_errors += 1
            self._send(
                connection,
                request_id,
                Response(
                    value=None,
                    model_version=self.service.registry.active_version or "",
                    error=f"bad request: {exc}",
                ),
                deadline_s=1.0,
            )
            return
        if tracer is not None:
            # Open (or adopt, for client-stamped contexts) the trace
            # here, where the frame actually arrived — the root span's
            # start predates decode, and the recv/decode cost shows as
            # its first child.
            ctx = tracer.ingress(
                request, process="frontend", name="request", start=recv_at
            )
            if ctx is not None:
                tracer.record(
                    ctx,
                    "frontend.recv",
                    start=recv_at,
                    process="frontend",
                    attrs={"transport": "socket", "bytes": len(body)},
                )
                request = replace(request, trace=ctx)
            elif request.trace is not None:
                # Sampled out: strip the wire context so no downstream
                # hook mistakes the request for a traced one.
                request = replace(request, trace=None)
        try:
            future = self.service.submit(request, caller=connection)
        except Overloaded as exc:
            # Admission control shed the request at the door: a typed,
            # retryable answer the client can back off on.
            self._send(
                connection,
                request_id,
                Response(
                    value=None,
                    model_version=self.service.registry.active_version or "",
                    error=str(exc),
                    error_code=ERROR_OVERLOADED,
                ),
                deadline_s=1.0,
            )
            return
        except Exception as exc:
            # A stopped service (closed scheduler) must answer, not kill
            # the IO thread and silently hang every connected client.
            self._send(
                connection,
                request_id,
                Response(
                    value=None,
                    model_version=self.service.registry.active_version or "",
                    error=f"service unavailable: {exc}",
                    error_code=ERROR_UNAVAILABLE,
                ),
                deadline_s=1.0,
            )
            return
        with connection.inflight_lock:
            connection.inflight[request_id] = future

        def _respond(fut: Future, rid: int = request_id) -> None:
            with connection.inflight_lock:
                connection.inflight.pop(rid, None)
            self._send(connection, rid, fut.result())

        future.add_done_callback(_respond)

    # ------------------------------------------------------------------ #
    # egress
    # ------------------------------------------------------------------ #

    def _send(
        self,
        connection: _Connection,
        request_id: int,
        response: Response,
        deadline_s: float | None = None,
    ) -> None:
        """Write one response frame (from worker/callback threads).

        The socket is non-blocking (it lives on the selector); small
        response frames virtually never fill the kernel buffer, and when
        one does we briefly wait for writability here rather than run a
        full outbound-queue state machine. The wait is bounded — this may
        run on the service's worker thread (future callbacks), so a peer
        that stops reading must never wedge response delivery for
        everyone: past the deadline the connection is dropped entirely
        (its requests must stop consuming forwards for discarded
        responses).
        """
        if connection.broken:
            return
        if deadline_s is None and threading.current_thread() is self._thread:
            # Any send on the selector IO thread — including a cache-hit
            # future that resolved inline during submit — must never
            # stall other peers' ingress behind one non-reading peer.
            deadline_s = 1.0
        try:
            payload = memoryview(frame_bytes(request_id, response.to_bytes()))
            deadline = time.monotonic() + (deadline_s or self._SEND_DEADLINE_S)
            with connection.send_lock:
                while payload:
                    try:
                        sent = connection.sock.send(payload)
                    except BlockingIOError:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise OSError("send deadline exceeded") from None
                        select.select([], [connection.sock], [], min(remaining, 1.0))
                        continue
                    payload = payload[sent:]
            with self._lock:
                self.frames_out += 1
        except (OSError, ValueError):
            # Peer went away or stopped reading: drop it so its pending
            # frames stop being decoded and executed for nothing.
            self._drop(connection)

    # ------------------------------------------------------------------ #
    # observability / lifecycle
    # ------------------------------------------------------------------ #

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "connections": self.connections,
                "open_connections": len(self._connections),
                "frames_in": self.frames_in,
                "frames_out": self.frames_out,
                "decode_errors": self.decode_errors,
                "dropped_connections": self.dropped_connections,
                "abandoned_requests": self.abandoned_requests,
            }

    def _drop(self, connection: _Connection) -> None:
        connection.broken = True
        self.service.scheduler.detach_caller(connection)
        try:
            self._selector.unregister(connection.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            connection.sock.close()
        except OSError:
            pass
        with connection.inflight_lock:
            inflight = list(connection.inflight.values())
            connection.inflight.clear()
        abandoned = 0
        for future in inflight:
            if future.done():
                continue
            # Resolve, don't cancel: the service's shed pass skips done
            # futures (counted abandoned), and any other waiter gets a
            # typed error instead of blocking forever.
            try:
                future.set_result(
                    Response(
                        value=None,
                        model_version=self.service.registry.active_version or "",
                        error="client disconnected before response",
                        error_code=ERROR_DISCONNECTED,
                    )
                )
                abandoned += 1
            except InvalidStateError:
                pass  # raced a concurrent resolution; its callback won
        with self._lock:
            self._connections.discard(connection)
            self.dropped_connections += 1
            self.abandoned_requests += abandoned

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            connections = list(self._connections)
        try:
            self._wake_w.send(b"x")
        except OSError:
            pass
        self._thread.join(timeout=2)
        for connection in connections:
            self._drop(connection)
        for sock in (self._listener, self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass
        self._selector.close()


__all__ = [
    "Frontend",
    "InProcessFrontend",
    "SocketFrontend",
]
