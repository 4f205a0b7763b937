"""Typed request/response protocol for the cost-model service.

The paper's deployment mode is a model trained offline and queried at
compile time; the service speaks exactly the two query shapes of the
paper's two tasks, as compile-time clients (tile autotuners, fusion
tuners, benchmark drivers) issue them:

* :class:`TileScoresRequest` — rank candidate tiles of one kernel;
* :class:`ProgramRuntimesRequest` — price a population of candidate
  programs (fusion-search populations); one kernel's absolute runtime
  is the one-program, one-kernel population.

Requests are plain frozen dataclasses so they can cross a transport
boundary (the in-process frontend passes them by reference; the socket
frontend ships them as bytes). Every request exposes a ``shard_key`` (the
kernel fingerprint used to route it to an executor shard) and, when the
result is safely memoizable, a ``cache_key`` for the service's shared
result cache.

Wire form: every message has ``to_bytes``/``from_bytes``, following the
``models/serialize`` convention of a JSON header plus raw binary array
payload — requests are structural (kernels serialize through
:meth:`Kernel.to_dict`), responses carry their score arrays as raw
dtype-tagged bytes so a served value is **bitwise identical** on both
sides of a socket. :func:`encode_request` / :func:`decode_request`
dispatch on a type tag; :func:`send_frame` / :func:`recv_frame` are the
shared length-prefixed framing both ends of the TCP transport speak.
"""
from __future__ import annotations

import json
import struct
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..compiler.kernels import Kernel
from ..compiler.tiling import TileConfig
from .telemetry import TraceContext


class WireError(ValueError):
    """Malformed wire bytes: bad frame, unknown type tag, or truncation."""


class UnknownKernelError(WireError):
    """A fingerprint-only kernel reference missed the receiver's interner.

    The transport answers with a ``need_kernel`` response and the client
    retries with the kernel attached — the same miss/retry contract the
    process executor uses over pipes.
    """

    def __init__(self, fingerprint: str) -> None:
        super().__init__(f"unknown kernel {fingerprint!r}")
        self.fingerprint = fingerprint


#: Error-string prefix of a response that means "resend with full
#: kernels" (a transport-level retry hint, not a client-visible failure).
NEED_KERNEL_PREFIX = "need_kernel:"


# ---------------------------------------------------------------------- #
# typed error codes: the wire vocabulary of serving faults. The strings
# live here (not in resilience.py) so the protocol layer stays dependency
# -free; resilience.py maps them to typed exceptions.
# ---------------------------------------------------------------------- #

#: The request's deadline elapsed before it could be answered.
ERROR_DEADLINE_EXCEEDED = "deadline_exceeded"
#: Admission control shed the request (scheduler backlog at its bound).
ERROR_OVERLOADED = "overloaded"
#: The transport connection died while the request was in flight.
ERROR_DISCONNECTED = "disconnected"
#: Shard-worker infrastructure failed the request (died/hung/unreachable).
ERROR_WORKER_FAILURE = "worker_failure"
#: The service cannot take or answer requests right now.
ERROR_UNAVAILABLE = "unavailable"


#: Frame header: request id (correlates responses on a pipelined
#: connection) + body length.
_FRAME = struct.Struct(">QI")

#: Upper bound on one frame's body — a decoding guard against garbage
#: lengths from a corrupted stream, far above any real message.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Bound on a receiver's fingerprint -> kernel interning map (one per
#: socket connection).
MAX_INTERNED_KERNELS = 4096


def _kernel_to_wire(kernel: Kernel, known) -> dict:
    """Kernel wire entry: full graph, or a fingerprint-only reference.

    ``known`` is the sender's record of fingerprints the receiver has
    already interned (``None`` = always send full). Steady-state traffic
    for a warm kernel set is fingerprint-only — the dominant serialization
    cost (the graph) is paid once per kernel per connection.
    """
    fingerprint = kernel.fingerprint()
    if known is not None and fingerprint in known:
        return {"fingerprint": fingerprint}
    return {"fingerprint": fingerprint, **kernel.to_dict()}


def _kernel_from_wire(entry: dict, interner) -> Kernel:
    """Resolve a wire entry against ``interner`` (fingerprint -> Kernel).

    Full entries are integrity-checked (declared fingerprint must match
    the rebuilt kernel's) and interned; reference entries must hit the
    interner or raise :class:`UnknownKernelError` for the miss/retry path.
    """
    fingerprint = entry["fingerprint"]
    if "graph" not in entry:
        if interner is None or fingerprint not in interner:
            raise UnknownKernelError(fingerprint)
        interner.move_to_end(fingerprint)
        return interner[fingerprint]
    kernel = Kernel.from_dict(entry)
    if kernel.fingerprint() != fingerprint:
        raise WireError(
            f"kernel fingerprint mismatch: declared {fingerprint!r}, "
            f"rebuilt {kernel.fingerprint()!r}"
        )
    if interner is not None:
        lru_touch(interner, fingerprint, kernel, MAX_INTERNED_KERNELS)
    return kernel


def kernel_interner() -> "OrderedDict[str, Kernel]":
    """A fresh fingerprint -> kernel LRU map for one receiving peer."""
    return OrderedDict()


def _trace_field(trace: TraceContext | None) -> dict:
    """The optional wire form of a trace context.

    Untraced requests add no bytes at all; traced ones carry a small JSON
    entry old peers never look at — the same optional-field discipline as
    ``deadline_s`` and the rollout tags.
    """
    return {"trace": trace.to_wire()} if trace is not None else {}


def _synthetic_field(synthetic: bool) -> dict:
    """The optional wire form of the prober's ``synthetic=True`` tag.

    Real traffic adds no bytes; probe requests carry one JSON entry old
    peers never look at — the same optional-field discipline as
    ``deadline_s`` and ``trace``.
    """
    return {"synthetic": True} if synthetic else {}


def lru_touch(mapping: OrderedDict, key, value, max_entries: int) -> None:
    """Insert/refresh ``key`` in a bounded LRU ``OrderedDict``.

    The one definition of the interning eviction semantics — shared by
    the wire decoder, the shard workers, and the executor's parent-side
    known-fingerprint maps, so they cannot drift.
    """
    mapping[key] = value
    mapping.move_to_end(key)
    while len(mapping) > max_entries:
        mapping.popitem(last=False)


@dataclass(frozen=True)
class TileScoresRequest:
    """Score candidate tiles of one kernel (lower score = faster).

    Attributes:
        kernel: the kernel being tuned.
        tiles: candidate tile configurations to rank.
        deadline_s: seconds (from submission) this request is worth
            answering; the scheduler sheds it with a typed
            ``deadline_exceeded`` once expired. ``None`` = no deadline.
            Deliberately excluded from :meth:`cache_key` — a cached value
            answers the same query content regardless of its deadline.
        trace: sampled tracing context, or ``None`` (the overwhelmingly
            common case). Like ``deadline_s``, excluded from
            :meth:`cache_key`: a trace annotates a submission, it never
            changes the answer.
        synthetic: the request is a prober probe, not business traffic.
            The scheduler coalesces it normally, but the service excludes
            it from business stats, the SLO window, feedback joins, and
            the result cache, and stamps the tag back on the response.
            Excluded from :meth:`cache_key` for the same reason as
            ``trace`` — it annotates, never changes, the answer.
    """

    kernel: Kernel
    tiles: tuple[TileConfig, ...]
    deadline_s: float | None = None
    trace: TraceContext | None = None
    synthetic: bool = False

    def shard_key(self) -> str:
        return self.kernel.fingerprint()

    def cache_key(self) -> tuple:
        return ("tiles", self.kernel.fingerprint(), tuple(t.dims for t in self.tiles))

    def fingerprints(self) -> list[str]:
        return [self.kernel.fingerprint()]

    def to_bytes(self, known=None) -> bytes:
        return _pack_request(
            "tile_scores",
            kernel=_kernel_to_wire(self.kernel, known),
            tiles=[list(t.dims) for t in self.tiles],
            deadline_s=self.deadline_s,
            **_trace_field(self.trace),
            **_synthetic_field(self.synthetic),
        )

    @classmethod
    def _from_payload(cls, payload, interner) -> "TileScoresRequest":
        return cls(
            kernel=_kernel_from_wire(payload["kernel"], interner),
            tiles=tuple(TileConfig(dims=tuple(d)) for d in payload["tiles"]),
            # .get(): frames from a pre-deadline/pre-tracing peer still
            # decode.
            deadline_s=payload.get("deadline_s"),
            trace=TraceContext.from_wire(payload.get("trace")),
            synthetic=bool(payload.get("synthetic", False)),
        )


@dataclass(frozen=True)
class ProgramRuntimesRequest:
    """Predict total runtimes for many candidate programs at once.

    Attributes:
        programs: one tuple of kernels per candidate program (a fusion
            configuration applied to a graph yields such a kernel list).
    """

    programs: tuple[tuple[Kernel, ...], ...]
    deadline_s: float | None = None
    trace: TraceContext | None = None
    synthetic: bool = False

    def shard_key(self) -> str:
        # Route whole populations by their first kernel so one replica's
        # prediction memo sees all configurations of one search.
        for kernels in self.programs:
            if kernels:
                return kernels[0].fingerprint()
        return ""

    def cache_key(self) -> None:
        # Populations are open-ended and rarely repeat exactly; per-kernel
        # memoization inside the replica already captures the reuse.
        return None

    def fingerprints(self) -> list[str]:
        return [k.fingerprint() for kernels in self.programs for k in kernels]

    def to_bytes(self, known=None) -> bytes:
        return _pack_request(
            "program_runtimes",
            programs=[
                [_kernel_to_wire(k, known) for k in kernels]
                for kernels in self.programs
            ],
            deadline_s=self.deadline_s,
            **_trace_field(self.trace),
            **_synthetic_field(self.synthetic),
        )

    @classmethod
    def _from_payload(cls, payload, interner) -> "ProgramRuntimesRequest":
        return cls(
            programs=tuple(
                tuple(
                    _kernel_from_wire(k, interner) for k in kernels
                )
                for kernels in payload["programs"]
            ),
            deadline_s=payload.get("deadline_s"),
            trace=TraceContext.from_wire(payload.get("trace")),
            synthetic=bool(payload.get("synthetic", False)),
        )


Request = TileScoresRequest | ProgramRuntimesRequest

_REQUEST_TYPES = {
    "tile_scores": TileScoresRequest,
    "program_runtimes": ProgramRuntimesRequest,
}


def _pack_request(tag: str, **fields) -> bytes:
    return json.dumps({"type": tag, **fields}).encode()


def encode_request(request: Request, known=None) -> bytes:
    """Serialize any request to its wire bytes.

    ``known`` (a set of fingerprints the receiver has interned) turns
    repeat kernels into fingerprint-only references — see
    :func:`_kernel_to_wire`.
    """
    try:
        to_bytes = request.to_bytes
    except AttributeError:
        raise WireError(
            f"not a wire-serializable request: {type(request).__name__}"
        ) from None
    return to_bytes(known=known)


def decode_request(data: bytes, interner=None) -> Request:
    """Rebuild a request from :func:`encode_request` bytes.

    ``interner`` is the receiving peer's fingerprint -> kernel LRU map
    (one per connection; see :func:`kernel_interner`): full kernels are
    interned into it (at most :data:`MAX_INTERNED_KERNELS`, least recently
    used out first), fingerprint-only references resolved from it.

    Raises:
        UnknownKernelError: a reference missed the interner (the caller
            should answer ``need_kernel`` so the sender retries in full).
        WireError: on undecodable bytes or an unknown type tag.
    """
    try:
        payload = json.loads(data.decode())
        cls = _REQUEST_TYPES[payload["type"]]
        return cls._from_payload(payload, interner)
    except WireError:
        raise
    except Exception as exc:
        raise WireError(f"undecodable request: {exc}") from exc


@dataclass
class Response:
    """Result of one request.

    Attributes:
        value: ``np.ndarray`` of tile scores or program runtimes (one
            per tile / program the request sent), or ``None`` on failure.
        model_version: registry version of the checkpoint that produced
            ``value`` — one version per response, always (hot swaps apply
            between batches, never inside one). Under a canary rollout
            this is the *routed* version, staged or active.
        batch_size: number of coalesced requests in the executed
            micro-batch ('1' for cache hits), for occupancy accounting.
        cache_hit: served from the shared result cache without a forward.
        latency_s: submit-to-resolution wall time.
        error: traceback string when the request failed; ``value`` is None.
        canary: served by a staged version under a canary rollout policy
            (``model_version`` then names the staged checkpoint).
        shadowed_by: staged version that additionally scored this request
            off the response path (shadow rollout), or ``None``. The
            shadow score never appears in ``value``.
        error_code: stable machine-readable code (one of the ``ERROR_*``
            constants) when the request failed in a typed way; clients
            map it back to a typed exception. ``None`` for successes and
            untyped (traceback-only) failures.
        degraded: ``value`` came from the analytical fallback model, not
            a published checkpoint (``model_version`` is then the
            analytical stamp). Honest but lower-fidelity — clients may
            treat it differently (e.g. skip feedback collection).
        trace_id: id of the sampled trace this request was recorded
            under, or ``None`` (unsampled / tracing off). Lets a client
            fetch its own trace tree from the ops gateway.
        synthetic: this response answers a prober probe — the service
            stamped the request's ``synthetic=True`` tag back on, and
            excluded the exchange from business stats, the SLO window,
            feedback joins, and the result cache.
    """

    value: np.ndarray | None
    model_version: str
    batch_size: int = 1
    cache_hit: bool = False
    latency_s: float = 0.0
    error: str | None = None
    canary: bool = False
    shadowed_by: str | None = None
    error_code: str | None = None
    degraded: bool = False
    trace_id: str | None = None
    synthetic: bool = False

    def unwrap(self) -> np.ndarray:
        """The value, raising ``RuntimeError`` if the request failed."""
        if self.error is not None:
            raise RuntimeError(f"cost-model request failed: {self.error}")
        assert self.value is not None
        return self.value

    def to_bytes(self) -> bytes:
        """Wire form: JSON header + raw array payload (bitwise-exact).

        The value crosses as its own buffer bytes with a dtype/shape tag,
        never through a decimal text round-trip — what makes socket-served
        scores byte-identical to in-process ones.

        Raises:
            TypeError: ``value`` is neither ``None`` nor an ``np.ndarray``.
        """
        if self.value is None:
            kind, dtype, shape, payload = "none", None, None, b""
        elif not isinstance(self.value, np.ndarray):
            raise TypeError(
                f"Response value must be an np.ndarray or None, not {type(self.value).__name__}"
            )
        else:
            arr = np.ascontiguousarray(self.value)
            kind, dtype, shape = "array", arr.dtype.str, list(arr.shape)
            payload = arr.tobytes()
        header = json.dumps(
            {
                "kind": kind,
                "dtype": dtype,
                "shape": shape,
                "model_version": self.model_version,
                "batch_size": self.batch_size,
                "cache_hit": self.cache_hit,
                "latency_s": self.latency_s,
                "error": self.error,
                "canary": self.canary,
                "shadowed_by": self.shadowed_by,
                "error_code": self.error_code,
                "degraded": self.degraded,
                "trace_id": self.trace_id,
                # Optional-field discipline: business responses carry no
                # prober bytes at all, so their wire form is byte-identical
                # to the pre-prober stack.
                **_synthetic_field(self.synthetic),
            }
        ).encode()
        return struct.pack(">I", len(header)) + header + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Response":
        """Rebuild a response from :meth:`to_bytes` bytes."""
        try:
            (header_len,) = struct.unpack_from(">I", data, 0)
            header = json.loads(data[4:4 + header_len].decode())
            payload = data[4 + header_len:]
            kind = header["kind"]
            if kind == "none":
                value = None
            elif kind == "array":
                value = np.frombuffer(payload, dtype=np.dtype(header["dtype"]))
                value = value.reshape(header["shape"])
            else:
                raise WireError(f"unknown value kind {kind!r}")
            return cls(
                value=value,
                model_version=header["model_version"],
                batch_size=header["batch_size"],
                cache_hit=header["cache_hit"],
                latency_s=header["latency_s"],
                error=header["error"],
                # .get(): rollout/resilience tags are optional on the
                # wire, so frames from an older peer still decode.
                canary=bool(header.get("canary", False)),
                shadowed_by=header.get("shadowed_by"),
                error_code=header.get("error_code"),
                degraded=bool(header.get("degraded", False)),
                trace_id=header.get("trace_id"),
                synthetic=bool(header.get("synthetic", False)),
            )
        except WireError:
            raise
        except Exception as exc:
            raise WireError(f"undecodable response: {exc}") from exc


# ---------------------------------------------------------------------- #
# framing: the length-prefixed envelope both ends of the TCP transport use
# ---------------------------------------------------------------------- #


def frame_bytes(request_id: int, body: bytes) -> bytes:
    """One framed ``(request_id, body)`` message as raw bytes."""
    return _FRAME.pack(request_id, len(body)) + body


def send_frame(sock, request_id: int, body: bytes) -> None:
    """Write one ``(request_id, body)`` frame to a socket."""
    sock.sendall(frame_bytes(request_id, body))


def _recv_exact(sock, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on a clean EOF at a boundary."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n:
                return None
            raise WireError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock) -> tuple[int, bytes] | None:
    """Read one frame; ``None`` when the peer closed between frames.

    Raises:
        WireError: on truncation mid-frame or an implausible body length.
    """
    header = _recv_exact(sock, _FRAME.size)
    if header is None:
        return None
    request_id, length = _FRAME.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {length} bytes exceeds the cap")
    body = _recv_exact(sock, length)
    if body is None:
        raise WireError("connection closed before frame body")
    return request_id, body


def extract_frame(buffer: bytearray) -> tuple[int, bytes] | None:
    """Pop one complete frame off the front of a receive ``buffer``.

    The incremental-parsing counterpart of :func:`recv_frame` for
    non-blocking readers: returns ``None`` while the buffer holds only a
    partial frame, otherwise consumes and returns ``(request_id, body)``.

    Raises:
        WireError: on an implausible body length (corrupted stream).
    """
    if len(buffer) < _FRAME.size:
        return None
    request_id, length = _FRAME.unpack_from(bytes(buffer[:_FRAME.size]))
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {length} bytes exceeds the cap")
    total = _FRAME.size + length
    if len(buffer) < total:
        return None
    body = bytes(buffer[_FRAME.size:total])
    del buffer[:total]
    return request_id, body
