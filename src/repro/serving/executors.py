"""Execution backends: where a micro-batch's model forwards actually run.

The scheduler core (:class:`~repro.serving.service.CostModelService`)
reduces each micro-batch to a list of shard-annotated *commands* — one
coalesced forward each — and hands them to an :class:`Executor`. Two
placements implement the interface:

* :class:`InThreadExecutor` — the default: one
  :class:`~repro.autotuner.LearnedEvaluator` per fingerprint shard in the
  service's own process, one forward per shard per micro-batch on the
  worker thread. Zero IPC cost; forwards serialize on the GIL.
* :class:`ProcessShardExecutor` — each fingerprint-shard lives in its own
  worker subprocess fed over a pipe. Commands for different shards run
  truly in parallel (no GIL contention); checkpoints ship to workers as
  the registry's blob bytes, and a worker that dies is respawned and
  shipped the in-flight version before it serves anything.

Both execute a shard's *slice* of a micro-batch — its tile commands, then
its program commands — through one function,
:func:`~repro.serving.workers.run_slice`: in-thread on the shard's
evaluator, in a worker behind the one forward-executing pipe verb
(``slice``). What shares a forward, what a traced forward reports and how
a model error is isolated are decided there and nowhere else.

Both backends route through the same versioned
:class:`~repro.serving.placement.ShardMap` (whose uniform default matches
the legacy stable digest-slice function), so a request lands on the same
shard regardless of placement — what makes the two backends
interchangeable (and bitwise-identical at equal batch shape). Both also
act on :class:`~repro.serving.placement.RebalancePlan`s via
:meth:`Executor.apply_plan`: the in-thread executor grows or shrinks its
evaluator lists (autoscaling), the process executor performs a
version-safe live migration (spawn + blob-sync new workers, swap the map,
drain retired workers).

Both backends keep ``{version: warm evaluators}`` for a small LRU of
**live versions** (:data:`~repro.serving.workers.MAX_LIVE_VERSIONS`, 2)
and nothing else about versions: :meth:`Executor.run` names the version
of every batch, and the evaluator that runs a shard's slice is one lookup
by ``(version, shard)`` — a list index in-thread, a dictionary inside the
worker, keyed by the version every ``slice`` message carries. No backend
has a *current* version to switch, so a canary/shadow rollout alternating
active- and staged-version batches every few milliseconds costs what one
version costs, and a slice cannot run on a checkpoint other than the one
it names.
"""
from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import traceback
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..autotuner.evaluators import LearnedEvaluator
from ..compiler.kernels import Kernel
from ..compiler.tiling import TileConfig
from .faults import FaultInjector, FaultPlan
from .journal import record_event
from .placement import RebalancePlan, ShardMap
from .protocol import lru_touch
from .registry import ModelRegistry
from .resilience import CrashLoopBackoff
from .workers import MAX_LIVE_VERSIONS, run_slice, shard_worker

START_METHOD = "spawn"
"""``multiprocessing`` start method of the shard workers: safe alongside
the service's threads (``fork`` boots faster but inherits the parent's
thread state)."""


@dataclass(frozen=True)
class TileCommand:
    """One coalesced tile-scoring forward: all tiles of one kernel.

    ``trace`` is an optional ``(trace_id, parent_span_id)`` token from
    the telemetry layer; executors that honour it report the forward's
    span back in :attr:`CommandResult.spans`. ``None`` (the default and
    the untraced path) changes nothing on the wire or in behaviour.
    """

    shard: int
    kernel: Kernel
    tiles: tuple[TileConfig, ...]
    trace: tuple | None = None


@dataclass(frozen=True)
class ProgramCommand:
    """One coalesced program-pricing forward over many kernel tuples.

    ``trace`` — see :class:`TileCommand`.
    """

    shard: int
    programs: tuple[tuple[Kernel, ...], ...]
    trace: tuple | None = None


Command = TileCommand | ProgramCommand


@dataclass
class CommandResult:
    """Outcome of one command: a score array, or a traceback string.

    ``forwards`` is the number of model forward passes this result cost —
    0 for commands that rode along in another command's fused forward.

    ``infra`` marks an *infrastructure* failure — the worker died, hung
    past the dispatch timeout, or could not be (re)spawned — as opposed
    to the model itself raising on the inputs. The service feeds only
    infrastructure failures to the shard's circuit breaker and the
    graceful-degradation path; a model error is the request's own fault
    and is surfaced as-is.

    ``spans`` carries plain span dicts recorded where the forward ran
    (inside a shard-worker subprocess, or on the executing thread) for
    traced commands; the service re-parents them into each sampled
    request's trace. Empty for untraced commands.
    """

    value: np.ndarray | None = None
    error: str | None = None
    forwards: int = 1
    infra: bool = False
    spans: tuple = ()


def _slices(commands: list) -> dict[int, list]:
    """A micro-batch's commands grouped into per-shard slices.

    ``{shard: [(index, command), ...]}``, each shard's tile commands
    first, then its program commands — the order
    :func:`~repro.serving.workers.run_slice` takes them and returns their
    outcomes in.
    """
    per_shard: dict[int, list] = {}
    for index, command in enumerate(commands):
        per_shard.setdefault(command.shard, []).append((index, command))
    for items in per_shard.values():
        items.sort(key=lambda item: isinstance(item[1], ProgramCommand))
    return per_shard


def _slice_parts(ordered: list) -> tuple[list, tuple | None, list]:
    """``(tile commands, their trace token, program commands)`` of a slice.

    The tile commands share one forward, so they share one token: the
    first traced command's.
    """
    tiles = [c for _, c in ordered if isinstance(c, TileCommand)]
    trace = next((c.trace for c in tiles if c.trace is not None), None)
    return tiles, trace, [c for _, c in ordered[len(tiles):]]


def _store_outcomes(ordered: list, outcomes, results: list) -> None:
    """Turn a slice's ``run_slice`` outcomes into its commands' results."""
    for (index, _), (value, error, forwards, spans) in zip(ordered, outcomes):
        results[index] = CommandResult(
            value=value, error=error, forwards=forwards, spans=spans
        )


class Executor(ABC):
    """Placement-agnostic execution backend for coalesced forwards."""

    #: Number of fingerprint shards (routing targets) this backend runs.
    num_shards: int = 1

    #: The versioned fingerprint → shard assignment in force.
    shard_map: ShardMap

    #: Duck-typed ops journal, installed by the service; backends with a
    #: lifecycle worth recording (worker respawns, crash-loop
    #: suppressions) write to it when present (``None`` = free).
    journal = None

    def shard_for(self, shard_key: str) -> int:
        """The shard owning ``shard_key`` (stable digest-slice routing)."""
        return self.shard_map.shard_for(shard_key)

    def apply_plan(self, plan: RebalancePlan) -> dict:
        """Act on a rebalance plan: re-place shards, swap the map.

        Implementations must apply the change atomically with respect to
        :meth:`run` — the serving layer additionally serializes both
        under its execution lock, so the swap always lands at a
        micro-batch boundary. Raises on a stale plan (``new_map.version``
        not above the current map's).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support placement changes"
        )

    def _check_plan(self, plan: RebalancePlan) -> ShardMap:
        if plan.new_map.version <= self.shard_map.version:
            raise ValueError(
                f"stale rebalance plan: map version {plan.new_map.version} "
                f"<= current {self.shard_map.version}"
            )
        return plan.new_map

    @abstractmethod
    def run(self, version: str, commands: list[Command]) -> list[CommandResult]:
        """Execute ``commands`` against checkpoint ``version``.

        Returns one :class:`CommandResult` per command, in order. A
        command failure lands in its result's ``error``; only a failure
        of the backend itself (e.g. an unknown version) may raise.
        """

    @abstractmethod
    def stats(self) -> dict:
        """Aggregated evaluator cache counters across shards."""

    def shard_stats(self) -> list[dict]:
        """Per-shard placement/liveness details (may be empty)."""
        return []

    def close(self) -> None:
        """Release backend resources; idempotent."""


class InThreadExecutor(Executor):
    """One evaluator per shard in the service's own process (the default).

    A live version is a list of evaluators, one per shard, each with its
    own memos and precompute cache. :meth:`run` groups a micro-batch's
    commands by shard and executes each shard's slice on
    ``evaluators[shard]`` through
    :func:`~repro.serving.workers.run_slice` — the function a
    :class:`ProcessShardExecutor` worker runs behind its ``slice`` verb,
    so the slice policy (all of a shard's tile commands share one
    ``score_tile_groups`` forward, each program command is one forward, a
    model error fails alone) exists once. The micro-batch, not the
    request, is the unit of work: a forward's fixed cost is paid once per
    shard per batch. Fusing changes the forward's batch shape, which moves
    scores only at float32 rounding level; a batch holding a single tile
    command per shard keeps its exact batch shape and is
    bitwise-identical to a direct ``score_tiles_batched``.

    Args:
        registry: source of checkpoints (the service shares its own).
        replicas: shard count — evaluators per live version
            (``ServiceConfig.replicas``).
        max_cached_kernels: per-shard precompute/feature memo bound
            (``ServiceConfig.max_cached_kernels``).
        shard_map: the routing table; ``None`` = uniform over
            ``replicas``.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        replicas: int,
        max_cached_kernels: int,
        shard_map: ShardMap | None = None,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.registry = registry
        self.shard_map = shard_map or ShardMap.uniform(replicas)
        self.num_shards = self.shard_map.num_shards
        self.max_cached_kernels = max_cached_kernels
        # Guards _pools: the serving thread LRU-touches it every batch
        # while metrics scrapes iterate it from other threads.
        self._pools_lock = threading.Lock()
        self._pools: OrderedDict[str, list[LearnedEvaluator]] = OrderedDict()

    def _replicas(self, checkpoint, count: int) -> list[LearnedEvaluator]:
        """``count`` fresh evaluators over ``checkpoint``'s ``model`` and
        ``scalers`` (a ``TrainResult``, or an evaluator already serving
        it), each with its own memos and precompute cache."""
        return [
            LearnedEvaluator(
                checkpoint.model,
                checkpoint.scalers,
                max_cached_kernels=self.max_cached_kernels,
            )
            for _ in range(count)
        ]

    def _pool_for(self, version: str) -> list[LearnedEvaluator]:
        with self._pools_lock:
            pool = self._pools.get(version)
            if pool is not None:
                lru_touch(self._pools, version, pool, MAX_LIVE_VERSIONS)
                return pool
        # Build outside the lock (deserializing a checkpoint is slow and
        # must not block metrics); a racing builder of the same version
        # just wastes one construction.
        pool = self._replicas(self.registry.get(version), self.num_shards)
        with self._pools_lock:
            pool = self._pools.get(version, pool)
            lru_touch(self._pools, version, pool, MAX_LIVE_VERSIONS)
            return pool

    def run(self, version: str, commands: list[Command]) -> list[CommandResult]:
        pool = self._pool_for(version)
        results: list[CommandResult | None] = [None] * len(commands)
        for shard, ordered in _slices(commands).items():
            tiles, tile_trace, programs = _slice_parts(ordered)
            outcomes = run_slice(
                pool[shard],
                [(c.kernel, list(c.tiles)) for c in tiles],
                tile_trace,
                [([list(k) for k in c.programs], c.trace) for c in programs],
                "replica",
                shard=shard,
            )
            _store_outcomes(ordered, outcomes, results)
        return results

    def stats(self) -> dict:
        with self._pools_lock:
            live = len(self._pools)
            evaluators = [e for pool in self._pools.values() for e in pool]
        total: dict[str, int] = {}
        for evaluator in evaluators:
            for key, value in evaluator.stats().items():
                total[key] = total.get(key, 0) + value
        total["live_versions"] = live
        return total

    def shard_stats(self) -> list[dict]:
        with self._pools_lock:
            # Most-recently-used version = the one that served last.
            current = next(reversed(self._pools)) if self._pools else None
            live = len(self._pools)
        return [
            {"shard": i, "placement": "thread", "alive": True,
             "version": current, "live_versions": live}
            for i in range(self.num_shards)
        ]

    def apply_plan(self, plan: RebalancePlan) -> dict:
        """Replica autoscaling + bucket moves for the in-thread executor.

        Every live version's evaluator list is cut or extended to the
        plan's shard count (a dropped replica takes its private memos
        with it), then the map swaps. Callers serialize against
        :meth:`run` (the service holds its execution lock for both), so
        a command annotated under one map never executes under another.
        """
        new_map = self._check_plan(plan)
        with self._pools_lock:
            pools = list(self._pools.values())
        # Growing builds evaluators (slow) — do it before taking the map
        # forward, outside the pools lock so metrics stay live.
        for pool in pools:
            del pool[new_map.num_shards:]
            pool.extend(self._replicas(pool[0], new_map.num_shards - len(pool)))
        with self._pools_lock:
            self.shard_map = new_map
            self.num_shards = new_map.num_shards
        return {
            "placement": "thread",
            "map_version": new_map.version,
            "num_shards": new_map.num_shards,
            "moves": len(plan.moves),
            "resized_pools": len(pools),
        }


@dataclass
class _Shard:
    """Parent-side state of one worker subprocess."""

    index: int
    process: object = None
    conn: object = None
    restarts: int = 0
    commands: int = 0
    #: Fingerprints the worker currently interns — steady-state requests
    #: for these ship without the (re-pickled) kernel graph attached.
    known: OrderedDict = field(default_factory=OrderedDict)
    #: Versions the worker holds a warm evaluator for, least recently
    #: used first (parent-side mirror of the worker's per-version LRU): a
    #: slice naming one of these is sent without shipping the blob first.
    #: The worker has no current version; every slice names its own.
    loaded: OrderedDict = field(default_factory=OrderedDict)
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Respawn suppression: a worker that dies on every boot must fail
    #: fast (the service degrades its requests) instead of spinning the
    #: spawn path hot. One successful round trip resets it.
    backoff: CrashLoopBackoff = field(default_factory=CrashLoopBackoff)

    @property
    def version(self) -> str | None:
        """The most recently used held version: what the worker last
        served (or, before its first slice, was last shipped)."""
        held = list(self.loaded)
        return held[-1] if held else None


class WorkerDiedError(RuntimeError):
    """A shard worker was unreachable even after a respawn."""


#: Pipe/worker failures that trigger a respawn + resync + retry.
_PIPE_ERRORS = (WorkerDiedError, EOFError, BrokenPipeError, OSError)


class ProcessShardExecutor(Executor):
    """Fingerprint shards in worker subprocesses — parallel forwards.

    Args:
        registry: source of checkpoint blobs shipped to workers.
        shards: worker process count (``ServiceConfig.replicas``).
        max_cached_kernels: per-worker evaluator cache / interning bound
            (``ServiceConfig.max_cached_kernels``).
        request_timeout_s: the dispatch watchdog — per-message reply
            deadline before a worker is declared *hung* and
            killed/respawned (``ServiceConfig.dispatch_timeout_s``). Pipe
            reads always use this bounded poll (never a blocking
            ``recv``), so a stopped-but-alive worker can stall one batch
            for at most this long, not forever.
        shard_map: the routing table; ``None`` = uniform over ``shards``.
        fault_injector: optional chaos harness
            (:class:`~repro.serving.faults.FaultInjector`). Fires
            ``executor.dispatch`` parent-side per shard per batch (kill =
            SIGKILL, hang = SIGSTOP — the parent-side counters persist
            across respawns, which worker-side rules cannot), filters
            checkpoint blobs through ``registry.load`` on the way to
            workers, and ships the plan's ``worker.`` subset into each
            spawned worker. ``None`` (default) adds zero overhead.

    Every shard's worker is spawned when the executor is built. A spawn
    returns in milliseconds and the child boots (a fresh interpreter
    importing the model path) on its own, so the workers boot alongside
    each other and alongside whatever the caller builds next — the
    service, a frontend, its clients — instead of one after another
    inside the first batch. :meth:`run` ships the batch's version to any
    shard not holding it (including a freshly respawned one) before that
    shard's slice, and the slice itself names the version, so a worker
    cannot execute a command on another checkpoint — the cross-process
    half of the hot-swap atomicity guarantee.

    Dispatch is two-phase per batch: every involved shard's whole slice
    is written to its pipe first as one ``slice`` message (workers start
    computing immediately, in parallel), then one reply per shard is
    collected. The worker executes the slice through
    :func:`~repro.serving.workers.run_slice` — the function
    :class:`InThreadExecutor` calls — so a shard's tile commands are
    *fused* into one multi-kernel forward and a model error is isolated
    where the forward ran: one pipe round trip per shard per batch,
    which is what amortizes the process boundary. Fusing changes the
    forward's batch shape, which moves scores only at float32 BLAS
    rounding level (the same trade micro-batch coalescing already
    makes); a batch holding a single tile command keeps its exact
    in-thread batch shape and stays bitwise-identical. Messages and
    replies are small relative to the pipe buffer, so the
    unacknowledged sends cannot deadlock.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        shards: int,
        max_cached_kernels: int,
        request_timeout_s: float,
        shard_map: ShardMap | None = None,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.registry = registry
        self.shard_map = shard_map or ShardMap.uniform(shards)
        self.num_shards = self.shard_map.num_shards
        self.max_cached_kernels = max_cached_kernels
        self.request_timeout_s = request_timeout_s
        self._faults = fault_injector
        worker_plan: FaultPlan | None = None
        if fault_injector is not None:
            worker_plan = fault_injector.plan.subset("worker.")
            if not worker_plan.rules:
                worker_plan = None
        self._worker_plan = worker_plan
        self._ctx = multiprocessing.get_context(START_METHOD)
        self._shards = [_Shard(index=i) for i in range(self.num_shards)]
        # Serializes migrations (the shard list and map are only mutated
        # under it); the slow spawn/sync phase runs with no shard lock
        # held, so serving continues on the old placement meanwhile.
        self._migrate_lock = threading.Lock()
        self._closed = False
        try:
            for shard in self._shards:
                with shard.lock:
                    self._spawn_locked(shard)
        except BaseException:
            # A failed spawn must not leak the workers already started.
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # worker lifecycle
    # ------------------------------------------------------------------ #

    @staticmethod
    def _stop_process(process) -> None:
        """Stop a worker process, escalating to SIGKILL.

        SIGTERM alone is not enough: a *stopped* (SIGSTOPped — the
        simulated-hang fault, or a genuinely wedged) process holds the
        signal pending and never dies, so after a grace join the kill is
        unconditional.
        """
        if process is None:
            return
        if process.is_alive():
            process.terminate()
            process.join(timeout=1)
        if process.is_alive():
            process.kill()
            process.join(timeout=5)

    def _spawn_locked(self, shard: _Shard) -> None:
        """(Re)start ``shard``'s worker; caller holds ``shard.lock``."""
        respawn = shard.process is not None
        if respawn:
            shard.restarts += 1
            try:
                shard.conn.close()
            except OSError:
                pass
            self._stop_process(shard.process)
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=shard_worker,
            args=(
                child_conn,
                self.max_cached_kernels,
                shard.index,
                self._worker_plan,
            ),
            name=f"cost-model-shard-{shard.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        shard.process = process
        shard.conn = parent_conn
        shard.known.clear()
        shard.loaded.clear()
        if respawn:
            record_event(
                self.journal,
                "worker.respawn",
                shard=shard.index,
                restarts=shard.restarts,
                pid=process.pid,
            )

    def _recv_locked(self, shard: _Shard):
        """Await one reply; raises on a dead or hung worker."""
        if not shard.conn.poll(self.request_timeout_s):
            raise WorkerDiedError(
                f"shard {shard.index} worker did not reply within "
                f"{self.request_timeout_s}s"
            )
        return shard.conn.recv()

    def _invalidate_locked(self, shard: _Shard) -> None:
        """Declare ``shard``'s pipe stream unusable after any failure.

        Killing the process (even if it is merely slow or hung, not
        dead) is what keeps the protocol in sync: a late reply from an
        abandoned command must never be mistaken for the ack of a later
        message, so the next :meth:`_sync_locked` always starts from a
        fresh process and a fresh pipe. Every invalidation also feeds
        the shard's crash-loop backoff — the respawn suppressor.
        """
        shard.loaded.clear()
        shard.backoff.record_failure()
        self._stop_process(shard.process)

    def _request_locked(self, shard: _Shard, message: tuple):
        """One send/recv round trip; raises on a dead or hung worker."""
        shard.conn.send(message)
        return self._recv_locked(shard)

    def _sync_locked(self, shard: _Shard, version: str) -> None:
        """Make ``shard``'s worker alive and holding ``version``."""
        if shard.process is None or not shard.process.is_alive():
            suppressed = shard.backoff.remaining()
            if suppressed > 0:
                record_event(
                    self.journal,
                    "worker.respawn_suppressed",
                    shard=shard.index,
                    remaining_s=suppressed,
                    failures=shard.backoff.failures,
                )
                raise WorkerDiedError(
                    f"shard {shard.index} respawn suppressed for "
                    f"{suppressed:.2f}s (crash-loop backoff after "
                    f"{shard.backoff.failures} consecutive failures)"
                )
            self._spawn_locked(shard)
        if version not in shard.loaded:
            self._ship_locked(shard, version)

    def _ship_locked(self, shard: _Shard, version: str) -> None:
        """Ship ``version``'s blob for the worker to hold warm (``load``)."""
        blob = self.registry.blob(version)
        if self._faults is not None:
            blob = self._faults.filter_blob(
                "registry.load", blob, shard=shard.index
            )
        reply = self._request_locked(shard, ("load", version, blob))
        if reply[0] != "ok":
            raise WorkerDiedError(
                f"shard {shard.index} failed to load {version}: {reply[1]}"
            )
        lru_touch(shard.loaded, version, True, MAX_LIVE_VERSIONS)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    @staticmethod
    def _tile_entry(command: TileCommand, shard: _Shard, force: bool) -> tuple:
        """Wire entry for one tile command: dims cross the pipe, not
        TileConfig objects (cheaper to pickle); the kernel rides along
        only when the worker has not interned it."""
        fingerprint = command.kernel.fingerprint()
        payload = (
            command.kernel
            if force or fingerprint not in shard.known
            else None
        )
        return (fingerprint, payload, [t.dims for t in command.tiles])

    @staticmethod
    def _program_entries(command: ProgramCommand, shard: _Shard, force: bool):
        """Wire entries for one program command: every kernel crosses as
        ``(fingerprint, kernel_or_None)``, interned like tile kernels —
        fusion-tuner populations re-price the same kernels constantly."""
        return tuple(
            tuple(
                (
                    k.fingerprint(),
                    k
                    if force or k.fingerprint() not in shard.known
                    else None,
                )
                for k in kernels
            )
            for kernels in command.programs
        )

    def _send_slice_locked(
        self, shard: _Shard, version: str, ordered, force: bool = False
    ) -> None:
        """Write a shard's whole slice to its pipe as one ``slice`` message
        naming the ``version`` that runs it.

        Kernels ride along when ``force``, else only where the worker has
        not interned them. Nothing is awaited here, so every involved
        shard's worker starts computing before any reply is read.
        """
        tiles, tile_trace, programs = _slice_parts(ordered)
        shard.conn.send((
            "slice",
            version,
            [self._tile_entry(c, shard, force) for c in tiles],
            tile_trace,
            [(self._program_entries(c, shard, force), c.trace) for c in programs],
        ))

    def _recv_slice_locked(
        self,
        shard: _Shard,
        version: str,
        ordered,
        results: list[CommandResult | None],
    ) -> None:
        """Collect the reply to a sent slice into its commands' results."""
        reply = self._recv_locked(shard)
        if reply[0] == "stale":
            # The worker's per-version LRU no longer holds the version:
            # ship it and resend the slice as it was.
            shard.loaded.pop(version, None)
            self._ship_locked(shard, version)
            self._send_slice_locked(shard, version, ordered)
            reply = self._recv_locked(shard)
        if reply[0] == "miss":
            # The worker evicted some referenced kernels from its
            # interning map: resend the whole slice, every kernel attached.
            for fingerprint in reply[1]:
                shard.known.pop(fingerprint, None)
            self._send_slice_locked(shard, version, ordered, force=True)
            reply = self._recv_locked(shard)
        if reply[0] == "ok":
            outcomes = reply[1]
            lru_touch(shard.loaded, version, True, MAX_LIVE_VERSIONS)
            # Mirror the worker's interning LRU: same kernels, same order.
            for _, command in ordered:
                programs = (
                    ((command.kernel,),)
                    if isinstance(command, TileCommand)
                    else command.programs
                )
                for kernel in (k for kernels in programs for k in kernels):
                    lru_touch(
                        shard.known, kernel.fingerprint(), True,
                        self.max_cached_kernels,
                    )
        else:
            message = (
                str(reply[1])
                if reply[0] == "err"
                else f"slice retry failed: {reply[0]} {reply[1]!r}"
            )
            outcomes = [(None, message, 0, ())] * len(ordered)
        _store_outcomes(ordered, outcomes, results)
        shard.commands += len(ordered)

    def _fallback_locked(
        self,
        shard: _Shard,
        version: str,
        ordered,
        results: list[CommandResult | None],
    ) -> None:
        """Second attempt, one command at a time on a fresh worker.

        Entered after a pipe failure: the worker died (or was killed)
        mid-flight, so none of the slice's replies arrived. Each retry
        ships `version` to the respawned worker first and names it in the
        slice, so a killed worker can never come back serving a stale
        checkpoint.
        """
        for position, item in enumerate(ordered):
            try:
                self._sync_locked(shard, version)
                self._send_slice_locked(shard, version, [item])
                self._recv_slice_locked(shard, version, [item], results)
                shard.backoff.record_success()
            except _PIPE_ERRORS:
                self._invalidate_locked(shard)
                message = (
                    f"shard {shard.index} worker died twice on one "
                    f"batch:\n{traceback.format_exc()}"
                )
                for index, _ in ordered[position:]:
                    results[index] = CommandResult(error=message, infra=True)
                return

    def run(self, version: str, commands: list[Command]) -> list[CommandResult]:
        if self._closed:
            raise RuntimeError("executor is closed")
        per_shard = _slices(commands)
        results: list[CommandResult | None] = [None] * len(commands)
        # Two-phase dispatch on the caller's thread: send every shard its
        # whole slice first (workers start computing immediately, in
        # parallel), then collect replies shard by shard. No dispatcher
        # threads, no cross-thread signaling — the caller only blocks on
        # pipe IO, with the GIL released, while workers compute.
        # Locks are taken in shard order (deadlock-free vs. stats()).
        acquired: list[_Shard] = []
        try:
            for shard_index in sorted(per_shard):
                shard = self._shards[shard_index]
                shard.lock.acquire()
                acquired.append(shard)
            sent: set[int] = set()
            for shard in acquired:
                try:
                    self._sync_locked(shard, version)
                    if self._faults is not None:
                        self._dispatch_fault_locked(shard)
                    self._send_slice_locked(
                        shard, version, per_shard[shard.index]
                    )
                    sent.add(shard.index)
                except _PIPE_ERRORS:
                    self._invalidate_locked(shard)
            for shard in acquired:
                if shard.index in sent:
                    try:
                        self._recv_slice_locked(
                            shard, version, per_shard[shard.index], results
                        )
                        shard.backoff.record_success()
                        continue
                    except _PIPE_ERRORS:
                        self._invalidate_locked(shard)
                self._fallback_locked(
                    shard, version, per_shard[shard.index], results
                )
        finally:
            for shard in acquired:
                shard.lock.release()
        return [
            result
            if result is not None
            else CommandResult(error="command was not dispatched", infra=True)
            for result in results
        ]

    def _dispatch_fault_locked(self, shard: _Shard) -> None:
        """Fire the ``executor.dispatch`` chaos hook against one shard.

        Runs parent-side, between version ship and batch send: ``kill``
        SIGKILLs the worker mid-batch (the send/recv path then sees a
        dead pipe), ``hang`` SIGSTOPs it — alive but unresponsive, the
        exact failure the bounded-poll watchdog exists for (teardown
        later escalates to SIGKILL, since a stopped process ignores
        SIGTERM) — and ``delay`` sleeps the dispatcher.
        """
        rule = self._faults.fire("executor.dispatch", shard=shard.index)
        if rule is None:
            return
        if rule.kind in ("kill", "hang"):
            if shard.process is None or not shard.process.is_alive():
                return
            sig = signal.SIGKILL if rule.kind == "kill" else signal.SIGSTOP
            try:
                os.kill(shard.process.pid, sig)
            except (OSError, ProcessLookupError):
                pass
        else:
            FaultInjector.maybe_delay(rule)

    # ------------------------------------------------------------------ #
    # placement migration
    # ------------------------------------------------------------------ #

    def _sync_new_shard_locked(self, shard: _Shard) -> int:
        """Spawn ``shard``'s worker and ship it every live registry version.

        Staged first, active last, so the worker's per-version LRU ends
        like a long-lived one's mid-rollout: both warm, active the most
        recently used. Returns the number of checkpoint blobs shipped.
        """
        versions = self.registry.live_versions
        if not versions:
            return 0
        self._spawn_locked(shard)
        for version in reversed(versions):
            self._ship_locked(shard, version)
        return len(versions)

    def _retire_shard_locked(self, shard: _Shard) -> None:
        """Drain and stop a shard whose assignment the plan removed.

        The caller holds the shard's lock, so no command is in flight —
        the worker's queue is empty by construction and a clean ``exit``
        *is* the drain. Escalates to terminate only on a hung worker.
        """
        if shard.process is None:
            return
        try:
            shard.conn.send(("exit",))
        except (BrokenPipeError, OSError):
            pass
        shard.process.join(timeout=2)
        self._stop_process(shard.process)
        try:
            shard.conn.close()
        except OSError:
            pass
        shard.process = None
        shard.conn = None
        shard.known.clear()
        shard.loaded.clear()

    def apply_plan(self, plan: RebalancePlan) -> dict:
        """Version-safe live migration: spawn, sync, swap, drain.

        Ordering is what makes this safe — and cheap — under traffic:

        1. shards the plan adds are spawned and shipped every live
           registry version (active and staged) with **no
           serving lock held**: they are unroutable until the map swaps,
           so the old placement keeps serving while the slow work
           (process boot, blob deserialize) happens off to the side;
        2. every shard's lock is then taken (index order, the same order
           :meth:`run` uses) — in-flight batches finish first and no new
           command can dispatch mid-swap;
        3. the shard map swaps — a single reference assignment, so the
           next batch routes by the new table against fully warm workers;
        4. shards the plan removed are drained (their queues are empty
           under the held locks) and stopped.

        No response is dropped (nothing in flight crosses the swap), no
        batch mixes versions (every slice names its own), and
        numerics cannot move: every worker serves the same checkpoint
        bytes, so *which* worker executes a command is unobservable in
        the scores.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        with self._migrate_lock:
            new_map = self._check_plan(plan)
            new_count = new_map.num_shards
            new_shards: list[_Shard] = []
            blobs_synced = 0
            try:
                for index in range(len(self._shards), new_count):
                    shard = _Shard(index=index)
                    with shard.lock:
                        blobs_synced += self._sync_new_shard_locked(shard)
                    new_shards.append(shard)
            except BaseException:
                # A failed sync must not leak the workers already booted.
                for shard in new_shards:
                    with shard.lock:
                        self._retire_shard_locked(shard)
                raise
            acquired: list[_Shard] = []
            try:
                for shard in list(self._shards):
                    shard.lock.acquire()
                    acquired.append(shard)
                for shard in new_shards:
                    shard.lock.acquire()
                    acquired.append(shard)
                    self._shards.append(shard)
                retired = self._shards[new_count:]
                del self._shards[new_count:]
                self.shard_map = new_map
                self.num_shards = new_count
                for shard in retired:
                    self._retire_shard_locked(shard)
            finally:
                for shard in acquired:
                    shard.lock.release()
        return {
            "placement": "process",
            "map_version": new_map.version,
            "num_shards": new_count,
            "moves": len(plan.moves),
            "workers_spawned": len(new_shards),
            "blobs_synced": blobs_synced,
            "workers_retired": len(retired),
        }

    # ------------------------------------------------------------------ #
    # observability / lifecycle
    # ------------------------------------------------------------------ #

    def _worker_stats(self, shard: _Shard) -> dict | None:
        with shard.lock:
            if shard.process is None or not shard.process.is_alive():
                return None
            try:
                reply = self._request_locked(shard, ("stats",))
            except (WorkerDiedError, EOFError, BrokenPipeError, OSError):
                return None
        return reply[1] if reply[0] == "ok" else None

    def stats(self) -> dict:
        """Summed evaluator cache counters across live workers."""
        # Snapshot: a concurrent migration may grow/shrink the list.
        shards = list(self._shards)
        total: dict[str, int] = {}
        for shard in shards:
            payload = self._worker_stats(shard)
            if not payload:
                continue
            for key, value in payload.items():
                if isinstance(value, (int, float)):
                    total[key] = total.get(key, 0) + value
        # Held versions are the same few on every shard: count them, do
        # not add them up (the in-thread executor reads the same number).
        total["live_versions"] = len({v for s in shards for v in list(s.loaded)})
        total["worker_restarts"] = sum(s.restarts for s in shards)
        return total

    def shard_stats(self) -> list[dict]:
        return [
            {
                "shard": shard.index,
                "placement": "process",
                "alive": shard.process is not None and shard.process.is_alive(),
                "version": shard.version,
                "restarts": shard.restarts,
                "commands": shard.commands,
                "known_kernels": len(shard.known),
                "live_versions": len(shard.loaded),
                "backoff_failures": shard.backoff.failures,
                "backoff_remaining_s": shard.backoff.remaining(),
            }
            for shard in list(self._shards)
        ]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in list(self._shards):
            with shard.lock:
                self._retire_shard_locked(shard)
