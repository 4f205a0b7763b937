"""Shard worker: the subprocess half of :class:`ProcessShardExecutor`.

Each worker owns one fingerprint-shard of the kernel population: per
checkpoint version a private :class:`~repro.autotuner.LearnedEvaluator`
(with its feature/prediction memos and precompute cache), built from the
blob bytes the parent ships and kept in a small LRU
(``MAX_LIVE_VERSIONS``). A worker has no *current* version: every slice
names the version that runs it. Workers communicate over a
``multiprocessing`` pipe with small tagged tuples:

* ``("load", version, blob)`` — hold a warm evaluator for ``version``:
  deserialize ``blob`` (the exact bytes of :meth:`ModelRegistry.blob`)
  unless the LRU already holds that version, mark it most recently used,
  reply ``("ok", version)``.
* ``("slice", version, tile_entries, tile_trace, program_sets)`` — execute
  one shard's whole slice of a micro-batch on ``version``'s evaluator
  through :func:`run_slice`, the only forward-executing verb. A version
  the LRU does not hold (never loaded, or evicted) is answered with the
  tag ``stale`` and the version before anything else happens — nothing
  interned, no fault hook, no forward — and the parent ships the blob and
  resends the slice as it was: the same miss → resend contract as a
  kernel.
  ``tile_entries`` is a list of
  ``(fingerprint, kernel_or_None, dims_list)`` (tile configs cross the
  pipe as raw dims tuples) scored in **one** fused multi-kernel forward;
  ``program_sets`` is a list of ``(program_entries, trace)``, one forward
  each, every kernel crossing as ``(fingerprint, kernel_or_None)``.
  Kernels are *interned* by fingerprint on first sight, so the
  steady-state request carries only the fingerprint string instead of a
  re-pickled graph. Every entry is resolved through the interning map
  before any fault hook or forward runs: a worker that has evicted one
  replies ``("miss", fingerprints)`` listing every unresolved kernel, and
  the parent resends the whole slice with every kernel attached.
  Otherwise the reply is ``("ok", outcomes)``: one
  ``(value, error, forwards, spans)`` per tile entry, then one per
  program set — the fields of a ``CommandResult``. A model error is an
  *outcome*, not an ``err`` reply: it costs only the entry that raised.
  This is the shard's batching policy: a micro-batch costs a shard one
  message and one reply, whichever version the previous batch ran on
  (the post-crash retry sends one-command slices).
* ``("stats", )`` — cache counters of the evaluator that served last,
  its version, the interning size and the number of versions held.
* ``("exit", )`` — clean shutdown.

``tile_trace`` and each program set's ``trace`` are optional
``(trace_id, parent_span_id)`` telemetry tokens; a traced forward's
outcomes carry one plain span dict timing the forward inside this process
(:func:`forward_span`), which the parent records into its tracer.

Other replies are ``("ok", value)`` / ``("err", traceback_string)`` — an
``err`` to a ``slice`` means the slice as a whole could not run (a
malformed message, a fault hook raising). Score arrays cross the pipe as
pickled numpy arrays — dtype and bytes preserved exactly, which is what
keeps process-sharded serving bitwise-identical to in-thread serving at
equal batch shape.

Both executors execute a slice through :func:`run_slice` — in a worker
behind the ``slice`` verb, in-thread on the shard's evaluator — so the
slice policy (what shares a forward, what a traced forward reports, who
accounts for it, how a model error is isolated) is written once.
"""
from __future__ import annotations

import os
import time
import traceback
from collections import OrderedDict

import numpy as np

from ..autotuner.evaluators import LearnedEvaluator
from ..compiler.tiling import TileConfig
from .faults import FaultInjector
from .protocol import lru_touch

MAX_LIVE_VERSIONS = 2
"""Warm checkpoint versions kept concurrently (LRU) by each worker and
each executor: active + staged, the rollout pair — alternating versions
between micro-batches then costs a dictionary lookup instead of
re-shipping and re-deserializing the blob."""


def forward_span(trace: tuple, started: float, process: str, **attrs) -> dict:
    """A plain span dict for one traced forward, ending now.

    ``trace`` is the ``(trace_id, parent_span_id)`` token of a command;
    the dict is a :attr:`CommandResult.spans` entry, which the service
    re-parents into each sampled request's trace (a worker never holds a
    tracer). ``process`` says where the forward ran: ``"replica"``
    in-thread, ``"worker-N"`` in a shard subprocess.
    """
    return {
        "trace_id": trace[0],
        "parent_id": trace[1],
        "name": "worker.forward",
        "start": started,
        "end": time.time(),
        "process": process,
        "attrs": {"pid": os.getpid(), **attrs},
    }


def run_slice(
    evaluator,
    tile_groups,
    tile_trace,
    program_sets,
    process: str,
    before_forward=None,
    **span_attrs,
) -> list[tuple]:
    """Execute one shard's slice of a micro-batch on ``evaluator``.

    All ``(kernel, tiles)`` entries of ``tile_groups`` share one
    ``score_tile_groups`` forward; each ``(programs, trace)`` entry of
    ``program_sets`` is one ``program_runtimes_batched`` forward. Returns
    one ``(value, error, forwards, spans)`` outcome per tile group, then
    one per program set — the fields of a ``CommandResult``:

    * the first group of a shared forward accounts for it (``forwards``
      1, the rest 0); an outcome carrying an error accounts for none;
    * a forward traced by ``tile_trace`` / a set's ``trace`` reports one
      :func:`forward_span` (``process``, ``span_attrs``), and every group
      that rode in the forward carries it;
    * a model error is the request's own fault: a shared forward that
      raises is re-run group by group, so only the offender carries the
      traceback.

    ``before_forward`` (the worker's ``worker.forward`` fault hook) runs
    before every forward attempted, isolation re-runs included; what it
    raises is not a model error and propagates.
    """

    def attempt(trace, forward):
        """One forward: ``(value, None, spans)`` or ``(None, traceback, ())``."""
        if before_forward is not None:
            before_forward()
        started = time.time() if trace is not None else 0.0
        try:
            value = forward()
        except Exception:
            return None, traceback.format_exc(), ()
        if trace is None:
            return value, None, ()
        return value, None, (forward_span(trace, started, process, **span_attrs),)

    def score(groups):
        arrays, error, spans = attempt(
            tile_trace, lambda: evaluator.score_tile_groups(groups)
        )
        if error is None:
            return [
                (np.asarray(array), None, 1 if position == 0 else 0, spans)
                for position, array in enumerate(arrays)
            ]
        if len(groups) == 1:
            return [(None, error, 0, ())]
        return [outcome for group in groups for outcome in score([group])]

    outcomes = score(list(tile_groups)) if tile_groups else []
    for programs, trace in program_sets:
        value, error, spans = attempt(
            trace, lambda: evaluator.program_runtimes_batched(programs)
        )
        outcomes.append(
            (np.asarray(value), None, 1, spans)
            if error is None
            else (None, error, 0, ())
        )
    return outcomes


def shard_worker(conn, max_cached_kernels: int, shard_index: int, fault_plan) -> None:
    """Serve shard requests on ``conn`` until EOF or an ``exit`` message.

    Args:
        conn: child end of a ``multiprocessing.Pipe``.
        max_cached_kernels: evaluator cache bound, and the bound on the
            fingerprint -> kernel interning map (the executor's, which is
            the service's).
        shard_index: this worker's shard number (fault-rule targeting).
        fault_plan: a :class:`~repro.serving.faults.FaultPlan` restricted
            to ``worker.`` hooks, or ``None``; a fresh injector is built
            per process (counters restart with each respawn — exact
            cross-respawn fault counts belong on the parent-side hooks).
    """
    injector = None
    if fault_plan is not None and fault_plan.rules:
        injector = FaultInjector(fault_plan)

    def forward_fault() -> None:
        """Fire ``worker.forward`` before a forward: ``kill`` exits the
        process mid-request (the parent sees a dead pipe), ``hang``
        sleeps ``delay_s`` (or effectively forever — the parent's
        watchdog resolves it), ``delay`` adds latency."""
        rule = injector.fire("worker.forward", shard=shard_index)
        if rule is None:
            return
        if rule.kind == "kill":
            os._exit(1)
        elif rule.kind == "hang":
            time.sleep(rule.delay_s or 3600.0)
        elif rule.kind == "delay" and rule.delay_s > 0:
            time.sleep(rule.delay_s)

    #: The version the last executed slice ran on (a statistic).
    version: str | None = None
    evaluators: OrderedDict[str, LearnedEvaluator] = OrderedDict()
    interned: OrderedDict[str, object] = OrderedDict()

    def intern(fingerprint, kernel, missing):
        """``kernel``, remembered under ``fingerprint`` (LRU-bounded) — or
        the one remembered there; an unresolved fingerprint joins
        ``missing``."""
        if kernel is None:
            kernel = interned.get(fingerprint)
            if kernel is None:
                missing.append(fingerprint)
                return None
        lru_touch(interned, fingerprint, kernel, max_cached_kernels)
        return kernel

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        op = message[0]
        try:
            if op == "load":
                _, loaded, blob = message
                held = evaluators.get(loaded)
                if held is None:
                    held = LearnedEvaluator.from_checkpoint_bytes(
                        blob, max_cached_kernels=max_cached_kernels
                    )
                lru_touch(evaluators, loaded, held, MAX_LIVE_VERSIONS)
                conn.send(("ok", loaded))
            elif op == "slice":
                _, asked, tile_entries, tile_trace, program_entries = message
                evaluator = evaluators.get(asked)
                if evaluator is None:
                    conn.send(("stale", asked))
                    continue
                lru_touch(evaluators, asked, evaluator, MAX_LIVE_VERSIONS)
                missing: list[str] = []
                tile_groups = [
                    (
                        intern(fingerprint, kernel, missing),
                        [TileConfig(dims=tuple(d)) for d in dims_list],
                    )
                    for fingerprint, kernel, dims_list in tile_entries
                ]
                program_sets = [
                    (
                        [
                            [intern(fingerprint, k, missing) for fingerprint, k in kernels]
                            for kernels in programs
                        ],
                        trace,
                    )
                    for programs, trace in program_entries
                ]
                if missing:
                    conn.send(("miss", missing))
                else:
                    version = asked
                    conn.send(("ok", run_slice(
                        evaluator,
                        tile_groups,
                        tile_trace,
                        program_sets,
                        f"worker-{shard_index}",
                        before_forward=forward_fault if injector is not None else None,
                        shard=shard_index,
                    )))
            elif op == "stats":
                served = evaluators.get(version)
                payload = dict(served.stats()) if served is not None else {}
                payload["interned_kernels"] = len(interned)
                payload["version"] = version
                payload["live_versions"] = len(evaluators)
                conn.send(("ok", payload))
            elif op == "exit":
                return
            else:
                conn.send(("err", f"unknown worker op {op!r}"))
        except Exception:
            try:
                conn.send(("err", traceback.format_exc()))
            except (BrokenPipeError, OSError):
                return
