"""Shard worker: the subprocess half of :class:`ProcessShardExecutor`.

Each worker owns one fingerprint-shard of the kernel population: a private
:class:`~repro.autotuner.LearnedEvaluator` (with its feature/prediction
memos and precompute cache) rebuilt from checkpoint blob bytes whenever
the parent ships a new version. Workers communicate over a
``multiprocessing`` pipe with small tagged tuples:

* ``("load", version, blob)`` — deserialize ``blob`` (the exact bytes of
  :meth:`ModelRegistry.blob`) and serve it; replies ``("ok", version)``.
  Evaluators are kept per version in a small LRU (``MAX_LIVE_VERSIONS``),
  so a rollout alternating active- and staged-version batches reuses
  warm state instead of rebuilding the model every switch.
* ``("use", version)`` — switch to an already-loaded version's warm
  evaluator without shipping the blob again; replies ``("ok", version)``
  or ``("miss", version)`` when the LRU evicted it (the parent then falls
  back to a full ``load`` — the same miss/retry contract as kernel
  interning).
* ``("warm", version, blob)`` — deserialize ``blob`` into the per-version
  LRU **without** switching the current evaluator; replies
  ``("ok", version)``. Placement migrations use this to sync a freshly
  spawned shard worker to every live (active + staged) version before
  the shard map swaps traffic onto it.
* ``("tile_batch", entries)`` — score several kernels' candidate tiles
  in **one** fused multi-kernel forward (``entries`` is a list of
  ``(fingerprint, kernel_or_None, dims_list)``; tile configs cross the
  pipe as raw dims tuples); replies ``("ok", arrays)`` with one score
  array per entry. Kernels are *interned* by fingerprint on first sight
  so the steady-state request carries only the fingerprint string
  instead of a re-pickled graph; a worker that has evicted one replies
  ``("miss", fingerprints)`` listing every unresolved kernel and the
  parent retries with the kernels attached. This is the shard's
  batching policy: a whole micro-batch slice costs one forward and one
  pipe round trip (the post-crash retry sends one-entry batches).
* ``("programs", entries)`` — price candidate programs; every kernel
  crosses as ``(fingerprint, kernel_or_None)`` through the same
  interning, with ``("miss", fingerprints)`` listing unresolved kernels.
* ``("stats", )`` — evaluator cache counters + interning size.
* ``("exit", )`` — clean shutdown.

The two forward-executing ops (``tile_batch``, ``programs``) accept an
optional trailing ``(trace_id, parent_span_id)`` telemetry token; when
present the reply carries a third element — a list of plain span dicts
timing the forward inside this process — which the parent records into
its tracer. Untraced messages and replies keep their exact
pre-telemetry shapes.

Replies are ``("ok", value)`` / ``("err", traceback_string)`` /
``("miss", fingerprints)``. Score arrays cross the pipe as pickled numpy
arrays — dtype and bytes preserved exactly, which is what keeps
process-sharded serving bitwise-identical to in-thread serving at equal
batch shape.

The module is import-light at top level so a ``spawn``-started worker
boots quickly; heavyweight imports happen inside :func:`shard_worker`.
"""
from __future__ import annotations

from collections import OrderedDict

MAX_LIVE_VERSIONS = 2
"""Warm checkpoint versions kept concurrently (LRU) by each worker and
each executor: active + staged, the rollout pair — alternating versions
between micro-batches then costs a one-word ``use`` message (or a pool
lookup) instead of re-shipping and re-deserializing the blob."""


def shard_worker(
    conn,
    max_cached_kernels: int = 1024,
    shard_index: int = 0,
    fault_plan=None,
) -> None:
    """Serve shard requests on ``conn`` until EOF or an ``exit`` message.

    Args:
        conn: child end of a ``multiprocessing.Pipe``.
        max_cached_kernels: evaluator cache bound, and the bound on the
            fingerprint -> kernel interning map.
        shard_index: this worker's shard number (fault-rule targeting).
        fault_plan: optional :class:`~repro.serving.faults.FaultPlan`
            restricted to ``worker.`` hooks; a fresh injector is built
            per process (counters restart with each respawn — exact
            cross-respawn fault counts belong on the parent-side hooks).
    """
    import os
    import time
    import traceback

    import numpy as np

    from ..autotuner.evaluators import LearnedEvaluator
    from ..compiler.tiling import TileConfig
    from .protocol import lru_touch

    injector = None
    if fault_plan is not None and fault_plan.rules:
        from .faults import FaultInjector

        injector = FaultInjector(fault_plan)

    def forward_fault() -> None:
        """Fire ``worker.forward`` before a forward-executing op: ``kill``
        exits the process mid-request (the parent sees a dead pipe),
        ``hang`` sleeps ``delay_s`` (or effectively forever — the
        parent's watchdog resolves it), ``delay`` adds latency."""
        rule = injector.fire("worker.forward", shard=shard_index)
        if rule is None:
            return
        if rule.kind == "kill":
            os._exit(1)
        elif rule.kind == "hang":
            time.sleep(rule.delay_s or 3600.0)
        elif rule.kind == "delay" and rule.delay_s > 0:
            time.sleep(rule.delay_s)

    def tile_configs(dims_list):
        """Rebuild TileConfigs from the raw dims tuples on the wire."""
        return [TileConfig(dims=tuple(d)) for d in dims_list]

    def forward_span(trace, started, op):
        """A plain span dict for one traced forward — the worker never
        holds a tracer; the parent re-parents this into each sampled
        request's trace via ``Tracer.record_raw``."""
        return {
            "trace_id": trace[0],
            "parent_id": trace[1],
            "name": "worker.forward",
            "start": started,
            "end": time.time(),
            "process": f"worker-{shard_index}",
            "attrs": {"pid": os.getpid(), "op": op},
        }

    def ok_reply(value, trace, started, op):
        """``("ok", value)`` — plus the forward span for traced messages.
        Untraced replies keep the exact pre-telemetry two-tuple shape."""
        if trace is None:
            return ("ok", value)
        return ("ok", value, [forward_span(trace, started, op)])

    evaluator: LearnedEvaluator | None = None
    version: str | None = None
    evaluators: OrderedDict[str, LearnedEvaluator] = OrderedDict()
    interned: OrderedDict[str, object] = OrderedDict()

    def intern(fingerprint, kernel):
        """Remember ``kernel`` under ``fingerprint`` (LRU-bounded)."""
        if kernel is None:
            kernel = interned.get(fingerprint)
            if kernel is None:
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
                _, new_version, blob = message
                evaluator = LearnedEvaluator.from_checkpoint_bytes(
                    blob, max_cached_kernels=max_cached_kernels
                )
                lru_touch(evaluators, new_version, evaluator, MAX_LIVE_VERSIONS)
                version = new_version
                conn.send(("ok", version))
            elif op == "warm":
                _, warm_version, blob = message
                warmed = evaluators.get(warm_version)
                if warmed is None:
                    warmed = LearnedEvaluator.from_checkpoint_bytes(
                        blob, max_cached_kernels=max_cached_kernels
                    )
                lru_touch(evaluators, warm_version, warmed, MAX_LIVE_VERSIONS)
                if version is not None and version not in evaluators:
                    # Never let warming evict the version that is
                    # currently serving: re-touch it most-recent.
                    lru_touch(evaluators, version, evaluator, MAX_LIVE_VERSIONS)
                conn.send(("ok", warm_version))
            elif op == "use":
                _, target = message
                cached = evaluators.get(target)
                if cached is None:
                    conn.send(("miss", target))
                    continue
                lru_touch(evaluators, target, cached, MAX_LIVE_VERSIONS)
                evaluator = cached
                version = target
                conn.send(("ok", version))
            elif op == "tile_batch":
                # A 3rd element is the optional (trace_id, parent_span)
                # token — absent on untraced messages (old shape).
                _, entries = message[:2]
                trace = message[2] if len(message) > 2 else None
                resolved: list[tuple[object, list]] = []
                missing: list[str] = []
                for fingerprint, kernel, dims_list in entries:
                    kernel = intern(fingerprint, kernel)
                    if kernel is None:
                        missing.append(fingerprint)
                    else:
                        resolved.append((kernel, tile_configs(dims_list)))
                if missing:
                    conn.send(("miss", missing))
                    continue
                if evaluator is None:
                    conn.send(("err", "no checkpoint loaded"))
                    continue
                if injector is not None:
                    forward_fault()
                started = time.time() if trace is not None else 0.0
                arrays = evaluator.score_tile_groups(resolved)
                conn.send(ok_reply(
                    [np.asarray(a) for a in arrays], trace, started, op
                ))
            elif op == "programs":
                _, entries = message[:2]
                trace = message[2] if len(message) > 2 else None
                programs = []
                missing: list[str] = []
                for kernel_entries in entries:
                    resolved = []
                    for fingerprint, kernel in kernel_entries:
                        kernel = intern(fingerprint, kernel)
                        if kernel is None:
                            missing.append(fingerprint)
                        else:
                            resolved.append(kernel)
                    programs.append(resolved)
                if missing:
                    conn.send(("miss", missing))
                    continue
                if evaluator is None:
                    conn.send(("err", "no checkpoint loaded"))
                    continue
                if injector is not None:
                    forward_fault()
                started = time.time() if trace is not None else 0.0
                runtimes = evaluator.program_runtimes_batched(programs)
                conn.send(ok_reply(np.asarray(runtimes), trace, started, op))
            elif op == "stats":
                payload = dict(evaluator.stats()) if evaluator is not None else {}
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
