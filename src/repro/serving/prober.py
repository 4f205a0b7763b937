"""Synthetic probing: known-answer verification of every live route.

Passive observability can only describe traffic that already
happened; a silently-corrupt checkpoint on one shard or a dead route is
discovered by the first *real* request that hits it. Production
detectors close this gap with continuous known-source calibration
injections — signals with a known answer, driven through every channel
of the live system, verified on the way out (cf. the LZ calibration
systems, arXiv:2406.12874). This module is that pattern for the
cost-model service.

A :class:`SyntheticProber` holds a small **golden-kernel corpus**: real
kernels with fixed candidate tiles whose reference scores are computed
once per live registry version against a direct
:class:`~repro.autotuner.LearnedEvaluator` built from the version's own
sealed blob — at equal batch shape, so a healthy route answers
**bitwise-identically**. Each sweep drives one probe per corpus entry
through every registered frontend transport; the probe rides the
ordinary wire as a backwards-compatible ``synthetic=True`` tag, so the
scheduler coalesces it like business traffic while the service excludes
it from business stats, the SLO window, feedback joins, and the result
cache (see ``protocol.py`` / ``service.py``).

The **route matrix** is frontend kind × executor shard × live registry
version (active *and* staged, through the existing rollout chooser —
the prober never forces routing, it predicts the chooser's choice and
verifies whichever version actually served). Verification is
known-answer: bitwise at equal batch shape, a tight ``allclose`` when
coalescing/fusion changed the batch shape (float32 BLAS rounding), and
a typed-error or ``degraded=True`` outcome is recorded as a **route
failure** — an outage the analytical fallback papers over for clients
is exactly what a probe must still catch.

Probe verdicts land in their own ``prober_*`` telemetry family
(labeled per-route members), failures are journaled (``probe.failure``
with the journal seq the incident reporter correlates on), and the
whole prober follows the stack's ``None``-hook discipline: a service
without one answers bitwise-identically.
"""
from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from ..autotuner.evaluators import LearnedEvaluator
from ..compiler.kernels import Kernel
from ..compiler.tiling import TileConfig
from .journal import record_event
from .protocol import TileScoresRequest

__all__ = ["GoldenProbe", "SyntheticProber"]

#: Sweep cadence of :meth:`SyntheticProber.start`; for another cadence,
#: call :meth:`SyntheticProber.sweep` from your own loop.
PROBE_INTERVAL_S = 1.0

#: Per-probe response wait.
PROBE_TIMEOUT_S = 30.0

#: The ``allclose`` tolerance a probe is held to when coalescing or fusion
#: changed its batch shape (float32 BLAS rounding); a regressed or corrupt
#: checkpoint moves scores orders of magnitude past it.
PROBE_RTOL = 1e-3
PROBE_ATOL = 1e-6


@dataclass(frozen=True)
class GoldenProbe:
    """One corpus entry: a kernel plus the fixed candidate tiles to rank.

    The tiles are part of the identity — the reference is computed for
    exactly this (kernel, tiles) pair at exactly this batch shape.
    """

    kernel: Kernel
    tiles: tuple[TileConfig, ...]

    def __post_init__(self) -> None:
        if not self.tiles:
            raise ValueError("a golden probe needs at least one tile")


class SyntheticProber:
    """Known-answer prober over a service's live route matrix.

    Args:
        corpus: golden probes (``GoldenProbe`` or bare ``(kernel,
            tiles)`` pairs). Pick kernels whose fingerprints cover every
            executor shard — :meth:`coverage` reports gaps after
            :meth:`bind`.
        clock: injectable wall clock — every verdict timestamp is
            deterministic under a fake clock.
        journal: optional ops journal; defaults to the bound service's.

    The prober is *pulled* (call :meth:`sweep` from an ops loop) or
    self-scheduled (:meth:`start` a daemon thread every
    :data:`PROBE_INTERVAL_S`).
    """

    #: Bound on the retained verdict ring (:meth:`recent`).
    _HISTORY = 256

    def __init__(
        self,
        corpus,
        clock=time.time,
        journal=None,
    ) -> None:
        probes = []
        for entry in corpus:
            if isinstance(entry, GoldenProbe):
                probes.append(entry)
            else:
                kernel, tiles = entry
                probes.append(GoldenProbe(kernel=kernel, tiles=tuple(tiles)))
        if not probes:
            raise ValueError("the probe corpus is empty")
        self.corpus: tuple[GoldenProbe, ...] = tuple(probes)
        self._clock = clock
        self.journal = journal
        self._service = None
        self._frontends: "OrderedDict[str, object]" = OrderedDict()
        self._sockets: list = []
        self._lock = threading.Lock()
        self._ref_lock = threading.Lock()
        self._evaluators: "OrderedDict[str, LearnedEvaluator]" = OrderedDict()
        self._references: dict[tuple, np.ndarray] = {}
        self._recent: deque[dict] = deque(maxlen=self._HISTORY)
        self._routes: "OrderedDict[str, dict]" = OrderedDict()
        self.probes = 0
        self.failures = 0
        self.sweeps = 0
        self.last_sweep: dict | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def bind(self, service) -> None:
        """Bind to a service (``service.attach_prober`` calls this).

        Installs the in-process probe transport; socket frontends are
        added explicitly via :meth:`add_socket` (the prober cannot know
        a frontend's address).
        """
        self._service = service
        if self.journal is None:
            self.journal = getattr(service, "journal", None)
        self._frontends.setdefault("inprocess", self._submit_inprocess)

    def add_socket(self, address, name: str = "socket") -> None:
        """Probe through a live TCP frontend at ``address`` as well.

        Uses a dedicated :class:`~repro.serving.client.SocketEvaluator`
        connection per prober, so socket probes exercise the real wire
        path — framing, kernel interning, miss/retry — end to end.
        """
        from .client import SocketEvaluator

        client = SocketEvaluator(address, timeout_s=PROBE_TIMEOUT_S)
        self._sockets.append(client)
        self._frontends[name] = client._call_once

    def _submit_inprocess(self, request):
        service = self._service
        future = service.submit(request)
        if not service.is_running:
            service.flush()
        return future.result(timeout=PROBE_TIMEOUT_S)

    # ------------------------------------------------------------------ #
    # references (the known answers)
    # ------------------------------------------------------------------ #

    def _evaluator(self, version: str) -> LearnedEvaluator | None:
        """A direct evaluator over ``version``'s own sealed blob."""
        with self._ref_lock:
            evaluator = self._evaluators.get(version)
            if evaluator is not None:
                return evaluator
            try:
                blob = self._service.registry.blob(version)
                evaluator = LearnedEvaluator.from_checkpoint_bytes(blob)
            except Exception:
                return None
            self._evaluators[version] = evaluator
            while len(self._evaluators) > 4:
                self._evaluators.popitem(last=False)
            return evaluator

    def _reference(self, version: str, probe: GoldenProbe) -> np.ndarray | None:
        """The known answer for ``probe`` under ``version`` (memoized).

        Computed once per (version, probe) against a direct evaluator at
        the probe's exact batch shape — the bitwise comparison target.
        """
        key = (version, probe.kernel.fingerprint(),
               tuple(t.dims for t in probe.tiles))
        with self._ref_lock:
            cached = self._references.get(key)
        if cached is not None:
            return cached
        evaluator = self._evaluator(version)
        if evaluator is None:
            return None
        try:
            reference = np.asarray(
                evaluator.score_tiles_batched(probe.kernel, list(probe.tiles))
            )
        except Exception:
            return None
        with self._ref_lock:
            self._references[key] = reference
            if len(self._references) > 16 * len(self.corpus):
                self._references.pop(next(iter(self._references)))
        return reference

    # ------------------------------------------------------------------ #
    # probing
    # ------------------------------------------------------------------ #

    def sweep(self) -> dict:
        """One full pass over the route matrix; returns the sweep summary.

        Every corpus probe goes through every registered frontend; the
        served version is verified against its own reference, coverage
        of the expected frontend × shard × live-version matrix is
        reported (the rollout chooser decides which live version each
        probe reaches — uncovered cells are reported, not failed).
        """
        if self._service is None:
            raise RuntimeError("prober is not bound to a service; attach it first")
        service = self._service
        started = self._clock()
        live = tuple(service.registry.live_versions)
        covered: set[tuple[str, int, str]] = set()
        verdicts: list[dict] = []
        for frontend, submit in list(self._frontends.items()):
            for probe in self.corpus:
                request = TileScoresRequest(
                    kernel=probe.kernel,
                    tiles=probe.tiles,
                    synthetic=True,
                )
                try:
                    shard = service.executor.shard_for(
                        probe.kernel.fingerprint()
                    )
                except Exception:
                    shard = -1
                verdict = self._probe_once(frontend, submit, probe, request, shard)
                verdicts.append(verdict)
                if verdict["version"] is not None:
                    covered.add((frontend, shard, verdict["version"]))
        expected = {
            (frontend, shard, version)
            for frontend in self._frontends
            for shard in range(service.executor.num_shards)
            for version in live
        }
        uncovered = sorted(
            f"{f}:{s}:{v}" for (f, s, v) in expected - covered
        )
        failures = sum(1 for v in verdicts if v["outcome"] == "fail")
        summary = {
            "ts": started,
            "probes": len(verdicts),
            "failures": failures,
            "live_versions": list(live),
            "routes_covered": len(covered),
            "routes_expected": len(expected),
            "uncovered": uncovered,
        }
        with self._lock:
            self.sweeps += 1
            self.last_sweep = summary
        record_event(
            self.journal,
            "probe.sweep",
            probes=len(verdicts),
            failures=failures,
            routes_covered=len(covered),
            routes_expected=len(expected),
        )
        return summary

    def _probe_once(self, frontend, submit, probe, request, shard) -> dict:
        started = self._clock()
        outcome, reason, exact, version, trace_id = "pass", None, None, None, None
        try:
            response = submit(request)
        except Exception as exc:
            response = None
            outcome = "fail"
            reason = f"transport:{type(exc).__name__}"
        if response is not None:
            version = response.model_version
            trace_id = response.trace_id
            if response.error is not None:
                outcome = "fail"
                reason = f"error:{response.error_code or 'untyped'}"
            elif response.degraded:
                # The analytical fallback keeps clients moving, but for a
                # probe it means the learned route did NOT answer.
                outcome, reason, version = "fail", "degraded", None
            else:
                reference = self._reference(version, probe)
                if reference is None:
                    outcome, reason = "fail", "reference_unavailable"
                else:
                    value = np.asarray(response.value)
                    if value.shape == reference.shape and np.array_equal(
                        value, reference
                    ):
                        exact = True
                    elif value.shape == reference.shape and np.allclose(
                        value, reference, rtol=PROBE_RTOL, atol=PROBE_ATOL
                    ):
                        exact = False
                    else:
                        outcome, reason = "fail", "known_answer_mismatch"
        route = f"{frontend}:{shard}:{version if version is not None else '?'}"
        verdict = {
            "ts": started,
            "frontend": frontend,
            "shard": shard,
            "version": version,
            "kernel": probe.kernel.fingerprint()[:12],
            "route": route,
            "outcome": outcome,
            "reason": reason,
            "exact": exact,
            "latency_s": max(self._clock() - started, 0.0),
            "trace_id": trace_id,
        }
        entry = None
        if outcome == "fail":
            entry = record_event(
                self.journal,
                "probe.failure",
                trace_id=trace_id,
                frontend=frontend,
                shard=shard,
                version=version,
                kernel=verdict["kernel"],
                reason=reason,
            )
        with self._lock:
            self.probes += 1
            stats = self._routes.get(route)
            if stats is None:
                stats = self._routes[route] = {
                    "probes": 0,
                    "failures": 0,
                    "last_outcome": None,
                    "last_ts": None,
                    "first_failure_ts": None,
                    "first_failure_seq": None,
                }
            stats["probes"] += 1
            stats["last_outcome"] = outcome
            stats["last_ts"] = started
            if outcome == "fail":
                self.failures += 1
                stats["failures"] += 1
                if stats["first_failure_ts"] is None:
                    stats["first_failure_ts"] = started
                    if entry is not None:
                        stats["first_failure_seq"] = entry.get("seq")
            else:
                # A healthy probe clears the route's failure streak: the
                # *next* failure is a fresh first-breach marker.
                stats["first_failure_ts"] = None
                stats["first_failure_seq"] = None
                # A no-answer failure (transport / typed error / degraded)
                # has no served version and lands on this cell's "?"
                # route. That is a per-(frontend, shard) fact — any
                # healthy answer from the cell supersedes it, so mark it
                # recovered or it would read as failing forever.
                unknown = self._routes.get(f"{frontend}:{shard}:?")
                if unknown is not None and unknown["last_outcome"] == "fail":
                    unknown["last_outcome"] = "recovered"
                    unknown["first_failure_ts"] = None
                    unknown["first_failure_seq"] = None
            self._recent.append(verdict)
        return verdict

    # ------------------------------------------------------------------ #
    # schedule
    # ------------------------------------------------------------------ #

    def start(self) -> "SyntheticProber":
        """Sweep every :data:`PROBE_INTERVAL_S` on a daemon thread;
        idempotent."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.is_set():
                try:
                    self.sweep()
                except Exception:
                    pass
                self._stop.wait(PROBE_INTERVAL_S)

        self._thread = threading.Thread(
            target=_loop, name="synthetic-prober", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sweep thread and hang up the socket connections
        (a later sweep reconnects); idempotent."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        for client in self._sockets:
            client.close()

    # ------------------------------------------------------------------ #
    # readout
    # ------------------------------------------------------------------ #

    def recent(self, n: int = 20) -> list[dict]:
        """The newest ``n`` probe verdicts, newest first."""
        with self._lock:
            items = list(self._recent)
        items.reverse()
        return items[:max(n, 0)]

    def failing_routes(self) -> dict[str, dict]:
        """Routes whose most recent probe failed, with breach markers."""
        with self._lock:
            return {
                route: dict(stats)
                for route, stats in self._routes.items()
                if stats["last_outcome"] == "fail"
            }

    def coverage(self) -> dict:
        """Which executor shards the corpus reaches (corpus hygiene)."""
        if self._service is None:
            return {"shards_total": 0, "shards_covered": 0, "missing": []}
        total = self._service.executor.num_shards
        reached = set()
        for probe in self.corpus:
            try:
                reached.add(
                    self._service.executor.shard_for(probe.kernel.fingerprint())
                )
            except Exception:
                continue
        missing = sorted(set(range(total)) - reached)
        return {
            "shards_total": total,
            "shards_covered": len(reached & set(range(total))),
            "missing": missing,
        }

    def board(self) -> dict:
        """The gateway's ``/probes`` payload."""
        with self._lock:
            routes = {route: dict(stats) for route, stats in self._routes.items()}
            last_sweep = dict(self.last_sweep) if self.last_sweep else None
            probes, failures, sweeps = self.probes, self.failures, self.sweeps
        return {
            "corpus": len(self.corpus),
            "frontends": list(self._frontends),
            "interval_s": PROBE_INTERVAL_S,
            "probes": probes,
            "failures": failures,
            "sweeps": sweeps,
            "coverage": self.coverage(),
            "routes": routes,
            "failing_routes": sorted(
                r for r, s in routes.items() if s["last_outcome"] == "fail"
            ),
            "last_sweep": last_sweep,
            "recent": self.recent(20),
        }

    def health(self) -> dict:
        """The compact slice ``/healthz`` folds into its verdict."""
        with self._lock:
            failing = sorted(
                route
                for route, stats in self._routes.items()
                if stats["last_outcome"] == "fail"
            )
            return {
                "probes": self.probes,
                "failures": self.failures,
                "failing_routes": failing,
            }

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Prober accounting for the metrics registry."""
        with self._lock:
            per_route = {
                route: {
                    "probes": float(stats["probes"]),
                    "failures": float(stats["failures"]),
                    "failing": 1.0 if stats["last_outcome"] == "fail" else 0.0,
                }
                for route, stats in self._routes.items()
            }
            failing = sum(
                1
                for stats in self._routes.values()
                if stats["last_outcome"] == "fail"
            )
            return {
                "prober_probes": float(self.probes),
                "prober_failures": float(self.failures),
                "prober_sweeps": float(self.sweeps),
                "prober_routes_failing": float(failing),
                "prober_route": per_route,
            }

    def register_into(self, registry) -> None:
        """Contribute the ``prober_*`` family to a telemetry registry."""
        registry.register_collector(
            "prober",
            self.snapshot,
            counters=("prober_probes", "prober_failures", "prober_sweeps"),
            families={"prober_route": "route"},
        )
