"""The serving tier's feature benches in one run, gated by 53 checks, as JSON.

Five sections run in one process, in this order, each against an
*untrained* tile model (what is measured is the serving stack; training
would not move a request's cost):

* **batching** — tile-score requests/sec at 1/4/16 concurrent clients
  across the transport x executor matrix: *direct* (each client owns a
  warm ``LearnedEvaluator``, no service boundary); a *naive* service
  (``max_batch_size=1``, a forward per request); *micro-batched* (the
  fixed 2 ms flush window); *adaptive* (the window derived from the
  inter-arrival EMA: no wait for a lone client, the full window under
  load); at max clients a *threaded pool* (4 in-thread shards) against
  *process shards* (4 worker subprocesses), and the *socket* frontend
  (clients in their own process, one connection each, the window
  doubled for the transport's round trip).
* **rollout** — the control plane's cost and speed: 16-client
  throughput of *plain* serving against a 20 % *canary* of an identical
  staged checkpoint with a feedback collector (every batch pays the
  version chooser, version-pure partitioning, per-version stats and
  prediction recording) and a 25 % *shadow*; then requests from staging
  a regressed checkpoint (readout negated: ranking exactly reversed) to
  automatic rollback, the active model's scores standing in for
  hardware.
* **placement** — 16 independent tuners whose kernels all hash onto
  shard 0 under the static ``fingerprint % n`` map, per-shard caches
  sized for a balanced population: the *static* map thrashes the hot
  shard, the *adaptive* one (a ``PlacementController`` that saw the
  skew while warming) spreads the hot buckets; then a live 2 -> 3
  worker migration of a process-sharded service under client traffic.
* **resilience** — 12 in-process + 4 socket clients with deadlines and
  retries against a process-sharded service, in three phases: baseline;
  chaos (a count-bounded ``FaultPlan`` kills a worker, SIGSTOPs another,
  corrupts a checkpoint in flight and drops connections); recovery.
* **observability** — 16-client throughput of a plain process-sharded
  service against the same stack *scraped* (``/metrics`` at 2 Hz),
  *sampled* (1 % tracer), *profiled* (``ContinuousProfiler``) and
  *probed* (a ``SyntheticProber`` at its 1 s cadence); score arrays of an
  idle prober, the profiler and a 100 % tracer bitwise against the
  plain stack; a traced request's tree across all four layers; a
  slow-worker fault walking a burn-rate alert pending -> firing ->
  resolved, journaled with an exemplar trace; and one silently corrupted
  shard that probes must catch before any client errors, with the
  incident report blaming that shard. Journals and the incident report
  are written under ``$REPRO_BENCH_ARTIFACTS`` (``bench-artifacts/``).

One fixture builder makes each distinct (programs, model) pair once.
Resilience and observability serve a small column-wise model: their
bars are overhead ratios, and a heavier forward would shrink the
overhead they measure. The result cache is off everywhere, so every
request runs the model.

**Method.** Every client fleet is :func:`run_fleet`: one thread per
client, each request resolved as ok, degraded, a typed error, or an
untyped error (anything not a ``ServingFault``: a bug); the rate counts
resolved requests only. A ratio of two rows is the median over
interleaved rounds (``harness.interleaved_rounds``: every row one pass
per round, in rotating order) of the within-round ratio
(``harness.median_paired_ratio``): back-to-back passes of one untouched
service spread by tens of percent on a small shared box, and pairing
within a round cancels that drift. A ratio is null — and its check
fails — when any pass of either row left a request failed untyped,
unresolved or its client hung. ``requests_per_sec`` of a row is its best
pass; rollout and placement also report their ratio by that best-of
method (``*_best_of``), which they gated on before. Resilience's phases
are one pass each, in order, by design.

**Checks.** ``checks`` lists 53 named checks ``{section, name, value, op,
bound, passed, timing, enforced}``, ``value`` being
``report[section][name]``; ``ok`` is the conjunction of the enforced
ones and the exit code is non-zero when it is false. Every section runs;
a section that raises keeps its checks, failing with value null.

* batching (timing): micro-batched and adaptive >= 1.5x naive at max
  clients — 3x while a forward cost 1.5 ms, nearly all of it fixed;
  since the tape-free ``predict`` a 4-row forward costs 0.5 ms and the
  same sharing measures 2.0-2.5x; adaptive >= 1.5x fixed-window at 1
  client (no lone-client tax); process shards > 1x the equally sharded
  thread pool for independent tuners (both fuse a shard's slice into one
  forward; the process rows run them on separate cores, which holds only
  with one BLAS thread per process, pinned below: with two, four workers
  on two cores measured 0.15-0.22x); socket >= 0.5x in-process.
* rollout: canary >= 0.9x plain (timing; independent tuners, whose
  batches span many kernels, so a canary re-groups commands without
  splitting coalesced forwards — the coalesced split is reported, not
  gated); the regression ends ``rolled_back`` within 2x the expected
  ``min_samples / canary_fraction`` requests; the active version is
  untouched.
* placement: adaptive >= 1.2x static (timing; a cache-affinity win, so
  it holds on one CPU); at least one rebalance; the migration drops,
  errors and version-mixes nothing, and ends with 3 workers on map
  version >= 2.
* resilience: no hung client, unresolved request or untyped error in
  any phase; recovered throughput >= 0.9x baseline (timing); the fault
  plan fully fired; at least one worker respawn.
* observability: tracing, profiling and an idle prober leave the scores
  bitwise identical; scraped >= 0.95x, sampled >= 0.9x, profiled >=
  0.95x, probed >= 0.97x baseline (timing; the scrape shares the
  client process's GIL, so "small", not "unmeasurable"); the prober
  swept at least once under load with no known-answer failure; the
  alert walked pending -> firing -> resolved, at least one journaled
  transition carries a resolvable trace id, and the journal holds >= 3
  events; the trace tree has frontend, scheduler and executor spans and
  a span recorded in a worker subprocess; at least one scrape completed;
  the incident scenario covered both shards, its probes caught the bad
  shard — and only it — before any client error, the probe alert fired,
  and the report's top cause is a probe failure on that shard citing a
  journal seq, written to the artifacts directory.

**Fast mode** (``REPRO_BENCH_FAST=1``, the CI smoke configuration: fewer
programs, clients, requests and rounds) enforces the 41 checks that read
no clock: each held in 7 consecutive fast runs on a 2-core box. The 12
timing checks — ratios of two measured rates — are reported, not
enforced, at that scale, where a pass lasts tens of milliseconds: those
runs read process / pool 0.50-0.68x, canary / plain 0.65-0.86x,
recovery 0.70-0.85x, scraped 0.42-0.49x (a scrape is a real share of so
short a pass) and sampled / profiled / probed down to 0.83-0.94x. A
null timing value (a crash or a failed request) is enforced in both
modes.
"""
from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing
import os
import queue
import sys
import threading
import time
import traceback
import urllib.request
from types import SimpleNamespace

# One BLAS thread per process, set before NumPy loads (spawned workers
# inherit it), as the spine benchmark does: the forwards here are small,
# and a second BLAS thread spin-waiting between them takes a core from
# the client threads. Measured on a 2-core box: 4 clients on the
# fixed-window service run at ~90 req/s for the first passes with two
# BLAS threads and at a steady ~800 req/s with one.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from harness import (  # noqa: E402
    FAST,
    check_record,
    interleaved_rounds,
    median_paired_ratio,
    scale,
    stamp_report,
)
from repro.autotuner import LearnedEvaluator  # noqa: E402
from repro.compiler import enumerate_tile_sizes  # noqa: E402
from repro.data import Scalers, build_tile_dataset  # noqa: E402
from repro.evaluation import ServingStats, format_table  # noqa: E402
from repro.models import (  # noqa: E402
    LearnedPerformanceModel,
    ModelConfig,
    TrainResult,
    save_model_bytes,
)
from repro.serving import (  # noqa: E402
    CANARY,
    ROLLED_BACK,
    AlertEngine,
    BurnRateRule,
    CanaryFraction,
    ContinuousProfiler,
    CostModelService,
    FaultInjector,
    FaultPlan,
    FaultRule,
    FeedbackCollector,
    GoldenProbe,
    IncidentReporter,
    MetricsGateway,
    ModelRegistry,
    OpsJournal,
    PlacementConfig,
    PlacementController,
    RetryPolicy,
    RolloutConfig,
    RolloutController,
    ServiceConfig,
    ServiceEvaluator,
    ServingFault,
    ShadowScore,
    ShardMap,
    SocketEvaluator,
    SocketFrontend,
    SyntheticProber,
    ThresholdRule,
    TileScoresRequest,
    Tracer,
    regressed_checkpoint,
    request_key,
    shard_of,
)
from repro.workloads import vision  # noqa: E402

CHUNK = 4  # candidate tiles per request (one search step's proposals)
#: How long a fleet pass may run before its unjoined clients count as hung.
FLEET_TIMEOUT_S = 600.0
RESOLVED = ("ok", "degraded", "typed_error")
#: A request failed by a bug, never answered, or left to a stuck client:
#: any of them fails the pass.
FAILED = ("untyped_error", "unresolved", "hung")
OUTCOMES = RESOLVED + FAILED

BEST_TILE = ModelConfig.paper_best_tile()
SMALL_MODEL = ModelConfig(
    task="tile", reduction="column-wise",
    hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2, lstm_hidden=16,
)
#: The wide kernel pool (~30 kernels in full mode): independent tuners
#: need many distinct kernels in flight.
WIDE = ("resnet_v1", "alexnet", "image_embed", "ssd")
NARROW = ("image_embed",) if FAST else ("image_embed", "alexnet")


# ------------------------------------------------------------- fixtures
@functools.cache
def fixture(programs: tuple[str, ...], config: ModelConfig) -> tuple[TrainResult, list, int]:
    """An untrained ``config`` model with scalers fit to tile data of
    ``programs`` (``vision`` builders), the ``(kernel, candidate tiles)``
    pool of every kernel with at least CHUNK tiles, and the kernel count."""
    dataset = build_tile_dataset(
        [getattr(vision, name)(0) for name in programs],
        max_kernels_per_program=scale(8, 4),
        max_tiles_per_kernel=8,
        seed=0,
    )
    model = LearnedPerformanceModel(config, seed=0)
    result = TrainResult(model=model, scalers=Scalers.fit_tile(dataset.records), loss_history=[])
    pool = []
    for record in dataset.records:
        tiles = enumerate_tile_sizes(record.kernel)
        if len(tiles) >= CHUNK:
            pool.append((record.kernel, tiles))
    return result, pool, len(dataset.records)


def client_streams(pool, clients: int, requests: int, rotate: bool = True) -> list[list]:
    """Per-client ``(kernel, tile chunk)`` request streams over ``pool``.

    Request ``i`` asks for kernel ``i`` of the pool, round-robin, and its
    next chunk of CHUNK candidates. Unrotated, every client walks the
    same stream — workers splitting one kernel's candidate population,
    whose same-instant requests coalesce. Rotated, client ``c`` starts at
    request ``c * requests // clients`` — independent tuners, so a batch
    spans many distinct kernels.
    """
    stream = []
    for i in range(requests):
        kernel, tiles = pool[i % len(pool)]
        start = (i * CHUNK) % (len(tiles) - CHUNK + 1)
        stream.append((kernel, tiles[start:start + CHUNK]))
    shifts = [(c * requests) // clients if rotate else 0 for c in range(clients)]
    return [stream[s:] + stream[:s] for s in shifts]


def warm(client, stream) -> None:
    for kernel, tiles in stream:
        client.score_tiles_batched(kernel, tiles)


# ---------------------------------------------------------------- fleets
def run_fleet(streams, make_client, timeout_s: float) -> dict:
    """One measured pass: client ``i`` is ``make_client(i)`` on its own
    thread, scoring ``streams[i]``; all start together.

    Each request resolves as ``ok``, ``degraded`` (the analytical
    fallback's tagged answer) or ``typed_error`` (a ``ServingFault``);
    any other exception is an ``untyped_error``, and the client goes on.
    A request with no outcome is ``unresolved`` (its client failed to
    start, or is still running); a client not joined ``timeout_s`` after
    the start is ``hung``. The rate counts resolved requests only, so a
    failing client lowers it instead of reading as served. A client with
    a ``close`` is closed when its stream is done.
    """
    counts = dict.fromkeys(RESOLVED + ("untyped_error",), 0)
    lock = threading.Lock()
    barrier = threading.Barrier(len(streams) + 1, timeout=timeout_s)

    def client(index: int) -> None:
        try:
            scorer = make_client(index)
        except Exception:  # shown; its requests stay unresolved
            traceback.print_exc()
            return
        finally:
            barrier.wait()
        for kernel, tiles in streams[index]:
            try:
                scorer.score_tiles_batched(kernel, tiles)
                last = getattr(scorer, "last_response", None)
                kind = "degraded" if last is not None and last.degraded else "ok"
            except ServingFault:
                kind = "typed_error"
            except Exception:  # a bug: counted, shown, and the client goes on
                traceback.print_exc()
                kind = "untyped_error"
            with lock:
                counts[kind] += 1
        close = getattr(scorer, "close", None)
        if close is not None:
            close()  # a connection closes as its tuner finishes

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True) for i in range(len(streams))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    deadline = time.monotonic() + timeout_s
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    elapsed = time.perf_counter() - start
    with lock:
        fleet = dict(counts)
    requests = sum(map(len, streams))
    resolved = sum(fleet[outcome] for outcome in RESOLVED)
    return {
        "clients": len(streams),
        "requests": requests,
        "resolved": resolved,
        **fleet,
        "unresolved": requests - resolved - fleet["untyped_error"],
        "hung": sum(thread.is_alive() for thread in threads),
        "elapsed_s": elapsed,
        "requests_per_sec": resolved / elapsed if elapsed > 0 else 0.0,
    }


def summarize(passes: list[dict]) -> dict:
    """A row's passes: its best rate, every rate, outcome totals."""
    rates = [p["requests_per_sec"] for p in passes]
    return {
        "clients": passes[0]["clients"],
        "requests": passes[0]["requests"],
        "requests_per_sec": max(rates),
        "all_passes_rps": rates,
        **{outcome: sum(p[outcome] for p in passes) for outcome in OUTCOMES},
    }


def fleet_ratio(mode: dict, baseline: dict) -> float | None:
    """Median paired ratio of two summarized rows; None when a pass of
    either left a request failed untyped, unresolved or hung."""
    if any(row[outcome] for row in (mode, baseline) for outcome in FAILED):
        return None
    return median_paired_ratio(mode["all_passes_rps"], baseline["all_passes_rps"])


def best_of_ratio(mode: dict, baseline: dict) -> float:
    """The ratio of two rows' best passes (the pre-interleaving method)."""
    return mode["requests_per_sec"] / baseline["requests_per_sec"]


def measure(rows: dict, rounds: int) -> dict[str, dict]:
    """Open every row, measure ``rounds`` interleaved rounds, close them.

    ``rows`` maps a name to a context manager yielding ``(row, run_pass)``:
    ``run_pass()`` runs one fleet pass, and ``row`` gains the service's
    own metrics as the context exits. Returns each row's summary.
    """
    with contextlib.ExitStack() as stack:
        opened = {name: stack.enter_context(row) for name, row in rows.items()}
        passes = interleaved_rounds({name: run for name, (_, run) in opened.items()}, rounds)
    return {name: {**summarize(passes[name]), **row} for name, (row, _) in opened.items()}


def fleet_of(service, streams, timeout_s: float = FLEET_TIMEOUT_S):
    """``run_pass`` for in-process clients of ``service``."""
    return functools.partial(
        run_fleet, streams, lambda _: ServiceEvaluator(service, timeout_s=timeout_s), timeout_s
    )


# -------------------------------------------------------------- batching
SHARDS = scale(4, 2)  # shard count of the pool / process rows
BATCHING_ROUNDS = scale(5, 1)


@contextlib.contextmanager
def direct_row(result, streams):
    """Per-client warm evaluators, no service boundary."""
    def make_client(index: int) -> LearnedEvaluator:
        evaluator = LearnedEvaluator(result.model, result.scalers)
        warm(evaluator, streams[index])
        return evaluator

    yield {}, functools.partial(run_fleet, streams, make_client, FLEET_TIMEOUT_S)


@contextlib.contextmanager
def service_row(
    result, streams, max_batch_size: int, adaptive_flush: bool = False, replicas: int = 1,
    executor: str = "thread", socket: bool = False, flush_interval_s: float = 0.002,
):
    """One warm service configuration; yields ``(row, run_pass)``."""
    config = ServiceConfig(
        max_batch_size=max_batch_size,
        flush_interval_s=flush_interval_s,
        adaptive_flush=adaptive_flush,
        replicas=replicas,
        executor=executor,
        result_cache_entries=0,
    )
    row: dict = {}
    with contextlib.ExitStack() as stack:
        service = stack.enter_context(CostModelService(result, config))
        # Warm the executor's caches (for the process executor: spawn and
        # sync the workers, intern the kernels), then reset the stats so
        # they describe measured traffic only.
        warm(ServiceEvaluator(service), streams[0])
        service.stats = ServingStats()
        if socket:
            frontend = stack.enter_context(SocketFrontend(service))
            run_pass = stack.enter_context(socket_clients(frontend.address, streams))
            row["client_process"] = True
        else:
            run_pass = fleet_of(service, streams)
        yield row, run_pass
        metrics = service.metrics()
    for key in ("batch_occupancy", "requests_per_forward", "latency_p50_s", "latency_p99_s"):
        row[key] = metrics[key]
    if replicas > 1:
        row["per_shard_requests"] = {
            shard: entry["requests"] for shard, entry in metrics["per_shard"].items()
        }


def _socket_client_proc(address, streams, go_events, done_queue) -> None:
    """The socket row's client process: a connection per stream, one
    fleet pass per go event, each pass's outcome sent back."""
    clients = [SocketEvaluator(address, timeout_s=300.0) for _ in streams]
    # Lent to each pass without ``close``: a connection (and the kernels
    # it interned) outlives the pass.
    lent = [SimpleNamespace(score_tiles_batched=c.score_tiles_batched) for c in clients]
    for i, go in enumerate(go_events):
        done_queue.put(("ready", i))
        go.wait()
        done_queue.put(("done", i, run_fleet(streams, lent.__getitem__, FLEET_TIMEOUT_S)))
    for client in clients:
        client.close()


def _await_client(done_queue, process, expected: tuple, timeout_s: float = 600.0) -> tuple:
    """The client process's next message, which must start with
    ``expected``; notices a dead child within seconds."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            message = done_queue.get(timeout=5.0)
        except queue.Empty:
            if not process.is_alive():
                raise RuntimeError(
                    f"socket client process died before {expected!r} "
                    f"(exitcode={process.exitcode})"
                ) from None
            if time.monotonic() >= deadline:
                raise TimeoutError(f"no {expected!r} from socket client process") from None
            continue
        if message[:len(expected)] != expected:
            raise RuntimeError(f"unexpected client handshake {message!r}")
        return message


@contextlib.contextmanager
def socket_clients(address, streams):
    """Clients in a separate process — the deployment shape the socket
    transport exists for; an in-server client pool would charge the
    clients' work to the server's interpreter. Yields ``run_pass``,
    timed here from go to done, for up to BATCHING_ROUNDS passes."""
    ctx = multiprocessing.get_context("spawn")
    go_events = [ctx.Event() for _ in range(BATCHING_ROUNDS)]
    done_queue = ctx.Queue()
    process = ctx.Process(
        target=_socket_client_proc, args=(address, streams, go_events, done_queue)
    )
    process.start()
    passes = iter(range(BATCHING_ROUNDS))

    def run_pass() -> dict:
        i = next(passes)
        _await_client(done_queue, process, ("ready", i))
        go_events[i].set()
        start = time.perf_counter()
        fleet = _await_client(done_queue, process, ("done", i))[2]
        elapsed = time.perf_counter() - start
        return {**fleet, "elapsed_s": elapsed, "requests_per_sec": fleet["resolved"] / elapsed}

    try:
        yield run_pass
    finally:
        process.join(timeout=60)
        if process.is_alive():
            process.terminate()


def batching() -> dict:
    result, pool, num_kernels = fixture(("image_embed",) if FAST else WIDE, BEST_TILE)
    requests = scale(40, 8)
    client_counts = [1, 4] if FAST else [1, 4, 16]
    top = client_counts[-1]
    out: dict = {
        "num_kernels": num_kernels,
        "tiles_per_request": CHUNK,
        "requests_per_client": requests,
        "shards": SHARDS,
    }
    for n in client_counts:
        together = client_streams(pool, n, requests, rotate=False)
        rows = {
            "direct": direct_row(result, together),
            "naive_service": service_row(result, together, max_batch_size=1),
            "micro_batched_service": service_row(result, together, max_batch_size=64),
            "adaptive_service": service_row(result, together, 64, adaptive_flush=True),
        }
        if n == top:
            rows["socket_service"] = service_row(
                result, together, 64, adaptive_flush=True, socket=True, flush_interval_s=0.004
            )
        for name, row in measure(rows, BATCHING_ROUNDS).items():
            out.setdefault(name, {})[str(n)] = row
    # Placement is an independent-tuner story at max concurrency: both
    # rows run the same rotated streams.
    apart = client_streams(pool, top, requests)
    for name, row in measure({
        "threaded_pool_service": service_row(
            result, apart, 64, adaptive_flush=True, replicas=SHARDS
        ),
        "process_shard_service": service_row(
            result, apart, 64, adaptive_flush=True, replicas=SHARDS, executor="process"
        ),
    }, BATCHING_ROUNDS).items():
        out[name] = {str(top): row}

    def ratio(mode: str, baseline: str, clients: int = top) -> float | None:
        return fleet_ratio(out[mode][str(clients)], out[baseline][str(clients)])

    out["speedup_vs_naive_at_max_clients"] = ratio("micro_batched_service", "naive_service")
    out["adaptive_vs_naive_at_max_clients"] = ratio("adaptive_service", "naive_service")
    out["adaptive_vs_fixed_at_1_client"] = ratio("adaptive_service", "micro_batched_service", 1)
    out["process_vs_threaded_pool_at_max_clients"] = ratio(
        "process_shard_service", "threaded_pool_service"
    )
    out["socket_vs_inprocess_at_max_clients"] = ratio("socket_service", "adaptive_service")
    return out


# --------------------------------------------------------------- rollout
CANARY_FRACTION = 0.2
SHADOW_FRACTION = 0.25
#: The detection controller's ``min_samples``, by fast mode.
DETECT_MIN_SAMPLES = {False: 16, True: 4}


def detect_budget(fast: bool) -> int:
    """Requests allowed from staging to rollback: 2x the expected
    ``min_samples / canary_fraction``."""
    return int(2 * DETECT_MIN_SAMPLES[fast] / CANARY_FRACTION)


@contextlib.contextmanager
def rollout_row(result, streams, rollout: str):
    """A service over active + staged versions of identical weights (so
    the workload is unchanged and the difference is pure overhead)."""
    registry = ModelRegistry()
    registry.publish(result, version="active")
    registry.stage(save_model_bytes(result), version="staged")
    policy = {
        "plain": None,
        "canary": CanaryFraction("staged", CANARY_FRACTION),
        "shadow": ShadowScore("staged", SHADOW_FRACTION),
    }[rollout]
    config = ServiceConfig(max_batch_size=64, adaptive_flush=True, result_cache_entries=0)
    row: dict = {}
    with CostModelService(
        registry, config, rollout=policy,
        feedback=FeedbackCollector() if policy is not None else None,
    ) as service:
        warm(ServiceEvaluator(service), streams[0])  # both versions' pools
        service.stats = ServingStats()
        yield row, fleet_of(service, streams)
        metrics = service.metrics()
    row["batch_occupancy"] = metrics["batch_occupancy"]
    row["shadow_forwards"] = metrics["shadow_forwards"]
    if rollout == "canary":
        per_version = metrics["per_version"]
        served = sum(entry["served"] for entry in per_version.values())
        row["canary_share"] = (
            per_version.get("staged", {}).get("canary", 0.0) / served if served else 0.0
        )


def detection(result, stream) -> dict:
    """Requests from staging a regressed checkpoint to automatic rollback."""
    registry = ModelRegistry()
    registry.publish(result, version="active")
    feedback = FeedbackCollector()
    service = CostModelService(
        registry, ServiceConfig(max_batch_size=64, result_cache_entries=0), feedback=feedback
    )
    min_samples = DETECT_MIN_SAMPLES[FAST]
    controller = RolloutController(
        service,
        feedback,
        RolloutConfig(
            canary_fraction=CANARY_FRACTION,
            min_samples=min_samples,
            max_samples_per_phase=10 * min_samples,
            promote_margin=0.05,
            abort_margin=0.2,
            start_phase=CANARY,
        ),
    )
    # Ground truth is the active model's own ranking: the negated canary
    # is maximally regressed, so the latency is the control loop's alone.
    reference = LearnedEvaluator(result.model, result.scalers)
    budget = detect_budget(FAST)
    try:
        controller.stage(save_model_bytes(regressed_checkpoint(result)), version="regressed")
        client = ServiceEvaluator(service)
        staged_at = time.perf_counter()
        requests_to_detect = None
        for i in range(4 * budget):
            kernel, tiles = stream[i % len(stream)]
            client.score_tiles_batched(kernel, tiles)
            feedback.record_measurement(
                request_key(TileScoresRequest(kernel=kernel, tiles=tuple(tiles))),
                reference.score_tiles_batched(kernel, tiles),
            )
            if controller.step() == ROLLED_BACK:
                requests_to_detect = i + 1
                break
        return {
            "detection_state": controller.state,
            "requests_to_detect": requests_to_detect,
            "detect_budget": budget,
            "detect_elapsed_s": time.perf_counter() - staged_at,
            "active_untouched": registry.active_version == "active",
            "staged_cleared": registry.staged_version is None,
            "transitions": [
                {"state": t.state, "samples": t.staged_samples} for t in controller.transitions
            ],
        }
    finally:
        service.stop()


def rollout() -> dict:
    result, pool, num_kernels = fixture(("image_embed",) if FAST else WIDE, BEST_TILE)
    clients, requests = scale(16, 4), scale(40, 8)
    apart = client_streams(pool, clients, requests)
    together = client_streams(pool, clients, requests, rotate=False)
    # The coalesced rows, reported not gated: a canary must split each
    # single-kernel batch into two version-pure forwards — the price of
    # never mixing checkpoints in one forward, not bookkeeping.
    rows = measure({
        "plain": rollout_row(result, apart, "plain"),
        "canary_rollout": rollout_row(result, apart, "canary"),
        "shadow_rollout": rollout_row(result, apart, "shadow"),
        "plain_coalesced": rollout_row(result, together, "plain"),
        "canary_rollout_coalesced": rollout_row(result, together, "canary"),
    }, scale(3, 1))
    return {
        "num_kernels": num_kernels,
        "tiles_per_request": CHUNK,
        "clients": clients,
        "requests_per_client": requests,
        "canary_fraction": CANARY_FRACTION,
        "shadow_fraction": SHADOW_FRACTION,
        **rows,
        "canary_vs_plain": fleet_ratio(rows["canary_rollout"], rows["plain"]),
        "canary_vs_plain_best_of": best_of_ratio(rows["canary_rollout"], rows["plain"]),
        "shadow_vs_plain": fleet_ratio(rows["shadow_rollout"], rows["plain"]),
        "canary_vs_plain_coalesced": fleet_ratio(
            rows["canary_rollout_coalesced"], rows["plain_coalesced"]
        ),
        **detection(result, apart[0]),
    }


# ------------------------------------------------------------- placement
PLACEMENT_SHARDS = 4
MIGRATION_CLIENTS = scale(4, 2)
MIGRATION_REQUESTS = scale(24, 6)


@contextlib.contextmanager
def skew_row(result, streams, hot_kernels: int, adaptive: bool):
    """A service whose per-shard caches fit a *balanced* population — a
    quarter of the hot set, not all of it — never started, so each client
    flushes its own requests; the adaptive one rebalanced while warming."""
    service = CostModelService(
        result,
        ServiceConfig(
            max_batch_size=64,
            adaptive_flush=True,
            replicas=PLACEMENT_SHARDS,
            result_cache_entries=0,
            max_cached_kernels=max(
                2, (hot_kernels + PLACEMENT_SHARDS - 1) // PLACEMENT_SHARDS + 1
            ),
        ),
    )
    row: dict = {}
    try:
        client = ServiceEvaluator(service)
        if adaptive:
            controller = PlacementController(
                service,
                PlacementConfig(
                    skew_threshold=1.3, hysteresis=2, cooldown_s=0.0,
                    ewma_alpha=1.0, min_interval_requests=8, max_moves=64,
                ),
            )
            row["rebalanced_after_rounds"] = None
            for round_index in range(6):
                warm(client, streams[0])
                if controller.step() is not None:
                    row["rebalanced_after_rounds"] = round_index + 1
                    break
        # One warm pass for both (steady state: for the static map, thrash).
        warm(client, streams[0])
        yield row, fleet_of(service, streams)
        metrics = service.metrics()
        evaluator_stats = service.executor.stats()
        hits = evaluator_stats.get("feature_hits", 0)
        row.update(
            batch_occupancy=metrics["batch_occupancy"],
            map_version=metrics["placement"]["version"],
            per_shard_requests={
                shard: entry["requests"] for shard, entry in metrics["per_shard"].items()
            },
            feature_cache_hit_rate=hits / max(hits + evaluator_stats.get("feature_misses", 0), 1),
        )
        if adaptive:
            row["rebalances"] = controller.rebalances
            row["buckets_per_shard"] = metrics["placement"]["buckets_per_shard"]
    finally:
        service.stop()


def migration(result, hot) -> dict:
    """A live 2 -> 3 worker migration under concurrent process-executor
    traffic: drops, errors and version mixing."""
    registry = ModelRegistry()
    registry.publish(result, version="active")
    service = CostModelService(
        registry,
        ServiceConfig(executor="process", replicas=2, result_cache_entries=0, max_batch_size=16),
    ).start()
    controller = PlacementController(
        service,
        PlacementConfig(
            skew_threshold=1.3, hysteresis=1, cooldown_s=0.0, ewma_alpha=1.0,
            min_interval_requests=4, max_moves=64, autoscale=True, min_shards=2, max_shards=3,
            # Any observed backlog grows the fleet: the point is the
            # migration, not its trigger.
            scale_up_pressure=1e-9, scale_down_pressure=-1.0,
        ),
    )
    clients: list[ServiceEvaluator] = []
    grown: dict = {}

    def make_client(_) -> ServiceEvaluator:
        client = ServiceEvaluator(service, timeout_s=300.0)
        clients.append(client)
        return client

    def grow() -> None:
        # The queue-pressure EMA moves only once batches cut: step the
        # controller while traffic flows until the grow step lands.
        for _ in range(100):
            start = time.perf_counter()
            summary = controller.step()  # spawns + syncs worker 2, swaps the map
            if summary is not None:
                grown.update(summary=summary, seconds=time.perf_counter() - start)
                return
            time.sleep(0.02)

    poller = threading.Thread(target=grow, daemon=True)
    try:
        poller.start()
        fleet = run_fleet(
            client_streams(hot, MIGRATION_CLIENTS, MIGRATION_REQUESTS), make_client, 300.0
        )
        poller.join()
        workers, map_version = service.executor.num_shards, service.shard_map.version
        return {
            "migration_summary": grown.get("summary"),
            "migration_s": grown.get("seconds"),
            "migration_workers": [2, workers],
            "migration_map_version": map_version,
            "migration_submitted": fleet["requests"],
            "migration_resolved": fleet["resolved"],
            "migration_dropped": fleet["unresolved"],
            "migration_errors": fleet["typed_error"] + fleet["untyped_error"],
            "migration_version_mixed": sum(
                count for c in clients for version, count in c.version_counts.items()
                if version != "active"
            ),
            "migration_completed": workers == 3 and map_version >= 2,
        }
    finally:
        service.stop()


def placement() -> dict:
    programs = ("image_embed", "alexnet") if FAST else WIDE
    result, pool, num_kernels = fixture(programs, BEST_TILE)
    # The maximally skewed independent-tuner population: every kernel
    # lands on shard 0 under the static ``fingerprint % n`` map.
    probe = ShardMap.uniform(PLACEMENT_SHARDS)
    hot = [(k, t) for k, t in pool if probe.table[probe.bucket_of(k.fingerprint())] == 0]
    hot_buckets = len({probe.bucket_of(k.fingerprint()) for k, _ in hot})
    if len(hot) < 2 or hot_buckets < 2:
        # A one-bucket hot set is correctly unsplittable.
        raise RuntimeError(
            f"kernel pool too small for a skewed workload "
            f"({len(hot)} hot kernels in {hot_buckets} buckets)"
        )
    clients, requests = scale(16, 4), scale(40, 8)
    streams = client_streams(hot, clients, requests)
    rows = measure({
        "static": skew_row(result, streams, len(hot), adaptive=False),
        "adaptive": skew_row(result, streams, len(hot), adaptive=True),
    }, scale(3, 1))
    return {
        "num_kernels": num_kernels,
        "tiles_per_request": CHUNK,
        "shards": PLACEMENT_SHARDS,
        "clients": clients,
        "requests_per_client": requests,
        "hot_kernels": len(hot),
        "hot_buckets": hot_buckets,
        **rows,
        "rebalances": rows["adaptive"].pop("rebalances"),
        "adaptive_vs_static": fleet_ratio(rows["adaptive"], rows["static"]),
        "adaptive_vs_static_best_of": best_of_ratio(rows["adaptive"], rows["static"]),
        **migration(result, hot),
    }


# ------------------------------------------------------------ resilience
PHASES = ("baseline", "chaos", "recovery")
SOCKET_CLIENTS = scale(4, 2)  # of the resilience clients, how many use TCP
DEADLINE_S = 60.0
RETRY = RetryPolicy(max_attempts=8, base_backoff_s=0.02, max_backoff_s=0.25)


def chaos_plan() -> FaultPlan:
    """Every rule fires a fixed number of times, so the plan is exhausted
    before the recovery phase."""
    return FaultPlan(
        rules=(
            FaultRule(hook="executor.dispatch", kind="kill", after=2, count=1),
            FaultRule(hook="executor.dispatch", kind="hang", after=8, count=1),
            FaultRule(hook="registry.load", kind="corrupt", count=1),
            FaultRule(hook="frontend.recv", kind="drop", after=4, count=2, every_n=5),
        ),
        seed=7,
    )


def resilience() -> dict:
    result, pool, num_kernels = fixture(NARROW, SMALL_MODEL)
    requests = scale(30, 6)
    streams = client_streams(pool, scale(16, 6), requests)
    # Wired through the whole stack but disarmed: its rules' counters only
    # move once the chaos phase arms it.
    injector = FaultInjector(chaos_plan(), armed=False)
    # dispatch_timeout_s bounds every worker pipe reply, a respawned
    # worker's cold boot and checkpoint load included.
    config = ServiceConfig(
        executor="process", replicas=2, max_batch_size=64,
        flush_interval_s=0.002, adaptive_flush=True,
        result_cache_entries=0, dispatch_timeout_s=3.0,
        breaker_failure_threshold=3, breaker_reset_s=0.5,
    )
    out: dict = {
        "num_kernels": num_kernels,
        "socket_clients": SOCKET_CLIENTS,
        "requests_per_client": requests,
        "deadline_s": DEADLINE_S,
    }
    service = CostModelService(result, config, faults=injector).start()
    try:
        with SocketFrontend(service, fault_injector=injector) as frontend:
            def make_client(index: int):
                if index < SOCKET_CLIENTS:
                    return SocketEvaluator(
                        frontend.address, timeout_s=DEADLINE_S, deadline_s=DEADLINE_S, retry=RETRY
                    )
                return ServiceEvaluator(
                    service, timeout_s=DEADLINE_S, deadline_s=DEADLINE_S, retry=RETRY
                )

            phase = functools.partial(run_fleet, streams, make_client, scale(240.0, 120.0))

            # Spawn + sync the workers and intern the kernels first (the
            # plan's `after` counts dispatch events, not requests).
            client = ServiceEvaluator(service, timeout_s=DEADLINE_S)
            warm(client, streams[0])
            out["baseline"] = phase()
            injector.arm()
            out["chaos"] = phase()
            out["fault_plan_exhausted"] = injector.exhausted()
            out["faults"] = injector.snapshot()
            injector.arm(False)
            metrics = service.metrics()
            out["chaos_metrics"] = {
                key: metrics[key]
                for key in ("degraded", "deadline_expired", "overload_rejections",
                            "breaker_blocks", "breaker_open_seconds", "breakers")
            }
            out["worker_restarts"] = metrics.get("evaluator_worker_restarts", 0)
            # Give a still-open breaker its half-open probe window.
            time.sleep(2 * config.breaker_reset_s)
            warm(client, streams[0])
            out["recovery"] = phase()
    finally:
        service.stop()
    for name in PHASES:
        out.update({f"{name}_{k}": out[name][k] for k in ("hung", "unresolved", "untyped_error")})
    out["recovery_ratio"] = fleet_ratio(summarize([out["recovery"]]), summarize([out["baseline"]]))
    return out


# --------------------------------------------------------- observability
OBSERVABILITY_TIMEOUT_S = 120.0
SAMPLE_RATE = 0.01
#: 2 Hz is 30x Prometheus' default 15 s interval; a zero-sleep loop would
#: measure the driver stealing the CPU, not the scrape path's cost.
SCRAPE_INTERVAL_S = 0.5
#: Where the scenarios' journals and the incident report land; CI uploads
#: it, so a failed check ships its own evidence.
ARTIFACTS_DIR = os.environ.get("REPRO_BENCH_ARTIFACTS", "bench-artifacts")
#: Slow-worker fault: each faulted forward sleeps past the alert
#: scenario's 50 ms target. Worker subprocesses run their own injector
#: copy (``arm`` does not cross the pipe), so the outage is in the rule:
#: each worker serves FAULT_AFTER forwards healthy, FAULT_COUNT slow.
FAULT_DELAY_S = 0.12
FAULT_AFTER = 25
FAULT_COUNT = 25
#: 90 % of requests under 50 ms; with burn threshold 2.0 the alert
#: breaches once > 20 % of the window violates, and a few hundred healthy
#: requests dilute it back.
SCENARIO_SLO = dict(slo_target_latency_s=0.05, slo_objective=0.9)
BURN_THRESHOLD = 2.0
PHASE_TIMEOUT_S = 90.0
BAD_SHARD = 1


def observed_config(**overrides) -> ServiceConfig:
    # adaptive_flush stays off: each service's flush controller would
    # converge to its own operating point and dominate the ratios.
    return ServiceConfig(**{
        "executor": "process", "replicas": 2, "max_batch_size": 64,
        "flush_interval_s": 0.002, "adaptive_flush": False,
        "result_cache_entries": 0, "dispatch_timeout_s": 5.0, **overrides,
    })


def scores(service, stream) -> list:
    """One client's ordered pass: every request's score array."""
    client = ServiceEvaluator(service, timeout_s=OBSERVABILITY_TIMEOUT_S)
    return [np.asarray(client.score_tiles_batched(kernel, tiles)) for kernel, tiles in stream]


def bitwise_equal(a: list, b: list) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@contextlib.contextmanager
def scraping(url: str, counter: list):
    """Poll ``url`` every SCRAPE_INTERVAL_S while the block runs,
    counting completed scrapes in ``counter[0]``."""
    stop = threading.Event()

    def loop() -> None:
        while not stop.is_set():
            with urllib.request.urlopen(url, timeout=10) as response:
                response.read()
            counter[0] += 1
            stop.wait(SCRAPE_INTERVAL_S)

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)


def trace_probe(result, stream, reference) -> dict:
    """100 % sampling: one request's assembled tree, and the traced
    stack's scores against the plain stack's."""
    tracer = Tracer(sample_rate=1.0)
    service = CostModelService(result, observed_config(), tracer=tracer).start()
    try:
        traced = scores(service, stream)
        summaries = tracer.recent(1)
        tree = tracer.trace(summaries[0]["trace_id"]) if summaries else None
        spans, todo = [], list((tree or {"roots": ()})["roots"])
        while todo:
            span = todo.pop()
            spans.append(span)
            todo.extend(span["children"])
        processes = sorted({s["process"] for s in spans})
        worker_pids = sorted(
            {s["attrs"].get("pid") for s in spans if s["process"].startswith("worker-")}
        )
        return {
            "trace_span_count": len(spans),
            "trace_processes": processes,
            "trace_span_names": sorted({s["name"] for s in spans}),
            "trace_worker_pids": worker_pids,
            "trace_service_pid": os.getpid(),
            **{f"trace_has_{layer}": layer in processes
               for layer in ("frontend", "scheduler", "executor")},
            "trace_has_worker_subprocess": bool(worker_pids)
            and all(pid != os.getpid() for pid in worker_pids),
            "trace_rendered_chars": len(tracer.render(summaries[0]["trace_id"]))
            if summaries else 0,
            "bitwise_identical": bitwise_equal(reference, traced),
        }
    finally:
        service.stop()


def fresh_journal(name: str) -> str:
    """A journal path under ARTIFACTS_DIR/name, emptied of earlier runs."""
    journal_dir = os.path.join(ARTIFACTS_DIR, name)
    os.makedirs(journal_dir, exist_ok=True)
    for stale in os.listdir(journal_dir):
        os.remove(os.path.join(journal_dir, stale))
    return os.path.join(journal_dir, "ops.jsonl")


def _subsequence(needle: tuple, haystack: list) -> bool:
    """True when ``needle``'s items appear in ``haystack`` in order."""
    it = iter(haystack)
    return all(any(item == want for item in it) for want in needle)


def alert_scenario(result, stream) -> dict:
    """Drive a burn-rate alert pending -> firing -> resolved with real
    faults, journaling every transition with its exemplar trace."""
    journal_path = fresh_journal("observability-journal")
    injector = FaultInjector(FaultPlan(rules=(FaultRule(
        hook="worker.forward", kind="delay", delay_s=FAULT_DELAY_S,
        after=FAULT_AFTER, count=FAULT_COUNT,
    ),), seed=0))
    # Deep enough that the firing transition's exemplar trace survives
    # the recovery flood.
    tracer = Tracer(sample_rate=1.0, max_traces=4096)
    journal = OpsJournal(journal_path)
    service = CostModelService(
        result, observed_config(dispatch_timeout_s=30.0, **SCENARIO_SLO),
        tracer=tracer, faults=injector, journal=journal,
    ).start()
    engine = AlertEngine(rules=[BurnRateRule(
        name="slo_burn", threshold=BURN_THRESHOLD, min_samples=16, for_s=0.25,
        severity="critical",
    )])
    service.attach_alerts(engine)
    observed: list[str] = []
    client = ServiceEvaluator(service, timeout_s=OBSERVABILITY_TIMEOUT_S)

    def pump_until(state: str, requests: int) -> None:
        deadline = time.perf_counter() + PHASE_TIMEOUT_S
        while engine.state("slo_burn") != state and time.perf_counter() < deadline:
            for i in range(requests):
                client.score_tiles_batched(*stream[i % len(stream)])
            observed.extend(move["to"] for move in engine.evaluate())

    try:
        # Healthy traffic fills the SLO window (every worker is inside its
        # healthy prefix); the scheduled outage fires the alert; healthy
        # traffic after the fault budget resolves it.
        for i in range(16):
            client.score_tiles_batched(*stream[i % len(stream)])
        observed.extend(move["to"] for move in engine.evaluate())
        healthy_state = engine.state("slo_burn")
        pump_until("firing", 2)
        pump_until("resolved", 16)
        transitions = journal.timeline(("alert.",))
        return {
            "alert_journal_path": journal_path,
            "alert_healthy_state": healthy_state,
            "alert_state_sequence": observed,
            "alert_final_state": engine.state("slo_burn"),
            "alert_transitions": [
                {k: e.get(k) for k in ("seq", "from", "to", "value", "trace_id")}
                for e in transitions
            ],
            "alert_journal": journal.snapshot(),
            "alert_slo_final": {
                k: v for k, v in service.telemetry.collect().items() if k.startswith("slo_")
            },
            "alert_walked_pending_firing_resolved": _subsequence(
                ("pending", "firing", "resolved"), observed
            ),
            "trace_correlated_transitions": sum(
                1 for e in transitions
                if e.get("trace_id") and tracer.trace(e["trace_id"]) is not None
            ),
            "journal_events": journal.snapshot()["journal_events"],
        }
    finally:
        service.stop()
        journal.close()


def incident_scenario(result, pool) -> dict:
    """One silently corrupted shard: probes must catch it before any
    client request errors, the alert must fire, and the incident report
    must blame that shard."""
    # Probes cover both shards; business traffic is pinned to shard 0.
    by_shard: dict[int, list] = {0: [], 1: []}
    for kernel, tiles in pool:
        by_shard[shard_of(kernel.fingerprint(), 2)].append((kernel, tuple(tiles[:CHUNK])))
    if not by_shard[0] or not by_shard[1]:
        return {"incident_covers_both_shards": False}
    corpus = [GoldenProbe(*by_shard[0][0]), GoldenProbe(*by_shard[1][0])]
    good_stream = by_shard[0][:4]
    journal_path = fresh_journal("incident-journal")
    report_path = os.path.join(ARTIFACTS_DIR, "incident-report.json")
    # Armed later: every checkpoint shipped to the bad shard is corrupted,
    # and a one-shot kill forces one reload. Both hooks fire in this
    # process, so arm() reaches them.
    injector = FaultInjector(FaultPlan(rules=(
        FaultRule(hook="registry.load", kind="corrupt", shard=BAD_SHARD, count=None),
        FaultRule(hook="executor.dispatch", kind="kill", shard=BAD_SHARD, count=1),
    ), seed=0), armed=False)
    journal = OpsJournal(journal_path)
    service = CostModelService(
        result, observed_config(dispatch_timeout_s=30.0), faults=injector, journal=journal
    ).start()
    prober = SyntheticProber(corpus, journal=journal)
    service.attach_prober(prober)
    engine = AlertEngine(rules=[ThresholdRule(
        name="probe_integrity", metric="prober_routes_failing", threshold=0.0,
        severity="critical",
    )])
    service.attach_alerts(engine)
    reporter = IncidentReporter()
    service.attach_incidents(reporter)
    client = ServiceEvaluator(service, timeout_s=OBSERVABILITY_TIMEOUT_S)

    def pump(n: int) -> None:
        for i in range(n):
            client.score_tiles_batched(*good_stream[i % len(good_stream)])

    try:
        # Healthy: business traffic flows, a sweep passes, the alert is quiet.
        pump(8)
        prober.sweep()
        engine.evaluate()
        healthy = {
            "failing_routes": dict(prober.failing_routes()),
            "alert_state": engine.state("probe_integrity"),
        }
        # Silent corruption: the kill forces a respawn that reloads a
        # poisoned checkpoint; only probes touch the bad shard.
        injector.arm()
        detection = None
        deadline = time.perf_counter() + PHASE_TIMEOUT_S
        while detection is None and time.perf_counter() < deadline:
            prober.sweep()
            failing = prober.failing_routes()
            if failing:
                stats = service.stats.snapshot()
                detection = {
                    "failing_routes": dict(failing),
                    "client_errors": stats["errors"],
                    "client_requests": stats["requests"],
                }
        pump(4)  # the healthy shard still answers
        # The threshold alert walks pending -> firing, which files the
        # incident.
        deadline = time.perf_counter() + PHASE_TIMEOUT_S
        while engine.state("probe_integrity") != "firing" and time.perf_counter() < deadline:
            engine.evaluate()
            time.sleep(0.01)
        incidents = reporter.reports()
        incident = reporter.report(incidents[0]["id"]) if incidents else None
        os.makedirs(ARTIFACTS_DIR, exist_ok=True)
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(incident, fh, indent=2, default=str)
        final_stats = service.stats.snapshot()
        cause = ((incident or {}).get("causes") or [{}])[0]
        evidence = cause.get("evidence") or {}
        return {
            "incident_journal_path": journal_path,
            "incident_report_path": report_path,
            "incident_healthy": healthy,
            "incident_detection": detection,
            "incident_client_errors_final": final_stats["errors"],
            "incident_client_requests_final": final_stats["requests"],
            "incidents": incidents,
            "incident_top_cause": {k: cause.get(k) for k in ("kind", "score", "cause", "evidence")},
            "incident_prober": prober.health(),
            "incident_covers_both_shards": True,
            "incident_detected": detection is not None,
            "incident_isolated_bad_shard": None if detection is None else any(
                route.split(":")[1] == str(BAD_SHARD) for route in detection["failing_routes"]
            ),
            "client_errors_at_detection": None if detection is None
            else detection["client_errors"],
            "incident_alert_state": engine.state("probe_integrity"),
            "incident_top_cause_kind": cause.get("kind"),
            "incident_top_cause_shard": None if evidence.get("shard") is None
            else str(evidence["shard"]),
            "incident_cites_journal_seq": evidence.get("first_failure_seq") is not None,
            "incident_report_written": os.path.exists(report_path),
        }
    finally:
        service.stop()
        journal.close()


def observability() -> dict:
    result, pool, num_kernels = fixture(NARROW, SMALL_MODEL)
    requests = scale(60, 6)
    streams = client_streams(pool, scale(16, 4), requests)
    stream = streams[0]
    out: dict = {
        "num_kernels": num_kernels,
        "requests_per_client": requests,
        "trace_sample_rate": SAMPLE_RATE,
    }
    # Throughput modes are interleaved rounds over live services; only the
    # mode under measurement ever has client load.
    tracer = Tracer(sample_rate=SAMPLE_RATE)
    profiler = ContinuousProfiler()
    prober = SyntheticProber([GoldenProbe(k, tuple(t[:CHUNK])) for k, t in pool[:3]])
    with contextlib.ExitStack() as stack:
        plain, sampled, profiled, probed = (
            stack.enter_context(CostModelService(result, observed_config(), **hooks))
            for hooks in ({}, {"tracer": tracer}, {"profiler": profiler}, {})
        )
        probed.attach_prober(prober)
        for service in (plain, sampled, profiled, probed):
            warm(ServiceEvaluator(service, timeout_s=OBSERVABILITY_TIMEOUT_S), stream)
        reference = scores(plain, stream)
        # Attached but idle, a prober must leave the answers bitwise.
        out["probed_bitwise_identical"] = bitwise_equal(reference, scores(probed, stream))
        # Prime the prober's reference evaluators outside the measured
        # window, then let it sweep at its default cadence throughout.
        prober.sweep()
        prober.start()
        stack.callback(prober.stop)
        gateway = stack.enter_context(MetricsGateway(plain))
        url = "http://{}:{}/metrics".format(*gateway.address)
        scrapes = [0]
        baseline = fleet_of(plain, streams, OBSERVABILITY_TIMEOUT_S)

        def scraped_pass() -> dict:
            with scraping(url, scrapes):
                return baseline()

        rows = measure({
            name: contextlib.nullcontext(({}, run))
            for name, run in (
                ("baseline", baseline),
                ("scraped", scraped_pass),
                ("sampled", fleet_of(sampled, streams, OBSERVABILITY_TIMEOUT_S)),
                ("profiled", fleet_of(profiled, streams, OBSERVABILITY_TIMEOUT_S)),
                ("probed", fleet_of(probed, streams, OBSERVABILITY_TIMEOUT_S)),
            )
        }, scale(9, 1))
        prober.stop()
        out.update(rows)
        out["sampled"]["tracer"] = tracer.snapshot()
        out["profiled"]["profiler"] = profiler.snapshot()
        out["probed"]["prober"] = prober.health()
        out["profiled_bitwise_identical"] = bitwise_equal(reference, scores(profiled, stream))
    for mode in ("scraped", "sampled", "profiled", "probed"):
        out[f"{mode}_ratio"] = fleet_ratio(rows[mode], rows["baseline"])
    out["scrapes"] = scrapes[0]
    out["probe_sweeps"] = prober.sweeps
    out["probe_failures"] = out["probed"]["prober"]["failures"]
    out.update(trace_probe(result, stream, reference))
    out.update(alert_scenario(result, stream))
    out.update(incident_scenario(result, pool))
    return out


SECTIONS = {
    "batching": batching,
    "rollout": rollout,
    "placement": placement,
    "resilience": resilience,
    "observability": observability,
}


# ------------------------------------------------------------------ checks
def evaluate(report: dict) -> dict:
    """The 53 checks over a report's numbers, and their enforced conjunction.

    Pure — it reads ``report`` and runs nothing — so a test can feed it any
    report. Each check's value is ``report[section][name]``; a timing check
    is not enforced in fast mode unless its value is null.
    """
    fast = report["fast_mode"]

    def check(section: str, name: str, op: str, bound, timing: bool = False) -> dict:
        record = check_record(report, section, name, op, bound)
        record["timing"] = timing
        record["enforced"] = not (fast and timing) or record["value"] is None
        return record

    checks = [
        check("batching", "speedup_vs_naive_at_max_clients", ">=", 1.5, timing=True),
        check("batching", "adaptive_vs_naive_at_max_clients", ">=", 1.5, timing=True),
        check("batching", "adaptive_vs_fixed_at_1_client", ">=", 1.5, timing=True),
        check("batching", "process_vs_threaded_pool_at_max_clients", ">", 1.0, timing=True),
        check("batching", "socket_vs_inprocess_at_max_clients", ">=", 0.5, timing=True),
        check("rollout", "canary_vs_plain", ">=", 0.9, timing=True),
        check("rollout", "detection_state", "==", ROLLED_BACK),
        check("rollout", "requests_to_detect", "<=", detect_budget(fast)),
        check("rollout", "active_untouched", "==", True),
        check("placement", "adaptive_vs_static", ">=", 1.2, timing=True),
        check("placement", "rebalances", ">=", 1),
        check("placement", "migration_dropped", "<=", 0),
        check("placement", "migration_errors", "<=", 0),
        check("placement", "migration_version_mixed", "<=", 0),
        check("placement", "migration_completed", "==", True),
        *(
            check("resilience", f"{phase}_{count}", "<=", 0)
            for phase in PHASES
            for count in ("hung", "unresolved", "untyped_error")
        ),
        check("resilience", "recovery_ratio", ">=", 0.9, timing=True),
        check("resilience", "fault_plan_exhausted", "==", True),
        check("resilience", "worker_restarts", ">=", 1),
        check("observability", "bitwise_identical", "==", True),
        check("observability", "scraped_ratio", ">=", 0.95, timing=True),
        check("observability", "sampled_ratio", ">=", 0.9, timing=True),
        check("observability", "profiled_ratio", ">=", 0.95, timing=True),
        check("observability", "profiled_bitwise_identical", "==", True),
        check("observability", "probed_bitwise_identical", "==", True),
        check("observability", "probed_ratio", ">=", 0.97, timing=True),
        check("observability", "probe_sweeps", ">=", 1),
        check("observability", "probe_failures", "<=", 0),
        check("observability", "alert_walked_pending_firing_resolved", "==", True),
        check("observability", "trace_correlated_transitions", ">=", 1),
        check("observability", "journal_events", ">=", 3),
        *(
            check("observability", f"trace_has_{layer}", "==", True)
            for layer in ("frontend", "scheduler", "executor", "worker_subprocess")
        ),
        check("observability", "scrapes", ">=", 1),
        check("observability", "incident_covers_both_shards", "==", True),
        check("observability", "incident_detected", "==", True),
        check("observability", "incident_isolated_bad_shard", "==", True),
        check("observability", "client_errors_at_detection", "<=", 0),
        check("observability", "incident_alert_state", "==", "firing"),
        check("observability", "incident_top_cause_kind", "==", "probe_failure"),
        check("observability", "incident_top_cause_shard", "==", str(BAD_SHARD)),
        check("observability", "incident_cites_journal_seq", "==", True),
        check("observability", "incident_report_written", "==", True),
    ]
    return {"checks": checks, "ok": all(c["passed"] for c in checks if c["enforced"])}


def _shown(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main() -> dict:
    report = {"benchmark": "bench_serving", "fast_mode": FAST, "wall_s": {}}
    for name, run in SECTIONS.items():
        start = time.perf_counter()
        try:
            report[name] = run()
        except Exception as exc:  # every section runs; this one's checks fail
            traceback.print_exc()
            report[name] = {"error": f"{type(exc).__name__}: {exc}"}
        report["wall_s"][name] = time.perf_counter() - start
    report["wall_s"]["total"] = sum(report["wall_s"].values())
    report.update(evaluate(report))
    print(file=sys.stderr)
    print(format_table(
        ["Section", "Check", "Value", "Op", "Bound", "Result"],
        [
            [c["section"], c["name"], _shown(c["value"]), c["op"], _shown(c["bound"]),
             ("pass" if c["passed"] else "FAIL") + ("" if c["enforced"] else " (reported)")]
            for c in report["checks"]
        ],
        title=f"Serving checks: {sum(c['passed'] for c in report['checks'])} of "
        f"{len(report['checks'])} pass",
    ), file=sys.stderr)
    return report


if __name__ == "__main__":
    report = main()
    print(json.dumps(stamp_report(report), indent=2))
    sys.exit(0 if report["ok"] else 1)
