"""Serving-stack throughput benchmark, as JSON.

Measures requests/sec for tile-score queries at 1/4/16 concurrent clients
across the transport x executor matrix:

* **direct** — each client thread owns a warm
  :class:`~repro.autotuner.LearnedEvaluator` and calls it in-process (no
  service boundary; per-client model copies, the thing the service layer
  exists to avoid);
* **naive service** — one shared ``CostModelService`` with
  ``max_batch_size=1``: every request pays its own forward pass (the
  per-request RPC baseline);
* **micro-batched service** — the same service with coalescing enabled
  and the fixed 2 ms flush window (the PR 2 configuration);
* **adaptive service** — micro-batching with the flush window derived
  from the inter-arrival EMA: zero wait in the sparse 1-client regime,
  the full window under dense concurrent load;
* **threaded pool** (max clients) — micro-batched + 4 in-thread shards:
  the in-process placement the process executor must beat;
* **process shards** (max clients) — micro-batched + 4 worker
  subprocesses: forwards outside the GIL, checkpoints shipped as blobs;
* **socket frontend** (max clients) — the same micro-batched service
  queried through the length-prefixed TCP frontend, one connection per
  client. The clients run in their own process — the deployment shape
  the socket transport exists for (an in-server client thread pool would
  charge all client-side work to the server's interpreter) — and the
  flush window is doubled, the usual scaling of a batching window with
  transport round-trip time.

Two workload regimes, because the serving wins live in different ones:

* **population-splitting** (the coalescing rows): every client walks the
  same (kernel, tile-chunk) stream — concurrent search workers splitting
  one kernel's candidate population. Same-instant requests hit the same
  kernel and coalesce into single shared forwards (the micro-batching
  win). This is the PR 2 workload, kept for comparability.
* **independent tuners** (the placement rows): each client walks the
  stream at its own rotation — N tuners each tuning a different kernel
  subset, the deployment sharding exists for. Batches then span many
  distinct kernels; both executors run each shard's slice of a batch as
  one multi-kernel forward, so what differs between the rows is where
  that forward runs (the service's thread, or a worker process behind a
  pipe).

The result cache is disabled so every request exercises the full path.

Every row of one comparison is a live, warm service, and the rows are
measured as **interleaved rounds** (``harness.interleaved_rounds``): each
round runs one pass of every row, in rotating order, and each gated ratio
is the **median over rounds of the within-round ratio**
(``harness.median_paired_ratio``). Back-to-back passes of one untouched
service spread by tens of percent on the small boxes this runs on;
pairing within a round cancels the drift and the median drops a stalled
round. ``requests_per_sec`` of a row is its best pass.

Run with ``REPRO_BENCH_FAST=1`` for the CI smoke configuration. Output is
one JSON object on stdout (tracked PR-over-PR in ROADMAP.md). In full
mode the exit code enforces the bars the design claims on a 2-core box:

* micro-batched >= 1.5x naive at max clients, fixed window and adaptive
  alike. The bar was 3x while a forward cost 1.5 ms, nearly all of it
  fixed: sharing one forward between 16 requests saved 15 of them. Since
  the tape-free ``predict`` a 4-row forward costs 0.5 ms, so the naive
  service is itself more than 2x faster and the same sharing measures
  2.0-2.5x; 3x is no longer there to be had, and is not a regression.
* adaptive >= 1.5x fixed micro-batched at 1 client (no lone-client tax);
* process shards beat the equally-sharded threaded pool at max clients
  (independent-tuner regime). Both fuse a shard's slice of a batch into
  one forward; the process rows run those forwards on separate cores.
  This holds only with one BLAS thread per process (set below): with
  two, four workers on two cores measured 0.15-0.22x.
* the socket frontend sustains >= 0.5x in-process throughput at max
  clients (population-splitting regime, same as its baseline).

Reported, not gated: ``direct`` and every per-row latency and occupancy —
they describe the rows, no design claim hangs on them.

Fast mode is informational only (it still fails on crashes): its request
counts are far too small for stable ratios, so gating on them would make
CI flaky.
"""
from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import sys
import threading
import time

# One BLAS thread per process, set before NumPy loads (spawned workers
# inherit it), as the spine benchmark does: the forwards here are small,
# and a second BLAS thread spin-waiting between them takes a core from
# the client threads. Measured on the 2-core box: 4 clients on the
# fixed-window service run at ~90 req/s for the first passes with two
# BLAS threads and at a steady ~800 req/s with one.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.autotuner import LearnedEvaluator  # noqa: E402
from repro.compiler import enumerate_tile_sizes  # noqa: E402
from repro.data import Scalers, build_tile_dataset  # noqa: E402
from repro.evaluation import ServingStats  # noqa: E402
from repro.models import LearnedPerformanceModel, ModelConfig  # noqa: E402
from repro.models.trainer import TrainResult  # noqa: E402
from repro.serving import (  # noqa: E402
    CostModelService,
    ServiceConfig,
    ServiceEvaluator,
    SocketEvaluator,
    SocketFrontend,
)
from repro.workloads import vision  # noqa: E402

from harness import interleaved_rounds, median_paired_ratio, stamp_report  # noqa: E402

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

CHUNK = 4  # candidate tiles per request (one search step's proposals)
SHARDS = 2 if FAST else 4  # shard count for the pool/process rows
#: Interleaved rounds per comparison: one pass of every row per round.
REPEATS = 1 if FAST else 5


def _workload(records, requests_per_client: int):
    """Per-request (kernel, tile-chunk) stream: clients walk the kernels
    round-robin, requesting successive chunks of each candidate list."""
    kernels = []
    for record in records:
        tiles = enumerate_tile_sizes(record.kernel)
        if len(tiles) >= CHUNK:
            kernels.append((record.kernel, tiles))
    stream = []
    for i in range(requests_per_client):
        kernel, tiles = kernels[i % len(kernels)]
        start = (i * CHUNK) % (len(tiles) - CHUNK + 1)
        stream.append((kernel, tiles[start:start + CHUNK]))
    return stream


def _client_streams(stream, num_clients: int, decorrelate: bool):
    """Per-client request streams for one measured pass.

    Correlated (default): every client walks the identical stream —
    population-splitting workers, maximal same-kernel coalescing.
    De-correlated: client ``i`` starts at its own rotation — independent
    tuners, so any instant's batch spans many distinct kernels.
    """
    if not decorrelate:
        return [stream] * num_clients
    return [
        stream[(i * len(stream)) // num_clients:]
        + stream[: (i * len(stream)) // num_clients]
        for i in range(num_clients)
    ]


def _run_clients_once(num_clients: int, streams, make_scorer) -> float:
    """Spin up clients, each scoring its stream; requests/sec."""
    barrier = threading.Barrier(num_clients + 1)

    def client(index: int) -> None:
        scorer = make_scorer()
        barrier.wait()
        for kernel, tiles in streams[index]:
            scorer.score_tiles_batched(kernel, tiles)
        closer = getattr(scorer, "close", None)
        if closer is not None:
            closer()

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(num_clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    return sum(len(s) for s in streams) / elapsed


def _socket_client_proc(
    address, stream, num_conns: int, go_events, done_queue, repeats: int
) -> None:
    """Client-process half of the socket row: N connections, one thread
    each, driven through ``repeats`` handshake-synchronized passes."""
    from repro.serving import SocketEvaluator

    evaluators = [SocketEvaluator(address, timeout_s=300.0) for _ in range(num_conns)]

    def drive(evaluator) -> None:
        for kernel, tiles in stream:
            evaluator.score_tiles_batched(kernel, tiles)

    for i in range(repeats):
        done_queue.put(("ready", i))
        go_events[i].wait()
        threads = [
            threading.Thread(target=drive, args=(e,)) for e in evaluators
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        done_queue.put(("done", i))
    for evaluator in evaluators:
        evaluator.close()


def _await_client(queue, process, expected, timeout: float = 600.0):
    """Wait for the client process's handshake message, noticing a dead
    child within seconds instead of sitting out the whole timeout."""
    import queue as queue_module

    deadline = time.monotonic() + timeout
    while True:
        try:
            message = queue.get(timeout=5.0)
        except queue_module.Empty:
            if not process.is_alive():
                raise RuntimeError(
                    f"socket client process died before {expected!r} "
                    f"(exitcode={process.exitcode})"
                ) from None
            if time.monotonic() >= deadline:
                raise TimeoutError(f"no {expected!r} from socket client process")
            continue
        if message != expected:
            raise RuntimeError(f"unexpected client handshake {message!r}")
        return


@contextlib.contextmanager
def _socket_clients(frontend, stream, num_clients: int):
    """A separate client process holding ``num_clients`` connections;
    yields ``run_pass() -> requests/sec`` (at most ``REPEATS`` passes)."""
    ctx = multiprocessing.get_context("spawn")
    go_events = [ctx.Event() for _ in range(REPEATS)]
    done_queue = ctx.Queue()
    process = ctx.Process(
        target=_socket_client_proc,
        args=(frontend.address, stream, num_clients, go_events, done_queue, REPEATS),
    )
    process.start()
    passes = iter(range(REPEATS))

    def run_pass() -> float:
        i = next(passes)
        _await_client(done_queue, process, ("ready", i))
        go_events[i].set()
        start = time.perf_counter()
        _await_client(done_queue, process, ("done", i))
        return num_clients * len(stream) / (time.perf_counter() - start)

    try:
        yield run_pass
    finally:
        process.join(timeout=60)
        if process.is_alive():
            process.terminate()


@contextlib.contextmanager
def direct_row(result, stream, num_clients: int):
    """Per-client warm evaluators, no service boundary."""
    def make_scorer():
        evaluator = LearnedEvaluator(result.model, result.scalers)
        for kernel, tiles in stream:
            evaluator.score_tiles_batched(kernel, tiles)  # warm caches
        return evaluator

    streams = _client_streams(stream, num_clients, False)
    yield {}, lambda: _run_clients_once(num_clients, streams, make_scorer)


@contextlib.contextmanager
def service_row(
    result,
    stream,
    num_clients: int,
    max_batch_size: int,
    adaptive_flush: bool = False,
    replicas: int = 1,
    executor: str = "thread",
    transport: str = "inproc",
    decorrelate: bool = False,
    flush_interval_s: float = 0.002,
):
    """One warm service configuration; yields ``(row, run_pass)``.

    ``run_pass()`` measures one pass and returns requests/sec; ``row``
    gains the service's own metrics when the context exits.
    """
    config = ServiceConfig(
        max_batch_size=max_batch_size,
        flush_interval_s=flush_interval_s,
        adaptive_flush=adaptive_flush,
        replicas=replicas,
        executor=executor,
        result_cache_entries=0,  # every request must exercise the model
    )
    row: dict = {}
    with contextlib.ExitStack() as stack:
        service = stack.enter_context(CostModelService(result, config))
        # Warm the executor's kernel caches (and, for the process
        # executor, spawn + sync the workers and intern the kernels) so
        # all configurations compete on steady-state forward throughput.
        warm = ServiceEvaluator(service)
        for kernel, tiles in stream:
            warm.score_tiles_batched(kernel, tiles)
        # Fresh stats: occupancy/latency must describe measured traffic
        # only, not the sequential warmup.
        service.stats = ServingStats()
        if transport == "socket":
            frontend = stack.enter_context(SocketFrontend(service))
            run_pass = stack.enter_context(
                _socket_clients(frontend, stream, num_clients)
            )
            row["client_process"] = True
        else:
            streams = _client_streams(stream, num_clients, decorrelate)

            def run_pass() -> float:
                return _run_clients_once(
                    num_clients, streams, lambda: ServiceEvaluator(service)
                )

        yield row, run_pass
        metrics = service.metrics()
    for key in ("batch_occupancy", "requests_per_forward", "latency_p50_s", "latency_p99_s"):
        row[key] = metrics[key]
    if replicas > 1:
        row["per_shard_requests"] = {
            shard: entry["requests"]
            for shard, entry in metrics["per_shard"].items()
        }


def measure(num_clients: int, stream, rows: dict) -> dict[str, dict]:
    """Open every row, measure them as interleaved rounds, close them.

    ``rows`` maps a name to a row context manager; returns each row's
    report (all passes, best pass, and the service's own metrics).
    """
    with contextlib.ExitStack() as stack:
        opened = {name: stack.enter_context(row) for name, row in rows.items()}
        rates = interleaved_rounds(
            {name: run_pass for name, (_, run_pass) in opened.items()}, REPEATS
        )
    return {
        name: {
            "clients": num_clients,
            "requests": num_clients * len(stream),
            "requests_per_sec": max(rates[name]),
            "all_passes_rps": rates[name],
            **row,
        }
        for name, (row, _) in opened.items()
    }


def main() -> dict:
    # A wide kernel pool (~30 kernels full mode): the independent-tuner
    # regime needs many distinct kernels in flight to be meaningful.
    if FAST:
        programs = [vision.image_embed(0)]
    else:
        programs = [
            vision.resnet_v1(0), vision.alexnet(0),
            vision.image_embed(0), vision.ssd(0),
        ]
    dataset = build_tile_dataset(
        programs,
        max_kernels_per_program=4 if FAST else 8,
        max_tiles_per_kernel=8,
        seed=0,
    )
    scalers = Scalers.fit_tile(dataset.records)
    config = ModelConfig.paper_best_tile()
    model = LearnedPerformanceModel(config)
    model.eval()
    result = TrainResult(model=model, scalers=scalers, loss_history=[])

    requests_per_client = 8 if FAST else 40
    client_counts = [1, 4] if FAST else [1, 4, 16]
    stream = _workload(dataset.records, requests_per_client)

    report: dict = {
        "benchmark": "bench_serving",
        "fast_mode": FAST,
        "num_kernels": len(dataset.records),
        "tiles_per_request": CHUNK,
        "requests_per_client": requests_per_client,
        "shards": SHARDS,
        "direct": {},
        "naive_service": {},
        "micro_batched_service": {},
        "adaptive_service": {},
        "threaded_pool_service": {},
        "process_shard_service": {},
        "socket_service": {},
    }
    # The placement matrix is a max-concurrency, independent-tuner story;
    # measuring at one client count keeps full-mode runtime sane. Both
    # placement rows run the identical de-correlated workload. The socket
    # row runs the population-splitting workload, like the in-process
    # baseline it is paired with.
    top_n = client_counts[-1]
    top = str(top_n)
    for n in client_counts:
        rows = {
            "direct": direct_row(result, stream, n),
            "naive_service": service_row(result, stream, n, max_batch_size=1),
            "micro_batched_service": service_row(result, stream, n, max_batch_size=64),
            "adaptive_service": service_row(
                result, stream, n, max_batch_size=64, adaptive_flush=True
            ),
        }
        if n == top_n:
            rows["socket_service"] = service_row(
                result, stream, n, max_batch_size=64, adaptive_flush=True,
                transport="socket", flush_interval_s=0.004,
            )
        for name, row in measure(n, stream, rows).items():
            report[name][str(n)] = row
    placement = measure(top_n, stream, {
        "threaded_pool_service": service_row(
            result, stream, top_n, max_batch_size=64, adaptive_flush=True,
            replicas=SHARDS, executor="thread", decorrelate=True,
        ),
        "process_shard_service": service_row(
            result, stream, top_n, max_batch_size=64, adaptive_flush=True,
            replicas=SHARDS, executor="process", decorrelate=True,
        ),
    })
    for name, row in placement.items():
        report[name][top] = row

    def ratio(mode: str, baseline: str, clients: str) -> float:
        return median_paired_ratio(
            report[mode][clients]["all_passes_rps"],
            report[baseline][clients]["all_passes_rps"],
        )

    report["speedup_vs_naive_at_max_clients"] = ratio(
        "micro_batched_service", "naive_service", top
    )
    report["adaptive_vs_naive_at_max_clients"] = ratio(
        "adaptive_service", "naive_service", top
    )
    report["adaptive_vs_fixed_at_1_client"] = ratio(
        "adaptive_service", "micro_batched_service", "1"
    )
    report["process_vs_threaded_pool_at_max_clients"] = ratio(
        "process_shard_service", "threaded_pool_service", top
    )
    report["socket_vs_inprocess_at_max_clients"] = ratio(
        "socket_service", "adaptive_service", top
    )
    return report


def _gates(report: dict) -> list[str]:
    """Acceptance bars enforced by exit code in full mode (the module
    docstring says why each bar is where it is)."""
    failures = []
    if report["speedup_vs_naive_at_max_clients"] < 1.5:
        failures.append(
            f"micro-batched vs naive at max clients: "
            f"{report['speedup_vs_naive_at_max_clients']:.2f}x < 1.5x"
        )
    if report["adaptive_vs_naive_at_max_clients"] < 1.5:
        failures.append(
            f"adaptive vs naive at max clients: "
            f"{report['adaptive_vs_naive_at_max_clients']:.2f}x < 1.5x"
        )
    if report["adaptive_vs_fixed_at_1_client"] < 1.5:
        failures.append(
            f"adaptive vs fixed micro-batching at 1 client: "
            f"{report['adaptive_vs_fixed_at_1_client']:.2f}x < 1.5x"
        )
    if report["process_vs_threaded_pool_at_max_clients"] <= 1.0:
        failures.append(
            f"process shards vs threaded pool at max clients: "
            f"{report['process_vs_threaded_pool_at_max_clients']:.2f}x <= 1.0x"
        )
    if report["socket_vs_inprocess_at_max_clients"] < 0.5:
        failures.append(
            f"socket vs in-process at max clients: "
            f"{report['socket_vs_inprocess_at_max_clients']:.2f}x < 0.5x"
        )
    return failures


if __name__ == "__main__":
    report = main()
    print(json.dumps(stamp_report(report), indent=2))
    failures = [] if FAST else _gates(report)
    for failure in failures:
        print(f"BENCH GATE FAILED: {failure}", file=sys.stderr)
    sys.exit(1 if failures else 0)
