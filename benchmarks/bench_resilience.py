"""Chaos benchmark for the resilient serving stack, as JSON.

Drives a 16-client tile-scoring workload (12 in-process + 4 socket
clients, all with deadlines and retry policies) against a process-sharded
service through three phases:

* **baseline** — no faults: steady-state throughput of the healthy stack;
* **chaos** — a count-bounded :class:`~repro.serving.faults.FaultPlan`
  kills a shard worker, SIGSTOPs another (alive but unresponsive — the
  watchdog's failure mode), corrupts a checkpoint blob in flight, and
  drops socket connections mid-stream, all while the clients keep
  querying. Every request's outcome is classified as ``ok`` (correct
  learned answer), ``degraded`` (analytical fallback, tagged on the
  wire), ``typed_error`` (a typed serving fault), or ``untyped_error``
  (anything else — a resilience bug);
* **recovery** — the plan is exhausted; throughput is re-measured on the
  healed stack.

Run with ``REPRO_BENCH_FAST=1`` for the CI smoke configuration (fewer
clients/requests, no gates — chaos timing at smoke scale is too noisy to
gate on, though crashes still fail). Output is one JSON object on stdout.
In full mode the exit code enforces the resilience acceptance bars:

* zero hung client threads (every client joins within its timeout);
* 100% of chaos-phase requests resolve as answer | degraded | typed
  error — no untyped errors, no unresolved requests;
* recovered throughput >= 0.9x the no-chaos baseline;
* the chaos phase actually exercised the machinery: at least one worker
  respawn, and the fault plan fully fired.
"""
from __future__ import annotations

import json
import os
import sys
import threading
import time

# One BLAS thread per process, set before NumPy loads (spawned workers
# inherit it), as bench_serving.py and the spine benchmark do: with two,
# the small forwards' spin-waiting BLAS thread takes a core from the
# client threads and the A/B ratios below measure that instead.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.compiler import enumerate_tile_sizes  # noqa: E402
from repro.data import Scalers, build_tile_dataset  # noqa: E402
from repro.models import LearnedPerformanceModel, ModelConfig  # noqa: E402
from repro.models.trainer import TrainResult  # noqa: E402
from repro.serving import (  # noqa: E402
    CostModelService,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    ServiceConfig,
    ServiceEvaluator,
    ServingFault,
    SocketEvaluator,
    SocketFrontend,
)
from repro.workloads import vision  # noqa: E402

from harness import stamp_report  # noqa: E402

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

CHUNK = 4  # candidate tiles per request
CLIENTS = 6 if FAST else 16
SOCKET_CLIENTS = 2 if FAST else 4  # of CLIENTS, how many go over TCP
REQUESTS_PER_CLIENT = 6 if FAST else 30
CLIENT_JOIN_TIMEOUT_S = 120.0 if FAST else 240.0
DEADLINE_S = 60.0
RETRY = RetryPolicy(max_attempts=8, base_backoff_s=0.02, max_backoff_s=0.25)


def _chaos_plan() -> FaultPlan:
    """The count-bounded chaos schedule: every rule fires a fixed number
    of times, so the plan is exhausted before the recovery phase."""
    return FaultPlan(
        rules=(
            FaultRule(hook="executor.dispatch", kind="kill", after=2, count=1),
            FaultRule(hook="executor.dispatch", kind="hang", after=8, count=1),
            FaultRule(hook="registry.load", kind="corrupt", count=1),
            FaultRule(hook="frontend.recv", kind="drop", after=4, count=2,
                      every_n=5),
        ),
        seed=7,
    )


def _workload(records, requests_per_client: int):
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


def _run_phase(service, address, stream) -> dict:
    """One measured pass of the mixed client fleet; outcome counts.

    Every client stamps deadlines and retries typed transient faults; the
    phase's contract accounting is per request: ok / degraded /
    typed_error / untyped_error, plus unresolved (a thread that never
    finished its stream) and hung (a thread that failed to join).
    """
    counts = {"ok": 0, "degraded": 0, "typed_error": 0, "untyped_error": 0}
    lock = threading.Lock()
    finished = [False] * CLIENTS
    barrier = threading.Barrier(CLIENTS + 1)

    def run_client(index: int) -> None:
        # Client i's own rotation of the stream: independent tuners, so
        # chaos hits a mixed-kernel batch stream, not one lockstep query.
        rotation = (index * len(stream)) // CLIENTS
        my_stream = stream[rotation:] + stream[:rotation]
        if index < SOCKET_CLIENTS:
            client = SocketEvaluator(
                address, timeout_s=DEADLINE_S,
                deadline_s=DEADLINE_S, retry=RETRY,
            )
        else:
            client = ServiceEvaluator(
                service, timeout_s=DEADLINE_S,
                deadline_s=DEADLINE_S, retry=RETRY,
            )
        barrier.wait()
        try:
            for kernel, tiles in my_stream:
                try:
                    client.score_tiles_batched(kernel, tiles)
                    kind = (
                        "degraded"
                        if client.last_response is not None
                        and client.last_response.degraded
                        else "ok"
                    )
                except ServingFault:
                    kind = "typed_error"
                except Exception:
                    kind = "untyped_error"
                with lock:
                    counts[kind] += 1
            finished[index] = True
        finally:
            closer = getattr(client, "close", None)
            if closer is not None:
                closer()

    threads = [
        threading.Thread(target=run_client, args=(i,), daemon=True)
        for i in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    deadline = time.monotonic() + CLIENT_JOIN_TIMEOUT_S
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    elapsed = time.perf_counter() - start
    hung = sum(1 for t in threads if t.is_alive())
    total = CLIENTS * len(stream)
    resolved = sum(counts.values())
    return {
        "clients": CLIENTS,
        "socket_clients": SOCKET_CLIENTS,
        "requests": total,
        "resolved": resolved,
        "unresolved": total - resolved,
        "hung_clients": hung,
        "elapsed_s": elapsed,
        "requests_per_sec": resolved / elapsed if elapsed > 0 else 0.0,
        **counts,
    }


def main() -> dict:
    programs = (
        [vision.image_embed(0)]
        if FAST
        else [vision.image_embed(0), vision.alexnet(0)]
    )
    dataset = build_tile_dataset(
        programs,
        max_kernels_per_program=4 if FAST else 8,
        max_tiles_per_kernel=8,
        seed=0,
    )
    scalers = Scalers.fit_tile(dataset.records)
    config = ModelConfig(
        task="tile", reduction="column-wise",
        hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2, lstm_hidden=16,
    )
    model = LearnedPerformanceModel(config, seed=0)
    model.eval()
    result = TrainResult(model=model, scalers=scalers, loss_history=[])
    stream = _workload(dataset.records, REQUESTS_PER_CLIENT)

    # Disarmed at construction: the injector is wired through the whole
    # stack up front, but its rules' event counters only start moving when
    # the chaos phase arms it — warmup and baseline stay fault-free.
    injector = FaultInjector(_chaos_plan(), armed=False)
    # dispatch_timeout_s bounds every worker pipe reply — including a
    # respawned worker's cold boot + checkpoint load — so it must cover a
    # spawn, not just a forward.
    service_config = ServiceConfig(
        executor="process", replicas=2, max_batch_size=64,
        flush_interval_s=0.002, adaptive_flush=True,
        result_cache_entries=0, dispatch_timeout_s=3.0,
        breaker_failure_threshold=3, breaker_reset_s=0.5,
    )
    report: dict = {
        "benchmark": "bench_resilience",
        "fast_mode": FAST,
        "num_kernels": len(dataset.records),
        "requests_per_client": REQUESTS_PER_CLIENT,
        "deadline_s": DEADLINE_S,
    }
    service = CostModelService(result, service_config, faults=injector).start()
    try:
        with SocketFrontend(service, fault_injector=injector) as frontend:
            # Warm: spawn + sync the shard workers, intern the kernels, so
            # the baseline measures steady state (the chaos plan's `after`
            # warmups are counted in dispatch events, not requests).
            warm = ServiceEvaluator(service, timeout_s=DEADLINE_S)
            for kernel, tiles in stream:
                warm.score_tiles_batched(kernel, tiles)

            report["baseline"] = _run_phase(service, frontend.address, stream)
            injector.arm()
            report["chaos"] = _run_phase(service, frontend.address, stream)
            report["fault_plan_exhausted"] = injector.exhausted()
            report["faults"] = injector.snapshot()
            injector.arm(False)  # recovery measures the healed stack only
            metrics = service.metrics()
            report["chaos_metrics"] = {
                "degraded": metrics["degraded"],
                "deadline_expired": metrics["deadline_expired"],
                "overload_rejections": metrics["overload_rejections"],
                "breaker_blocks": metrics["breaker_blocks"],
                "breaker_open_seconds": metrics["breaker_open_seconds"],
                "breakers": metrics["breakers"],
                "worker_restarts": metrics.get("evaluator_worker_restarts", 0),
            }
            # Give a still-open breaker its half-open probe window before
            # measuring the healed stack.
            time.sleep(2 * service_config.breaker_reset_s)
            for kernel, tiles in stream:
                warm.score_tiles_batched(kernel, tiles)
            report["recovery"] = _run_phase(service, frontend.address, stream)
    finally:
        service.stop()
    baseline_rps = report["baseline"]["requests_per_sec"]
    report["recovery_ratio"] = (
        report["recovery"]["requests_per_sec"] / baseline_rps
        if baseline_rps > 0
        else 0.0
    )
    return report


def _gates(report: dict) -> list[str]:
    """Resilience acceptance bars enforced by exit code in full mode."""
    failures = []
    for phase in ("baseline", "chaos", "recovery"):
        row = report[phase]
        if row["hung_clients"]:
            failures.append(f"{phase}: {row['hung_clients']} hung client(s)")
        if row["unresolved"]:
            failures.append(
                f"{phase}: {row['unresolved']} request(s) never resolved"
            )
        if row["untyped_error"]:
            failures.append(
                f"{phase}: {row['untyped_error']} untyped error(s)"
            )
    if report["recovery_ratio"] < 0.9:
        failures.append(
            f"recovered throughput {report['recovery_ratio']:.2f}x "
            f"of baseline < 0.9x"
        )
    if not report["fault_plan_exhausted"]:
        failures.append("chaos plan not exhausted: faults never all fired")
    if report["chaos_metrics"]["worker_restarts"] < 1:
        failures.append("chaos never forced a worker respawn")
    return failures


if __name__ == "__main__":
    report = main()
    print(json.dumps(stamp_report(report), indent=2))
    failures = [] if FAST else _gates(report)
    for failure in failures:
        print(f"BENCH GATE FAILED: {failure}", file=sys.stderr)
    sys.exit(1 if failures else 0)
