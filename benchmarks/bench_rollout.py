"""Deployment-control-plane benchmark: rollout overhead + detection latency.

Two questions a rollout layer must answer before production turns it on:

1. **What does it cost when nothing is rolling out badly?**
   Tile-score throughput at max concurrent clients for three services
   over the same checkpoint pool, result cache off:

   * *plain* — the FullActivation default, no feedback collector (the
     pre-control-plane configuration);
   * *canary rollout* — a staged checkpoint (identical weights, so the
     workload itself is unchanged) serving a 20% deterministic canary
     slice, feedback collector attached: every batch pays the version
     chooser, the version-pure partition, the per-version stats, and the
     prediction recording;
   * *shadow rollout* — the staged checkpoint additionally re-scores a
     25% sample off the response path (informational: shadow buys its
     evidence with extra forwards by design).

   The gated rows run the **independent-tuner** regime (per-client
   stream rotations, as in ``bench_serving``): batches span many
   distinct kernels, so version-pure partitioning re-groups commands
   without splitting coalesced forwards — the regime a fleet of tuners
   actually presents, and the honest measure of the control plane's
   bookkeeping overhead. The fully-correlated population-splitting
   regime is reported informationally (``canary_rollout_coalesced``):
   there a canary *necessarily* splits each single-kernel batch into two
   version-pure forwards, an intrinsic cost of never mixing checkpoints
   in one forward, not bookkeeping.

2. **How fast does it catch a bad checkpoint?**
   A regressed checkpoint (readout negated — ranking exactly reversed)
   is staged straight into a canary; a driver serves traffic, reports
   measurements, and steps the controller each request. Reported: the
   number of requests from staging to automatic rollback. Ground truth
   for the measurement side is the active model's own scores — the
   detector's job is the control loop's latency, not the checkpoint's
   absolute quality, so the benchmark makes the regression maximal and
   deterministic.

Run with ``REPRO_BENCH_FAST=1`` for the CI smoke configuration. Output is
one JSON object on stdout (tracked PR-over-PR in ROADMAP.md). In full
mode the exit code enforces the acceptance bars:

* canary-rollout serving throughput >= 0.9x plain serving at max clients;
* the injected regression is detected (state ``rolled_back``) within the
  request budget, and the active version is never disturbed.

Fast mode is informational only (it still fails on crashes): its request
counts are too small for stable ratios.
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

from repro.autotuner import LearnedEvaluator  # noqa: E402
from repro.compiler import enumerate_tile_sizes  # noqa: E402
from repro.data import Scalers, build_tile_dataset  # noqa: E402
from repro.evaluation import ServingStats  # noqa: E402
from repro.models import LearnedPerformanceModel, ModelConfig  # noqa: E402
from repro.models import save_model_bytes  # noqa: E402
from repro.models.trainer import TrainResult  # noqa: E402
from repro.serving import (  # noqa: E402
    CANARY,
    ROLLED_BACK,
    CanaryFraction,
    CostModelService,
    FeedbackCollector,
    ModelRegistry,
    RolloutConfig,
    RolloutController,
    ServiceConfig,
    ServiceEvaluator,
    ShadowScore,
    regressed_checkpoint,
    request_key,
)
from repro.serving.protocol import TileScoresRequest  # noqa: E402
from repro.workloads import vision  # noqa: E402

from harness import stamp_report  # noqa: E402

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

CHUNK = 4  # candidate tiles per request (one search step's proposals)
CANARY_FRACTION = 0.2
SHADOW_FRACTION = 0.25
REPEATS = 1 if FAST else 3
CLIENTS = 4 if FAST else 16
REQUESTS_PER_CLIENT = 8 if FAST else 40
#: Detection-latency controller thresholds and the acceptance budget:
#: with min_samples canary observations needed at CANARY_FRACTION routing,
#: the expected detection point is min_samples / fraction requests; the
#: budget allows 2x slack over that before the gate fails.
DETECT_MIN_SAMPLES = 4 if FAST else 16
DETECT_BUDGET = int(2 * DETECT_MIN_SAMPLES / CANARY_FRACTION)


def _workload(records, requests_per_client: int):
    """Per-request (kernel, tile-chunk) stream (the bench_serving shape)."""
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
    """Correlated = population splitting; de-correlated = independent
    tuners (client ``i`` starts at its own rotation)."""
    if not decorrelate:
        return [stream] * num_clients
    return [
        stream[(i * len(stream)) // num_clients:]
        + stream[: (i * len(stream)) // num_clients]
        for i in range(num_clients)
    ]


def _run_clients_once(num_clients: int, streams, make_scorer) -> dict:
    barrier = threading.Barrier(num_clients + 1)

    def client(index: int) -> None:
        scorer = make_scorer()
        barrier.wait()
        for kernel, tiles in streams[index]:
            scorer.score_tiles_batched(kernel, tiles)

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
    total = sum(len(s) for s in streams)
    return {
        "clients": num_clients,
        "requests": total,
        "requests_per_sec": total / elapsed,
        "elapsed_s": elapsed,
    }


def _run_clients(num_clients: int, streams, make_scorer) -> dict:
    best = None
    for _ in range(REPEATS):
        report = _run_clients_once(num_clients, streams, make_scorer)
        if best is None or report["requests_per_sec"] > best["requests_per_sec"]:
            best = report
    best["measured_passes"] = REPEATS
    return best


def _registry_with_staged(result) -> ModelRegistry:
    """Active + staged versions over identical weights (pure overhead)."""
    registry = ModelRegistry()
    registry.publish(result, version="active")
    registry.stage(save_model_bytes(result), version="staged")
    return registry


def bench_throughput(result, stream, rollout: str, decorrelate: bool = True) -> dict:
    """Max-client throughput for one control-plane configuration."""
    registry = _registry_with_staged(result)
    feedback = FeedbackCollector() if rollout != "plain" else None
    if rollout == "canary":
        policy = CanaryFraction("staged", CANARY_FRACTION)
    elif rollout == "shadow":
        policy = ShadowScore("staged", SHADOW_FRACTION)
    else:
        policy = None
    config = ServiceConfig(
        max_batch_size=64, adaptive_flush=True, result_cache_entries=0
    )
    with CostModelService(
        registry, config, rollout=policy, feedback=feedback
    ) as service:
        # Warm both versions' pools and caches so every configuration
        # competes on steady-state forward throughput.
        warm = ServiceEvaluator(service)
        for kernel, tiles in stream:
            warm.score_tiles_batched(kernel, tiles)
        service.stats = ServingStats()
        streams = _client_streams(stream, CLIENTS, decorrelate)
        report = _run_clients(CLIENTS, streams, lambda: ServiceEvaluator(service))
        metrics = service.metrics()
    report["batch_occupancy"] = metrics["batch_occupancy"]
    report["shadow_forwards"] = metrics["shadow_forwards"]
    if rollout == "canary":
        per_version = metrics["per_version"]
        served = sum(entry["served"] for entry in per_version.values())
        report["canary_share"] = (
            per_version.get("staged", {}).get("canary", 0.0) / served
            if served
            else 0.0
        )
    return report


def bench_detection(result, stream) -> dict:
    """Requests from staging a regressed checkpoint to automatic rollback."""
    bad = regressed_checkpoint(result)
    registry = ModelRegistry()
    registry.publish(result, version="active")
    feedback = FeedbackCollector()
    service = CostModelService(
        registry,
        ServiceConfig(max_batch_size=64, result_cache_entries=0),
        feedback=feedback,
    )
    controller = RolloutController(
        service,
        feedback,
        RolloutConfig(
            canary_fraction=CANARY_FRACTION,
            min_samples=DETECT_MIN_SAMPLES,
            max_samples_per_phase=10 * DETECT_MIN_SAMPLES,
            promote_margin=0.05,
            abort_margin=0.2,
            start_phase=CANARY,
        ),
    )
    # "Hardware" ground truth = the active model's own ranking: the
    # negated canary is maximally regressed, so detection latency is a
    # property of the control loop alone.
    reference = LearnedEvaluator(result.model, result.scalers)
    try:
        controller.stage(save_model_bytes(bad), version="regressed")
        client = ServiceEvaluator(service)
        staged_at = time.perf_counter()
        requests_to_detect = None
        i = 0
        while i < 4 * DETECT_BUDGET:
            kernel, tiles = stream[i % len(stream)]
            client.score_tiles_batched(kernel, tiles)
            request = TileScoresRequest(kernel=kernel, tiles=tuple(tiles))
            feedback.record_measurement(
                request_key(request),
                reference.score_tiles_batched(kernel, tiles),
            )
            i += 1
            if controller.step() == ROLLED_BACK:
                requests_to_detect = i
                break
        elapsed = time.perf_counter() - staged_at
        return {
            "state": controller.state,
            "requests_to_detect": requests_to_detect,
            "detect_budget": DETECT_BUDGET,
            "detect_elapsed_s": elapsed,
            "active_untouched": registry.active_version == "active",
            "staged_cleared": registry.staged_version is None,
            "transitions": [
                {"state": t.state, "samples": t.staged_samples}
                for t in controller.transitions
            ],
        }
    finally:
        service.stop()


def main() -> dict:
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
    model = LearnedPerformanceModel(ModelConfig.paper_best_tile())
    model.eval()
    result = TrainResult(model=model, scalers=scalers, loss_history=[])
    stream = _workload(dataset.records, REQUESTS_PER_CLIENT)

    report: dict = {
        "benchmark": "bench_rollout",
        "fast_mode": FAST,
        "num_kernels": len(dataset.records),
        "tiles_per_request": CHUNK,
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "canary_fraction": CANARY_FRACTION,
        "shadow_fraction": SHADOW_FRACTION,
        "plain": bench_throughput(result, stream, "plain"),
        "canary_rollout": bench_throughput(result, stream, "canary"),
        "shadow_rollout": bench_throughput(result, stream, "shadow"),
        # The coalescing-regime split cost, reported but not gated: a
        # canary must split a single-kernel batch into two version-pure
        # forwards (never mixing checkpoints costs exactly this).
        "plain_coalesced": bench_throughput(
            result, stream, "plain", decorrelate=False
        ),
        "canary_rollout_coalesced": bench_throughput(
            result, stream, "canary", decorrelate=False
        ),
        "detection": bench_detection(result, stream),
    }
    rps = lambda row: row["requests_per_sec"]  # noqa: E731
    report["canary_vs_plain"] = rps(report["canary_rollout"]) / rps(report["plain"])
    report["shadow_vs_plain"] = rps(report["shadow_rollout"]) / rps(report["plain"])
    report["canary_vs_plain_coalesced"] = (
        rps(report["canary_rollout_coalesced"]) / rps(report["plain_coalesced"])
    )
    return report


def _gates(report: dict) -> list[str]:
    """Acceptance bars enforced by exit code in full mode."""
    failures = []
    if report["canary_vs_plain"] < 0.9:
        failures.append(
            f"canary rollout vs plain serving at {report['clients']} clients: "
            f"{report['canary_vs_plain']:.2f}x < 0.9x"
        )
    detection = report["detection"]
    if detection["state"] != ROLLED_BACK:
        failures.append(
            f"injected regression not rolled back (state {detection['state']!r})"
        )
    elif detection["requests_to_detect"] > detection["detect_budget"]:
        failures.append(
            f"regression detected after {detection['requests_to_detect']} "
            f"requests > budget {detection['detect_budget']}"
        )
    if not detection["active_untouched"]:
        failures.append("rollback disturbed the active version")
    return failures


if __name__ == "__main__":
    report = main()
    print(json.dumps(stamp_report(report), indent=2))
    failures = [] if FAST else _gates(report)
    for failure in failures:
        print(f"BENCH GATE FAILED: {failure}", file=sys.stderr)
    sys.exit(1 if failures else 0)
