"""Continuous learning: close the train -> serve -> measure -> retrain loop.

The paper's answer to workloads the model has never seen is re-training
or fine-tuning on similar benchmarks (Sec. 7.1). This example runs that
answer as a *production loop* rather than an offline step:

1. train a first checkpoint on one program family only;
2. serve live traffic that includes a **new, unseen family** — the
   :class:`FeedbackCollector` joins every served prediction with the
   (simulated) hardware's measured runtimes, so the model's blind spot
   shows up as a per-version accuracy window, not an anecdote;
3. fine-tune on the collected feedback samples
   (:func:`repro.models.fine_tune_on_feedback` — the trainer's
   continuous-learning hook), producing a candidate checkpoint;
4. hand the candidate to the :class:`RolloutController`, which stages it
   and walks it shadow -> canary -> promoted on live evidence — or rolls
   it back if fine-tuning made things worse;
5. repeat. Every promotion tightens the window; the registry's
   ``retain`` bound keeps the endless publish stream from growing
   memory.

The script checks its claimed outcomes and exits non-zero on failure.

Run:  PYTHONPATH=src python examples/continuous_learning.py
"""
import sys

from repro.compiler import enumerate_tile_sizes
from repro.data import build_tile_dataset
from repro.models import (
    ModelConfig,
    TrainConfig,
    fine_tune_on_feedback,
    train_tile_model,
)
from repro.serving import (
    PROMOTED,
    ROLLED_BACK,
    CostModelService,
    FeedbackCollector,
    ModelRegistry,
    RolloutConfig,
    RolloutController,
    ServiceConfig,
    ServiceEvaluator,
    request_key,
    tile_measurement,
)
from repro.serving.protocol import TileScoresRequest
from repro.tpu import TpuSimulator
from repro.workloads import vision

ROUNDS = 2
TRAFFIC_PER_ROUND = 400


def _check(condition: bool, message: str) -> None:
    if not condition:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def main() -> None:
    simulator = TpuSimulator()

    # Day 0: the model only ever saw image_embed kernels.
    known = build_tile_dataset(
        [vision.image_embed(0)], max_kernels_per_program=6, max_tiles_per_kernel=8, seed=0
    )
    config = ModelConfig(
        task="tile", reduction="column-wise",
        hidden_dim=32, opcode_embedding_dim=16, gnn_layers=2,
    )
    result = train_tile_model(known.records, config, TrainConfig(steps=60, log_every=60))

    # Day 1: traffic adds a family the checkpoint has never seen.
    unseen = build_tile_dataset(
        [vision.alexnet(0)], max_kernels_per_program=6, max_tiles_per_kernel=8, seed=1
    )
    stream = []
    for record in known.records + unseen.records:
        tiles = enumerate_tile_sizes(record.kernel)[:4]
        if len(tiles) == 4:
            stream.append((record.kernel, tiles))
    _check(len(stream) >= 8, "workload stream too small to be meaningful")

    registry = ModelRegistry(retain=4)
    registry.publish(result)
    feedback = FeedbackCollector(window=512, retain_samples=4096)
    service_config = ServiceConfig(
        max_batch_size=32, replicas=2, result_cache_entries=0
    )
    promotions = []
    with CostModelService(registry, service_config, feedback=feedback) as service:
        controller = RolloutController(
            service,
            feedback,
            RolloutConfig(
                canary_fraction=0.5,
                min_samples=12,
                max_samples_per_phase=200,
                promote_margin=0.10,
                abort_margin=0.35,
            ),
        )
        client = ServiceEvaluator(service)

        def serve_and_measure(budget: int, step_controller: bool) -> int:
            """Serve the stream round-robin, joining measurements; returns
            requests used (stops early once a rollout concludes)."""
            for i in range(budget):
                kernel, tiles = stream[i % len(stream)]
                client.score_tiles_batched(kernel, tiles)
                request = TileScoresRequest(kernel=kernel, tiles=tuple(tiles))
                feedback.record_measurement(
                    request_key(request), tile_measurement(simulator, kernel, tiles)
                )
                if step_controller and controller.step() in (PROMOTED, ROLLED_BACK):
                    return i + 1
            return budget

        for round_index in range(1, ROUNDS + 1):
            # Observe: the active window now reflects the mixed traffic.
            serve_and_measure(len(stream) * 2, step_controller=False)
            window = feedback.error_window(registry.active_version)
            print(
                f"round {round_index}: active {registry.active_version} window "
                f"error {window.mean_error:.3f} over {window.count} joined samples"
            )

            # Retrain on what serving actually measured, then stage it.
            candidate = fine_tune_on_feedback(
                result, feedback.drain_samples(), TrainConfig(steps=40)
            )
            _check(candidate is not None, "no tile feedback to fine-tune on")
            result = candidate
            staged = controller.stage(candidate)
            used = serve_and_measure(TRAFFIC_PER_ROUND, step_controller=True)
            print(
                f"  staged {staged}: {controller.state} after {used} requests"
            )
            for t in controller.transitions[-3:]:
                print(f"    -> {t.state:11s} ({t.reason})")
            if controller.state == PROMOTED:
                promotions.append(staged)
            _check(
                controller.state in (PROMOTED, ROLLED_BACK),
                f"rollout of {staged} never concluded",
            )

        metrics = service.metrics()
        print("per-version window errors after the loop:")
        for version, entry in metrics["per_version"].items():
            print(
                f"  {version}: served {entry['served']:.0f} "
                f"(canary {entry['canary']:.0f}, shadow {entry['shadow']:.0f}), "
                f"error {entry.get('feedback_mean_error', 0.0):.3f}"
            )
        _check(promotions, "no fine-tuned checkpoint was ever promoted")
        _check(
            registry.active_version == promotions[-1],
            "last promotion is not the active version",
        )
        _check(
            len(registry.versions) <= 4,
            "retention failed to bound the registry",
        )
        final = feedback.error_window(registry.active_version)
        print(
            f"continuous-learning loop done: active {registry.active_version}, "
            f"window error {final.mean_error:.3f}, "
            f"{len(registry.versions)} versions retained"
        )


if __name__ == "__main__":
    main()
