"""Per-layer metrics of the traced run.

Three sources, in order of precedence (README, "Per-layer metrics", says
which metric comes from which):

1. the workload's own traced passes — counters read at layer boundaries
   (``Workload.layer_counts``), the service profiler's stage totals and
   the spans the service's ``Tracer`` recorded;
2. a *serving probe* — workloads that start no service run a short
   traced ``serve_scattered`` on the same pool, so the serving stages are
   measured in every traced run;
3. *replays* — the benchmark calls each layer's public functions itself,
   inside a span, on the benchmark's own inputs (the serving pool's
   kernels, the fusion search's proposal move, a training step rebuilt
   from the trainer's pieces).

Every time is the median over the replayed inputs; ``_b4`` / ``_b64`` is
a single-kernel batch of 4 / 64 tile rows from the serving pool.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import replace

import numpy as np

import inputs
from measure import SpanRecorder
from workloads import ServeScattered, TrainStep, _geomean, _ServedWorkload
from repro.autotuner import (
    AnalyticalEvaluator,
    HardwareEvaluator,
    LearnedEvaluator,
    model_tile_autotune,
)
from repro.compiler import Kernel, default_fusion, enumerate_tile_sizes, fuse_program
from repro.data import KernelCache, assemble_batch, extract_kernel_features, tile_features
from repro.models import ModelConfig, load_model_bytes
from repro.nn import Tensor, no_grad, spmm
from repro.serving import ModelRegistry
from repro.serving.protocol import (
    Response,
    TileScoresRequest,
    decode_request,
    encode_request,
    kernel_interner,
)
from repro.tpu import TpuSimulator

#: Fusion configurations replayed per program: the compiler default and
#: the search's own proposal move applied repeatedly to it.
FUSION_CONFIGS_PER_PROGRAM = 6
TRAIN_STEPS_REPLAYED = 12


class _Replayer:
    """Times calls into layers, a span around each, medians per metric."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        self.samples: dict[str, list[float]] = {}

    def timed(self, metric: str, layer: str, fn, *args):
        with self.rec.span(metric, layer, op=-1):
            start = time.perf_counter()
            value = fn(*args)
            self.samples.setdefault(metric, []).append(time.perf_counter() - start)
        return value

    def median(self, metric: str, scale: float) -> float:
        return statistics.median(self.samples[metric]) * scale


def replay(fixtures, pool, programs, recorder: SpanRecorder, seed: int) -> dict[str, float]:
    """Call each layer's public functions on the benchmark's inputs."""
    r = _Replayer(recorder)
    rng = np.random.default_rng([seed, 9])
    fixture = load_model_bytes(fixtures.tile_blob)
    model, scalers = fixture.model, fixture.scalers
    cap = model.config.neighbor_cap
    simulator = TpuSimulator()
    out: dict[str, float] = {}

    # compiler, tpu
    fused: list[list] = []
    for program in programs:
        config = default_fusion(program.graph)
        for _ in range(FUSION_CONFIGS_PER_PROGRAM):
            fused.append(r.timed(
                "compiler.fuse_program_ms", "compiler",
                lambda c=config: fuse_program(program.graph, config=c, program_name=program.name),
            ))
            config = config.mutate(rng, num_flips=int(rng.integers(1, 4)))
    out["compiler.fuse_program_calls"] = float(len(fused))
    out["compiler.kernels_per_config"] = statistics.fmean(len(k) for k in fused)
    for entry in pool:
        kernel = entry.kernel
        r.timed("compiler.enumerate_tiles_ms", "compiler", enumerate_tile_sizes, kernel)
        unhashed = Kernel(kernel.graph, kernel.kind, kernel.program_name, kernel.index)
        r.timed("compiler.fingerprint_us", "compiler", unhashed.fingerprint)
        for tile in entry.tiles[:4]:
            r.timed("tpu.simulator_run_us", "tpu", simulator.run, kernel, tile)
    out["compiler.tiles_per_kernel"] = statistics.fmean(len(e.tiles) for e in pool)

    # data, nn, models: single-kernel batches of 4 and 64 tile rows
    warm = KernelCache(scalers, neighbor_cap=cap)
    evaluator = LearnedEvaluator.from_checkpoint_bytes(fixtures.tile_blob)
    hidden = model.config.hidden_dim
    for entry in pool:
        features = r.timed("data.extract_features_ms", "data", extract_kernel_features, entry.kernel)
        r.timed("data.cache_entry_build_ms", "data",
                KernelCache(scalers, neighbor_cap=cap).entry, features)
        for rows in (4, 64):
            items = [(features, tile_features(t), 0.0, 0) for t in entry.tiles[:rows]]
            warm.assemble(items)  # first sight builds the entry and the context
            batch = r.timed(f"data.assemble_cached_us_b{rows}", "data", warm.assemble, items)
            r.timed(f"models.predict_ms_b{rows}", "models", model.predict, batch)
            evaluator.score_tiles_batched(entry.kernel, entry.tiles[:rows])
            r.timed(f"autotuner.score_tiles_ms_b{rows}", "autotuner.evaluators",
                    evaluator.score_tiles_batched, entry.kernel, entry.tiles[:rows])
        r.timed("data.assemble_cold_ms_b64", "data", assemble_batch, items, scalers, cap)
        context = batch.context
        x = Tensor(rng.standard_normal((context.num_nodes, hidden)).astype(np.float32))
        with no_grad():
            r.timed("nn.spmm_us_b64", "nn", spmm, context.adj_in, x)
            r.timed("nn.graph_layer_forward_ms_b64", "nn",
                    model.gnn_layers[0], x, context.adj_in, context.adj_out)
    slope = (r.median("models.predict_ms_b64", 1.0) - r.median("models.predict_ms_b4", 1.0)) / 60
    out["models.predict_per_row_us"] = slope * 1e6
    out["models.predict_fixed_ms"] = (r.median("models.predict_ms_b4", 1.0) - 4 * slope) * 1e3
    for _ in range(3):
        r.timed("models.checkpoint_load_ms", "models",
                LearnedEvaluator.from_checkpoint_bytes, fixtures.tile_blob)
    out["models.final_loss"] = fixtures.meta["tile_final_loss"]

    # autotuner: per-kernel tile search and its quality against the
    # simulator's exhaustive optimum, learned and analytical
    quality = {"solution": [], "analytical": []}
    for entry in pool:
        best = min(simulator.run(entry.kernel, t) for t in entry.tiles)
        tuned = r.timed("autotuner.tile_search_ms_per_kernel", "autotuner", model_tile_autotune,
                        [entry.kernel], evaluator, HardwareEvaluator(), 1)
        quality["solution"].append(best / tuned.program_runtime)
        tuned = model_tile_autotune([entry.kernel], AnalyticalEvaluator(), HardwareEvaluator(), 1)
        quality["analytical"].append(best / tuned.program_runtime)
    out["autotuner.solution_quality"] = _geomean(quality["solution"])
    out["autotuner.analytical_quality"] = _geomean(quality["analytical"])
    pricer = LearnedEvaluator.from_checkpoint_bytes(fixtures.fusion_blob)
    for kernels in fused:
        r.timed("autotuner.price_kernels_ms", "autotuner.evaluators", pricer.program_runtime, kernels)
    stats = pricer.stats()
    hits, misses = stats["prediction_hits"], stats["prediction_misses"]
    out["autotuner.prediction_cache_hit_ratio"] = hits / max(hits + misses, 1)
    out["autotuner.model_evals"] = 0.0
    out["tpu.hardware_evals"] = 0.0

    # a training step rebuilt from the trainer's public pieces
    records = inputs.tile_dataset(programs, seed).records
    steps = SpanRecorder()
    stepper = TrainStep(records, ModelConfig.paper_best_tile(),
                        inputs.tile_train_config(TRAIN_STEPS_REPLAYED, seed), steps)
    for _ in range(TRAIN_STEPS_REPLAYED):
        stepper()
    out.update(train_step_metrics(steps, skip=2))

    # serving.protocol, serving.registry
    request_bytes = {"full": [], "ref": []}
    for entry in pool:
        request = TileScoresRequest(entry.kernel, tuple(entry.tiles[:inputs.CHUNK]))
        known = {entry.kernel.fingerprint()}
        interner = kernel_interner()
        full = r.timed("serving.protocol.encode_full_us", "serving.protocol", encode_request, request)
        ref = r.timed("serving.protocol.encode_ref_us", "serving.protocol",
                      encode_request, request, known)
        r.timed("serving.protocol.decode_full_us", "serving.protocol", decode_request, full, interner)
        r.timed("serving.protocol.decode_ref_us", "serving.protocol", decode_request, ref, interner)
        response = Response(value=np.arange(inputs.CHUNK, dtype=np.float32), model_version="v1")
        r.timed("serving.protocol.response_codec_us", "serving.protocol",
                lambda: Response.from_bytes(response.to_bytes()))
        request_bytes["full"].append(len(full))
        request_bytes["ref"].append(len(ref))
    out["serving.protocol.request_bytes_full"] = statistics.fmean(request_bytes["full"])
    out["serving.protocol.request_bytes_ref"] = statistics.fmean(request_bytes["ref"])
    out["serving.registry.blob_bytes"] = float(len(fixtures.tile_blob))
    for _ in range(3):
        r.timed("serving.registry.publish_ms", "serving.registry",
                ModelRegistry().publish, fixtures.tile_blob)

    for metric in r.samples:
        scale = 1e6 if "_us" in metric else 1e3
        out[metric] = r.median(metric, scale)
    return out


def train_step_metrics(steps: SpanRecorder, skip: int = 0) -> dict[str, float]:
    """Step-piece means (ms) from ``TrainStep`` spans, and the share of a
    step no piece covers. ``skip`` drops the first steps (first-sight
    cache builds)."""
    by_name: dict[str, list[float]] = {}
    for span in steps.spans:
        if span["op"] >= skip:
            by_name.setdefault(span["name"], []).append(span["end"] - span["start"])
    mean_ms = {name: statistics.fmean(times) * 1e3 for name, times in by_name.items()}
    step = mean_ms["train.step"]
    return {
        "models.forward_train_ms": mean_ms["model.forward"],
        "nn.backward_ms": mean_ms["backward"],
        "nn.optimizer_step_ms": mean_ms["Adam.step"],
        "models.train_step_ms": step,
        "models.train_step_unattributed_share": 1.0 - (sum(mean_ms.values()) - step) / step,
    }


def serving_metrics(workload: _ServedWorkload, measured: list) -> dict[str, float]:
    """Serving-stage metrics from a traced serving workload: the service
    profiler's stage totals, the service tracer's spans (already hung under
    the client's operation spans) and the workload's own counters."""
    out = workload.layer_counts()
    counters = workload.since_setup()

    def per_sample(stage: str, scale: float) -> float:
        count = counters.get(f"{stage}.count", 0.0)
        return counters[f"{stage}.seconds"] / count * scale if count else 0.0

    out["serving.scheduler.queue_wait_ms"] = per_sample("queue.wait", 1e3)
    out["serving.scheduler.batch_cut_wait_ms"] = per_sample("batch.cut", 1e3)
    out["serving.service.compose_us"] = per_sample("compose", 1e6)
    out["serving.service.serialize_us"] = per_sample("serialize", 1e6)
    out["serving.executors.forward_ms_per_batch"] = per_sample("forward", 1e3)

    # Client-observed minus service-observed latency, per request.
    answered = [o for result in measured for o in result.kept if o.response is not None]
    out["serving.frontend.transport_overhead_ms"] = statistics.median(
        (o.latency_s - o.response.latency_s) * 1e3 for o in answered
    )
    spans = workload.rec.spans
    forward_of = {s["parent"]: s for s in spans if s["name"] == "worker.forward"}
    pipe = [
        (s["end"] - s["start"]) - (forward_of[s["id"]]["end"] - forward_of[s["id"]]["start"])
        for s in spans if s["name"] == "executor.dispatch" and s["id"] in forward_of
    ]
    out["serving.executors.pipe_overhead_ms"] = statistics.fmean(pipe) * 1e3 if pipe else 0.0
    # What no named stage covers: the client span's and the service root
    # span's self time, as a share of all request time.
    self_s = workload.rec.self_seconds()
    uncovered = self_s.get("serving.client", 0.0) + self_s.get("serving.frontend", 0.0)
    out["serving.service.unattributed_share"] = uncovered / workload.rec.operation_seconds()
    return out


def serving_probe(fixtures, sizes, seed: int) -> dict[str, float]:
    """A short traced ``serve_scattered`` for workloads that start no
    service of their own."""
    probe = ServeScattered(fixtures, replace(sizes, scattered_cycles=4), seed, SpanRecorder())
    probe.setup()
    try:
        measured = [probe.run_pass(0)]
        return serving_metrics(probe, measured)
    finally:
        probe.close()
