"""The six workloads: train the tile model, tune with it, serve it three ways.

Every workload has the same four steps. ``setup()`` is everything a user
pays before the first measured operation (corpus, datasets, fixture load,
service start, worker spawn, warm-up); ``run_pass()`` is one measured pass
and only keeps what it produced; ``verify()`` checks what was kept against
an oracle that does not share the path under test; ``close()`` stops what
``setup()`` started. Nothing is verified inside a timed region.

A workload is built with a recorder. With the ``NullRecorder`` nothing is
traced: that is the run end-to-end numbers come from. With a
``SpanRecorder`` the same passes record a span around every call the
benchmark makes into a layer, and the serving workloads additionally hand
the repo's own ``Tracer`` and ``ContinuousProfiler`` to the service.
"""
from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import inputs
from repro.autotuner import (
    AnalyticalEvaluator,
    HardwareEvaluator,
    LearnedEvaluator,
    exhaustive_tile_autotune,
    model_fusion_autotune,
    model_tile_autotune,
)
from repro.compiler import enumerate_tile_sizes, fuse_program
from repro.compiler.fusion import fusible_edges
from repro.data import KernelCache, Scalers, TileBatchSampler
from repro.models import (
    LearnedPerformanceModel,
    ModelConfig,
    fine_tune,
    save_model_bytes,
    train_tile_model,
)
from repro.nn.losses import pairwise_rank_loss
from repro.nn.optim import Adam, clip_global_norm
from repro.serving import (
    ContinuousProfiler,
    CostModelService,
    InProcessFrontend,
    ModelRegistry,
    ServiceConfig,
    SocketEvaluator,
    SocketFrontend,
    Tracer,
)
from repro.serving.protocol import TileScoresRequest
from repro.tpu import TpuSimulator

#: Closed-loop window of the in-process serving workloads: one generator
#: thread keeps this many requests outstanding (16 concurrent tuner
#: workers without 16 threads).
WINDOW = 16
#: Connections (one thread each) of the remote workload.
CONNECTIONS = 2
#: No answer within this long counts as a failed operation, not a hang.
REQUEST_TIMEOUT_S = 30.0

QUALITY_FLOOR = {"tune_tile": 0.85, "tune_fusion": 1.0}


@dataclass
class PassResult:
    """What one measured pass did and what it kept for the oracle."""

    ops: int
    wall_s: float
    latencies_ms: list[float]
    kept: list = field(default_factory=list)


@dataclass
class Verdict:
    """The oracle's findings over all measured passes."""

    failed: int = 0  # operations whose answer the oracle rejects
    problems: list[str] = field(default_factory=list)  # run-level violations
    quality: float | None = None  # solution_quality, tuners only


def _geomean(ratios: list[float]) -> float:
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


class Workload:
    """Base: holds what every workload is given."""

    name = ""
    op = ""  # what `throughput` counts
    latency_of = ""  # what one latency sample times
    min_passes = 3

    def __init__(self, fixtures, sizes, seed: int, recorder) -> None:
        self.fixtures = fixtures
        self.sizes = sizes
        self.seed = seed
        self.rec = recorder

    def _rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def verify(self, passes: list[PassResult]) -> Verdict:
        raise NotImplementedError

    def close(self) -> None:
        """Stop what :meth:`setup` started; idempotent."""

    def layer_counts(self) -> dict[str, float]:
        """Counts and ratios this workload's own run produced at layer
        boundaries (read after the passes, traced run only)."""
        return {}


# ------------------------------------------------------------------ training
class TrainStep:
    """One training step rebuilt from the trainer's public pieces, a span
    around each: sample -> assemble -> forward -> loss -> backward -> clip
    -> optimizer. The traced pass of ``train_tile`` and the ``nn`` /
    ``models`` step replays both run this; the untraced pass calls
    ``train_tile_model`` itself."""

    def __init__(self, records, config: ModelConfig, train, recorder) -> None:
        self.rec = recorder
        self.config = config
        self.train = train
        self.model = LearnedPerformanceModel(config, seed=train.seed)
        self.cache = KernelCache(Scalers.fit_tile(records), neighbor_cap=config.neighbor_cap)
        self.sampler = TileBatchSampler(
            records,
            kernels_per_batch=train.kernels_per_batch,
            tiles_per_kernel=train.tiles_per_kernel,
            seed=train.seed,
        )
        self.optimizer = Adam(
            self.model.parameters(),
            lr=train.learning_rate,
            decay=train.lr_decay,
            decay_every=train.lr_decay_every,
        )
        self.steps = 0

    def __call__(self) -> float:
        rec = self.rec
        with rec.span("train.step", "models.trainer", op=self.steps):
            with rec.span("TileBatchSampler.draw_items", "data"):
                items = self.sampler.draw_items()
            with rec.span("KernelCache.assemble", "data"):
                batch = self.cache.assemble(items)
            with rec.span("model.forward", "models"):
                pred = self.model(batch)
            with rec.span("pairwise_rank_loss", "nn"):
                loss = pairwise_rank_loss(pred, batch.targets, batch.group_ids, phi="hinge")
            with rec.span("backward", "nn"):
                self.optimizer.zero_grad()
                loss.backward()
            with rec.span("clip_global_norm", "nn"):
                clip_global_norm(self.optimizer.params, self.train.grad_clip)
            with rec.span("Adam.step", "nn"):
                self.optimizer.step()
        self.steps += 1
        return float(loss.item())


class TrainTile(Workload):
    """op = training step, on the autograd tape path."""

    name = "train_tile"
    op = "step"
    latency_of = "one step (chunk wall / chunk steps)"

    def setup(self) -> None:
        self.records = inputs.tile_dataset(inputs.draw_programs().train, self.seed).records
        self.config = ModelConfig.paper_best_tile()
        self.result = None
        self.losses: list[float] = []
        if self.rec.enabled:
            self.stepper = TrainStep(
                self.records, self.config,
                inputs.tile_train_config(self.sizes.train_chunk_steps, self.seed), self.rec,
            )

    def run_pass(self, index: int) -> PassResult:
        steps = self.sizes.train_chunk_steps
        start = time.perf_counter()
        if self.rec.enabled:
            self.losses.extend(self.stepper() for _ in range(steps))
        else:
            # The first chunk trains from scratch; later chunks continue the
            # same model on fresh draws, so the loss trajectory is one run's.
            train = inputs.tile_train_config(steps, self.seed + index)
            if self.result is None:
                self.result = train_tile_model(self.records, self.config, train)
            else:
                self.result = fine_tune(self.result, self.records, train)
            self.losses = [loss for _, loss in self.result.loss_history]
        wall = time.perf_counter() - start
        return PassResult(ops=steps, wall_s=wall, latencies_ms=[wall / steps * 1e3])

    def verify(self, passes: list[PassResult]) -> Verdict:
        verdict = Verdict()
        if not all(math.isfinite(loss) for loss in self.losses):
            verdict.problems.append("a logged loss is not finite")
        per_chunk = max(len(self.losses) // len(passes), 1)
        settled = float(np.median(self.losses[-per_chunk:]))
        if not settled < 0.5 * self.losses[0]:
            verdict.problems.append(
                f"loss did not halve: first {self.losses[0]:.4f}, last chunk median {settled:.4f}"
            )
        if self.result is not None:
            # The trained model must survive the sealed-blob round trip the
            # other workloads load their fixture through.
            LearnedEvaluator.from_checkpoint_bytes(save_model_bytes(self.result))
        self.final_loss = settled
        return verdict

    def layer_counts(self) -> dict[str, float]:
        stats = self.stepper.cache.stats()
        return {"data.kernel_cache_hit_ratio": _ratio(stats["hits"], stats["misses"])}


# -------------------------------------------------------------------- tuning
class _SpannedEvaluator:
    """Forwards the evaluator protocol to a real evaluator, a span around
    each call (traced runs only; the tuners see the same protocol)."""

    def __init__(self, inner, recorder, layer: str) -> None:
        self._inner, self._rec, self._layer = inner, recorder, layer
        self.simulator = getattr(inner, "simulator", None)
        self.configs_priced = 0
        self.kernels_priced = 0

    @property
    def evaluations(self) -> int:
        return self._inner.evaluations

    def score_tiles_batched(self, kernel, tiles):
        with self._rec.span("score_tiles_batched", self._layer):
            return self._inner.score_tiles_batched(kernel, tiles)

    def tile_scores(self, kernel, tiles):
        return self.score_tiles_batched(kernel, tiles)

    def program_runtime(self, kernels, *args):
        self.configs_priced += 1
        self.kernels_priced += len(kernels)
        with self._rec.span("program_runtime", self._layer):
            return self._inner.program_runtime(kernels, *args)

    def kernel_runtime(self, kernel, tile=None):
        with self._rec.span("kernel_runtime", self._layer):
            return self._inner.kernel_runtime(kernel, tile)


class TuneTile(Workload):
    """op = candidate tile scored; the evaluator is used directly."""

    name = "tune_tile"
    op = "tile"
    latency_of = "one program's tile search (pass wall / programs)"
    min_passes = 5

    def setup(self) -> None:
        self.programs = inputs.draw_programs().tuned[: self.sizes.tuned_programs]
        self.kernels = {p.name: inputs.tileable_kernels(p) for p in self.programs}
        self.candidates = {
            name: [enumerate_tile_sizes(k) for k in kernels]
            for name, kernels in self.kernels.items()
        }
        self.tiles_in = {
            name: sum(len(tiles) for tiles in per_kernel)
            for name, per_kernel in self.candidates.items()
        }
        self.evaluator = LearnedEvaluator.from_checkpoint_bytes(self.fixtures.tile_blob)
        self.hardware_evals = 0
        self.run_pass(-1)  # warm-up: every kernel seen once, discarded
        self.warm_stats = self.evaluator.stats()

    def run_pass(self, index: int) -> PassResult:
        rng = self._rng(1, index + 1)
        result = PassResult(ops=0, wall_s=0.0, latencies_ms=[])
        scorer = self.evaluator
        if self.rec.enabled:
            scorer = _SpannedEvaluator(self.evaluator, self.rec, "autotuner.evaluators")
        begin = time.perf_counter()
        for p in rng.permutation(len(self.programs)):
            program = self.programs[int(p)]
            kernels = self.kernels[program.name]
            order = [int(i) for i in rng.permutation(len(kernels))]
            try:
                op = index * len(self.programs) + len(result.kept)
                with self.rec.span("model_tile_autotune", "autotuner", op=op):
                    tuned = model_tile_autotune(
                        [kernels[i] for i in order], scorer, HardwareEvaluator(), top_k=1
                    )
            except Exception as exc:  # the oracle reports it; the run goes on
                result.kept.append((program.name, order, exc))
            else:
                result.kept.append((program.name, order, tuned))
            result.ops += self.tiles_in[program.name]
        result.wall_s = time.perf_counter() - begin
        result.latencies_ms = [result.wall_s / len(self.programs) * 1e3]
        return result

    def _quality(self, scorer) -> float:
        """``solution_quality`` a scorer reaches on this workload's programs."""
        ratios = []
        for program in self.programs:
            kernels = self.kernels[program.name]
            tuned = model_tile_autotune(kernels, scorer, HardwareEvaluator(), top_k=1)
            ratios.append(self.optimum[program.name].program_runtime / tuned.program_runtime)
        return _geomean(ratios)

    def verify(self, passes: list[PassResult]) -> Verdict:
        verdict = Verdict()
        self.optimum = {
            p.name: exhaustive_tile_autotune(self.kernels[p.name], HardwareEvaluator())
            for p in self.programs
        }
        simulator = TpuSimulator()
        ratios = []
        for result in passes:
            for name, order, tuned in result.kept:
                if isinstance(tuned, Exception):
                    verdict.failed += self.tiles_in[name]
                    verdict.problems.append(f"{name}: search raised {tuned!r}")
                    continue
                kernels = [self.kernels[name][i] for i in order]
                valid = all(
                    tile in self.candidates[name][i] for i, tile in zip(order, tuned.tiles)
                )
                truth = sum(simulator.run(k, t) for k, t in zip(kernels, tuned.tiles))
                if not valid or not math.isclose(truth, tuned.program_runtime, rel_tol=1e-9):
                    verdict.failed += self.tiles_in[name]
                    continue
                self.hardware_evals += tuned.hardware_evaluations
                ratios.append(self.optimum[name].program_runtime / truth)
        if ratios:
            verdict.quality = _geomean(ratios)
        return verdict

    def layer_counts(self) -> dict[str, float]:
        stats = _since(self.warm_stats, self.evaluator.stats())
        return {
            "data.feature_cache_hit_ratio": _ratio(stats["feature_hits"], stats["feature_misses"]),
            "data.kernel_cache_hit_ratio": _ratio(stats["batch_hits"], stats["batch_misses"]),
            "tpu.hardware_evals": float(self.hardware_evals),
            "autotuner.analytical_quality": self._quality(AnalyticalEvaluator()),
        }


class TuneFusion(Workload):
    """op = fusion configuration priced; every candidate makes new kernels."""

    name = "tune_fusion"
    op = "config"
    latency_of = "one program's fusion search (pass wall / programs)"

    def setup(self) -> None:
        self.programs = inputs.draw_programs().tuned[: self.sizes.tuned_programs]
        self.stats = {"feature_hits": 0, "feature_misses": 0, "batch_hits": 0,
                      "batch_misses": 0, "prediction_hits": 0, "prediction_misses": 0}
        self.counts = {"model_evals": 0, "hardware_evals": 0, "configs": 0, "kernels": 0}
        # Warm-up: one short search (interpreter and BLAS start-up); a full
        # pass would triple set-up time and each search starts cold anyway.
        self._search(self.programs[0], budget=min(20, self.sizes.fusion_model_budget), seed=0)

    def _search(self, program, budget: int, seed: int, op: int | None = None):
        # A fresh evaluator per search: a tuner prices a program it has not
        # seen, so features, fingerprints and cache entries all miss.
        learned = LearnedEvaluator.from_checkpoint_bytes(self.fixtures.fusion_blob)
        hardware = HardwareEvaluator()
        priced = learned, hardware
        if self.rec.enabled:
            priced = (
                _SpannedEvaluator(learned, self.rec, "autotuner.evaluators"),
                _SpannedEvaluator(hardware, self.rec, "tpu"),
            )
        with self.rec.span("model_fusion_autotune", "autotuner", op=op):
            tuned = model_fusion_autotune(
                program, priced[0], priced[1], model_budget=budget,
                hardware_budget=5, strategy="annealing", seed=seed,
            )
        if op is not None:
            for key in self.stats:
                self.stats[key] += learned.stats()[key]
            self.counts["model_evals"] += tuned.model_evaluations
            self.counts["hardware_evals"] += hardware.evaluations
            if self.rec.enabled:
                self.counts["configs"] += priced[0].configs_priced + priced[1].configs_priced
                self.counts["kernels"] += priced[0].kernels_priced + priced[1].kernels_priced
        return tuned

    def run_pass(self, index: int) -> PassResult:
        rng = self._rng(2, index)
        budget = self.sizes.fusion_model_budget
        result = PassResult(ops=0, wall_s=0.0, latencies_ms=[])
        begin = time.perf_counter()
        for p in rng.permutation(len(self.programs)):
            program = self.programs[int(p)]
            try:
                tuned = self._search(
                    program, budget, seed=int(rng.integers(0, 2**31)),
                    op=index * len(self.programs) + len(result.kept),
                )
            except Exception as exc:
                result.ops += budget
                result.kept.append((program, exc))
                continue
            result.kept.append((program, tuned))
            result.ops += tuned.model_evaluations
        result.wall_s = time.perf_counter() - begin
        result.latencies_ms = [result.wall_s / len(self.programs) * 1e3]
        return result

    def verify(self, passes: list[PassResult]) -> Verdict:
        verdict = Verdict()
        simulator = TpuSimulator()
        ratios = []
        for result in passes:
            for program, tuned in result.kept:
                if isinstance(tuned, Exception):
                    verdict.failed += self.sizes.fusion_model_budget
                    verdict.problems.append(f"{program.name}: search raised {tuned!r}")
                    continue
                default = simulator.run_program(
                    fuse_program(program.graph, program_name=program.name)
                )
                ok = len(tuned.config.decisions) == len(fusible_edges(program.graph))
                if ok:
                    truth = simulator.run_program(
                        fuse_program(program.graph, config=tuned.config, program_name=program.name)
                    )
                    ok = (
                        math.isclose(truth, tuned.runtime, rel_tol=1e-9)
                        and truth <= default * (1 + 1e-12)
                        and tuned.model_evaluations <= self.sizes.fusion_model_budget
                    )
                if not ok:
                    verdict.failed += tuned.model_evaluations
                    continue
                ratios.append(default / truth)
        if ratios:
            verdict.quality = _geomean(ratios)
        return verdict

    def layer_counts(self) -> dict[str, float]:
        s, c = self.stats, self.counts
        return {
            "data.feature_cache_hit_ratio": _ratio(s["feature_hits"], s["feature_misses"]),
            "data.kernel_cache_hit_ratio": _ratio(s["batch_hits"], s["batch_misses"]),
            "autotuner.prediction_cache_hit_ratio": _ratio(
                s["prediction_hits"], s["prediction_misses"]
            ),
            "autotuner.model_evals": float(c["model_evals"]),
            "tpu.hardware_evals": float(c["hardware_evals"]),
            "compiler.fuse_program_calls": float(c["configs"]),
            "compiler.kernels_per_config": c["kernels"] / max(c["configs"], 1),
        }


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _since(base: dict, now: dict) -> dict:
    """Growth of cumulative counters since ``base`` was read."""
    return {key: value - base.get(key, 0) for key, value in now.items()}


# ------------------------------------------------------------------- serving
@dataclass
class Served:
    """One request's outcome as the client saw it."""

    item: inputs.StreamItem
    latency_s: float
    response: object = None  # a serving Response, or None
    error: str | None = None  # exception / timeout text when no response


class _ServedWorkload(Workload):
    """Shared by the three serving workloads: pool, service, oracle."""

    op = "request"
    latency_of = "submit -> resolved response"
    min_passes = 4
    service_config = ServiceConfig()

    def setup(self) -> None:
        self.pool = inputs.serving_pool(inputs.draw_programs().tuned[: self.sizes.tuned_programs])
        self.registry = ModelRegistry()
        self.version = self.registry.publish(self.fixtures.tile_blob)
        self.tracer = self.profiler = None
        if self.rec.enabled:
            self.tracer = Tracer(sample_rate=1.0, max_traces=16384)
            self.profiler = ContinuousProfiler()
        self.service = CostModelService(
            self.registry, self.service_config, tracer=self.tracer, profiler=self.profiler
        ).start()
        self.ops_done = 0

    def _request(self, item: inputs.StreamItem) -> TileScoresRequest:
        entry = self.pool[item[0]]
        return TileScoresRequest(entry.kernel, tuple(entry.tiles[i] for i in item[1]))

    def _counters(self) -> dict[str, float]:
        """Every cumulative counter the layer metrics are derived from."""
        metrics = self.service.metrics()
        counters = {key: metrics[key] for key in (
            "requests", "cache_hits", "batches", "model_forwards",
            "evaluator_feature_hits", "evaluator_feature_misses",
            "evaluator_batch_hits", "evaluator_batch_misses",
        )}
        for shard, entry in metrics["per_shard"].items():
            counters[f"shard.{shard}"] = entry["requests"]
        if self.profiler is not None:
            for stage, entry in self.profiler.snapshot()["profiler_stage"].items():
                counters[f"{stage}.count"] = entry["count"]
                counters[f"{stage}.seconds"] = entry["seconds"]
        counters["frames_in"] = getattr(self.frontend, "frames_in", 0)
        counters["ops"] = self.ops_done
        return counters

    def _warmed_up(self) -> None:
        """End of set-up: what the warm-up counted is not the workload's."""
        self.warm_counters = self._counters()

    def since_setup(self) -> dict[str, float]:
        return _since(self.warm_counters, self._counters())

    def _harvest_spans(self, served: list[Served], starts: list[float], first_op: int) -> None:
        """Hang the service tracer's spans of each request under the
        client-side operation span."""
        layer_of = {
            "request": "serving.frontend", "frontend.recv": "serving.frontend",
            "queue.wait": "serving.scheduler", "batch.cut": "serving.service",
            "route": "serving.service", "executor.dispatch": "serving.executors",
            "worker.forward": "models",
        }
        offset = self.rec.wall_offset
        for i, (outcome, start) in enumerate(zip(served, starts)):
            op = first_op + i
            root = self.rec.add("request", "serving.client", start,
                                start + outcome.latency_s, None, op)
            trace_id = getattr(outcome.response, "trace_id", None)
            tree = self.tracer.trace(trace_id) if trace_id else None
            if tree is None:
                continue
            pending = [(node, root) for node in tree["roots"]]
            while pending:
                node, parent = pending.pop()
                end = node["end"] if node["end"] is not None else node["start"]
                span_id = self.rec.add(
                    node["name"], layer_of.get(node["name"], "serving.service"),
                    node["start"] + offset, end + offset, parent, op,
                )
                pending.extend((child, span_id) for child in node["children"])

    def verify(self, passes: list[PassResult]) -> Verdict:
        verdict = Verdict()
        oracle = LearnedEvaluator.from_checkpoint_bytes(self.fixtures.tile_blob)
        table: dict[int, np.ndarray] = {}
        for result in passes:
            for outcome in result.kept:
                response = outcome.response
                answered = (
                    response is not None
                    and response.error is None
                    and not response.degraded
                    and response.model_version == self.version
                )
                if answered:
                    index, picks = outcome.item
                    if index not in table:
                        entry = self.pool[index]
                        table[index] = oracle.score_tiles_batched(entry.kernel, entry.tiles)
                    answered = np.allclose(
                        response.value, table[index][list(picks)], rtol=1e-4, atol=1e-6
                    )
                if not answered:
                    verdict.failed += 1
                    if outcome.error and not verdict.problems:
                        verdict.problems.append(f"first unanswered request: {outcome.error}")
        restarts = self.service.executor.stats().get("worker_restarts", 0)
        if restarts:
            verdict.problems.append(f"{restarts} shard worker restart(s) during the run")
        return verdict

    def close(self) -> None:
        self.service.stop()

    def layer_counts(self) -> dict[str, float]:
        c = self.since_setup()
        executed = c["requests"] - c["cache_hits"]
        shards = [v for key, v in c.items() if key.startswith("shard.")]
        return {
            "data.feature_cache_hit_ratio": _ratio(
                c["evaluator_feature_hits"], c["evaluator_feature_misses"]
            ),
            "data.kernel_cache_hit_ratio": _ratio(
                c["evaluator_batch_hits"], c["evaluator_batch_misses"]
            ),
            "serving.scheduler.requests_per_batch": executed / max(c["batches"], 1),
            "serving.service.requests_per_forward": executed / max(c["model_forwards"], 1),
            "serving.service.result_cache_hit_ratio": c["cache_hits"] / max(c["requests"], 1),
            "serving.executors.forwards_per_batch": c["model_forwards"] / max(c["batches"], 1),
            "serving.executors.shard_imbalance": max(shards) / max(sum(shards) / len(shards), 1),
            "serving.executors.worker_restarts": float(
                self.service.executor.stats().get("worker_restarts", 0)
            ),
            "serving.frontend.frames_per_request": c["frames_in"] / max(c["ops"], 1),
        }


class _InProcessServed(_ServedWorkload):
    """In-process frontend, in-thread executor, result cache off; one
    generator thread holds :data:`WINDOW` requests outstanding."""

    service_config = ServiceConfig(max_batch_size=64, result_cache_entries=0)
    run_length = 1  # consecutive requests on one kernel
    warmup_cycles = 1
    cycles = 1  # pool walks per pass

    def setup(self) -> None:
        super().setup()
        self.frontend = InProcessFrontend(self.service)
        self._drive(inputs.kernel_walk(self.pool, self.warmup_cycles, self._rng(3, 0), self.run_length))
        self._warmed_up()

    def _drive(self, stream: list[inputs.StreamItem]) -> PassResult:
        served = [Served(item, 0.0) for item in stream]
        starts = [0.0] * len(stream)
        slots = threading.Semaphore(WINDOW)

        def resolved(future, i: int) -> None:
            served[i].latency_s = time.perf_counter() - starts[i]
            try:
                served[i].response = future.result()
            except Exception as exc:
                served[i].error = repr(exc)
            slots.release()

        begin = time.perf_counter()
        for i, item in enumerate(stream):
            if not slots.acquire(timeout=REQUEST_TIMEOUT_S):
                break  # the service stopped answering: the rest are failures
            request = self._request(item)
            starts[i] = time.perf_counter()
            try:
                future = self.frontend.submit(request)
            except Exception as exc:
                served[i].error = repr(exc)
                slots.release()
            else:
                future.add_done_callback(lambda f, i=i: resolved(f, i))
        # Wait for the window to drain; whatever is still unanswered after
        # the timeout keeps `response is None` and fails the oracle.
        all(slots.acquire(timeout=REQUEST_TIMEOUT_S) for _ in range(WINDOW))
        wall = time.perf_counter() - begin
        if self.rec.enabled:
            self._harvest_spans(served, starts, self.ops_done)
        self.ops_done += len(stream)
        return PassResult(
            ops=len(stream), wall_s=wall, kept=served,
            latencies_ms=[o.latency_s * 1e3 for o in served if o.response is not None],
        )

    def run_pass(self, index: int) -> PassResult:
        return self._drive(
            inputs.kernel_walk(self.pool, self.cycles, self._rng(3, index + 1), self.run_length)
        )


class ServeCoalesced(_InProcessServed):
    """Runs of 16 requests on one kernel: one forward answers 16 requests."""

    name = "serve_coalesced"
    run_length = WINDOW

    @property
    def cycles(self) -> int:
        return self.sizes.coalesced_cycles


class ServeScattered(_InProcessServed):
    """Consecutive requests on distinct kernels: one forward per request."""

    name = "serve_scattered"
    warmup_cycles = 2

    @property
    def cycles(self) -> int:
        return self.sizes.scattered_cycles


class ServeRemote(_ServedWorkload):
    """TCP frontend, two spawned shard workers, deployment defaults (result
    cache on); two synchronous connections, 30 % revisits."""

    name = "serve_remote"
    service_config = ServiceConfig(executor="process", replicas=2)

    def setup(self) -> None:
        super().setup()
        self.frontend = SocketFrontend(self.service)
        self.clients = [
            SocketEvaluator(self.frontend.address, timeout_s=REQUEST_TIMEOUT_S)
            for _ in range(CONNECTIONS)
        ]
        self.history: list[list[inputs.StreamItem]] = [[] for _ in self.clients]
        # Warm-up: every connection sends every kernel once, which spawns
        # the workers, ships the checkpoint and interns the kernels.
        self._drive(
            [inputs.kernel_walk(self.pool, 1, self._rng(4, 0, c)) for c in range(CONNECTIONS)]
        )
        self._warmed_up()

    def _drive(self, streams: list[list[inputs.StreamItem]]) -> PassResult:
        served = [[Served(item, 0.0) for item in stream] for stream in streams]
        starts = [[0.0] * len(stream) for stream in streams]

        def connection(c: int) -> None:
            client = self.clients[c]
            for i, item in enumerate(streams[c]):
                entry = self.pool[item[0]]
                tiles = [entry.tiles[t] for t in item[1]]
                starts[c][i] = time.perf_counter()
                try:
                    client.score_tiles_batched(entry.kernel, tiles)
                    served[c][i].response = client.last_response
                except Exception as exc:  # typed faults and transport errors
                    served[c][i].error = repr(exc)
                served[c][i].latency_s = time.perf_counter() - starts[c][i]

        threads = [threading.Thread(target=connection, args=(c,)) for c in range(len(streams))]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - begin
        flat = [o for per_conn in served for o in per_conn]
        if self.rec.enabled:
            self._harvest_spans(flat, [s for per_conn in starts for s in per_conn], self.ops_done)
        self.ops_done += len(flat)
        return PassResult(
            ops=len(flat), wall_s=wall, kept=flat,
            latencies_ms=[o.latency_s * 1e3 for o in flat if o.response is not None],
        )

    def run_pass(self, index: int) -> PassResult:
        streams = [
            inputs.revisiting_stream(
                self.pool, self.sizes.remote_requests_per_connection,
                self._rng(4, index + 1, c), self.history[c],
            )
            for c in range(CONNECTIONS)
        ]
        return self._drive(streams)

    def verify(self, passes: list[PassResult]) -> Verdict:
        verdict = super().verify(passes)
        if self.frontend.stats()["decode_errors"]:
            verdict.problems.append("the socket frontend reported decode errors")
        return verdict

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.frontend.close()
        super().close()


WORKLOADS = {
    cls.name: cls
    for cls in (TrainTile, TuneTile, TuneFusion, ServeCoalesced, ServeScattered, ServeRemote)
}
