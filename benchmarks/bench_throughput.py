"""Throughput benchmark: cached vs. cold hot paths, as JSON.

Tracks the perf trajectory of the serving-layer foundation introduced with
the :class:`repro.data.KernelCache`:

* **training-step assembly** — steps/sec of batch assembly for the tile
  trainer, cold (``assemble_batch`` from scratch every step, the seed
  behaviour) vs. cached (``KernelCache.assemble`` over a precompiled step
  plan, the current behaviour);
* **full training step** — steps/sec including forward/backward, for
  context on how much of a step assembly used to eat;
* **autotuner tile scoring** — tiles/sec for repeated-kernel queries,
  cold (fresh feature extraction + normalization per query, per-candidate
  model calls) vs. cached+batched (``score_tiles_batched`` on a warm
  evaluator);
* **fusion search** — searches/sec and configs/sec of
  ``model_fusion_autotune`` on one program with a fresh evaluator per
  search, and the share of a configuration's kernels that the search's
  ``ProgramFuser`` serves from its memo instead of re-extracting;
* **operator build** — µs per first-sight kernel to build its three
  mean-aggregation operators: :class:`repro.nn.graph_layers.GraphOperators`
  (index arithmetic) vs. the ``normalized_adjacency`` x3 SciPy oracle, after
  checking that the two agree bitwise on every kernel.

Run with ``REPRO_BENCH_FAST=1`` for the CI smoke configuration. Output is
a single JSON object on stdout so the numbers can be tracked PR-over-PR
(see the Performance section of ROADMAP.md).
"""
from __future__ import annotations

import itertools
import json
import os
import sys
import time

import numpy as np
import scipy.sparse as sp

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.autotuner import (  # noqa: E402
    HardwareEvaluator,
    LearnedEvaluator,
    model_fusion_autotune,
)
from repro.compiler import ProgramFuser, enumerate_tile_sizes, fuse_program  # noqa: E402
from repro.data import (  # noqa: E402
    KernelCache,
    Scalers,
    TileBatchSampler,
    assemble_batch,
    build_fusion_dataset,
    build_tile_dataset,
)
from repro.models import (  # noqa: E402
    LearnedPerformanceModel,
    ModelConfig,
    TrainConfig,
    train_tile_model,
)
from repro.models.trainer import compile_step_plan  # noqa: E402
from repro.nn import normalized_adjacency  # noqa: E402
from repro.nn.graph_layers import GraphOperators  # noqa: E402
from repro.workloads import vision  # noqa: E402

from harness import stamp_report  # noqa: E402

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")


def _timed(fn, repeat: int) -> float:
    """Wall-clock seconds for ``repeat`` calls of ``fn`` (after one warmup)."""
    fn()
    start = time.perf_counter()
    for _ in range(repeat):
        fn()
    return time.perf_counter() - start


def bench_training_assembly(records, scalers, steps: int) -> dict:
    """Cold assemble_batch vs. cached KernelCache.assemble, same draws."""
    config = ModelConfig.paper_best_tile()
    sampler = TileBatchSampler(records, kernels_per_batch=8, tiles_per_kernel=4)
    plan = compile_step_plan(sampler.draw_items, steps)

    def cold():
        for items in plan:
            assemble_batch(items, scalers, neighbor_cap=config.neighbor_cap)

    cache = KernelCache(scalers, neighbor_cap=config.neighbor_cap)
    for items in plan:  # warm the per-kernel entries
        cache.assemble(items)

    def cached():
        for items in plan:
            cache.assemble(items)

    cold_s = _timed(cold, 1)
    cached_s = _timed(cached, 1)
    return {
        "steps": steps,
        "cold_steps_per_sec": steps / cold_s,
        "cached_steps_per_sec": steps / cached_s,
        "speedup": cold_s / cached_s,
        "kernel_cache_hits": cache.hits,
        "kernel_cache_misses": cache.misses,
    }


def bench_full_training(records, steps: int) -> dict:
    """End-to-end steps/sec of the (cache-backed) training loop."""
    start = time.perf_counter()
    train_tile_model(records, train=TrainConfig(steps=steps, log_every=steps))
    elapsed = time.perf_counter() - start
    return {"steps": steps, "steps_per_sec": steps / elapsed}


def bench_autotuner_scoring(records, scalers, queries: int) -> dict:
    """Repeated-kernel tile scoring: per-candidate cold calls vs. batched."""
    config = ModelConfig.paper_best_tile()
    model = LearnedPerformanceModel(config)
    model.eval()
    # The kernel with the most candidates — the one an autotuner hammers.
    record = max(records, key=lambda r: len(enumerate_tile_sizes(r.kernel)))
    kernel = record.kernel
    tiles = enumerate_tile_sizes(kernel)

    cold_eval = LearnedEvaluator(model, scalers, cache=False)

    def cold():
        # The seed behaviour a per-candidate search strategy induces:
        # every candidate is a fresh query with its own feature
        # extraction, normalization, and single-item forward pass.
        for tile in tiles:
            cold_eval.score_tiles_batched(kernel, [tile])

    warm_eval = LearnedEvaluator(model, scalers, cache=True)
    warm_eval.score_tiles_batched(kernel, tiles)  # warm the caches

    def cached():
        warm_eval.score_tiles_batched(kernel, tiles)

    repeat = max(queries // max(len(tiles), 1), 1)
    cold_s = _timed(cold, repeat)
    cached_s = _timed(cached, repeat)
    scored = repeat * len(tiles)
    return {
        "kernel_nodes": int(record.features.num_nodes),
        "candidate_tiles": len(tiles),
        "queries": scored,
        "cold_tiles_per_sec": scored / cold_s,
        "cached_tiles_per_sec": scored / cached_s,
        "speedup": cold_s / cached_s,
        "feature_cache_hits": warm_eval.feature_cache_hits,
        "feature_cache_misses": warm_eval.feature_cache_misses,
    }


def bench_fusion_search(program, searches: int, budget: int) -> dict:
    """Model-guided fusion searches of one program, a fresh evaluator each."""
    # Before timing: along an annealing-shaped walk (1-3 flips per move) the
    # fuser's kernels equal one-shot fuse_program's; count how many of them
    # are shells over a body the fuser already held.
    fuser = ProgramFuser(program.graph, program_name=program.name)
    rng = np.random.default_rng(0)
    config = fuser.default_config()
    bodies: set[int] = set()
    kernels_seen = kernels_from_memo = 0
    for _ in range(budget):
        kernels = fuser.fuse(config)
        cold = fuse_program(program.graph, config=config, program_name=program.name)
        if [(k.to_dict(), k.fingerprint()) for k in kernels] != [
            (k.to_dict(), k.fingerprint()) for k in cold
        ]:
            raise RuntimeError(f"fuser and one-shot fuse_program disagree on {program.name}")
        for kernel in kernels:
            body = id(kernel.graph.instructions)  # kept alive by the fuser
            kernels_from_memo += body in bodies
            bodies.add(body)
        kernels_seen += len(kernels)
        config = config.mutate(rng, num_flips=int(rng.integers(1, 4)))

    records = build_fusion_dataset([program], configs_per_program=2, seed=0).records
    scalers = Scalers.fit_fusion(records)
    model = LearnedPerformanceModel(ModelConfig.paper_best_fusion())
    model.eval()
    seeds = itertools.count()

    def search():
        model_fusion_autotune(
            program, LearnedEvaluator(model, scalers), HardwareEvaluator(),
            model_budget=budget, hardware_budget=5, seed=next(seeds),
        )

    elapsed = _timed(search, searches)
    return {
        "program": program.name,
        "program_nodes": len(program.graph),
        "searches": searches,
        "configs_per_search": budget,
        "searches_per_sec": searches / elapsed,
        "configs_per_sec": searches * budget / elapsed,
        "kernels_per_config": kernels_seen / budget,
        "kernels_from_fuser_memo": kernels_from_memo / kernels_seen,
    }


def bench_operator_build(records, repeat: int) -> dict:
    """GraphOperators by index arithmetic vs. normalized_adjacency x3."""
    cap = ModelConfig.paper_best_tile().neighbor_cap
    adjacencies = [r.features.adjacency for r in records]

    def oracle(adjacency):
        a = sp.csr_matrix(adjacency)
        return [normalized_adjacency(a, d, cap=cap) for d in ("in", "out", "both")]

    # Before timing: the same stored entries, bit for bit, on every kernel.
    for record, adjacency in zip(records, adjacencies):
        ops = GraphOperators(adjacency, neighbor_cap=cap)
        for got, want in zip((ops.adj_in, ops.adj_out, ops.adj_sym), oracle(adjacency)):
            same = (
                got.dtype == want.dtype
                and np.array_equal(got.indptr, want.indptr)
                and np.array_equal(got.indices, want.indices)
                and np.array_equal(got.data.view(np.uint32), want.data.view(np.uint32))
            )
            if not same:
                raise RuntimeError(
                    f"GraphOperators and normalized_adjacency disagree on "
                    f"{record.kernel.program_name} kernel {record.kernel.index}"
                )

    builder_s = _timed(lambda: [GraphOperators(a, neighbor_cap=cap) for a in adjacencies], repeat)
    oracle_s = _timed(lambda: [oracle(a) for a in adjacencies], repeat)
    built = repeat * len(adjacencies)
    return {
        "kernels": len(adjacencies),
        "mean_nodes": float(np.mean([len(a) for a in adjacencies])),
        "builder_us_per_kernel": builder_s / built * 1e6,
        "oracle_us_per_kernel": oracle_s / built * 1e6,
        "speedup": oracle_s / builder_s,
    }


def main() -> dict:
    programs = [vision.resnet_v1(0), vision.alexnet(0)]
    if not FAST:
        programs += [vision.inception(0), vision.ssd(0)]
    dataset = build_tile_dataset(
        programs, max_tiles_per_kernel=8 if FAST else 16, seed=0
    )
    records = dataset.records
    scalers = Scalers.fit_tile(records)

    assembly_steps = 30 if FAST else 150
    train_steps = 10 if FAST else 60
    scoring_queries = 60 if FAST else 400
    fusion_searches, fusion_budget = (2, 20) if FAST else (6, 40)

    report = {
        "benchmark": "bench_throughput",
        "fast_mode": FAST,
        "num_kernels": len(records),
        "training_assembly": bench_training_assembly(records, scalers, assembly_steps),
        "full_training": bench_full_training(records, train_steps),
        "autotuner_scoring": bench_autotuner_scoring(records, scalers, scoring_queries),
        "fusion_search": bench_fusion_search(programs[0], fusion_searches, fusion_budget),
        "operator_build": bench_operator_build(records, 2 if FAST else 10),
    }
    return report


if __name__ == "__main__":
    report = main()
    print(json.dumps(stamp_report(report), indent=2))
    ok = (
        report["training_assembly"]["speedup"] >= 1.0
        and report["autotuner_scoring"]["speedup"] >= 1.0
        and report["operator_build"]["speedup"] >= 3.0
    )
    sys.exit(0 if ok else 1)
