"""Inputs of the spine benchmark: program draw, model fixtures, request streams.

The program under test receives only what this module generates — never
the seed or a workload name.

Two seeds with different jobs:

* :data:`DRAW_SEED` is a constant. It draws *which programs* the benchmark
  uses from the 104-program corpus. Programs differ tenfold in size, so a
  draw that moved with ``--seed`` would move every throughput with it; the
  draw is therefore part of the benchmark's definition (README, "Program
  draw") and changing it is a benchmark change.
* ``--seed`` drives every other random choice: dataset sampling and model
  initialisation in ``train_tile``, search order and annealing seeds in the
  tuners, tile subsets, kernel order and repeat positions in the request
  streams. It changes the inputs without changing the amount of work.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Same bootstrap as the sibling bench_*.py scripts: the library is used
# from source, and harness.py supplies the shared training
# hyper-parameters and the report stamp.
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import numpy as np  # noqa: E402

import harness  # noqa: E402
from repro.compiler import enumerate_tile_sizes, fuse_program  # noqa: E402
from repro.data import build_fusion_dataset, build_tile_dataset  # noqa: E402
from repro.models import (  # noqa: E402
    ModelConfig,
    save_model_bytes,
    train_fusion_model,
    train_tile_model,
)
from repro.workloads import build_corpus  # noqa: E402

#: Build products (trained fixtures, spans of traced runs) live here, inside
#: the checkout and ignored by git.
BUILD_DIR = ROOT / ".bench_build" / "spine"

DRAW_SEED = 0
#: Families with at least two variants (so one can be held out) and at
#: least nine tileable kernels (so the serving pool's cap of eight bites).
VISION_FAMILIES = (
    "resnet_v1", "resnet_v2", "inception", "ssd", "convdraw", "image_embed",
    "resnet_parallel",
)
SEQUENCE_FAMILIES = ("rnn", "wavernn", "nmt", "translate", "transformer", "smartcompose")

#: Tile rows per request (one search step's proposals) and the row count a
#: pooled kernel must offer, so every pooled kernel also serves the
#: ``_b64`` layer replays.
CHUNK = 4
MIN_TILES = 64
POOL_CAP_PER_PROGRAM = 8


@dataclass(frozen=True)
class Sizes:
    """How much work one pass of each workload does.

    ``full()`` is what ``BENCHMARK.json`` measures; ``tiny()`` is the
    ``--selfcheck`` size.
    """

    tile_fixture_steps: int
    fusion_fixture_steps: int
    tuned_programs: int
    train_chunk_steps: int
    fusion_model_budget: int
    coalesced_cycles: int
    scattered_cycles: int
    remote_requests_per_connection: int
    setup_repeats: int
    max_setup_repeats: int

    @staticmethod
    def full() -> "Sizes":
        return Sizes(
            tile_fixture_steps=400,
            fusion_fixture_steps=300,
            tuned_programs=4,
            train_chunk_steps=40,
            fusion_model_budget=40,
            coalesced_cycles=4,
            scattered_cycles=10,
            remote_requests_per_connection=150,
            setup_repeats=3,
            max_setup_repeats=7,
        )

    @staticmethod
    def tiny() -> "Sizes":
        return Sizes(
            tile_fixture_steps=30,
            fusion_fixture_steps=30,
            tuned_programs=1,
            train_chunk_steps=25,
            fusion_model_budget=10,
            coalesced_cycles=1,
            scattered_cycles=2,
            remote_requests_per_connection=40,
            setup_repeats=1,
            max_setup_repeats=1,
        )


# ------------------------------------------------------------------- draw
@dataclass
class Draw:
    """The benchmark's programs: six to train on, four to tune and serve."""

    train: list
    tuned: list  # [trained-on vision, trained-on sequence, held-out vision, held-out sequence]


def draw_programs() -> Draw:
    """Three vision and three sequence families, one training program each,
    plus one held-out sibling from a vision and a sequence family."""
    families: dict[str, list] = {}
    for program in build_corpus():
        families.setdefault(program.family, []).append(program)
    rng = np.random.default_rng(DRAW_SEED)
    chosen = list(rng.choice(VISION_FAMILIES, 3, replace=False)) + list(
        rng.choice(SEQUENCE_FAMILIES, 3, replace=False)
    )
    train, held_out = [], []
    for family in chosen:
        order = rng.permutation(len(families[family]))
        train.append(families[family][order[0]])
        held_out.append(families[family][order[1]])
    return Draw(train=train, tuned=[train[0], train[3], held_out[1], held_out[4]])


def tileable_kernels(program) -> list:
    """The program's kernels under the compiler-default fusion that have a
    tile choice to make."""
    kernels = fuse_program(program.graph, program_name=program.name)
    return [k for k in kernels if k.has_tile_options()]


# ---------------------------------------------------------------- fixtures
@dataclass
class Fixtures:
    """The trained models every non-training workload loads."""

    tile_blob: bytes
    fusion_blob: bytes
    meta: dict


def tile_train_config(steps: int, seed: int = 0):
    return replace(harness.default_tile_train(steps), seed=seed, log_every=10)


def tile_dataset(programs, seed: int):
    return build_tile_dataset(
        programs, max_kernels_per_program=10, max_tiles_per_kernel=16, seed=seed
    )


def ensure_fixtures(sizes: Sizes) -> Fixtures:
    """Load the trained fixtures, training them first if this checkout has
    none: the benchmark's build step.

    Training depends on the source tree and :data:`DRAW_SEED` only, not on
    ``--seed``, so one build serves every run in a checkout. It runs in a
    process of its own, so the run that happens to build measures the same
    peak RSS and the same cold caches as every other run.
    """
    directory = BUILD_DIR / (
        f"fixtures-d{DRAW_SEED}-t{sizes.tile_fixture_steps}-f{sizes.fusion_fixture_steps}"
    )
    if not (directory / "meta.json").exists():
        builder = multiprocessing.get_context("spawn").Process(
            target=_train_fixtures, args=(directory, sizes)
        )
        builder.start()
        builder.join()
        if builder.exitcode != 0:
            raise RuntimeError(f"training the fixtures failed (exit code {builder.exitcode})")
    return Fixtures(
        tile_blob=(directory / "tile.blob").read_bytes(),
        fusion_blob=(directory / "fusion.blob").read_bytes(),
        meta=json.loads((directory / "meta.json").read_text()),
    )


def _train_fixtures(directory: Path, sizes: Sizes) -> None:
    """Train and write both fixtures. Files are written under a temporary
    name and renamed, ``meta.json`` last, so an interrupted build leaves
    nothing that looks finished."""
    start = time.perf_counter()
    directory.mkdir(parents=True, exist_ok=True)
    programs = draw_programs().train
    tile = train_tile_model(
        tile_dataset(programs, seed=0).records,
        ModelConfig.paper_best_tile(),
        tile_train_config(sizes.tile_fixture_steps),
    )
    fusion = train_fusion_model(
        build_fusion_dataset(programs, configs_per_program=4, seed=0).records,
        ModelConfig.paper_best_fusion(),
        harness.default_fusion_train(sizes.fusion_fixture_steps),
    )
    for name, result in (("tile.blob", tile), ("fusion.blob", fusion)):
        _write_atomic(directory / name, save_model_bytes(result))
    meta = {
        "train_programs": [p.name for p in programs],
        "tile_final_loss": tile.loss_history[-1][1],
        "fusion_final_loss": fusion.loss_history[-1][1],
        "build_s": time.perf_counter() - start,
    }
    _write_atomic(directory / "meta.json", json.dumps(meta).encode())


def _write_atomic(path: Path, data: bytes) -> None:
    scratch = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    scratch.write_bytes(data)
    os.replace(scratch, path)


# ----------------------------------------------------------- request streams
@dataclass
class PooledKernel:
    """One kernel of the serving pool with its candidate tiles."""

    index: int
    kernel: object
    tiles: list


def serving_pool(programs) -> list[PooledKernel]:
    """At most eight kernels per program, each with >= 64 candidate tiles.

    The first eligible kernels are taken, not a seeded sample: kernels
    differ in node count, so a sample would change the cost of a request
    with the seed.
    """
    pool: list[PooledKernel] = []
    for program in programs:
        taken = 0
        for kernel in tileable_kernels(program):
            tiles = enumerate_tile_sizes(kernel)
            if len(tiles) < MIN_TILES or taken == POOL_CAP_PER_PROGRAM:
                continue
            pool.append(PooledKernel(len(pool), kernel, tiles))
            taken += 1
    return pool


#: One request of a stream: (pool index, indices of its candidate tiles).
StreamItem = tuple[int, tuple[int, ...]]


def _chunk(rng: np.random.Generator, entry: PooledKernel) -> tuple[int, ...]:
    picked = rng.choice(len(entry.tiles), size=CHUNK, replace=False)
    return tuple(int(i) for i in np.sort(picked))


def kernel_walk(pool, cycles: int, rng, run_length: int = 1) -> list[StreamItem]:
    """``cycles`` seeded walks over the pool, ``run_length`` consecutive
    requests per kernel, each with its own tile chunk.

    ``run_length=16`` is search workers splitting one kernel's population
    (coalesced); ``run_length=1`` is independent tuners, consecutive
    requests on distinct kernels (scattered)."""
    stream: list[StreamItem] = []
    for _ in range(cycles):
        for index in rng.permutation(len(pool)):
            entry = pool[int(index)]
            stream.extend((entry.index, _chunk(rng, entry)) for _ in range(run_length))
    return stream


def revisiting_stream(pool, count: int, rng, history: list[StreamItem],
                      repeat_share: float = 0.3) -> list[StreamItem]:
    """A scattered walk in which a seeded share of requests exactly repeats
    an earlier request of the same connection (a tuner revisiting
    candidates). ``history`` is the connection's record and is extended."""
    stream: list[StreamItem] = []
    fresh = iter(())
    for _ in range(count):
        if history and rng.random() < repeat_share:
            item = history[int(rng.integers(0, len(history)))]
        else:
            item = next(fresh, None)
            if item is None:
                fresh = iter(kernel_walk(pool, 1, rng))
                item = next(fresh)
        history.append(item)
        stream.append(item)
    return stream
