"""One way to run a shard's slice of a micro-batch.

Three pins on the execution layer (``serving/executors.py`` +
``workers.py``):

* **executor equivalence** — the same command list through
  :class:`InThreadExecutor` and :class:`ProcessShardExecutor` gives the
  same results command by command, a poisoned kernel included (written
  against the public ``Executor.run`` only, so it holds across any
  rewrite of what is behind it);
* **one pipe message per shard per micro-batch** — counted on the shard's
  connection, healthy path and interning-miss path;
* **the slice policy itself** (``workers.run_slice``) under generated
  group counts and poisoned subsets, with a stub evaluator;
* **worker boot** — every worker is spawned with the executor, so the
  first batch spawns nothing, and ``close`` reaps workers still booting.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autotuner import LearnedEvaluator
from repro.compiler import enumerate_tile_sizes
from repro.compiler.kernels import Kernel
from repro.data import Scalers, build_tile_dataset
from repro.models import LearnedPerformanceModel, ModelConfig
from repro.models.trainer import TrainResult
from repro.serving import (
    CostModelService,
    ModelRegistry,
    ProcessShardExecutor,
    ProgramRuntimesRequest,
    ServiceConfig,
    TileScoresRequest,
)
from repro.serving.executors import InThreadExecutor, ProgramCommand, TileCommand
from repro.workloads import vision

SMALL = dict(hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2, lstm_hidden=16)

#: The settings a service passes its executor (the executors have none of
#: their own).
SETTINGS = ServiceConfig()


def in_thread_executor(registry, replicas):
    return InThreadExecutor(
        registry, replicas=replicas, max_cached_kernels=SETTINGS.max_cached_kernels
    )


def process_executor(registry, shards):
    return ProcessShardExecutor(
        registry,
        shards=shards,
        max_cached_kernels=SETTINGS.max_cached_kernels,
        request_timeout_s=SETTINGS.dispatch_timeout_s,
    )


@pytest.fixture(scope="module")
def corpus():
    ds = build_tile_dataset(
        [vision.image_embed(0)], max_kernels_per_program=6, max_tiles_per_kernel=6, seed=0
    )
    return ds.records, Scalers.fit_tile(ds.records)


def _result(corpus, seed):
    model = LearnedPerformanceModel(
        ModelConfig(task="tile", reduction="column-wise", **SMALL), seed=seed
    )
    return TrainResult(model=model, scalers=corpus[1], loss_history=[])


@pytest.fixture(scope="module")
def result_a(corpus):
    return _result(corpus, seed=0)


@pytest.fixture(scope="module")
def result_b(corpus):
    return _result(corpus, seed=1)


# ---------------------------------------------------------------------- #
# executor equivalence
# ---------------------------------------------------------------------- #


def _poisoned(executor, shard):
    """A kernel that fingerprints (so it routes and co-batches like any
    other) onto ``shard``, then raises in ``extract_kernel_features``."""
    kernel = Kernel(graph=None)
    kernel._fingerprint = next(
        fp for fp in (f"{i:08x}".ljust(64, "0") for i in range(64))
        if executor.shard_for(fp) == shard
    )
    return kernel


def _commands(records, executor):
    """Tile commands for every kernel (both shards), a poisoned kernel in
    the middle of shard 0's tile commands, one kernel-runtime-style
    program command (single-kernel programs) and one population."""
    kernels = [r.kernel for r in records]
    by_shard = {0: [], 1: []}
    for kernel in kernels:
        by_shard[executor.shard_for(kernel.fingerprint())].append(kernel)
    assert len(kernels) >= 3 and all(by_shard.values()), "corpus must span both shards"
    tiles = {k.fingerprint(): tuple(enumerate_tile_sizes(k)[:4]) for k in kernels}
    commands = [
        TileCommand(shard=shard, kernel=kernel, tiles=tiles[kernel.fingerprint()])
        for shard, members in by_shard.items()
        for kernel in members
    ]
    commands.insert(
        1,
        TileCommand(
            shard=0, kernel=_poisoned(executor, 0), tiles=tiles[kernels[0].fingerprint()]
        ),
    )
    commands.append(
        ProgramCommand(shard=1, programs=tuple((k,) for k in by_shard[1]))
    )
    commands.append(
        ProgramCommand(shard=0, programs=(tuple(kernels[:3]), tuple(kernels[3:5])))
    )
    return commands


def _direct(result, commands):
    """``commands`` (none poisoned) on fresh evaluators over ``result``,
    one per shard: a shard's tile commands as one ``score_tile_groups``
    forward, then each program command."""
    values = [None] * len(commands)
    for shard in {c.shard for c in commands}:
        evaluator = LearnedEvaluator(result.model, result.scalers)
        mine = [(i, c) for i, c in enumerate(commands) if c.shard == shard]
        tiles = [(i, c) for i, c in mine if isinstance(c, TileCommand)]
        scores = evaluator.score_tile_groups(
            [(c.kernel, list(c.tiles)) for _, c in tiles]
        )
        for (i, _), array in zip(tiles, scores):
            values[i] = array
        for i, c in mine:
            if isinstance(c, ProgramCommand):
                values[i] = evaluator.program_runtimes_batched(
                    [list(kernels) for kernels in c.programs]
                )
    return values


def test_executors_agree_command_by_command(corpus, result_a, result_b):
    records, _ = corpus
    registry = ModelRegistry()
    version = registry.publish(result_a)
    other = registry.stage(result_b)
    in_thread = in_thread_executor(registry, replicas=2)
    process = process_executor(registry, shards=2)
    try:
        commands = _commands(records, in_thread)
        assert all(
            process.shard_for(c.kernel.fingerprint()) == c.shard
            for c in commands
            if isinstance(c, TileCommand)
        )
        threaded = in_thread.run(version, commands)
        sharded = process.run(version, commands)
        # Batches alternating two checkpoints: each batch is served by the
        # version it names, on both executors, bitwise.
        clean = commands[:1] + commands[2:]
        direct = {version: _direct(result_a, clean), other: _direct(result_b, clean)}
        for asked in (version, other, version, other):
            for served in (in_thread.run(asked, clean), process.run(asked, clean)):
                for result, expected in zip(served, direct[asked]):
                    assert result.error is None and not result.infra
                    assert result.value.dtype == expected.dtype
                    np.testing.assert_array_equal(result.value, expected)
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(direct[version], direct[other])
        )
    finally:
        in_thread.close()
        process.close()
    assert len(threaded) == len(sharded) == len(commands)
    for index, (a, b) in enumerate(zip(threaded, sharded)):
        assert (a.error is None) == (b.error is None), index
        assert not a.infra and not b.infra
        if a.error is None:
            assert a.value.dtype == b.value.dtype
            np.testing.assert_array_equal(a.value, b.value)
    failed = [i for i, r in enumerate(threaded) if r.error is not None]
    assert failed == [1]  # the poisoned kernel, and only it
    assert "Traceback" in threaded[1].error and "Traceback" in sharded[1].error
    for shard in (0, 1):
        forwards = [
            sum(r.forwards for c, r in zip(commands, results) if c.shard == shard)
            for results in (threaded, sharded)
        ]
        assert forwards[0] == forwards[1]


# ---------------------------------------------------------------------- #
# worker boot
# ---------------------------------------------------------------------- #


def test_workers_boot_with_the_executor(corpus, result_a):
    """Both workers are alive before any ``run``; a first run touching one
    shard spawns nothing and scores what a fresh evaluator scores."""
    records, _ = corpus
    registry = ModelRegistry()
    version = registry.publish(result_a)
    executor = process_executor(registry, shards=2)
    try:
        assert [s["alive"] for s in executor.shard_stats()] == [True, True]
        pids = [s.process.pid for s in executor._shards]
        commands = [
            c for c in _commands(records, executor)
            if isinstance(c, TileCommand) and c.shard == 1
        ]
        results = executor.run(version, commands)
        assert [s.process.pid for s in executor._shards] == pids
        assert executor.stats()["worker_restarts"] == 0
        assert [s.commands for s in executor._shards] == [0, len(commands)]
        for result, expected in zip(results, _direct(result_a, commands)):
            assert result.error is None
            assert result.value.dtype == expected.dtype
            np.testing.assert_array_equal(result.value, expected)
    finally:
        executor.close()


def test_close_right_after_construction_reaps_every_worker():
    executor = process_executor(ModelRegistry(), shards=2)
    processes = [s.process for s in executor._shards]
    executor.close()
    assert [p.is_alive() for p in processes] == [False, False]


def test_a_failed_spawn_reaps_the_workers_already_started(monkeypatch):
    spawn = ProcessShardExecutor._spawn_locked
    started = []

    def spawn_then_fail(self, shard):
        if shard.index == 1:
            raise OSError("no more processes")
        spawn(self, shard)
        started.append(shard.process)

    monkeypatch.setattr(ProcessShardExecutor, "_spawn_locked", spawn_then_fail)
    with pytest.raises(OSError, match="no more processes"):
        process_executor(ModelRegistry(), shards=2)
    assert len(started) == 1 and not started[0].is_alive()


# ---------------------------------------------------------------------- #
# pipe messages per micro-batch
# ---------------------------------------------------------------------- #


class _CountingConn:
    """A shard connection that counts the messages crossing it."""

    def __init__(self, conn):
        self._conn = conn
        self.sent = []
        self.received = 0

    def send(self, message):
        self.sent.append(message[0])
        self._conn.send(message)

    def recv(self):
        self.received += 1
        return self._conn.recv()

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _mixed_batch(service, records):
    """Three tile requests, one kernel runtime (a one-kernel program) and
    one program population: one tile command per kernel and one program
    command per shard, a shard's slice still one pipe message."""
    kernels = [r.kernel for r in records]
    futures = [
        service.submit(
            TileScoresRequest(kernel=k, tiles=tuple(enumerate_tile_sizes(k)[:4]))
        )
        for k in kernels[:3]
    ]
    futures.append(
        service.submit(ProgramRuntimesRequest(programs=((kernels[3],),)))
    )
    futures.append(
        service.submit(
            ProgramRuntimesRequest(
                programs=(tuple(kernels[:2]), (kernels[2], kernels[4]))
            )
        )
    )
    service.flush()
    return [f.result(timeout=60).unwrap() for f in futures]


@pytest.mark.parametrize(
    "max_cached_kernels, messages",
    [
        (1024, 1),  # every kernel interned by the warm-up batch
        # The worker interns one kernel at a time, so the fingerprint the
        # parent still believes in is gone: miss, then the whole slice
        # again with every kernel attached.
        (1, 2),
    ],
)
def test_a_micro_batch_is_one_pipe_message_per_shard(
    corpus, result_a, max_cached_kernels, messages
):
    records, _ = corpus
    service = CostModelService(
        result_a,
        ServiceConfig(
            executor="process", replicas=1, max_batch_size=16,
            max_cached_kernels=max_cached_kernels, result_cache_entries=0,
        ),
    )
    try:
        warm = _mixed_batch(service, records)  # spawn + load + intern
        shard = service.executor._shards[0]
        shard.conn = counting = _CountingConn(shard.conn)
        values = _mixed_batch(service, records)
        assert len(counting.sent) == messages, counting.sent
        assert counting.received == messages
        for a, b in zip(warm, values):
            np.testing.assert_array_equal(a, b)
    finally:
        service.stop()


def _tile_commands(records, count=2):
    return [
        TileCommand(shard=0, kernel=r.kernel, tiles=tuple(enumerate_tile_sizes(r.kernel)[:4]))
        for r in records[:count]
    ]


def test_alternating_warm_versions_cost_one_message_per_batch(corpus, result_a, result_b):
    """A slice names its version, so nothing is switched between batches."""
    records, _ = corpus
    registry = ModelRegistry()
    versions = [registry.publish(result_a), registry.stage(result_b)]
    executor = process_executor(registry, shards=1)
    commands = _tile_commands(records)
    try:
        warm = {v: executor.run(v, commands) for v in versions}  # spawn, load both
        shard = executor._shards[0]
        shard.conn = counting = _CountingConn(shard.conn)
        for batch in range(10):
            version = versions[batch % 2]
            for result, expected in zip(executor.run(version, commands), warm[version]):
                np.testing.assert_array_equal(result.value, expected.value)
        assert counting.sent == ["slice"] * 10
        assert counting.received == 10
    finally:
        executor.close()


def test_an_evicted_version_is_shipped_again_and_nothing_else_shows(corpus, result_a, result_b):
    """Three versions through one worker's LRU of two: every batch is
    served by the version it names, each re-entry costs one ``load``."""
    records, scalers = corpus
    results = {"a": result_a, "b": result_b, "c": _result(corpus, seed=2)}
    registry = ModelRegistry()
    for name, result in results.items():
        registry.publish(result, version=name)
    service = CostModelService(
        registry, ServiceConfig(executor="process", result_cache_entries=0)
    )
    kernel = records[0].kernel
    tiles = tuple(enumerate_tile_sizes(kernel)[:4])
    direct = {
        name: LearnedEvaluator(result.model, scalers).score_tiles_batched(kernel, list(tiles))
        for name, result in results.items()
    }

    def serve(version):
        registry.activate(version)
        future = service.submit(TileScoresRequest(kernel=kernel, tiles=tiles))
        service.flush()
        response = future.result(timeout=60)
        assert response.error is None and response.model_version == version
        np.testing.assert_array_equal(response.value, direct[version])

    try:
        serve("a")  # spawn
        shard = service.executor._shards[0]
        shard.conn = counting = _CountingConn(shard.conn)
        for version in "bcabca":
            serve(version)
        assert counting.sent == ["load", "slice"] * 6
        # The parent's mirror claims a version the worker has evicted: the
        # worker says so, and the slice is resent after one more load.
        del counting.sent[:]
        shard.loaded["b"] = True
        serve("b")
        assert counting.sent == ["slice", "load", "slice"]
        assert service.executor.shard_stats()[0]["restarts"] == 0
    finally:
        service.stop()


class _Pipe:
    """The parent end of a pipe whose child end a thread serves."""

    def __init__(self, monkeypatch, built):
        import multiprocessing
        import threading
        from types import SimpleNamespace

        from repro.serving import workers

        def build(blob, **kwargs):
            built.append(blob)
            return _StubEvaluator(poisoned=())

        monkeypatch.setattr(
            workers, "LearnedEvaluator", SimpleNamespace(from_checkpoint_bytes=build)
        )
        self.conn, child = multiprocessing.Pipe()
        self.thread = threading.Thread(
            target=workers.shard_worker,
            args=(child, SETTINGS.max_cached_kernels, 0, None),
        )
        self.thread.start()

    def ask(self, *message):
        self.conn.send(message)
        assert self.conn.poll(30)
        return self.conn.recv()

    def close(self):
        self.conn.send(("exit",))
        self.thread.join(timeout=30)
        assert not self.thread.is_alive()


def test_a_slice_for_a_version_the_worker_does_not_hold_is_stale(monkeypatch):
    built = []
    pipe = _Pipe(monkeypatch, built)
    try:
        message = ("slice", "v1", [("fp", 3, [(1,), (2,)])], None, [])
        assert pipe.ask(*message) == ("stale", "v1")
        assert built == []
        # Nothing was interned either: the kernel-less form still misses.
        assert pipe.ask("load", "v1", b"blob-1") == ("ok", "v1")
        assert pipe.ask("slice", "v1", [("fp", None, [(1,)])], None, []) == ("miss", ["fp"])
        status, outcomes = pipe.ask(*message)
        assert status == "ok" and len(outcomes) == 1
        np.testing.assert_array_equal(outcomes[0][0], np.full(2, 3.0, np.float32))
        assert pipe.ask("load", "v1", b"blob-1") == ("ok", "v1")
        assert built == [b"blob-1"]  # a held version is not rebuilt
        # A stale slice does not become "the version last served".
        assert pipe.ask("slice", "v2", [], None, []) == ("stale", "v2")
        status, stats = pipe.ask("stats")
        assert stats["version"] == "v1" and stats["live_versions"] == 1
        assert stats["attempted"] == 1
    finally:
        pipe.close()


def test_in_thread_stats_are_the_sum_of_the_replicas(corpus, result_a):
    """Each replica owns its caches; the executor's counters add them up."""
    records, _ = corpus
    registry = ModelRegistry()
    version = registry.publish(result_a)
    executor = in_thread_executor(registry, replicas=2)
    commands = [c for i, c in enumerate(_commands(records, executor)) if i != 1]
    for _ in range(2):
        assert all(r.error is None for r in executor.run(version, commands))
    replicas = executor._pools[version]
    assert len(replicas) == 2
    total = executor.stats()
    assert total.pop("live_versions") == 1
    assert total == {
        key: sum(replica.stats()[key] for replica in replicas)
        for key in replicas[0].stats()
    }
    assert total["batch_entries"] == total["feature_entries"] > 0


# ---------------------------------------------------------------------- #
# the slice policy
# ---------------------------------------------------------------------- #


class _StubEvaluator:
    """Scores a group by its kernel's number; raises on a poisoned one."""

    def __init__(self, poisoned):
        self.poisoned = poisoned
        self.attempted = 0
        self.succeeded = 0

    def _score(self, kernel, width):
        if kernel in self.poisoned:
            raise ValueError(f"poisoned kernel {kernel}")
        return np.full(width, float(kernel), dtype=np.float32)

    def score_tile_groups(self, groups):
        self.attempted += 1
        arrays = [self._score(kernel, len(tiles)) for kernel, tiles in groups]
        self.succeeded += 1
        return arrays

    def stats(self):
        return {"attempted": self.attempted}

    def program_runtimes_batched(self, programs):
        self.attempted += 1
        value = np.concatenate(
            [np.zeros(0, dtype=np.float32)]
            + [self._score(kernels[0], 1) for kernels in programs]
        )
        self.succeeded += 1
        return value


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.integers(min_value=0, max_value=4), max_size=6),
    program_sets=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_run_slice_isolates_exactly_the_poisoned_groups(widths, program_sets, data):
    from repro.serving.workers import run_slice

    total = len(widths) + program_sets
    poisoned = data.draw(st.sets(st.sampled_from(range(total)))) if total else set()
    traced = data.draw(st.booleans())
    evaluator = _StubEvaluator(poisoned)
    hook_calls = []
    outcomes = run_slice(
        evaluator,
        [(kernel, [None] * width) for kernel, width in enumerate(widths)],
        ("trace", "parent") if traced else None,
        [
            ([[kernel], [kernel]], ("trace", f"p{kernel}") if traced else None)
            for kernel in range(len(widths), total)
        ],
        "stub",
        before_forward=lambda: hook_calls.append(evaluator.attempted),
        shard=7,
    )
    assert len(outcomes) == total
    for kernel, (value, error, forwards, spans) in enumerate(outcomes):
        if kernel in poisoned:
            assert value is None and f"poisoned kernel {kernel}" in error
            assert forwards == 0 and not spans
            continue
        assert error is None
        width = widths[kernel] if kernel < len(widths) else 2
        np.testing.assert_array_equal(value, np.full(width, float(kernel), np.float32))
        assert len(spans) == (1 if traced else 0)
        for span in spans:
            assert span["name"] == "worker.forward" and span["process"] == "stub"
            assert span["attrs"]["shard"] == 7 and "pid" in span["attrs"]
            assert span["trace_id"] == "trace"
    # The hook ran once before each forward the evaluator saw, and never else.
    assert hook_calls == list(range(evaluator.attempted))
    assert sum(forwards for _, _, forwards, _ in outcomes) == evaluator.succeeded
    if widths and not poisoned & set(range(len(widths))):
        # Nothing to isolate: the shard's tile groups shared one forward.
        assert [o[2] for o in outcomes[: len(widths)]] == [1] + [0] * (len(widths) - 1)
