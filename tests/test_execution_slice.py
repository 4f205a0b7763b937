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
  group counts and poisoned subsets, with a stub evaluator.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import enumerate_tile_sizes
from repro.compiler.kernels import Kernel
from repro.data import Scalers, build_tile_dataset
from repro.models import LearnedPerformanceModel, ModelConfig
from repro.models.trainer import TrainResult
from repro.serving import (
    CostModelService,
    KernelRuntimeRequest,
    ModelRegistry,
    ProcessShardExecutor,
    ProgramRuntimesRequest,
    ServiceConfig,
    TileScoresRequest,
)
from repro.serving.executors import InThreadExecutor, ProgramCommand, TileCommand
from repro.workloads import vision

SMALL = dict(hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2, lstm_hidden=16)


@pytest.fixture(scope="module")
def corpus():
    ds = build_tile_dataset(
        [vision.image_embed(0)], max_kernels_per_program=6, max_tiles_per_kernel=6, seed=0
    )
    return ds.records, Scalers.fit_tile(ds.records)


@pytest.fixture(scope="module")
def result_a(corpus):
    model = LearnedPerformanceModel(
        ModelConfig(task="tile", reduction="column-wise", **SMALL), seed=0
    )
    model.eval()
    return TrainResult(model=model, scalers=corpus[1], loss_history=[])


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


def test_executors_agree_command_by_command(corpus, result_a):
    records, _ = corpus
    registry = ModelRegistry()
    version = registry.publish(result_a)
    in_thread = InThreadExecutor(registry, replicas=2)
    process = ProcessShardExecutor(registry, shards=2)
    try:
        commands = _commands(records, in_thread)
        assert all(
            process.shard_for(c.kernel.fingerprint()) == c.shard
            for c in commands
            if isinstance(c, TileCommand)
        )
        threaded = in_thread.run(version, commands)
        sharded = process.run(version, commands)
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
    """Three tile requests, one kernel-runtime request and one program
    population: at the parent, one ``tile_batch`` + two ``programs``."""
    kernels = [r.kernel for r in records]
    futures = [
        service.submit(
            TileScoresRequest(kernel=k, tiles=tuple(enumerate_tile_sizes(k)[:4]))
        )
        for k in kernels[:3]
    ]
    futures.append(service.submit(KernelRuntimeRequest(kernel=kernels[3])))
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
