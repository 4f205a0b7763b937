"""Training produces the recorded bits, and a step records one tape node per layer.

``FINGERPRINTS`` are SHA-256 digests of the state dict (names, dtypes, shapes,
bytes) and the loss history after four fixed training runs, recorded before
the GraphSAGE hop and ``Dense`` became single tape nodes; only
``undirected_column_wise`` was recorded later, when the un-normalised hop
it had run went (every hop takes the L2 step). Any change under
``repro.nn`` runs this file first: the runs must repeat those bits exactly.

The bits move with the BLAS thread count, so the runs happen in a
subprocess with one BLAS thread (as every benchmark runs). They also move
between CPUs whose BLAS kernels or SIMD math routines round differently, so
the digests are compared only where a probe of those routines reproduces
``PLATFORM_PROBE``; elsewhere the fingerprint test skips, and the Hypothesis
properties in ``test_nn_sequence_graph.py`` and ``test_nn_layers.py`` check
the same bits against the composite tape on any platform.

Print the digests of the current code (one JSON object) with
``PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_training_fingerprints.py``.
"""
import collections
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data import KernelCache, Scalers, TileBatchSampler, build_fusion_dataset, build_tile_dataset
from repro.models import (
    LearnedPerformanceModel,
    ModelConfig,
    TrainConfig,
    TrainResult,
    fine_tune,
    train_fusion_model,
    train_tile_model,
)
from repro.nn import Tensor, pairwise_rank_loss
from repro.workloads import sequence, vision

PLATFORM_PROBE = "e6d230a041a008c9cdd454f51304cfa2775838c40d1e0ee0f23a5a788eaa5cba"

FINGERPRINTS = {
    "tile_then_fine_tune": "55ec1da7532d6c7e8459a518a2e7024d6c777a6119e82e9eda9d5e09d90e79e2",
    "fusion_transformer": "5ed6c7a9e03098cb90d5fb20654259929a2394a71d7bdb6e708f971933aca7ff",
    "undirected_column_wise": "a8d8ed5801f5f2966be1a86fb5892735acc0b8a8f143f00017cc7e402e9c558b",
    "vanilla_per_node": "ee9cf87f1e2b1edaf3aa21ee15b14ab356ff8e3e56cd9ae7043ccee04b14e0c5",
}


def platform_probe() -> str:
    """Digest of float32 GEMMs (plain, transposed and batched operands) and
    the ufuncs training uses, at training-like shapes: what differs between
    CPUs when the training bits do."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((300, 96)).astype(np.float32)
    b = rng.standard_normal((96, 64)).astype(np.float32)
    c = rng.standard_normal((300, 64)).astype(np.float32)
    t = rng.standard_normal((6, 20, 96)).astype(np.float32)
    pos = np.abs(c) + np.float32(1e-3)
    outputs = [
        a @ b,
        a.T @ c,
        c @ b.T,
        t @ b,
        np.swapaxes(t, -1, -2) @ (t @ b),
        np.exp(c),
        np.tanh(c),
        np.log(pos),
        np.sqrt(pos),
        pos**-0.5,
        pos**-1.5,
        c.sum(axis=-1, keepdims=True),
        c.sum(axis=0),
        c.sum(),
    ]
    digest = hashlib.sha256()
    for out in outputs:
        digest.update(np.ascontiguousarray(out).tobytes())
    return digest.hexdigest()


def fingerprint(result: TrainResult) -> str:
    digest = hashlib.sha256()
    for name, array in result.model.state_dict().items():
        digest.update(f"{name}:{array.dtype}:{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(np.asarray(result.loss_history, dtype=np.float64).tobytes())
    return digest.hexdigest()


def tile_records():
    return build_tile_dataset(
        [vision.image_embed(0)], max_kernels_per_program=6, max_tiles_per_kernel=6, seed=0
    ).records


def run(name: str) -> TrainResult:
    if name == "tile_then_fine_tune":
        records = tile_records()
        result = train_tile_model(
            records, ModelConfig.paper_best_tile(), TrainConfig(steps=60, log_every=5)
        )
        return fine_tune(result, records, TrainConfig(steps=40, seed=1, log_every=5))
    if name == "fusion_transformer":
        # The Transformer reduction runs Dense on [batch, time, dim] inputs.
        records = build_fusion_dataset([sequence.char2feats(0)], configs_per_program=2, seed=0).records
        return train_fusion_model(
            records,
            ModelConfig.paper_best_fusion(),
            TrainConfig(steps=30, batch_size=8, log_every=5),
        )
    if name == "undirected_column_wise":
        config = ModelConfig.vanilla("tile").with_overrides(reduction="column-wise", directed=False)
        return train_tile_model(tile_records(), config, TrainConfig(steps=40, log_every=5))
    if name == "vanilla_per_node":
        return train_tile_model(
            tile_records(), ModelConfig.vanilla("tile"), TrainConfig(steps=40, log_every=5)
        )
    raise KeyError(name)


def digests() -> dict:
    return {
        "platform_probe": platform_probe(),
        "fingerprints": {name: fingerprint(run(name)) for name in FINGERPRINTS},
    }


@pytest.fixture(scope="module")
def one_thread_digests() -> dict:
    env = dict(os.environ)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = "1"
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestTrainingRepeatsTheRecordedBits:
    @pytest.mark.parametrize("name", sorted(FINGERPRINTS))
    def test_fingerprint(self, one_thread_digests, name):
        if one_thread_digests["platform_probe"] != PLATFORM_PROBE:
            pytest.skip(
                "BLAS / SIMD math on this CPU rounds differently from where "
                "the fingerprints were recorded"
            )
        assert one_thread_digests["fingerprints"][name] == FINGERPRINTS[name]

    def test_runs_train(self):
        """The recorded runs are real training runs, on any platform."""
        result = run("undirected_column_wise")
        losses = [loss for _, loss in result.loss_history]
        assert all(np.isfinite(losses)) and losses[-1] < losses[0]


def one_tile_step_batch(config: ModelConfig):
    records = tile_records()
    sampler = TileBatchSampler(records, kernels_per_batch=6, tiles_per_kernel=6, seed=0)
    cache = KernelCache(Scalers.fit_tile(records), neighbor_cap=config.neighbor_cap)
    return cache.assemble(sampler.draw_items())


class TestTapeNodesPerStep:
    """The complexity pin: one ``paper_best_tile`` training step dispatches
    one backward closure per layer — 21, where the composite hop and
    ``Dense`` tapes dispatched 63. A layer split back into pieces shows up
    here as more closures."""

    DISPATCHES = {
        "Tensor.take_rows": 2,  # opcode embedding, padded node view
        "Tensor.concat": 1,  # node inputs
        "Dense.forward": 4,  # input_proj, node_final x 2, head
        "GraphSAGELayer.forward": 3,
        "LSTM.forward": 1,
        "Tensor.reshape": 4,  # padded view, head output, the loss's pair grid
        "Tensor.__sub__": 2,  # the rank loss from here on
        "Tensor.relu": 1,
        "Tensor.__mul__": 2,
        "Tensor.sum": 1,
    }

    @pytest.fixture
    def dispatched(self, monkeypatch):
        counts = collections.Counter()
        original = Tensor._dispatch

        def counting(self, grad, grads):
            counts[self._backward.__qualname__.split(".<locals>")[0]] += 1
            return original(self, grad, grads)

        monkeypatch.setattr(Tensor, "_dispatch", counting)
        return counts

    def test_paper_best_tile_step(self, dispatched):
        config = ModelConfig.paper_best_tile()
        batch = one_tile_step_batch(config)
        model = LearnedPerformanceModel(config, seed=0)
        loss = pairwise_rank_loss(model(batch), batch.targets, batch.group_ids, phi="hinge")
        loss.backward()
        assert dispatched == self.DISPATCHES
        assert sum(dispatched.values()) == 21
        for p in model.parameters():
            assert p.grad is not None and p.grad.dtype == np.float32


class TestTransposesOnlyForABackward:
    """The spmm backward's transposed operators are built on a batch
    context's first backward, kept on the context's operators (``CSR.T``)
    and shared by every hop; a forward that records no tape builds none, and
    the per-kernel operators a :class:`KernelCache` holds never carry one."""

    @pytest.mark.parametrize("directed", (True, False))
    def test_built_once_per_context_by_the_first_backward(self, directed):
        config = ModelConfig.paper_best_tile().with_overrides(directed=directed)
        records = tile_records()
        cache = KernelCache(Scalers.fit_tile(records), neighbor_cap=config.neighbor_cap)
        batch = cache.assemble(
            TileBatchSampler(records, kernels_per_batch=6, tiles_per_kernel=6, seed=0).draw_items()
        )
        model = LearnedPerformanceModel(config, seed=0)
        ctx = batch.context
        names = ("adj_in", "adj_out") if directed else ("adj_sym",)

        def transposes():
            return [getattr(ctx, name)._transpose for name in names]

        model.predict(batch)
        model(batch).sum()  # recorded, never differentiated
        assert transposes() == [None] * len(names)

        model(batch).sum().backward()
        first = transposes()
        for name, transpose in zip(names, first):
            operator = getattr(ctx, name)
            assert transpose is not None and operator.T is transpose
            want = sp.csr_matrix(
                (operator.data, operator.indices, operator.indptr), shape=operator.shape
            ).T.tocsr()
            for field in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(transpose, field), getattr(want, field))
        model(batch).sum().backward()
        assert all(a is b for a, b in zip(transposes(), first))

        assert not set(vars(ctx)) & {"adj_in", "adj_out", "adj_sym"} - set(names)
        for record in records:
            operators = cache.entry(record.features).operators
            for name in ("adj_in", "adj_out", "adj_sym"):
                assert getattr(operators, name)._transpose is None


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2))
