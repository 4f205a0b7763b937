"""The inference contract: ``predict`` ≡ tape ``forward`` (eval, no_grad), bitwise.

``repro.models.inference`` re-implements the forward pass on plain arrays;
the autograd ``forward`` is the oracle. Every comparison here is exact:
same dtype, same shape, ``np.array_equal``.
"""
import itertools
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import assemble_batch
from repro.data.features import (
    NODE_FEATURE_DIM,
    STATIC_FEATURE_DIM,
    TILE_FEATURE_DIM,
    KernelFeatures,
)
from repro.hlo.opcodes import NUM_OPCODES
from repro.models import LearnedPerformanceModel, ModelConfig
from repro.nn import Adam, Module, no_grad

SMALL = dict(
    hidden_dim=16, opcode_embedding_dim=8, lstm_hidden=12, gnn_layers=2, node_final_layers=1
)
GNNS = ("graphsage", "gat", "none")
REDUCTIONS = ("per-node", "column-wise", "lstm", "transformer")
#: directed × tile_placement × static_placement × use_static_features
VARIANTS = list(
    itertools.product((True, False), ("node", "kernel"), ("node", "kernel"), (True, False))
)


def make_kernel(rng, num_nodes, edge_density=0.3):
    """A random DAG kernel in topological order (upper-triangular adjacency)."""
    adjacency = np.triu(rng.random((num_nodes, num_nodes)) < edge_density, k=1)
    return KernelFeatures(
        rng.integers(0, NUM_OPCODES, num_nodes).astype(np.int64),
        rng.random((num_nodes, NODE_FEATURE_DIM)).astype(np.float32),
        adjacency.astype(np.float32),
        rng.random(STATIC_FEATURE_DIM).astype(np.float32),
    )


def make_batch(rng, sizes, rows, edge_density=0.3, kernel_of_row=None):
    """``rows`` tile rows spread over ``len(sizes)`` distinct kernels."""
    kernels = [make_kernel(rng, n, edge_density) for n in sizes]
    if kernel_of_row is None:
        kernel_of_row = [i % len(kernels) for i in range(rows)]
    return assemble_batch(
        [
            (kernels[k], rng.random(TILE_FEATURE_DIM).astype(np.float32), 0.0, k)
            for k in kernel_of_row
        ]
    )


def tape_reference(model, batch):
    """The oracle: the training ``forward``, eval mode, no tape."""
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            return model.forward(batch).numpy()
    finally:
        model.train(was_training)


def assert_bitwise(got, expected):
    assert got.dtype == expected.dtype == np.float32
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.fixture(scope="module")
def batches():
    rng = np.random.default_rng(11)
    single_node = make_batch(rng, (1,), 1)
    mixed = make_batch(rng, (5, 1, 9), 7)
    edge_free = make_batch(rng, (3, 4), 4, edge_density=0.0)
    many_tiles = make_batch(rng, (12,), 64)
    # The cases the tape special-cases are really in the set.
    assert not mixed.pad_mask.all() and len(mixed.context.edges) > 0
    assert len(edge_free.context.edges) == 0  # GAT's projection-only branch
    return [single_node, mixed, edge_free, many_tiles]


class TestPredictEqualsTapeForward:
    @pytest.mark.parametrize("task", ("tile", "fusion"))
    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("gnn", GNNS)
    def test_every_config_combination(self, batches, gnn, reduction, task):
        for directed, tile_placement, static_placement, use_static in VARIANTS:
            cfg = ModelConfig(
                task=task,
                gnn=gnn,
                reduction=reduction,
                directed=directed,
                tile_placement=tile_placement,
                static_placement=static_placement,
                use_static_features=use_static,
                dropout=0.3,  # must not show: predict is the eval forward
                **SMALL,
            )
            model = LearnedPerformanceModel(cfg, seed=1)
            for batch in batches:
                assert_bitwise(model.predict(batch), tape_reference(model, batch))
            # Adam.step leaves the parameters it updates float64; the tape
            # rounds each op back to float32 and predict must round with it.
            model(batches[1]).sum().backward()
            Adam(model.parameters(), lr=1e-2).step()
            assert any(p.data.dtype == np.float64 for p in model.parameters())
            for batch in batches:
                assert_bitwise(model.predict(batch), tape_reference(model, batch))

    def test_paper_presets_at_full_width(self, batches):
        for cfg in (
            ModelConfig.paper_best_tile(),
            ModelConfig.paper_best_fusion(),
            ModelConfig.vanilla("tile"),
            ModelConfig.vanilla("fusion"),
        ):
            model = LearnedPerformanceModel(cfg, seed=0)
            for batch in batches:
                assert_bitwise(model.predict(batch), tape_reference(model, batch))

    @given(
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
        rows=st.integers(1, 64),
        edge_density=st.sampled_from((0.0, 0.3, 0.9)),
        gnn=st.sampled_from(GNNS),
        reduction=st.sampled_from(REDUCTIONS),
        task=st.sampled_from(("tile", "fusion")),
        variant=st.sampled_from(VARIANTS),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_batch_shapes(
        self, sizes, rows, edge_density, gnn, reduction, task, variant, data
    ):
        kernel_of_row = data.draw(
            st.lists(st.integers(0, len(sizes) - 1), min_size=rows, max_size=rows)
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        batch = make_batch(rng, sizes, rows, edge_density, kernel_of_row)
        directed, tile_placement, static_placement, use_static = variant
        cfg = ModelConfig(
            task=task,
            gnn=gnn,
            reduction=reduction,
            directed=directed,
            tile_placement=tile_placement,
            static_placement=static_placement,
            use_static_features=use_static,
            **SMALL,
        )
        model = LearnedPerformanceModel(cfg, seed=3)
        assert_bitwise(model.predict(batch), tape_reference(model, batch))


class TestPredictReadsLiveWeights:
    def test_reflects_optimizer_step_and_load_state_dict(self, batches):
        batch = batches[1]
        model = LearnedPerformanceModel(ModelConfig.paper_best_tile().with_overrides(**SMALL))
        before = model.predict(batch)
        initial_state = model.state_dict()

        optimizer = Adam(model.parameters(), lr=1e-2)
        model(batch).sum().backward()
        optimizer.step()
        stepped = model.predict(batch)
        assert not np.array_equal(stepped, before)
        assert_bitwise(stepped, tape_reference(model, batch))

        model.load_state_dict(initial_state)
        assert_bitwise(model.predict(batch), before)

    def test_result_is_a_fresh_writable_array(self, batches):
        model = LearnedPerformanceModel(ModelConfig(task="tile", **SMALL))
        first = model.predict(batches[1])
        expected = first.copy()
        first[:] = 0.0  # a caller scribbling on its result
        assert_bitwise(model.predict(batches[1]), expected)


class TestPredictBesideTraining:
    def test_predict_never_writes_the_training_flag(self, batches, monkeypatch):
        """A ``predict`` racing a training ``forward`` on one module must not
        switch that thread's dropout off: the mode flag is never written."""
        batch = batches[1]
        model = LearnedPerformanceModel(ModelConfig(task="tile", dropout=0.5, **SMALL))
        model.train()
        expected = tape_reference(model, batch)

        mode_writes = []
        real_train = Module.train

        def recording_train(self, mode=True):
            mode_writes.append(mode)
            return real_train(self, mode)

        monkeypatch.setattr(Module, "train", recording_train)

        stop = threading.Event()
        observed_eval = []
        dropped = []

        def training_thread():
            while not stop.is_set():
                out = model.forward(batch).numpy()
                observed_eval.append(not (model.training and model.dropout.training))
                dropped.append(not np.array_equal(out, expected))

        predictions = []
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        worker = threading.Thread(target=training_thread)
        worker.start()
        deadline = time.monotonic() + 20.0
        try:
            # Until both sides have run often enough to have interleaved.
            while (len(predictions) < 60 or len(dropped) < 10) and time.monotonic() < deadline:
                predictions.append(model.predict(batch))
        finally:
            stop.set()
            worker.join(timeout=30)
            sys.setswitchinterval(switch_interval)
        assert not worker.is_alive()

        assert mode_writes == []
        assert len(predictions) >= 60 and len(dropped) >= 10
        assert all(dropped)  # dropout stayed on in every training forward
        assert not any(observed_eval)
        for got in predictions:
            assert_bitwise(got, expected)
