"""The inference contract: ``predict`` ≡ tape ``forward`` (eval, no_grad), bitwise.

``LearnedPerformanceModel.predict`` is ``forward`` inside ``array_run()``:
every layer runs on plain arrays and no ``Tensor`` is built; the autograd
``forward`` is the oracle. Every comparison of the two is
exact — same dtype, same shape, ``np.array_equal`` — for every reduction
and every batch. Only one row scored in two different batches is compared
by tolerance: a matmul over a different row count may round differently.
"""
import itertools
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import assemble_batch, build_tile_dataset
from repro.data.batching import _pad_views
from repro.data.features import (
    NODE_FEATURE_DIM,
    STATIC_FEATURE_DIM,
    TILE_FEATURE_DIM,
    KernelFeatures,
)
from repro.hlo.opcodes import NUM_OPCODES
from repro.models import (
    LearnedPerformanceModel,
    ModelConfig,
    TrainConfig,
    fine_tune,
    load_model_bytes,
    save_model_bytes,
    train_tile_model,
)
from repro.models import model as model_module
from repro.nn import Adam, Tensor, no_grad
from repro.nn.rnn import LSTM, lstm_final_state
from repro.workloads import vision

SMALL = dict(hidden_dim=16, opcode_embedding_dim=8, lstm_hidden=12, gnn_layers=2)
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


def small_models():
    """With ``SMALL``: the models are built with one node final layer, not two."""
    return mock.patch.object(model_module, "NODE_FINAL_LAYERS", 1)


def tape_reference(model, batch):
    """The oracle: the training ``forward``, no tape."""
    with no_grad():
        return model.forward(batch).numpy()


def assert_bitwise(got, expected):
    assert got.dtype == expected.dtype == np.float32
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


def assert_close(got, expected):
    """One row scored in two batches of different shapes."""
    assert got.dtype == expected.dtype == np.float32
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-7)


def assert_matches_tape(model, batch):
    assert_bitwise(model.predict(batch), tape_reference(model, batch))


def assert_float32(model):
    assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}


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
    @small_models()
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
                **SMALL,
            )
            model = LearnedPerformanceModel(cfg, seed=1)
            for batch in batches:
                assert_matches_tape(model, batch)
            # Trained weights, still float32: predict reads them live.
            model(batches[1]).sum().backward()
            Adam(model.parameters(), lr=1e-2).step()
            assert_float32(model)
            for batch in batches:
                assert_matches_tape(model, batch)

    def test_paper_presets_at_full_width(self, batches):
        for cfg in (
            ModelConfig.paper_best_tile(),
            ModelConfig.paper_best_fusion(),
            ModelConfig.vanilla("tile"),
            ModelConfig.vanilla("fusion"),
        ):
            model = LearnedPerformanceModel(cfg, seed=0)
            for batch in batches:
                assert_matches_tape(model, batch)

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
    @small_models()
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
        assert_matches_tape(model, batch)


def lstm_config(**overrides):
    return ModelConfig(task="tile", reduction="lstm", **{**SMALL, **overrides})


def after_adam_step(model, batch):
    """One ``Adam.step`` on ``model``: trained weights, still float32."""
    model(batch).sum().backward()
    Adam(model.parameters(), lr=1e-2).step()
    assert_float32(model)


class TestPackedLstm:
    """``lstm_final_state`` runs each row only through its own nodes,
    longest rows first, and puts the result back in input order — on the
    recording tape exactly as without it."""

    @staticmethod
    def both(lengths, seed=0, dim=16, hidden=12):
        """(untraced, traced) final states for sequences of ``lengths``."""
        rng = np.random.default_rng(seed)
        lstm = LSTM(dim, hidden, rng=rng)
        nodes = rng.standard_normal((max(sum(lengths), 1), dim)).astype(np.float32)
        pad_index, pad_mask = _pad_views(list(lengths))
        packed, saved = lstm_final_state(
            lstm.cell.gates.weight.data, nodes[pad_index], pad_mask
        )
        assert saved is None
        traced = lstm(Tensor(nodes[pad_index], requires_grad=True), pad_mask)
        assert traced.requires_grad
        return packed, traced.numpy()

    @pytest.mark.parametrize("lengths", [(1,), (7,), (5, 5, 5), (23,) * 64, (1, 1)])
    def test_equal_lengths_are_the_tape_bit_for_bit(self, lengths):
        packed, tape = self.both(lengths)
        assert_bitwise(packed, tape)

    @pytest.mark.parametrize(
        "lengths",
        [(3, 23), (23, 3), (1, 2, 3, 4, 5), (9, 1, 9, 1), (4, 0, 2), (0, 0), (0,)],
    )
    def test_mixed_and_empty_sequences_match_the_tape(self, lengths):
        packed, tape = self.both(lengths)
        assert_bitwise(packed, tape)
        for row, n in enumerate(lengths):
            if n == 0:  # never stepped: the initial state
                assert not packed[row].any()

    def test_result_is_fresh_and_in_input_order(self):
        lengths = (2, 9, 5, 9, 1)
        first, tape = self.both(lengths)
        # Row i is sequence i: test_nn_sequence_graph checks the order
        # against the stepwise tape, which never reorders.
        assert_bitwise(first, tape)
        expected = first.copy()
        first[:] = 0.0  # a caller scribbling on its result
        again, _ = self.both(lengths)
        assert_bitwise(again, expected)
        assert again.flags.owndata and again.flags.writeable

    @given(
        sizes=st.lists(st.integers(1, 23), min_size=2, max_size=6),
        rows=st.integers(1, 64),
        stepped=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    @small_models()
    def test_generated_mixed_batches_match_the_tape(self, sizes, rows, stepped, data):
        kernel_of_row = data.draw(
            st.lists(st.integers(0, len(sizes) - 1), min_size=rows, max_size=rows)
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        batch = make_batch(rng, sizes, rows, kernel_of_row=kernel_of_row)
        model = LearnedPerformanceModel(lstm_config(), seed=5)
        if stepped:
            after_adam_step(model, batch)
        assert_matches_tape(model, batch)

    @given(
        sizes=st.lists(st.integers(1, 23), min_size=2, max_size=6),
        stepped=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    @small_models()
    def test_a_row_scores_the_same_whatever_it_is_batched_with(self, sizes, stepped, data):
        """Alone, among other kernels, or with the rows reordered."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        kernels = [make_kernel(rng, n) for n in sizes]
        items = [
            (kernel, rng.random(TILE_FEATURE_DIM).astype(np.float32), 0.0, k)
            for k, kernel in enumerate(kernels)
            for _ in range(2)
        ]
        model = LearnedPerformanceModel(lstm_config(), seed=7)
        if stepped:
            after_adam_step(model, assemble_batch(items))
        together = model.predict(assemble_batch(items))
        order = data.draw(st.permutations(range(len(items))))
        shuffled = model.predict(assemble_batch([items[i] for i in order]))
        assert_close(shuffled, together[list(order)])
        for i, item in enumerate(items):
            assert_close(model.predict(assemble_batch([item])), together[i : i + 1])


@small_models()
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
        assert_matches_tape(model, batch)

        model.load_state_dict(initial_state)
        assert_bitwise(model.predict(batch), before)

    def test_result_is_a_fresh_writable_array(self, batches):
        model = LearnedPerformanceModel(ModelConfig(task="tile", **SMALL))
        first = model.predict(batches[1])
        expected = first.copy()
        first[:] = 0.0  # a caller scribbling on its result
        assert_bitwise(model.predict(batches[1]), expected)


def _no_tensor(*args, **kwargs):
    raise AssertionError("predict built a Tensor")


class TestPredictIsTapeFree:
    @pytest.mark.parametrize("task", ("tile", "fusion"))
    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("gnn", GNNS)
    @small_models()
    def test_predict_builds_no_tensor(self, batches, gnn, reduction, task):
        """Every task × GNN × reduction, directed and undirected, with the
        kernel-level features at the nodes and at the kernel embedding."""
        for variant in (
            {},
            {"directed": False},
            {"tile_placement": "kernel", "static_placement": "kernel"},
        ):
            cfg = ModelConfig(task=task, gnn=gnn, reduction=reduction, **SMALL, **variant)
            model = LearnedPerformanceModel(cfg, seed=1)
            expected = [tape_reference(model, batch) for batch in batches]
            with mock.patch.object(Tensor, "__init__", _no_tensor):
                got = [model.predict(batch) for batch in batches]
            for g, e in zip(got, expected):
                assert_bitwise(g, e)


class TestParametersStayFloat32:
    def test_training_keeps_float32_and_the_checkpoint_format(self):
        ds = build_tile_dataset(
            [vision.image_embed(0)], max_kernels_per_program=3, max_tiles_per_kernel=4, seed=0
        )
        cfg = ModelConfig.paper_best_tile().with_overrides(**SMALL)
        with small_models():
            result = train_tile_model(ds.records, cfg, TrainConfig(steps=50, log_every=25))
            model = result.model
            assert_float32(model)  # after 50 Adam steps

            result = fine_tune(result, ds.records, TrainConfig(steps=5, log_every=5))
            assert_float32(result.model)

            state = result.model.state_dict()
            loaded = load_model_bytes(save_model_bytes(result)).model.state_dict()
        assert list(loaded) == list(state)
        for name, array in state.items():
            assert_bitwise(loaded[name], array)

        # The parameter names every sealed checkpoint is keyed by.
        backbone = [
            "opcode_embedding.table",
            "input_proj.weight",
            "gnn_layers.0.agg_in.weight",
            "gnn_layers.0.agg_out.weight",
            "gnn_layers.0.update.weight",
            "gnn_layers.1.agg_in.weight",
            "gnn_layers.1.agg_out.weight",
            "gnn_layers.1.update.weight",
            "gnn_layers.2.agg_in.weight",
            "gnn_layers.2.agg_out.weight",
            "gnn_layers.2.update.weight",
            "node_final.layers.0.weight",
            "node_final.layers.1.weight",
        ]
        tile = LearnedPerformanceModel(ModelConfig.paper_best_tile())
        assert list(tile.state_dict()) == [*backbone, "lstm.cell.gates.weight", "head.weight"]
        fusion = LearnedPerformanceModel(ModelConfig.paper_best_fusion())
        assert list(fusion.state_dict()) == [
            *backbone,
            "encoder.blocks.0.norm1.gain",
            "encoder.blocks.0.norm1.shift",
            "encoder.blocks.0.attn.wq.weight",
            "encoder.blocks.0.attn.wk.weight",
            "encoder.blocks.0.attn.wv.weight",
            "encoder.blocks.0.attn.wo.weight",
            "encoder.blocks.0.norm2.gain",
            "encoder.blocks.0.norm2.shift",
            "encoder.blocks.0.ff1.weight",
            "encoder.blocks.0.ff2.weight",
            "encoder.final_norm.gain",
            "encoder.final_norm.shift",
            "head.weight",
        ]


class TestPredictBesideTraining:
    @small_models()
    def test_predict_racing_training_returns_the_expected_bits(self, batches):
        """A ``predict`` racing a training forward + backward on the same
        module returns the bits it returns alone."""
        batch = batches[1]
        model = LearnedPerformanceModel(ModelConfig(task="tile", **SMALL))
        expected = tape_reference(model, batch)

        stop = threading.Event()
        backwards = []

        def training_thread():
            while not stop.is_set():
                model.forward(batch).sum().backward()
                backwards.append(all(p.grad is not None for p in model.parameters()))
                for p in model.parameters():
                    p.zero_grad()

        predictions = []
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        worker = threading.Thread(target=training_thread)
        worker.start()
        deadline = time.monotonic() + 20.0
        try:
            # Until both sides have run often enough to have interleaved.
            while (len(predictions) < 60 or len(backwards) < 10) and time.monotonic() < deadline:
                predictions.append(model.predict(batch))
        finally:
            stop.set()
            worker.join(timeout=30)
            sys.setswitchinterval(switch_interval)
        assert not worker.is_alive()

        assert len(predictions) >= 60 and len(backwards) >= 10
        assert all(backwards)  # the training thread kept recording its tape
        for got in predictions:
            assert_bitwise(got, expected)
