"""One forward per layer, run two ways.

Each layer's ``forward`` records the tape, and under ``array_run()`` runs the
array ops those tape ops compute on a plain float32 array, building no
``Tensor``. The array run must equal the tape's values byte for byte; the
tape run must keep every parameter it reads training, and a plain array
that reaches a tape node must raise rather than run untaped.
"""
import itertools
from unittest import mock

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
from repro.models import model as model_module
from repro.nn import (
    LSTM,
    MLP,
    Dense,
    GATLayer,
    GraphSAGELayer,
    LayerNorm,
    MultiHeadAttention,
    Tensor,
    TransformerEncoder,
    TransformerEncoderLayer,
    array_run,
    segment_softmax,
    segment_sum,
)
from repro.nn.sparse import mean_aggregation_csr


def _no_tensor(*args, **kwargs):
    raise AssertionError("the array run built a Tensor")


def _prefix_mask(gen, batch, time):
    lengths = gen.integers(0, time + 1, size=batch)
    return np.arange(time)[None, :] < lengths[:, None]


def _case(kind, gen, n, dim):
    """``(layer, x, operands)`` for one layer kind at width ``dim``."""
    rng = np.random.default_rng(int(gen.integers(2**32)))
    batch, time = 1 + n % 3, 1 + n % 5
    sequence = gen.normal(size=(batch, time, dim)).astype(np.float32)
    mask = _prefix_mask(gen, batch, time)
    nodes = gen.normal(size=(n, dim)).astype(np.float32)
    if kind == "MLP":
        return MLP([dim, 2 * dim, 3], final_activation="relu", rng=rng), sequence, ()
    if kind == "LayerNorm":
        layer = LayerNorm(dim)
        layer.gain.data = gen.normal(size=dim).astype(np.float32)
        layer.shift.data = gen.normal(size=dim).astype(np.float32)
        return layer, nodes * 3, ()
    if kind == "MultiHeadAttention":
        return MultiHeadAttention(dim, rng=rng), sequence, (mask,)
    if kind == "TransformerEncoderLayer":
        return TransformerEncoderLayer(dim, rng=rng), sequence, (mask,)
    if kind == "TransformerEncoder":
        return TransformerEncoder(dim, rng=rng), sequence, (mask,)
    if kind in ("GATLayer", "GATLayer without edges"):
        edges = gen.integers(0, n, size=(0 if "without" in kind else 3 * n, 2))
        return GATLayer(dim, dim, rng=rng), nodes, (edges, n)
    if kind == "Dense":
        return Dense(dim, 5, activation="relu", rng=rng), sequence, ()
    if kind == "GraphSAGELayer":
        directed = bool(gen.integers(2))
        neighbors = gen.random((n, n)) < 0.3
        adj_in = mean_aggregation_csr(neighbors.T, 2)
        adj_out = mean_aggregation_csr(neighbors, 2) if directed else adj_in
        return GraphSAGELayer(dim, dim, directed=directed, rng=rng), nodes, (adj_in, adj_out)
    assert kind == "LSTM"
    return LSTM(dim, 6, rng=rng), sequence, (mask,)


KINDS = (
    "MLP",
    "LayerNorm",
    "MultiHeadAttention",
    "TransformerEncoderLayer",
    "TransformerEncoder",
    "GATLayer",
    "GATLayer without edges",
    "Dense",
    "GraphSAGELayer",
    "LSTM",
)


class TestArrayRunIsTheTape:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), dim=st.sampled_from([4, 8]))
    def test_layer_on_an_array_is_its_tape_byte_for_byte(self, kind, seed, n, dim):
        layer, x, operands = _case(kind, np.random.default_rng(seed), n, dim)
        want = layer(Tensor(x), *operands).data
        with mock.patch.object(Tensor, "__init__", _no_tensor), array_run():
            got = layer(x, *operands)
        assert type(got) is np.ndarray
        assert got.dtype == want.dtype == np.float32
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _batch_with_edges(seed):
    gen = np.random.default_rng(seed)
    items = []
    for group, n in enumerate((4, 6, 3)):
        adjacency = np.triu(gen.random((n, n)) < 0.5, k=1)
        adjacency[0, 1] = True
        kernel = KernelFeatures(
            gen.integers(0, NUM_OPCODES, n).astype(np.int64),
            gen.random((n, NODE_FEATURE_DIM)).astype(np.float32),
            adjacency.astype(np.float32),
            gen.random(STATIC_FEATURE_DIM).astype(np.float32),
        )
        for _ in range(2):
            items.append((kernel, gen.random(TILE_FEATURE_DIM).astype(np.float32), 0.0, group))
    return assemble_batch(items)


#: directed × tile_placement × static_placement × use_static_features
PLACEMENTS = list(
    itertools.product((True, False), ("node", "kernel"), ("node", "kernel"), (True, False))
)


class TestTapeTrainsEveryParameterItReads:
    @pytest.mark.parametrize("task", ("tile", "fusion"))
    @pytest.mark.parametrize("reduction", ("per-node", "column-wise", "lstm", "transformer"))
    @pytest.mark.parametrize("gnn", ("graphsage", "gat", "none"))
    def test_every_parameter_gets_a_gradient(self, gnn, reduction, task):
        """A batch constant reaching a layer as a plain array would run that
        layer untaped (``kernel_correction`` under the per-node reduction
        with the kernel-level features at the kernel, say). With edges in
        the batch, the forward reads every parameter."""
        batch = _batch_with_edges(7)
        assert len(batch.context.edges) > 0
        with mock.patch.object(model_module, "NODE_FINAL_LAYERS", 1):
            for directed, tile_placement, static_placement, use_static in PLACEMENTS:
                cfg = ModelConfig(
                    task=task,
                    gnn=gnn,
                    reduction=reduction,
                    directed=directed,
                    tile_placement=tile_placement,
                    static_placement=static_placement,
                    use_static_features=use_static,
                    hidden_dim=8,
                    opcode_embedding_dim=4,
                    lstm_hidden=6,
                    gnn_layers=1,
                )
                model = LearnedPerformanceModel(cfg, seed=0)
                model(batch).sum().backward()
                untrained = [name for name, p in model.named_parameters() if p.grad is None]
                assert not untrained, (cfg, untrained)


def _tape_node_case(kind):
    """``(call, x)``: ``call(x)`` runs one hand-written tape node of ``kind``
    on a plain array ``x``."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 4)).astype(np.float32)
    ids = np.array([0, 2, 2, 1, 0])
    if kind == "Dense":
        return Dense(4, 3, activation="relu", rng=rng), x
    if kind == "GraphSAGELayer":
        adj = mean_aggregation_csr(rng.random((5, 5)) < 0.4, 2)
        layer = GraphSAGELayer(4, 4, rng=rng)
        return (lambda x: layer(x, adj, adj)), x
    if kind == "LSTM":
        layer, mask = LSTM(4, 3, rng=rng), _prefix_mask(rng, 2, 5)
        return (lambda x: layer(x, mask)), rng.normal(size=(2, 5, 4)).astype(np.float32)
    if kind == "segment_sum":
        return (lambda x: segment_sum(x, ids, 3)), x
    assert kind == "segment_softmax"
    return (lambda x: segment_softmax(x, ids, 3)), x


class TestAnArrayOnTheTapeRaises:
    """Outside ``array_run()`` a plain array reaching a hand-written tape
    node raises: it never runs the node untaped, which would leave the
    weights it reads without a gradient."""

    @pytest.mark.parametrize(
        "kind", ("Dense", "GraphSAGELayer", "LSTM", "segment_sum", "segment_softmax")
    )
    def test_raises_outside_array_run_and_runs_inside(self, kind):
        call, x = _tape_node_case(kind)
        with pytest.raises(AttributeError):
            call(x)
        with array_run():
            got = call(x)
        assert type(got) is np.ndarray
        assert got.tobytes() == call(Tensor(x)).data.tobytes()
