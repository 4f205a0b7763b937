"""Tests for the reusable graph-construction blocks."""
import pytest

from repro.hlo import DType, GraphBuilder, Opcode
from repro.workloads.blocks import (
    conv_block,
    embedding_lookup,
    global_average_pool,
    inception_module,
    lstm_cell,
    max_pool,
    mlp,
    residual_block_v1,
    residual_block_v2,
    self_attention,
    sequence_embedding,
    transformer_layer,
    unrolled_lstm,
)


@pytest.fixture
def b():
    return GraphBuilder("blocks")


class TestConvBlocks:
    def test_conv_block_shape(self, b):
        x = b.parameter((2, 16, 16, 3))
        y = conv_block(b, x, 8)
        assert b.shape_of(y).dims == (2, 16, 16, 8)

    def test_conv_block_strides(self, b):
        x = b.parameter((2, 16, 16, 3))
        y = conv_block(b, x, 8, strides=(2, 2))
        assert b.shape_of(y).dims == (2, 8, 8, 8)

    def test_residual_v1_identity_shortcut(self, b):
        x = b.parameter((2, 8, 8, 16))
        y = residual_block_v1(b, x, 16)
        assert b.shape_of(y).dims == (2, 8, 8, 16)

    def test_residual_v1_projection_shortcut(self, b):
        x = b.parameter((2, 8, 8, 16))
        y = residual_block_v1(b, x, 32, strides=(2, 2))
        assert b.shape_of(y).dims == (2, 4, 4, 32)

    def test_residual_v2_shapes(self, b):
        x = b.parameter((2, 8, 8, 16))
        y = residual_block_v2(b, x, 32, strides=(2, 2))
        assert b.shape_of(y).dims == (2, 4, 4, 32)

    def test_inception_concatenates_towers(self, b):
        x = b.parameter((2, 8, 8, 16))
        y = inception_module(b, x, 32)
        assert b.shape_of(y).dims[:3] == (2, 8, 8)
        assert b.shape_of(y).dims[3] == 4 * max(32 // 4, 8)

    def test_pools(self, b):
        x = b.parameter((2, 8, 8, 4))
        assert b.shape_of(max_pool(b, x)).dims == (2, 4, 4, 4)
        assert b.shape_of(global_average_pool(b, x)).dims == (2, 4)


class TestSequenceBlocks:
    def test_lstm_cell_shapes(self, b):
        x = b.parameter((4, 8))
        h = b.constant((4, 16))
        c = b.constant((4, 16))
        h2, c2 = lstm_cell(b, x, h, c, 16)
        assert b.shape_of(h2).dims == (4, 16)
        assert b.shape_of(c2).dims == (4, 16)

    def test_unrolled_lstm_step_count(self, b):
        xs = [b.parameter((4, 8)) for _ in range(3)]
        outs = unrolled_lstm(b, xs, 8, 4)
        assert len(outs) == 3
        for o in outs:
            assert b.shape_of(o).dims == (4, 8)

    def test_embedding_lookups(self, b):
        e = embedding_lookup(b, batch=4, vocab=100, dim=16)
        assert b.shape_of(e).dims == (4, 16)
        s = sequence_embedding(b, batch=4, seq=7, vocab=100, dim=16)
        assert b.shape_of(s).dims == (4, 7, 16)
        ids = [i for i in b.graph if i.opcode is Opcode.PARAMETER]
        assert any(i.shape.dtype is DType.S32 for i in ids)

    def test_self_attention_preserves_seq(self, b):
        x = b.parameter((2, 6, 16))
        y = self_attention(b, x, 16)
        assert b.shape_of(y).dims == (2, 6, 16)

    def test_transformer_layer_residual_shape(self, b):
        x = b.parameter((2, 6, 16))
        y = transformer_layer(b, x, 16, ff_dim=32)
        assert b.shape_of(y).dims == (2, 6, 16)

    def test_mlp_widths(self, b):
        x = b.parameter((4, 8))
        y = mlp(b, x, [32, 16, 2], final_activation="sigmoid")
        assert b.shape_of(y).dims == (4, 2)

    def test_blocks_produce_valid_graphs(self, b):
        x = b.parameter((2, 8, 8, 3))
        residual_block_v1(b, conv_block(b, x, 8), 16, (2, 2))
        g = b.build()
        g.validate()
        assert any(i.opcode is Opcode.CONVOLUTION for i in g)
