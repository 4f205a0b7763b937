"""Tests for feature extraction and scaling."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import node_features
from repro.compiler import TileConfig, fuse_program
from repro.data import (
    MAX_DIMS,
    NODE_FEATURE_DIM,
    STATIC_FEATURE_DIM,
    TILE_FEATURE_DIM,
    FeatureScaler,
    encode_varlen,
    extract_kernel_features,
    static_features,
    tile_features,
)
from repro.compiler import analyze
from repro.hlo import GraphBuilder
from repro.workloads import vision


class TestEncodeVarlen:
    def test_pad(self):
        out = encode_varlen((2, 3), length=4)
        assert out == [2.0, 3.0, 0.0, 0.0, 5.0, 6.0]

    def test_truncate_keeps_full_sum_product(self):
        out = encode_varlen((2, 3, 4), length=2)
        assert out[:2] == [2.0, 3.0]
        assert out[2] == 9.0  # sum over ALL values
        assert out[3] == 24.0  # product over ALL values

    def test_empty(self):
        out = encode_varlen((), length=3)
        assert out == [0.0, 0.0, 0.0, 0.0, 0.0]

    @given(st.lists(st.integers(min_value=1, max_value=50), max_size=8))
    def test_length_invariant(self, values):
        out = encode_varlen(values, length=MAX_DIMS)
        assert len(out) == MAX_DIMS + 2


class TestNodeFeatures:
    def graph(self):
        b = GraphBuilder("g")
        x = b.parameter((2, 8, 8, 3))
        k = b.constant((3, 3, 3, 8))
        y = b.conv2d(x, k, strides=(2, 2))
        return b.build(), x, y

    def test_dimension_constant(self):
        g, x, y = self.graph()
        for inst in g:
            assert node_features(inst).shape == (NODE_FEATURE_DIM,)

    def test_parameter_flagged(self):
        g, x, y = self.graph()
        fx = node_features(g.get(x))
        fy = node_features(g.get(y))
        # The is_parameter flag differs between parameter and conv nodes.
        assert not np.array_equal(fx, fy)

    def test_root_flag_set(self):
        g, x, y = self.graph()
        f = node_features(g.get(y))
        assert 1.0 in f  # is_root among features

    def test_conv_attrs_encoded(self):
        g, x, y = self.graph()
        f = node_features(g.get(y))
        assert 3.0 in f  # window
        assert 2.0 in f  # stride

    def test_all_finite(self):
        p = vision.resnet_v1(0)
        for inst in p.graph:
            assert np.isfinite(node_features(inst)).all()


class TestTileAndStaticFeatures:
    def test_tile_feature_dim(self):
        assert tile_features(TileConfig((4, 8))).shape == (TILE_FEATURE_DIM,)

    def test_tile_product_encoded_log(self):
        f = tile_features(TileConfig((4, 8)))
        assert f[MAX_DIMS + 1] == pytest.approx(np.log1p(32.0))

    def test_static_features_dim_and_log(self):
        b = GraphBuilder("g")
        x = b.parameter((64, 64))
        b.tanh(x)
        a = analyze(b.build())
        f = static_features(a)
        assert f.shape == (STATIC_FEATURE_DIM,)
        assert np.isfinite(f).all()


class TestExtractKernelFeatures:
    def test_alignment(self):
        p = vision.image_embed(0)
        kernels = fuse_program(p.graph, program_name=p.name)
        k = kernels[0]
        feats = extract_kernel_features(k)
        n = k.num_nodes
        assert feats.opcodes.shape == (n,)
        assert feats.node_feats.shape == (n, NODE_FEATURE_DIM)
        assert feats.adjacency.shape == (n, n)
        assert feats.static_feats.shape == (STATIC_FEATURE_DIM,)
        assert feats.num_nodes == n

    def test_adjacency_matches_topological_order(self):
        p = vision.image_embed(0)
        k = fuse_program(p.graph)[1]
        feats = extract_kernel_features(k)
        assert np.allclose(feats.adjacency, np.triu(feats.adjacency, 1))


class TestFeatureScaler:
    def test_transform_to_unit_range(self):
        rows = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        sc = FeatureScaler().fit(rows)
        out = sc.transform(rows)
        np.testing.assert_allclose(out.min(axis=0), [0.0, 0.0])
        np.testing.assert_allclose(out.max(axis=0), [1.0, 1.0])

    def test_constant_column_maps_to_zero(self):
        rows = np.array([[7.0], [7.0]])
        sc = FeatureScaler().fit(rows)
        np.testing.assert_allclose(sc.transform(rows), [[0.0], [0.0]])

    def test_out_of_range_clipped(self):
        sc = FeatureScaler().fit(np.array([[0.0], [1.0]]))
        assert sc.transform(np.array([[5.0]]))[0, 0] == 1.0
        assert sc.transform(np.array([[-5.0]]))[0, 0] == 0.0

    def test_unfit_raises(self):
        with pytest.raises(RuntimeError):
            FeatureScaler().transform(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            FeatureScaler().state()

    def test_state_roundtrip(self):
        rows = np.random.default_rng(0).normal(size=(10, 3)).astype(np.float32)
        sc = FeatureScaler().fit(rows)
        sc2 = FeatureScaler.from_state(sc.state())
        np.testing.assert_allclose(sc.transform(rows), sc2.transform(rows))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            FeatureScaler().fit(np.zeros(3))

    @given(
        st.lists(
            st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3),
            min_size=2,
            max_size=20,
        )
    )
    @settings(max_examples=30)
    def test_output_always_in_unit_interval(self, rows):
        arr = np.asarray(rows, dtype=np.float32)
        sc = FeatureScaler().fit(arr)
        out = sc.transform(arr)
        assert (out >= 0.0).all() and (out <= 1.0).all()
