"""Tests for tile enumeration, footprints and transfer estimates."""
from hypothesis import given, settings, strategies as st

from repro.compiler import (
    Kernel,
    TileConfig,
    TilingParams,
    candidate_block_sizes,
    default_tile,
    enumerate_tile_sizes,
    tile_footprint_bytes,
)
from repro.compiler.tiling import tile_transfer_bytes
from repro.hlo import GraphBuilder, Shape


def dense_kernel(m=64, k=32, n=128):
    b = GraphBuilder("dense")
    x = b.parameter((m, k))
    w = b.constant((k, n))
    b.dot(x, w)
    g = b.build()
    return Kernel(graph=g, kind="other")


class TestTileConfig:
    def test_volume(self):
        assert TileConfig((4, 8)).volume == 32
        assert TileConfig(()).volume == 1

    def test_iterations_ceil_division(self):
        out = Shape((10, 7))
        assert TileConfig((4, 4)).iterations(out) == 3 * 2
        assert TileConfig((10, 7)).iterations(out) == 1

    def test_iterations_scalar_output(self):
        assert TileConfig(()).iterations(Shape(())) == 1


class TestCandidates:
    def test_powers_of_two_present(self):
        c = candidate_block_sizes(64, cap=20)
        for p in (1, 2, 4, 8, 16, 32, 64):
            assert p in c

    def test_dim_itself_always_present(self):
        for dim in (1, 5, 100, 1000):
            assert dim in candidate_block_sizes(dim, cap=8)

    def test_cap_respected(self):
        assert len(candidate_block_sizes(100000, cap=6)) <= 6

    def test_multiples_of_128(self):
        c = candidate_block_sizes(512, cap=30)
        assert 128 in c and 256 in c

    @given(st.integers(min_value=1, max_value=4096))
    def test_all_candidates_in_range(self, dim):
        for c in candidate_block_sizes(dim, cap=10):
            assert 1 <= c <= dim


class TestEnumeration:
    def test_all_enumerated_tiles_fit_budget(self):
        k = dense_kernel()
        params = TilingParams()
        budget = int(params.scratchpad_bytes * params.scratchpad_fraction)
        for t in enumerate_tile_sizes(k, params):
            assert tile_footprint_bytes(k, t) <= budget

    def test_at_least_one_config(self):
        # A huge kernel still yields a (clamped) config.
        k = dense_kernel(m=4096, k=2048, n=4096)
        params = TilingParams(scratchpad_bytes=64 * 1024)
        configs = enumerate_tile_sizes(k, params)
        assert configs

    def test_max_configs_cap(self):
        k = dense_kernel(m=512, k=64, n=512)
        params = TilingParams(max_configs=16)
        assert len(enumerate_tile_sizes(k, params)) <= 16

    def test_tile_rank_matches_output(self):
        k = dense_kernel()
        for t in enumerate_tile_sizes(k):
            assert len(t.dims) == 2

    def test_data_formatting_gets_trivial_config(self):
        b = GraphBuilder("g")
        x = b.parameter((4, 6))
        b.transpose(x, (1, 0))
        k = Kernel(graph=b.build(), kind="data_formatting")
        tiles = enumerate_tile_sizes(k)
        assert tiles == [TileConfig((6, 4))]

    def test_enumeration_deterministic(self):
        k = dense_kernel()
        a = enumerate_tile_sizes(k)
        b = enumerate_tile_sizes(k)
        assert a == b


class TestFootprintAndTransfer:
    def test_footprint_grows_with_tile(self):
        k = dense_kernel()
        small = tile_footprint_bytes(k, TileConfig((8, 16)))
        large = tile_footprint_bytes(k, TileConfig((64, 128)))
        assert large > small

    def test_transfer_out_is_tile_bytes(self):
        k = dense_kernel()
        t = TileConfig((16, 32))
        _, out_bytes = tile_transfer_bytes(k, t)
        assert out_bytes == 16 * 32 * 4

    def test_transfer_in_nonnegative(self):
        k = dense_kernel()
        for t in enumerate_tile_sizes(k):
            in_b, out_b = tile_transfer_bytes(k, t)
            assert in_b >= 0 and out_b > 0

    def test_default_tile_is_valid_and_maximal(self):
        k = dense_kernel()
        params = TilingParams()
        tiles = enumerate_tile_sizes(k, params)
        d = default_tile(k, params)
        assert d in tiles
        assert d.volume == max(t.volume for t in tiles)

    @given(st.integers(min_value=1, max_value=256), st.integers(min_value=1, max_value=256))
    @settings(max_examples=20, deadline=None)
    def test_iterations_times_volume_covers_output(self, m, n):
        k = dense_kernel(m=m, k=16, n=n)
        out = k.primary_output().shape
        for t in enumerate_tile_sizes(k, TilingParams(max_configs=8)):
            assert t.iterations(out) * t.volume >= out.num_elements
