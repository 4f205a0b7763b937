"""Tests for tile enumeration, footprints and transfer estimates."""
import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import largest_tile, tile_footprint_bytes
from repro.compiler import (
    Kernel,
    TileConfig,
    candidate_block_sizes,
    default_tile,
    enumerate_tile_sizes,
    fuse_program,
    tiling,
)
from repro.compiler.tiling import _FootprintTerms, tile_transfer_bytes
from repro.data import build_tile_dataset
from repro.hlo import GraphBuilder, Shape
from repro.workloads import build_corpus, vision


def dense_kernel(m=64, k=32, n=128):
    b = GraphBuilder("dense")
    x = b.parameter((m, k))
    w = b.constant((k, n))
    b.dot(x, w)
    g = b.build()
    return Kernel(graph=g, kind="other")


def tiling_limits(scratchpad_bytes=16 * 1024 * 1024, cap=12, max_configs=512):
    """Set the tiling constants for the block's duration (the defaults are
    the shipped values). Enumerate only fresh bodies inside: the body memo
    keeps what was enumerated under the limits in force."""
    return mock.patch.multiple(
        tiling,
        SCRATCHPAD_BYTES=scratchpad_bytes,
        MAX_CANDIDATES_PER_DIM=cap,
        MAX_CONFIGS=max_configs,
    )


def fresh(kernel):
    """A kernel over the same graph with a body memo of its own."""
    return Kernel(kernel.graph, kernel.kind, kernel.program_name, kernel.index)


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
        budget = int(tiling.SCRATCHPAD_BYTES * tiling.SCRATCHPAD_FRACTION)
        for t in enumerate_tile_sizes(k):
            assert tile_footprint_bytes(k, t) <= budget

    def test_at_least_one_config(self):
        # A huge kernel still yields a (clamped) config.
        k = dense_kernel(m=4096, k=2048, n=4096)
        with tiling_limits(scratchpad_bytes=64 * 1024):
            configs = enumerate_tile_sizes(k)
        assert configs

    def test_max_configs_cap(self):
        k = dense_kernel(m=512, k=64, n=512)
        with tiling_limits(max_configs=16):
            assert len(enumerate_tile_sizes(k)) <= 16

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
        tiles = enumerate_tile_sizes(k)
        d = default_tile(k)
        assert d in tiles
        assert d.volume == max(t.volume for t in tiles)

    @given(st.integers(min_value=1, max_value=256), st.integers(min_value=1, max_value=256))
    @settings(max_examples=20, deadline=None)
    def test_iterations_times_volume_covers_output(self, m, n):
        k = dense_kernel(m=m, k=16, n=n)
        out = k.primary_output().shape
        with tiling_limits(max_configs=8):
            tiles = enumerate_tile_sizes(k)
        for t in tiles:
            assert t.iterations(out) * t.volume >= out.num_elements


def footprint_by_graph_walk(kernel, tile):
    """Reference: the footprint derived from the kernel graph per tile, as
    it was before the tile-independent terms were hoisted."""
    output = kernel.primary_output().shape
    tile_elems = tile.volume
    total = tile_elems * output.dtype.byte_size
    shrink = tile_elems / max(output.num_elements, 1)
    for param in kernel.graph.parameters():
        s = param.shape
        if s.dims == output.dims:
            total += int(s.byte_size * shrink) or s.dtype.byte_size
        elif s.rank >= 2 and output.rank >= 2 and s.dims[-1] == output.dims[-1]:
            frac = tile.dims[-1] / max(output.dims[-1], 1)
            total += int(s.byte_size * frac) or s.dtype.byte_size
        else:
            lead = tile.dims[0] / max(output.dims[0], 1) if output.dims else 1.0
            total += int(s.byte_size * min(1.0, lead * 4)) or s.dtype.byte_size
    return total


def enumerate_by_loop(kernel, scratchpad_bytes, cap, max_configs):
    """Reference: enumeration as one loop over the candidates, testing each
    footprint by the graph walk (against half the scratchpad) and stopping
    at ``max_configs`` fits."""
    output = kernel.primary_output().shape
    if not kernel.has_tile_options() or output.rank == 0:
        return [TileConfig(tuple(output.dims))]
    budget = int(scratchpad_bytes * 0.5)
    per_dim = [candidate_block_sizes(d, cap) for d in output.dims]
    if math.prod(len(c) for c in per_dim) <= max_configs * 4:
        combos = itertools.product(*per_dim)
    else:
        rng = np.random.default_rng(int(kernel.fingerprint()[:8], 16))
        combos = (
            tuple(c[rng.integers(0, len(c))] for c in per_dim)
            for _ in range(max_configs * 4)
        )
    configs, seen = [], set()
    for dims in combos:
        if dims in seen:
            continue
        seen.add(dims)
        if footprint_by_graph_walk(kernel, TileConfig(dims)) <= budget:
            configs.append(TileConfig(dims))
        if len(configs) >= max_configs:
            break
    if not configs:
        dims = list(output.dims)
        while footprint_by_graph_walk(kernel, TileConfig(tuple(dims))) > budget and max(dims) > 1:
            i = int(np.argmax(dims))
            dims[i] = max(1, dims[i] // 2)
        configs.append(TileConfig(tuple(dims)))
    return configs


def wide_kernel():
    """Rank-4 output whose candidate cross product (3 969) exceeds
    ``4 * max_configs``, so enumeration takes the seeded-subsample branch."""
    b = GraphBuilder("wide")
    x = b.parameter((64, 224, 224, 64))
    b.tanh(x)
    return Kernel(graph=b.build(), kind="other")


@pytest.fixture(scope="module")
def corpus_kernels():
    """Every corpus kernel under the compiler-default fusion."""
    return [
        (p.name, k)
        for p in build_corpus()
        for k in fuse_program(p.graph, program_name=p.name)
    ]


class TestHoistedFootprint:
    def test_equals_graph_walk_on_every_enumerated_tile(self, corpus_kernels):
        kernels = [k for _, k in corpus_kernels[::9]] + [dense_kernel(), wide_kernel()]
        checked = 0
        for k in kernels:
            for t in enumerate_tile_sizes(k):
                got = tile_footprint_bytes(k, t)
                assert type(got) is int and got == footprint_by_graph_walk(k, t)
                in_bytes, out_bytes = tile_transfer_bytes(k, t)
                assert in_bytes + out_bytes == got
                checked += 1
        assert checked > 10_000

    def test_scalar_output(self):
        b = GraphBuilder("s")
        x = b.parameter((8,))
        b.reduce(x, dims=(0,))
        k = Kernel(graph=b.build(), kind="other")
        t = TileConfig(())
        assert enumerate_tile_sizes(k) == [t]
        assert tile_footprint_bytes(k, t) == footprint_by_graph_walk(k, t)

    def test_clamped_full_tile_fits_where_possible(self):
        k = dense_kernel(m=4096, k=2048, n=4096)
        with tiling_limits(scratchpad_bytes=64 * 1024):
            (tile,) = enumerate_tile_sizes(k)
        assert max(tile.dims) == 1 or footprint_by_graph_walk(k, tile) <= 32 * 1024

    def test_corpus_enumeration_unchanged(self, corpus_kernels):
        """Digest of every corpus kernel's tile list and default tile,
        recorded at the commit before the hoist (06d58ba)."""
        h = hashlib.sha256()
        for name, k in corpus_kernels:
            tiles = enumerate_tile_sizes(k)
            h.update(repr((name, k.index, [t.dims for t in tiles], default_tile(k).dims)).encode())
        assert len(corpus_kernels) == 2011
        assert h.hexdigest() == "a326aebd7aba37055428b775e5804ef51a467f57afd746321f13279cfdae96b2"

    @pytest.mark.parametrize("params", [
        (16 * 1024 * 1024, 12, 512),
        (16 * 1024 * 1024, 12, 8),
        (256 * 1024, 6, 512),
        (4 * 1024, 12, 16),
    ])
    def test_vectorised_test_equals_the_loop(self, corpus_kernels, params):
        """One vectorised footprint pass keeps the loop's tiles, in its
        order: the cap, the subsample branch (``wide_kernel``, and every
        rank-3 kernel under ``max_configs=8``) and the clamped fallback."""
        kernels = [fresh(k) for _, k in corpus_kernels[::7]] + [
            dense_kernel(), wide_kernel(), dense_kernel(m=4096, k=2048, n=4096)
        ]
        for k in kernels:
            with tiling_limits(*params):
                tiles = enumerate_tile_sizes(k)
            assert tiles == enumerate_by_loop(k, *params)

    def test_row_footprints_equal_the_scalar_ones(self, corpus_kernels):
        """``bytes_of_rows`` truncates like ``int`` on every candidate,
        not only on those near a budget."""
        for k in [k for _, k in corpus_kernels[::25]] + [dense_kernel(), wide_kernel()]:
            terms = _FootprintTerms.of(k)
            per_dim = [candidate_block_sizes(d, 6) for d in terms.output.dims]
            rows = [tuple(dims) for dims in itertools.product(*per_dim)]
            got = terms.bytes_of_rows(np.asarray(rows, dtype=np.int64).reshape(len(rows), -1))
            assert got.tolist() == [terms.bytes(dims) for dims in rows]

    def test_one_graph_walk_per_enumeration(self, monkeypatch):
        """Complexity pin: the kernel graph is walked once per enumeration,
        not once per candidate tile."""
        calls = []
        original = Kernel.primary_output
        monkeypatch.setattr(
            Kernel, "primary_output", lambda self: calls.append(self) or original(self)
        )
        for kernel in (dense_kernel(m=8, k=4, n=8), dense_kernel(m=512, k=64, n=512), wide_kernel()):
            calls.clear()
            assert len(enumerate_tile_sizes(kernel)) >= 1
            assert len(calls) == 1


class TestDefaultTileMemo:
    @pytest.fixture
    def enumerations(self, monkeypatch):
        calls = []
        original = tiling._candidate_dims
        monkeypatch.setattr(
            tiling, "_candidate_dims",
            lambda kernel: calls.append(kernel) or original(kernel),
        )
        return calls

    def test_once_per_body_across_shells(self, enumerations):
        body = dense_kernel()
        shells = [body.shell(f"g.k{i}", i) for i in range(3)]
        first = default_tile(shells[1])  # whichever shell asks first
        assert all(default_tile(k) is first for k in [body, *shells])
        assert enumerations == [shells[1]]
        assert first == largest_tile(enumerate_tile_sizes(body))
        # Another body, even an equal one, has its own memo.
        assert default_tile(dense_kernel()) == first
        assert len(enumerations) == 2

    def test_largest_candidate_on_every_corpus_kernel(self, corpus_kernels):
        """The maximum taken on the int rows is ``largest_tile`` of the
        enumerated list, with Python ``int`` dims."""
        for _, kernel in corpus_kernels:
            tile = default_tile(kernel)
            assert tile == largest_tile(enumerate_tile_sizes(kernel))
            assert all(type(d) is int for d in tile.dims)


class TestCandidateMemo:
    """The candidates are memoised per body; every call hands out a fresh
    list."""

    def test_fresh_equal_lists_across_calls_and_shells(self):
        body = dense_kernel()
        shells = [body.shell(f"g.k{i}", i) for i in range(2)]
        lists = [enumerate_tile_sizes(k) for k in [shells[1], body, body, *shells]]
        assert all(tiles == lists[0] for tiles in lists)
        assert len({id(tiles) for tiles in lists}) == len(lists)
        assert lists[0] == enumerate_tile_sizes(dense_kernel())  # another body, enumerated

    def test_mutating_a_result_does_not_reach_the_memo(self):
        body = dense_kernel()
        expected = enumerate_tile_sizes(body)
        got = enumerate_tile_sizes(body)
        got.reverse()
        got.append(TileConfig((1, 1)))
        del got[0]
        assert enumerate_tile_sizes(body) == expected
        assert enumerate_tile_sizes(body.shell("g.k1", 1)) == expected
        assert default_tile(body) == largest_tile(expected)

    def test_default_tile_reads_the_same_entry(self):
        body = dense_kernel()
        tile = default_tile(body)
        assert set(body._body_memo) == {"footprint_terms", "tile_sizes"}
        enumerate_tile_sizes(body)
        assert default_tile(body.shell("g.k1", 1)) is tile
        assert set(body._body_memo) == {"footprint_terms", "tile_sizes"}

    def test_dataset_build_and_searches_enumerate_each_body_once(self, monkeypatch):
        """Building a tile dataset fills the body memo that
        ``default_tile`` and a tile search then read."""
        from repro.autotuner import AnalyticalEvaluator, HardwareEvaluator, model_tile_autotune
        from repro.tpu import TpuSimulator

        bodies = []  # the body memos themselves, so no id is reused
        original = tiling._candidate_dims
        monkeypatch.setattr(
            tiling, "_candidate_dims",
            lambda kernel: bodies.append(kernel._body_memo) or original(kernel),
        )
        records = build_tile_dataset(
            [vision.alexnet(0)], max_kernels_per_program=6, max_tiles_per_kernel=4, seed=0
        ).records
        kernels = [r.kernel for r in records]
        assert len(records) >= 2 and len(bodies) >= len(records)
        enumerated = len(bodies)
        for kernel in kernels:
            default_tile(kernel)
        model_tile_autotune(
            kernels, AnalyticalEvaluator(), HardwareEvaluator(TpuSimulator()), top_k=2
        )
        assert len(bodies) == enumerated
        assert len({id(memo) for memo in bodies}) == len(bodies)


class TestSubsampleSeed:
    def candidate_product(self, kernel):
        dims = kernel.primary_output().shape.dims
        return math.prod(len(candidate_block_sizes(d, tiling.MAX_CANDIDATES_PER_DIM)) for d in dims)

    def test_same_tiles_under_any_hash_seed(self):
        """``hash(str)`` is salted per interpreter; the subsample must not be."""
        assert self.candidate_product(wide_kernel()) == 3969 > 4 * tiling.MAX_CONFIGS
        script = (
            "from repro.compiler import Kernel, enumerate_tile_sizes\n"
            "from repro.hlo import GraphBuilder\n"
            "b = GraphBuilder('wide')\n"
            "b.tanh(b.parameter((64, 224, 224, 64)))\n"
            "kernel = Kernel(graph=b.build(), kind='other')\n"
            "print([t.dims for t in enumerate_tile_sizes(kernel)])\n"
        )
        root = Path(__file__).resolve().parent.parent
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=str(root / "src"),
            )
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0] == f"{[t.dims for t in enumerate_tile_sizes(wide_kernel())]}\n"

    def test_corpus_stays_off_the_subsample_branch(self, corpus_kernels):
        """So the seed fix moves no fixture, dataset or benchmark input."""
        tileable = [k for _, k in corpus_kernels if k.has_tile_options()]
        assert len(tileable) > 1900
        assert max(self.candidate_product(k) for k in tileable) <= 4 * tiling.MAX_CONFIGS
