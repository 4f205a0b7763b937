"""Tests for the kernel precompute cache, batched scoring, and batched search.

The contract under test is *exact* equivalence: the cached/composed fast
paths must be bitwise-identical to the cold reference paths — features,
adjacency operators (dense, through SciPy), pad views, and model scores.
"""
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autotuner import (
    LearnedEvaluator,
    genetic_search,
    random_search,
    simulated_annealing,
)
from repro.compiler import enumerate_tile_sizes
from repro.data import (
    KernelCache,
    Scalers,
    TileBatchSampler,
    assemble_batch,
    build_fusion_dataset,
    build_tile_dataset,
    extract_kernel_features,
    tile_features,
)
from repro.models import LearnedPerformanceModel, ModelConfig
from repro.workloads import vision


@pytest.fixture(scope="module")
def tile_records():
    programs = [vision.resnet_v1(0), vision.alexnet(0)]
    return build_tile_dataset(programs, max_tiles_per_kernel=4, seed=0).records


@pytest.fixture(scope="module")
def fusion_records():
    return build_fusion_dataset([vision.alexnet(0)], seed=0).records


@pytest.fixture(scope="module")
def scalers(tile_records):
    return Scalers.fit_tile(tile_records)


def assert_batches_identical(ref, got):
    for name in (
        "node_feats",
        "opcodes",
        "tile_feats",
        "static_feats",
        "targets",
        "group_ids",
        "pad_index",
        "pad_mask",
    ):
        np.testing.assert_array_equal(
            getattr(ref, name), getattr(got, name), err_msg=name
        )
    np.testing.assert_array_equal(ref.context.edges, got.context.edges)
    np.testing.assert_array_equal(ref.context.graph_ids, got.context.graph_ids)
    assert ref.context.sizes == got.context.sizes
    assert ref.context.num_nodes == got.context.num_nodes
    for name in ("adj_in", "adj_out", "adj_sym"):
        np.testing.assert_array_equal(
            dense(getattr(ref.context, name)), dense(getattr(got.context, name)), err_msg=name
        )


def dense(m):
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape).toarray()


class TestKernelCacheEquivalence:
    def test_bitwise_identical_to_assemble_batch(self, tile_records, scalers):
        sampler = TileBatchSampler(tile_records, kernels_per_batch=4, tiles_per_kernel=3, seed=7)
        cache = KernelCache(scalers, neighbor_cap=20)
        for _ in range(4):
            items = sampler.draw_items()
            assert_batches_identical(
                assemble_batch(items, scalers), cache.assemble(items)
            )

    def test_neighbor_cap_truncation_path(self, tile_records, scalers):
        sampler = TileBatchSampler(tile_records, kernels_per_batch=3, tiles_per_kernel=2, seed=3)
        cache = KernelCache(scalers, neighbor_cap=2)
        items = sampler.draw_items()
        assert_batches_identical(
            assemble_batch(items, scalers, neighbor_cap=2), cache.assemble(items)
        )

    def test_identity_scalers(self, tile_records):
        sampler = TileBatchSampler(tile_records, kernels_per_batch=3, tiles_per_kernel=2, seed=5)
        cache = KernelCache(scalers=None, neighbor_cap=20)
        items = sampler.draw_items()
        assert_batches_identical(assemble_batch(items), cache.assemble(items))

    def test_fusion_items_without_tiles(self, fusion_records):
        scalers = Scalers.fit_fusion(fusion_records)
        items = [(r.features, None, r.runtime, i) for i, r in enumerate(fusion_records[:6])]
        cache = KernelCache(scalers, neighbor_cap=20)
        assert_batches_identical(
            assemble_batch(items, scalers), cache.assemble(items)
        )

    def test_single_item_batch(self, tile_records, scalers):
        r = tile_records[0]
        items = [(r.features, r.tile_feats[0], float(r.runtimes[0]), 0)]
        cache = KernelCache(scalers, neighbor_cap=20)
        assert_batches_identical(
            assemble_batch(items, scalers), cache.assemble(items)
        )

    def test_empty_batch_rejected(self, scalers):
        with pytest.raises(ValueError):
            KernelCache(scalers).assemble([])


class TestKernelCacheMetering:
    def test_entry_hits_and_misses(self, tile_records, scalers):
        cache = KernelCache(scalers)
        r = tile_records[0]
        items = [(r.features, r.tile_feats[t], 0.0, 0) for t in range(2)]
        cache.assemble(items)
        assert cache.misses == 1  # one unique kernel
        assert cache.hits == 1  # second item reused the entry
        cache.assemble(items)
        assert cache.misses == 1
        assert cache.hits == 3

    def test_context_memo_hits_on_repeat_composition(self, tile_records, scalers):
        cache = KernelCache(scalers)
        r = tile_records[0]
        items = [(r.features, r.tile_feats[t % 2], 0.0, 0) for t in range(3)]
        b1 = cache.assemble(items)
        b2 = cache.assemble(items)
        assert cache.context_misses == 1
        assert cache.context_hits == 1
        assert b1.context is b2.context  # shared, not rebuilt

    @mock.patch("repro.data.batching.MAX_CONTEXTS", 2)
    def test_context_memo_bounded(self, tile_records, scalers):
        cache = KernelCache(scalers)
        for r in tile_records[:5]:
            cache.assemble([(r.features, r.tile_feats[0], 0.0, 0)])
        assert len(cache._contexts) <= 2

    def test_entry_store_bounded_with_lru_eviction(self, tile_records, scalers):
        cache = KernelCache(scalers, max_entries=3)
        for r in tile_records[:5]:
            cache.assemble([(r.features, r.tile_feats[0], 0.0, 0)])
        assert len(cache) <= 3
        # Evicted kernels are recomputed (a miss), and still correct.
        r0 = tile_records[0]
        items = [(r0.features, r0.tile_feats[0], 0.0, 0)]
        before = cache.misses
        assert_batches_identical(assemble_batch(items, scalers), cache.assemble(items))
        assert cache.misses == before + 1

    def test_clear_drops_entries(self, tile_records, scalers):
        cache = KernelCache(scalers)
        r = tile_records[0]
        cache.assemble([(r.features, r.tile_feats[0], 0.0, 0)])
        cache.clear()
        assert len(cache) == 0


class TestBatchedTileScoring:
    @pytest.fixture(scope="class")
    def evaluator(self, tile_records, scalers):
        model = LearnedPerformanceModel(ModelConfig.paper_best_tile(), seed=0)
        return LearnedEvaluator(model, scalers)

    def test_matches_cold_path_bitwise(self, tile_records, scalers, evaluator):
        """Cached composition changes nothing: the warm evaluator's scores
        are the model's forward over the cold ``assemble_batch``, bit for
        bit."""
        record = max(tile_records, key=lambda r: len(enumerate_tile_sizes(r.kernel)))
        tiles = enumerate_tile_sizes(record.kernel)[:12]
        features = extract_kernel_features(record.kernel)
        items = [(features, tile_features(t), 0.0, 0) for t in tiles]
        model = evaluator.model
        cold = model.predict(
            assemble_batch(items, scalers, neighbor_cap=model.config.neighbor_cap)
        )
        evaluator.score_tiles_batched(record.kernel, tiles)  # warm the caches
        np.testing.assert_array_equal(
            cold, evaluator.score_tiles_batched(record.kernel, tiles)
        )

    def test_matches_per_tile_scoring(self, tile_records, scalers, evaluator):
        """One batched forward == N single-tile forwards (up to BLAS
        shape-dependent rounding, which differs across batch sizes)."""
        record = max(tile_records, key=lambda r: len(enumerate_tile_sizes(r.kernel)))
        tiles = enumerate_tile_sizes(record.kernel)[:12]
        per_tile = np.concatenate(
            [evaluator.score_tiles_batched(record.kernel, [t]) for t in tiles]
        )
        batched = evaluator.score_tiles_batched(record.kernel, tiles)
        np.testing.assert_allclose(per_tile, batched, rtol=1e-4, atol=1e-7)

    def test_empty_tiles(self, tile_records, evaluator):
        out = evaluator.score_tiles_batched(tile_records[0].kernel, [])
        assert out.shape == (0,)

    def test_feature_memo_metering(self, tile_records, scalers, evaluator):
        kernel = tile_records[1].kernel
        tiles = enumerate_tile_sizes(kernel)[:4]
        before = evaluator.feature_cache_misses
        evaluator.score_tiles_batched(kernel, tiles)
        evaluator.score_tiles_batched(kernel, tiles)
        assert evaluator.feature_cache_misses == before + 1
        assert evaluator.feature_cache_hits >= 1


class TestBatchedProgramScoring:
    def test_matches_sequential_program_runtime(self, fusion_records):
        scalers = Scalers.fit_fusion(fusion_records)
        model = LearnedPerformanceModel(ModelConfig.paper_best_fusion(), seed=0)
        kernels = [r.kernel for r in fusion_records[:4]]
        programs = [kernels[:2], kernels[2:], kernels]
        sequential = LearnedEvaluator(model, scalers)
        expected = np.asarray([sequential.program_runtime(p) for p in programs])
        batched = LearnedEvaluator(model, scalers)
        got = batched.program_runtimes_batched(programs)
        # Kernels are priced in different batch shapes (float32 BLAS
        # rounding differs across shapes), so exact equality is not
        # expected — agreement to ~1e-5 relative is.
        np.testing.assert_allclose(got, expected, rtol=1e-5)


class TestPredictionMemoIsLru:
    @pytest.fixture()
    def evaluator(self, fusion_records):
        model = LearnedPerformanceModel(ModelConfig.paper_best_fusion(), seed=0)
        with mock.patch("repro.autotuner.evaluators.PREDICTIONS_PER_KERNEL", 2):
            yield LearnedEvaluator(
                model, Scalers.fit_fusion(fusion_records), max_cached_kernels=1
            )

    @pytest.fixture()
    def kernels(self, fusion_records):
        distinct = {r.kernel.fingerprint(): r.kernel for r in fusion_records}
        return list(distinct.values())[:3]

    @pytest.mark.parametrize("read", ["kernel_runtime", "program_runtime"])
    def test_reread_kernel_survives_the_next_insertion(self, evaluator, kernels, read):
        a, b, c = kernels
        price = (
            evaluator.kernel_runtime if read == "kernel_runtime"
            else lambda k: evaluator.program_runtime([k])
        )
        price(a), price(b)
        price(a)  # a hit: a is now the most recently used
        price(c)  # evicts the least recently used, which is b
        assert list(evaluator._memo) == [a.fingerprint(), c.fingerprint()]
        misses = evaluator.prediction_memo_misses
        price(a)
        assert evaluator.prediction_memo_misses == misses


class TestNoSciPyConstructorsOnTheCachedPath:
    """Count pins: what the cached path must not call, and what a model
    must not make the context stack. No clock involved."""

    def test_assemble_builds_operators_without_scipy_conversions(
        self, tile_records, scalers, monkeypatch
    ):
        from repro.nn import graph_layers, sparse

        sampler = TileBatchSampler(tile_records, kernels_per_batch=4, tiles_per_kernel=2, seed=11)
        items = sampler.draw_items()
        expected = assemble_batch(items, scalers)

        def forbidden(*args, **kwargs):
            raise AssertionError("SciPy conversion on the KernelCache.assemble path")

        for module in (sparse, graph_layers):
            monkeypatch.setattr(module, "normalized_adjacency", forbidden)
        monkeypatch.setattr(sp, "diags", forbidden)
        monkeypatch.setattr(sp, "block_diag", forbidden)
        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.lil_matrix, sp.dia_matrix):
            for conversion in ("tolil", "tocoo", "tocsc", "todia"):
                monkeypatch.setattr(cls, conversion, forbidden)
        got = KernelCache(scalers).assemble(items)
        for name in ("adj_in", "adj_out", "adj_sym", "edges"):
            getattr(got.context, name)  # stacking is on the same path
        monkeypatch.undo()
        assert_batches_identical(expected, got)

    @pytest.mark.parametrize(
        "overrides, read, unread",
        [
            ({}, {"adj_in", "adj_out"}, {"adj_sym", "edges"}),
            ({"directed": False}, {"adj_sym"}, {"adj_in", "adj_out", "edges"}),
            ({"gnn": "gat"}, {"edges"}, {"adj_in", "adj_out", "adj_sym"}),
            ({"gnn": "none"}, set(), {"adj_in", "adj_out", "adj_sym", "edges"}),
        ],
    )
    def test_predict_stacks_only_the_operators_the_model_reads(
        self, tile_records, scalers, overrides, read, unread
    ):
        config = ModelConfig.paper_best_tile().with_overrides(**overrides)
        model = LearnedPerformanceModel(config, seed=0)
        sampler = TileBatchSampler(tile_records, kernels_per_batch=3, tiles_per_kernel=2, seed=1)
        items = sampler.draw_items()
        batch = KernelCache(scalers).assemble(items)
        assert not {"adj_in", "adj_out", "adj_sym", "edges"} & set(vars(batch.context))
        scores = model.predict(batch)
        materialised = {"adj_in", "adj_out", "adj_sym", "edges"} & set(vars(batch.context))
        assert materialised == read and not materialised & unread
        np.testing.assert_array_equal(scores, model.predict(assemble_batch(items, scalers)))


def _scalar_random_search(sample, cost_fn, steps, rng):
    """Reference: one draw, one scalar price, in turn."""
    best_state, best_cost = None, float("inf")
    visited, history = [], []
    for step in range(steps):
        state = sample(rng)
        cost = cost_fn(state)
        visited.append((state, cost))
        if cost < best_cost:
            best_state, best_cost = state, cost
            history.append((step, cost))
    return best_state, best_cost, visited, history


def _scalar_genetic_search(sample, cost_fn, crossover, mutate, rng, population, generations, elite):
    """Reference: the elitist genetic search pricing one individual at a time."""
    pop = [(s, cost_fn(s)) for s in [sample(rng) for _ in range(population)]]
    visited = list(pop)
    for _ in range(generations):
        pop.sort(key=lambda t: t[1])
        parents = pop[:elite]
        children = list(parents)
        offspring = []
        while len(children) + len(offspring) < population:
            a = parents[rng.integers(0, elite)][0]
            b = parents[rng.integers(0, elite)][0]
            offspring.append(mutate(crossover(a, b, rng), rng))
        scored = [(s, cost_fn(s)) for s in offspring]
        children.extend(scored)
        visited.extend(scored)
        pop = children
    pop.sort(key=lambda t: t[1])
    return pop[0][0], pop[0][1], visited


class TestBatchedSearch:
    @staticmethod
    def _cost(state):
        return float((state - 3.7) ** 2)

    def _costs(self, states):
        return [self._cost(s) for s in states]

    def test_random_search_batched_identical(self):
        sample = lambda rng: float(rng.normal())
        best_state, best_cost, visited, history = _scalar_random_search(
            sample, self._cost, 40, np.random.default_rng(0)
        )
        bat = random_search(sample, self._costs, 40, np.random.default_rng(0))
        assert bat.best_state == best_state
        assert bat.best_cost == best_cost
        assert bat.visited == visited
        assert bat.history == history

    def test_genetic_search_batched_identical(self):
        sample = lambda rng: float(rng.normal())
        crossover = lambda a, b, rng: (a + b) / 2
        mutate = lambda s, rng: s + float(rng.normal()) * 0.1
        best_state, best_cost, visited = _scalar_genetic_search(
            sample, self._cost, crossover, mutate, np.random.default_rng(1),
            population=8, generations=4, elite=2,
        )
        bat = genetic_search(
            sample, self._costs, crossover, mutate, np.random.default_rng(1),
            population=8, generations=4, elite=2,
        )
        assert bat.best_state == best_state
        assert bat.best_cost == best_cost
        assert bat.visited == visited

    def test_annealing_chains_improve_and_batch(self):
        calls = []

        def batch_cost(states):
            calls.append(len(states))
            return [self._cost(s) for s in states]

        neighbor = lambda s, rng: s + float(rng.normal()) * 0.5
        result = simulated_annealing(
            [0.0, 10.0, -5.0], batch_cost, neighbor, steps=50,
            rng=np.random.default_rng(2),
        )
        assert result.best_cost <= self._cost(0.0)
        assert len(result.visited) == 3 * 51
        assert all(n == 3 for n in calls)  # one batched call per step

    def test_annealing_rejects_no_chains(self):
        with pytest.raises(ValueError):
            simulated_annealing(
                [], lambda s: [], lambda s, r: s, steps=1,
                rng=np.random.default_rng(0),
            )
