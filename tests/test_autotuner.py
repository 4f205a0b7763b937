"""Tests for search strategies, evaluators, and the tile/fusion autotuners."""
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import largest_tile
from repro.autotuner import (
    AnalyticalEvaluator,
    HardwareEvaluator,
    LearnedEvaluator,
    SearchResult,
    exhaustive_tile_autotune,
    genetic_search,
    hardware_fusion_autotune,
    model_fusion_autotune,
    model_tile_autotune,
    random_search,
    simulated_annealing,
)
from repro.autotuner.fusion_tuner import _crossover
from repro.autotuner.search import FINAL_TEMPERATURE, INITIAL_TEMPERATURE
from repro.autotuner.tile import TileTuningResult
from repro.compiler import FusionConfig, default_tile, enumerate_tile_sizes, fuse_program
from repro.data import Scalers, build_fusion_dataset, build_tile_dataset
from repro.models import LearnedPerformanceModel, ModelConfig, TrainConfig, train_fusion_model
from repro.tpu import TpuSimulator
from repro.workloads import sequence, vision


@pytest.fixture(scope="module")
def kernels():
    p = vision.image_embed(0)
    ks = [k for k in fuse_program(p.graph, program_name=p.name) if k.has_tile_options()]
    return ks[:6]


@pytest.fixture(scope="module")
def trained_fusion():
    ds = build_fusion_dataset([sequence.char2feats(0), sequence.char2feats(1)], configs_per_program=3, seed=0)
    cfg = ModelConfig(
        task="fusion", reduction="column-wise", loss="mse",
        hidden_dim=16, opcode_embedding_dim=8, gnn_layers=2,
    )
    return train_fusion_model(ds.records, cfg, TrainConfig(steps=60, batch_size=8, log_every=30))


class TestSearchStrategies:
    def cost(self, x):
        return (x - 3.0) ** 2

    def costs(self, xs):
        return [self.cost(x) for x in xs]

    def test_random_search_finds_low_cost(self):
        rng = np.random.default_rng(0)
        res = random_search(lambda r: float(r.uniform(-10, 10)), self.costs, 200, rng)
        assert res.best_cost < 0.5
        assert len(res.visited) == 200

    def test_simulated_annealing_improves(self):
        rng = np.random.default_rng(0)
        res = simulated_annealing(
            [10.0], self.costs, lambda x, r: x + float(r.normal(0, 0.5)), 300, rng
        )
        assert res.best_cost < self.cost(10.0)
        assert res.best_cost <= min(c for _, c in res.visited) + 1e-12

    def test_simulated_annealing_zero_steps(self):
        rng = np.random.default_rng(0)
        res = simulated_annealing([5.0], self.costs, lambda x, r: x, 0, rng)
        assert res.best_state == 5.0

    def test_genetic_search(self):
        rng = np.random.default_rng(0)
        res = genetic_search(
            sample=lambda r: float(r.uniform(-10, 10)),
            cost_fn=self.costs,
            crossover=lambda a, b, r: (a + b) / 2,
            mutate=lambda x, r: x + float(r.normal(0, 0.2)),
            rng=rng,
            population=12,
            generations=8,
        )
        assert res.best_cost < 1.0

    @pytest.mark.parametrize("strategy", ["random", "annealing", "genetic"])
    @pytest.mark.parametrize("misprice", [-1, 1])
    def test_cost_list_of_another_length_raises(self, strategy, misprice):
        """A ``cost_fn`` pricing more or fewer states than it was given is
        an error, never a ``visited`` that silently drops states."""

        def wrong(xs):
            costs = self.costs(xs)
            return costs[:-1] if misprice < 0 else costs + [0.0]

        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="costs for"):
            if strategy == "random":
                random_search(lambda r: float(r.uniform(-10, 10)), wrong, 8, rng)
            elif strategy == "annealing":
                simulated_annealing([10.0, 4.0], wrong, lambda x, r: x + 0.1, 8, rng)
            else:
                genetic_search(
                    sample=lambda r: float(r.uniform(-10, 10)), cost_fn=wrong,
                    crossover=lambda a, b, r: (a + b) / 2, mutate=lambda x, r: x,
                    rng=rng, population=4, generations=2,
                )


def _scalar_annealing(initial, cost_fn, neighbor_fn, steps, rng,
                      initial_temperature=1.0, final_temperature=1e-3):
    """The scalar simulated annealing the population annealer replaced,
    kept verbatim as the reference its one-chain run must repeat."""
    current = initial
    current_cost = cost_fn(current)
    scale = max(abs(current_cost), 1e-30)
    best_state, best_cost = current, current_cost
    result = SearchResult(best_state, best_cost)
    result.visited.append((current, current_cost))
    if steps <= 0:
        return result
    alpha = (final_temperature / initial_temperature) ** (1.0 / steps)
    temp = initial_temperature
    for step in range(steps):
        candidate = neighbor_fn(current, rng)
        cost = cost_fn(candidate)
        result.visited.append((candidate, cost))
        delta = (cost - current_cost) / scale
        if delta <= 0 or rng.random() < np.exp(-delta / max(temp, 1e-12)):
            current, current_cost = candidate, cost
            result.history.append((step, cost))
        if cost < best_cost:
            best_state, best_cost = candidate, cost
        temp *= alpha
    result.best_state = best_state
    result.best_cost = best_cost
    return result


class TestOneChainAnnealing:
    """One chain of the population annealer is the scalar annealer: same
    states visited, same acceptances, same best, bit for bit."""

    def test_reference_cools_between_the_module_constants(self):
        defaults = inspect.signature(_scalar_annealing).parameters
        assert defaults["initial_temperature"].default == INITIAL_TEMPERATURE
        assert defaults["final_temperature"].default == FINAL_TEMPERATURE

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.integers(min_value=0, max_value=60),
        x0=st.floats(-10, 10),
        centre=st.floats(-5, 5),
        curvature=st.floats(0.01, 4.0),
        ripple=st.floats(0.0, 2.0),
        frequency=st.floats(0.1, 5.0),
        sigma=st.floats(0.01, 3.0),
    )
    def test_matches_the_scalar_reference(
        self, seed, steps, x0, centre, curvature, ripple, frequency, sigma
    ):
        def cost(x):
            return curvature * (x - centre) ** 2 + ripple * float(np.sin(frequency * x))

        def neighbor(x, r):
            return x + sigma * float(r.normal())

        expected = _scalar_annealing(x0, cost, neighbor, steps, np.random.default_rng(seed))
        got = simulated_annealing(
            [x0], lambda xs: [cost(x) for x in xs], neighbor, steps, np.random.default_rng(seed)
        )
        assert got.best_state == expected.best_state
        assert got.best_cost == expected.best_cost
        assert got.history == expected.history
        assert got.visited == expected.visited


class TestEvaluators:
    def test_hardware_metering(self, kernels):
        hw = HardwareEvaluator(TpuSimulator())
        hw.kernel_runtime(kernels[0])
        hw.kernel_runtime(kernels[1])
        assert hw.evaluations == 2
        hw.program_runtime(kernels[:3])
        assert hw.evaluations == 5

    def test_hardware_program_runtime_rejects_mismatched_tiles(self, kernels):
        """One tile for four kernels is an error: nothing is priced or
        metered (a zip would price the first kernel alone)."""
        hw = HardwareEvaluator(TpuSimulator())
        with pytest.raises(ValueError, match="1 tiles for 4 kernels"):
            hw.program_runtime(kernels[:4], [default_tile(kernels[0])])
        assert hw.evaluations == 0

    def test_hardware_matches_simulator(self, kernels):
        sim = TpuSimulator()
        hw = HardwareEvaluator(sim)
        k = kernels[0]
        t = default_tile(k)
        assert hw.kernel_runtime(k, t) == sim.run(k, t)

    def test_analytical_scores_align_with_estimates(self, kernels):
        ev = AnalyticalEvaluator()
        k = kernels[0]
        tiles = enumerate_tile_sizes(k)[:5]
        scores = ev.score_tiles_batched(k, tiles)
        assert scores.shape == (len(tiles),)
        assert (scores > 0).all()

    def test_learned_evaluator_cache(self, trained_fusion, kernels):
        ev = LearnedEvaluator(trained_fusion.model, trained_fusion.scalers)
        v1 = ev.kernel_runtime(kernels[0])
        v2 = ev.kernel_runtime(kernels[0])
        assert v1 == v2
        assert kernels[0].fingerprint() in ev._memo

    def test_learned_program_runtime_sums_kernels(self, trained_fusion, kernels):
        ev = LearnedEvaluator(trained_fusion.model, trained_fusion.scalers)
        total = ev.program_runtime(kernels[:3])
        parts = sum(ev.kernel_runtime(k) for k in kernels[:3])
        assert total == pytest.approx(parts, rel=1e-5)


class TestTileAutotuner:
    def test_exhaustive_at_least_as_good_as_topk(self, kernels):
        ex = exhaustive_tile_autotune(kernels, HardwareEvaluator(TpuSimulator()))
        top = model_tile_autotune(
            kernels, AnalyticalEvaluator(), HardwareEvaluator(TpuSimulator()), top_k=5
        )
        assert ex.program_runtime <= top.program_runtime + 1e-12

    def test_topk_at_least_as_good_as_top1(self, kernels):
        top10 = model_tile_autotune(
            kernels, AnalyticalEvaluator(), HardwareEvaluator(TpuSimulator()), top_k=10
        )
        top1 = model_tile_autotune(
            kernels, AnalyticalEvaluator(), HardwareEvaluator(TpuSimulator()), top_k=1
        )
        assert top10.program_runtime <= top1.program_runtime + 1e-12

    def test_top1_spends_no_hardware(self, kernels):
        res = model_tile_autotune(
            kernels, AnalyticalEvaluator(), HardwareEvaluator(TpuSimulator()), top_k=1
        )
        assert res.hardware_evaluations == 0

    def test_exhaustive_budget_equals_candidate_count(self, kernels):
        hw = HardwareEvaluator(TpuSimulator())
        res = exhaustive_tile_autotune(kernels, hw)
        expected = sum(len(enumerate_tile_sizes(k)) for k in kernels)
        assert res.hardware_evaluations == expected

    def test_speedup_definition(self, kernels):
        res = exhaustive_tile_autotune(kernels, HardwareEvaluator(TpuSimulator()))
        assert res.speedup == pytest.approx(res.default_runtime / res.program_runtime)
        assert res.speedup >= 1.0  # exhaustive includes the default tile


    def test_each_kernel_enumerated_once(self, kernels, monkeypatch):
        """The default tile comes from the candidate list already in hand."""
        from repro.autotuner import tile as tile_tuner
        from repro.compiler import tiling

        calls = []

        def counting(kernel, _original=tiling.enumerate_tile_sizes):
            calls.append(kernel)
            return _original(kernel)

        expected_default = sum(TpuSimulator().run(k, default_tile(k)) for k in kernels)
        monkeypatch.setattr(tiling, "enumerate_tile_sizes", counting)
        monkeypatch.setattr(tile_tuner, "enumerate_tile_sizes", counting)
        for tune in (
            lambda: exhaustive_tile_autotune(kernels, HardwareEvaluator(TpuSimulator())),
            lambda: model_tile_autotune(
                kernels, AnalyticalEvaluator(), HardwareEvaluator(TpuSimulator()), top_k=1
            ),
        ):
            calls.clear()
            result = tune()
            assert len(calls) == len(kernels)
            assert result.default_runtime == expected_default


class _CountingScorer:
    """The analytical scorer, recording the fingerprint of every kernel it
    is asked to score."""

    def __init__(self) -> None:
        self.inner = AnalyticalEvaluator()
        self.seen: list[str] = []

    def score_tiles_batched(self, kernel, tiles):
        self.seen.append(kernel.fingerprint())
        return self.inner.score_tiles_batched(kernel, tiles)


def _per_kernel_tile_autotune(kernels, model, hardware, top_k):
    """``model_tile_autotune`` as it was before it ranked each distinct
    fingerprint once: one enumeration and one scoring per kernel. Kept as
    the reference the deduplicated search must repeat bit for bit."""
    chosen = []
    total = 0.0
    default_total = 0.0
    for kernel in kernels:
        candidates = enumerate_tile_sizes(kernel)
        scores = np.asarray(model.score_tiles_batched(kernel, candidates))
        order = np.argsort(scores, kind="stable")[: max(top_k, 1)]
        if top_k <= 1:
            pick = candidates[int(order[0])]
        else:
            runtimes = [hardware.kernel_runtime(kernel, candidates[int(i)]) for i in order]
            pick = candidates[int(order[int(np.argmin(runtimes))])]
        chosen.append(pick)
        total += hardware.simulator.run(kernel, pick)
        default_total += hardware.simulator.run(kernel, largest_tile(candidates))
    return TileTuningResult(chosen, total, default_total, hardware.evaluations)


class TestRepeatedKernels:
    """A program that repeats kernels is ranked once per fingerprint; the
    hardware verification, its meter and the runtime sums stay per kernel."""

    @pytest.fixture(scope="class")
    def programs(self, kernels):
        p = vision.image_embed(0)
        fused_again = [k for k in fuse_program(p.graph, program_name=p.name) if k.has_tile_options()]
        a, b, c = kernels[:3]
        shells = [
            a, b, a.shell("shells.k2", 2), c, fused_again[1], b.shell("shells.k5", 5), fused_again[0], a
        ]
        transformer = sequence.transformer(1)
        return {
            "shells": shells,
            "transformer_1": [
                k for k in fuse_program(transformer.graph, program_name=transformer.name)
                if k.has_tile_options()
            ],
        }

    @pytest.mark.parametrize("name", ["shells", "transformer_1"])
    @pytest.mark.parametrize("top_k", [1, 3])
    def test_one_scoring_per_fingerprint_same_result(self, programs, name, top_k):
        program = programs[name]
        fingerprints = [k.fingerprint() for k in program]
        assert len(set(fingerprints)) < len(fingerprints)
        scorer = _CountingScorer()
        got = model_tile_autotune(
            program, scorer, HardwareEvaluator(rng=np.random.default_rng(0)), top_k=top_k
        )
        assert scorer.seen == list(dict.fromkeys(fingerprints))
        expected = _per_kernel_tile_autotune(
            program, AnalyticalEvaluator(), HardwareEvaluator(rng=np.random.default_rng(0)), top_k
        )
        assert got == expected
        verified = 0 if top_k == 1 else sum(min(top_k, len(enumerate_tile_sizes(k))) for k in program)
        assert got.hardware_evaluations == verified


class TestTileRowMemo:
    """Encoded tile rows are memoised beside their kernel's features."""

    @pytest.fixture(scope="class")
    def tile_model(self):
        records = build_tile_dataset([vision.image_embed(0)], max_tiles_per_kernel=4, seed=0).records
        model = LearnedPerformanceModel(ModelConfig.paper_best_tile(), seed=0)
        return model, Scalers.fit_tile(records)

    @pytest.fixture()
    def groups(self, kernels):
        return [(k, enumerate_tile_sizes(k)[:24]) for k in kernels[:4]]

    def test_warm_scores_equal_fresh_scores(self, tile_model, groups):
        warm = LearnedEvaluator(*tile_model)
        warm.score_tile_groups([(k, tiles[::-1]) for k, tiles in groups])
        for k, tiles in groups:
            warm.score_tiles_batched(k, tiles[:5])
        got = warm.score_tile_groups(groups)
        expected = LearnedEvaluator(*tile_model).score_tile_groups(groups)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)

    def test_rows_are_evicted_with_their_features(self, tile_model, groups, monkeypatch):
        from repro.autotuner import evaluators

        encoded = []
        original = evaluators.tile_features
        monkeypatch.setattr(
            evaluators, "tile_features", lambda t: encoded.append(t.dims) or original(t)
        )
        evaluator = LearnedEvaluator(*tile_model, max_cached_kernels=2)
        (a, a_tiles), (b, b_tiles), (c, c_tiles) = groups[:3]
        evaluator.score_tiles_batched(a, a_tiles + a_tiles[:3])
        assert encoded == [t.dims for t in a_tiles]  # a repeated tile is encoded once
        evaluator.score_tiles_batched(a, a_tiles)
        evaluator.score_tiles_batched(b, b_tiles)
        assert len(encoded) == len(a_tiles) + len(b_tiles)
        evaluator.score_tiles_batched(c, c_tiles)  # evicts a: features and rows
        assert list(evaluator._features_memo) == [b.fingerprint(), c.fingerprint()]
        assert [len(rows.index) for _, rows in evaluator._features_memo.values()] == [
            len(b_tiles), len(c_tiles)
        ]
        encoded.clear()
        evaluator.score_tiles_batched(a, a_tiles)
        assert encoded == [t.dims for t in a_tiles]


class TestFusionAutotuner:
    def test_hardware_autotuner_improves_or_matches_default(self):
        p = sequence.char2feats(0)
        res = hardware_fusion_autotune(p, HardwareEvaluator(TpuSimulator()), budget=20, seed=0)
        # SA starts at the default config, so the result can't be worse.
        assert res.runtime <= res.default_runtime * 1.001
        assert res.hardware_program_evaluations == 20

    def test_model_autotuner_budget_accounting(self, trained_fusion):
        p = sequence.char2feats(0)
        ev = LearnedEvaluator(trained_fusion.model, trained_fusion.scalers)
        res = model_fusion_autotune(
            p, ev, HardwareEvaluator(TpuSimulator()),
            model_budget=30, hardware_budget=3, seed=0,
        )
        assert res.model_evaluations == 30
        assert res.hardware_program_evaluations <= 3
        assert res.runtime > 0

    def test_speedup_property(self):
        p = sequence.char2feats(1)
        res = hardware_fusion_autotune(p, HardwareEvaluator(TpuSimulator()), budget=10, seed=1)
        assert res.speedup == pytest.approx(res.default_runtime / res.runtime)

    def test_model_autotuner_parallel_chains(self, trained_fusion):
        p = sequence.char2feats(0)
        ev = LearnedEvaluator(trained_fusion.model, trained_fusion.scalers)
        res = model_fusion_autotune(
            p, ev, HardwareEvaluator(TpuSimulator()),
            model_budget=32, hardware_budget=3, seed=0, chains=4,
        )
        # 4 chains x (32//4 - 1) steps + 4 initial scores = 32 model evals.
        assert res.model_evaluations == 32
        assert res.hardware_program_evaluations <= 3
        assert res.runtime > 0

    def test_parallel_chains_never_overspend_budget(self, trained_fusion):
        p = sequence.char2feats(0)
        ev = LearnedEvaluator(trained_fusion.model, trained_fusion.scalers)
        res = model_fusion_autotune(
            p, ev, HardwareEvaluator(TpuSimulator()),
            model_budget=3, hardware_budget=2, seed=0, chains=8,
        )
        # chains are clamped to the budget: exactly 3 evals, not 8.
        assert res.model_evaluations == 3

    def test_model_autotuner_alternate_strategies(self, trained_fusion):
        p = sequence.char2feats(0)
        hw = HardwareEvaluator(TpuSimulator())
        # A genetic budget of 20 buys only the population of 16 and
        # (20 - 16) // 12 = 0 generations; 40 buys two bred generations.
        for strategy, budget, spent in (("random", 20, 20), ("genetic", 20, 16), ("genetic", 40, 40)):
            ev = LearnedEvaluator(trained_fusion.model, trained_fusion.scalers)
            res = model_fusion_autotune(
                p, ev, hw, model_budget=budget, hardware_budget=2, seed=0,
                strategy=strategy,
            )
            assert res.model_evaluations == spent, (strategy, budget)
            assert res.runtime > 0
            # Strategies seeded away from the default fall back to it
            # rather than returning a verified regression.
            assert res.runtime <= res.default_runtime * 1.001, (strategy, budget)

    def test_crossover_child_decisions_come_from_parents(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = FusionConfig.random(12, rng)
            b = FusionConfig.random(12, rng)
            child = _crossover(a, b, rng)
            assert len(child.decisions) == 12
            # Where the parents agree the child has no other choice.
            for c, da, db in zip(child.decisions, a.decisions, b.decisions):
                if da == db:
                    assert c == da
        # Opposite parents: the child takes decisions from both.
        child = _crossover(FusionConfig((True,) * 12), FusionConfig((False,) * 12), rng)
        assert set(child.decisions) == {True, False}

    def test_genetic_tiny_budget_never_overspends(self, trained_fusion):
        ev = LearnedEvaluator(trained_fusion.model, trained_fusion.scalers)
        res = model_fusion_autotune(
            sequence.char2feats(0), ev, HardwareEvaluator(TpuSimulator()),
            model_budget=1, hardware_budget=1, seed=0, strategy="genetic",
        )
        assert res.model_evaluations == 1  # degrades to random sampling

    def test_model_autotuner_rejects_unknown_strategy(self, trained_fusion):
        ev = LearnedEvaluator(trained_fusion.model, trained_fusion.scalers)
        with pytest.raises(ValueError):
            model_fusion_autotune(
                sequence.char2feats(0), ev, HardwareEvaluator(TpuSimulator()),
                model_budget=5, strategy="hillclimb",
            )
