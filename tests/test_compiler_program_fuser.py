"""ProgramFuser: one compilation per program, equal to fusing each config cold.

The fuser shares program-wide views and unchanged group bodies between the
configurations of a search. These tests pin that sharing as invisible: the
kernels equal an oracle cut per group with :func:`oracles.subgraph`,
the searches built on it return what they returned before it existed, and
the graph-wide work it does is a constant per fuser.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import subgraph
from repro.autotuner import HardwareEvaluator, hardware_fusion_autotune, model_fusion_autotune
from repro.compiler import (
    FusionConfig,
    Kernel,
    ProgramFuser,
    classify_kernel,
    default_fusion,
    fuse_program,
    fusion,
)
from repro.hlo import Graph, Opcode
from repro.tpu import TpuSimulator
from repro.workloads import build_corpus


@pytest.fixture(scope="module")
def corpus():
    return {p.name: p for p in build_corpus()}


@pytest.fixture(scope="module")
def sampled(corpus):
    """Every sixth corpus program by size, up to 262 nodes (15 programs)."""
    by_size = sorted(corpus.values(), key=lambda p: (len(p.graph), p.name))
    return [p for p in by_size[::6] if len(p.graph) <= 262]


def cold_kernels(program, config):
    """Oracle: every group cut out of the program graph from scratch."""
    graph = program.graph
    position = {inst.id: k for k, inst in enumerate(graph.topological_order())}
    leaves = (Opcode.PARAMETER, Opcode.CONSTANT)
    executing = [
        ids for ids in ProgramFuser(graph).groups(config)
        if any(graph.get(i).opcode not in leaves for i in ids)
    ]
    executing.sort(key=lambda ids: min(position[i] for i in ids))
    kernels = []
    for index, ids in enumerate(executing):
        sub = subgraph(graph, ids, name=f"{graph.name}.k{index}")
        kernels.append(Kernel(sub, classify_kernel(sub), program.name, index))
    return kernels


def assert_same_kernels(got, want):
    assert len(got) == len(want)
    for k, ref in zip(got, want):
        assert k.to_dict() == ref.to_dict()
        assert (k.kind, k.index, k.program_name) == (ref.kind, ref.index, ref.program_name)
        # The carried fingerprint equals one hashed from scratch.
        assert k.fingerprint() == Kernel.from_dict(ref.to_dict()).fingerprint()


class TestFuserEqualsCold:
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_chain_of_moves(self, sampled, data):
        program = data.draw(st.sampled_from(sampled), label="program")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        fuser = ProgramFuser(program.graph, program_name=program.name)
        config = fuser.default_config()
        assert config == default_fusion(program.graph)
        for _ in range(data.draw(st.integers(2, 6), label="moves")):
            assert_same_kernels(fuser.fuse(config), cold_kernels(program, config))
            if rng.random() < 0.2:
                config = FusionConfig.random(len(fuser.edges), rng, p=float(rng.uniform(0.2, 0.9)))
            else:
                config = config.mutate(rng, num_flips=int(rng.integers(1, 4)))

    def test_legality_params_reach_the_fuser(self, corpus, monkeypatch):
        monkeypatch.setattr(fusion, "MAX_OPS_PER_KERNEL", 3)
        program = corpus["char2feats_0"]
        fuser = ProgramFuser(program.graph, program.name)
        config = FusionConfig.all(len(fuser.edges))
        assert_same_kernels(fuser.fuse(config), cold_kernels(program, config))
        leaves = (Opcode.PARAMETER, Opcode.CONSTANT)
        for k in fuser.fuse(config):
            assert sum(i.opcode not in leaves for i in k.graph) <= 3

    def test_one_shot_calls_equal_the_fuser(self, corpus):
        program = corpus["dlrm_0"]
        fuser = ProgramFuser(program.graph, program_name=program.name)
        rng = np.random.default_rng(3)
        for config in (None, FusionConfig.random(len(fuser.edges), rng)):
            one_shot = fuse_program(program.graph, config=config, program_name=program.name)
            assert_same_kernels(fuser.fuse(config), one_shot)

    def test_revisited_config_shares_bodies_not_shells(self, corpus):
        program = corpus["char2feats_0"]
        fuser = ProgramFuser(program.graph, program_name=program.name)
        first, second = fuser.fuse(), fuser.fuse()
        for a, b in zip(first, second):
            assert a is not b and a.graph is not b.graph
            assert a.graph.instructions is b.graph.instructions

    def test_malformed_config_raises(self, corpus):
        program = corpus["char2feats_0"]
        fuser = ProgramFuser(program.graph, program_name=program.name)
        fuser.fuse()
        for bad in (FusionConfig.none(len(fuser.edges) + 1), FusionConfig(())):
            with pytest.raises(ValueError):
                fuser.fuse(bad)
            with pytest.raises(ValueError):
                fuser.groups(bad)


class _FingerprintBentTruth:
    """A deterministic, pure-Python stand-in for a learned model: the
    simulator's answer bent by a factor keyed on the kernel fingerprint."""

    def __init__(self):
        self.simulator = TpuSimulator()

    def program_runtime(self, kernels):
        return sum(
            self.simulator.run(k) * (0.7 + 0.6 * int(k.fingerprint()[:6], 16) / 16**6)
            for k in kernels
        )

    def program_runtimes_batched(self, programs):
        return np.asarray([self.program_runtime(p) for p in programs])


# (config bits, runtime, default_runtime, model_evaluations,
#  hardware_program_evaluations, hardware.evaluations), recorded at the commit
# before the fuser existed (06d58ba): budget 12 for the hardware tuner,
# model_budget 40 / hardware_budget 5 for the model tuner.
SEARCHES_AT_PARENT = {
    "hardware/char2feats_0/0": ("110000000001001111100110110111111111011111", 2.3185756734015412e-05, 2.7335655833084747e-05, 0, 12, 88),
    "hardware/char2feats_0/1": ("010000100011011111100110111111101101111111", 2.3071092474245797e-05, 2.7335655833084747e-05, 0, 12, 92),
    "hardware/char2feats_0/2": ("000010000010101111100010111111111101011111", 2.408970495718567e-05, 2.7335655833084747e-05, 0, 12, 102),
    "hardware/dlrm_0/0": ("000000000000000000000111111111111111111111111100111101101101111", 3.5465133628314916e-05, 3.5465133628314916e-05, 0, 12, 105),
    "hardware/dlrm_0/1": ("000000000000000000000111111111111111111111111100111101101101111", 3.5465133628314916e-05, 3.5465133628314916e-05, 0, 12, 119),
    "hardware/dlrm_0/2": ("000000000000000000000111111111111111111111111100111101101101111", 3.5465133628314916e-05, 3.5465133628314916e-05, 0, 12, 104),
    "model/char2feats_0/0": ("110000000001001111100110110111111111011111", 2.3185756734015412e-05, 2.7335655833084747e-05, 40, 5, 35),
    "model/char2feats_0/1": ("011111101011111111100010110111101111011111", 2.3185756734015412e-05, 2.7335655833084747e-05, 40, 5, 35),
    "model/char2feats_0/2": ("110010101111001111100110101111111101111111", 2.3071092474245797e-05, 2.7335655833084747e-05, 40, 5, 35),
    "model/dlrm_0/0": ("000000000000000000000111111111111111111111111100111101101101111", 3.5465133628314916e-05, 3.5465133628314916e-05, 40, 5, 38),
    "model/dlrm_0/1": ("010001000000000111000111101111110011111101111100111011101100111", 3.285258421931444e-05, 3.5465133628314916e-05, 40, 5, 59),
    "model/dlrm_0/2": ("000000000000000000000111111111111111111111111100111101101101111", 3.5465133628314916e-05, 3.5465133628314916e-05, 40, 5, 54),
}


class TestSearchesUnchanged:
    @pytest.mark.parametrize("key", sorted(SEARCHES_AT_PARENT))
    def test_search_returns_the_parents_result(self, corpus, key):
        tuner, name, seed = key.split("/")
        hardware = HardwareEvaluator(TpuSimulator())
        if tuner == "hardware":
            result = hardware_fusion_autotune(corpus[name], hardware, budget=12, seed=int(seed))
        else:
            result = model_fusion_autotune(
                corpus[name], _FingerprintBentTruth(), hardware,
                model_budget=40, hardware_budget=5, seed=int(seed),
            )
        bits, runtime, default_runtime, model_evals, program_evals, kernel_evals = (
            SEARCHES_AT_PARENT[key]
        )
        assert "".join("1" if d else "0" for d in result.config.decisions) == bits
        assert result.runtime == pytest.approx(runtime, rel=1e-12)
        assert result.default_runtime == pytest.approx(default_runtime, rel=1e-12)
        assert result.model_evaluations == model_evals
        assert result.hardware_program_evaluations == program_evals
        assert hardware.evaluations == kernel_evals


class TestGraphWalksPerFuser:
    """The complexity pin: graph-wide walks of the *program* graph are a
    constant per fuser, whatever the number of kernels or configurations."""

    WALKS_PER_FUSER = {"users": 2, "topological_order": 1}

    @pytest.fixture
    def walks(self, monkeypatch):
        counts = {"users": 0, "topological_order": 0}
        watched = []
        for name in counts:
            original = getattr(Graph, name)

            def counting(self, _name=name, _original=original):
                if any(self is g for g in watched):
                    counts[_name] += 1
                return _original(self)

            monkeypatch.setattr(Graph, name, counting)
        return watched, counts

    @pytest.mark.parametrize("name", ["char2feats_0", "transformer_1"])
    def test_one_fuse_program(self, corpus, walks, name):
        watched, counts = walks
        program = corpus[name]
        config = default_fusion(program.graph)
        watched.append(program.graph)
        kernels = fuse_program(program.graph, config=config, program_name=program.name)
        assert len(kernels) > 5
        assert counts == self.WALKS_PER_FUSER

    def test_forty_config_search(self, corpus, walks):
        watched, counts = walks
        program = corpus["char2feats_0"]
        watched.append(program.graph)
        result = model_fusion_autotune(
            program, _FingerprintBentTruth(), HardwareEvaluator(TpuSimulator()),
            model_budget=40, hardware_budget=5, seed=0,
        )
        assert result.model_evaluations == 40
        assert counts == self.WALKS_PER_FUSER


class TestDefaultTilePerBody:
    def test_forty_config_search_enumerates_each_body_once(self, corpus, monkeypatch):
        """Complexity pin: the truth model, the hardware verification and
        the default-config baseline all price shells; tiles are enumerated
        once per distinct body, not once per shell."""
        from repro.compiler import tiling

        bodies = []  # the instruction dicts themselves, so no id is reused
        original = tiling._candidate_dims

        def counting(kernel):
            bodies.append(kernel.graph.instructions)
            return original(kernel)

        monkeypatch.setattr(tiling, "_candidate_dims", counting)
        hardware = HardwareEvaluator(TpuSimulator())
        result = model_fusion_autotune(
            corpus["char2feats_0"], _FingerprintBentTruth(), hardware,
            model_budget=40, hardware_budget=5, seed=0,
        )
        assert result.model_evaluations == 40 and hardware.evaluations == 35
        # 376 default tiles are asked for in this search, of 50 bodies.
        assert len(bodies) > 5
        assert len({id(b) for b in bodies}) == len(bodies)
