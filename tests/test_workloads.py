"""Tests for the workload corpus and splits."""
from unittest import mock

import pytest

from repro.hlo import Opcode
from repro.workloads import (
    FAMILY_SPEC,
    MANUAL_HELDOUT_FAMILIES,
    MANUAL_TEST_PROGRAMS,
    RANDOM_TEST_PROGRAMS,
    build_corpus,
    manual_split,
    random_split,
    sequence,
    tabular,
    vision,
)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


class TestCorpus:
    def test_exactly_104_programs(self, corpus):
        assert len(corpus) == 104

    def test_unique_names(self, corpus):
        names = [p.name for p in corpus]
        assert len(names) == len(set(names))

    def test_family_imbalance_preserved(self, corpus):
        """Many ResNet/Inception variants, single AlexNet and DLRM."""
        counts = {}
        for p in corpus:
            counts[p.family] = counts.get(p.family, 0) + 1
        assert counts["alexnet"] == 1
        assert counts["dlrm"] == 1
        assert counts["resnet_v1"] >= 10
        assert counts["inception"] >= 10
        assert counts["inception"] > counts["autocompletion"]

    def test_all_graphs_validate(self, corpus):
        for p in corpus:
            p.graph.validate()

    def test_graphs_have_parameters_and_roots(self, corpus):
        for p in corpus:
            assert p.graph.parameters(), p.name
            assert any(i.is_root for i in p.graph), p.name

    def test_deterministic_rebuild(self):
        a = build_corpus()
        b = build_corpus()
        assert [p.name for p in a] == [p.name for p in b]
        assert all(len(x.graph) == len(y.graph) for x, y in zip(a, b))

    def test_variants_differ_within_family(self):
        a, b = vision.resnet_v1(0), vision.resnet_v1(1)
        assert len(a.graph) != len(b.graph) or a.name != b.name

    def test_family_spec_counts_total(self):
        assert sum(c for _, c in FAMILY_SPEC) == 104


class TestLazyCorpus:
    """``build_corpus`` builds no graph; each is generated on first read."""

    @staticmethod
    def counting_spec(calls):
        def counted(generator):
            def generate(variant):
                calls.append((generator.__name__, variant))
                return generator(variant)

            generate.__name__ = generator.__name__
            return generate

        return [(counted(generator), count) for generator, count in FAMILY_SPEC]

    def test_building_the_corpus_calls_no_generator(self):
        calls = []
        with mock.patch("repro.workloads.corpus.FAMILY_SPEC", self.counting_spec(calls)):
            corpus = build_corpus()
            random_split(corpus)
            manual_split(corpus)
            assert len(corpus) == 104 and calls == []
            assert corpus[5].graph is corpus[5].graph
        assert calls == [("resnet_v1", 5)]

    def test_name_and_family_before_building_match_the_built_program(self):
        corpus = build_corpus()
        before = [(p.name, p.family) for p in corpus]
        by_generator = [generator(v) for generator, count in FAMILY_SPEC for v in range(count)]
        assert before == [(p.name, p.family) for p in by_generator]

    def test_graph_is_built_once_and_kept(self):
        program = build_corpus()[0]
        graph = program.graph
        assert program.graph is graph
        assert len(graph) == len(vision.resnet_v1(0).graph)


class TestGenerators:
    @pytest.mark.parametrize(
        "gen",
        [
            vision.resnet_v1, vision.resnet_v2, vision.inception, vision.alexnet,
            vision.ssd, vision.convdraw, vision.image_embed, vision.resnet_parallel,
            sequence.rnn, sequence.wavernn, sequence.nmt, sequence.translate,
            sequence.transformer, sequence.smartcompose, sequence.autocompletion,
            sequence.char2feats, sequence.feats2wave, tabular.dlrm, tabular.ranking,
        ],
    )
    def test_every_generator_builds_valid_program(self, gen):
        p = gen(0)
        p.graph.validate()
        assert len(p.graph) > 5
        ops = {i.opcode for i in p.graph}
        assert Opcode.PARAMETER in ops


class TestSplits:
    def test_random_split_partitions(self, corpus):
        s = random_split(corpus)
        names = [p.name for p in s.train + s.validation + s.test]
        assert len(names) == len(set(names)) == 104
        assert len(s.test) == 8
        assert len(s.validation) == 8
        assert len(s.train) == 88

    def test_random_split_test_rows_match_table2(self, corpus):
        s = random_split(corpus)
        assert set(s.test_names) == set(RANDOM_TEST_PROGRAMS)
        for display, prog in s.test_names.items():
            assert prog.family == RANDOM_TEST_PROGRAMS[display][0]

    def test_manual_split_holds_out_families(self, corpus):
        s = manual_split(corpus)
        train_families = {p.family for p in s.train}
        for fam in MANUAL_HELDOUT_FAMILIES:
            assert fam not in train_families
        assert "wavernn" not in train_families

    def test_manual_split_test_rows_match_table8(self, corpus):
        s = manual_split(corpus)
        assert set(s.test_names) == set(MANUAL_TEST_PROGRAMS)
        assert len(s.test) == 6

    def test_manual_split_no_overlap(self, corpus):
        s = manual_split(corpus)
        names = [p.name for p in s.train + s.validation + s.test]
        assert len(names) == len(set(names))

    def test_wavernn_variants_distinct_in_manual_test(self, corpus):
        s = manual_split(corpus)
        assert s.test_names["WaveRNN 1"].name != s.test_names["WaveRNN 2"].name
