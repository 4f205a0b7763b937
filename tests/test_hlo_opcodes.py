"""Tests for opcode metadata."""
from repro.hlo import (
    NUM_OPCODES,
    OpCategory,
    Opcode,
    is_contraction,
    is_elementwise,
    is_transcendental,
    opcode_info,
)
from repro.hlo.opcodes import OPCODE_INFO


class TestOpcodeMetadata:
    def test_every_opcode_has_info(self):
        for op in Opcode:
            assert opcode_info(op) is not None

    def test_num_opcodes_covers_ids(self):
        assert all(int(op) < NUM_OPCODES for op in Opcode)

    def test_opcode_ids_stable_and_unique(self):
        values = [int(op) for op in Opcode]
        assert len(values) == len(set(values))

    def test_contractions(self):
        assert is_contraction(Opcode.DOT)
        assert is_contraction(Opcode.CONVOLUTION)
        assert not is_contraction(Opcode.ADD)

    def test_elementwise(self):
        assert is_elementwise(Opcode.ADD)
        assert is_elementwise(Opcode.TANH)
        assert not is_elementwise(Opcode.RESHAPE)
        assert not is_elementwise(Opcode.REDUCE)

    def test_transcendental_ops_flagged(self):
        for op in (Opcode.EXP, Opcode.LOG, Opcode.TANH, Opcode.LOGISTIC):
            assert is_transcendental(op)
        for op in (Opcode.ADD, Opcode.MAXIMUM, Opcode.RESHAPE):
            assert not is_transcendental(op)

    def test_parameters_not_fusible(self):
        assert not opcode_info(Opcode.PARAMETER).fusible
        assert opcode_info(Opcode.ADD).fusible

    def test_arity_classes(self):
        assert opcode_info(Opcode.TANH).arity == 1
        assert opcode_info(Opcode.ADD).arity == 2
        assert opcode_info(Opcode.SELECT).arity == 3
        assert opcode_info(Opcode.CONCATENATE).arity == -1
        assert opcode_info(Opcode.PARAMETER).arity == 0

    def test_transcendentals_cost_more_flops(self):
        assert (
            opcode_info(Opcode.EXP).flops_per_element
            > opcode_info(Opcode.ADD).flops_per_element
        )

    def test_categories_consistent(self):
        assert opcode_info(Opcode.RESHAPE).category is OpCategory.DATA_MOVEMENT
        assert opcode_info(Opcode.REDUCE).category is OpCategory.REDUCTION
        assert opcode_info(Opcode.GATHER).category is OpCategory.SCATTER_GATHER
        assert set(OPCODE_INFO) == set(Opcode)

    def test_vocabulary_keeps_ops_no_builder_emits(self):
        # The opcode embedding has NUM_OPCODES rows, so a saved checkpoint's
        # shape depends on it: ops the builder no longer emits stay in the enum.
        for name in ("ABS", "SIGN", "LOG", "SQRT", "FLOOR", "SIN", "MINIMUM", "REVERSE", "COPY"):
            assert name in Opcode.__members__
        assert NUM_OPCODES == 121
