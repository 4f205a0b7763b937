"""Primitive tensor-operation opcodes and their static metadata.

This mirrors the XLA HLO instruction set at the granularity the paper uses:
a node in a computation graph is one primitive tensor operation, identified
by an integer-valued opcode (the first node feature fed to the model).

Each opcode carries metadata used by the compiler substrate and the static
analyses: arity class, whether it is elementwise, the number of floating
point operations per output element, and whether it executes on the special
transcendental functional unit (static performance feature #4 in the paper).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass


class OpCategory(enum.Enum):
    """Coarse functional grouping used by fusion heuristics and scheduling."""

    PARAMETER = "parameter"
    CONSTANT = "constant"
    ELEMENTWISE = "elementwise"
    DATA_MOVEMENT = "data_movement"
    REDUCTION = "reduction"
    CONTRACTION = "contraction"  # dot / convolution: runs on the MXU
    SCATTER_GATHER = "scatter_gather"


class Opcode(enum.IntEnum):
    """Integer opcode for every supported primitive operation.

    The integer values are stable; they are used directly as the categorical
    opcode feature of graph nodes (and embedded by the learned model).
    """

    PARAMETER = 0
    CONSTANT = 1
    IOTA = 2

    # Elementwise unary.
    NEGATE = 10
    ABS = 11
    SIGN = 12
    EXP = 13
    LOG = 14
    TANH = 15
    SQRT = 16
    RSQRT = 17
    LOGISTIC = 18
    FLOOR = 19
    CEIL = 20
    COS = 21
    SIN = 22
    NOT = 23
    CONVERT = 24

    # Elementwise binary.
    ADD = 30
    SUBTRACT = 31
    MULTIPLY = 32
    DIVIDE = 33
    MAXIMUM = 34
    MINIMUM = 35
    POWER = 36
    REMAINDER = 37
    COMPARE = 38
    AND = 39
    OR = 40

    # Elementwise ternary.
    SELECT = 50
    CLAMP = 51

    # Data movement / shaping.
    BROADCAST = 60
    RESHAPE = 61
    TRANSPOSE = 62
    SLICE = 63
    CONCATENATE = 64
    PAD = 65
    REVERSE = 66
    DYNAMIC_SLICE = 67
    DYNAMIC_UPDATE_SLICE = 68
    COPY = 69

    # Reductions and windows.
    REDUCE = 80
    REDUCE_WINDOW = 81
    ARGMAX = 82
    SOFTMAX_XENT = 83  # fused softmax-cross-entropy primitive (loss heads)

    # Contractions (MXU ops).
    DOT = 90
    CONVOLUTION = 91

    # Gather/scatter (embedding lookups etc.).
    GATHER = 100
    SCATTER = 101

    # Fusion wrapper: produced by the fusion pass, never by builders.
    FUSION = 120


@dataclass(frozen=True)
class OpcodeInfo:
    """Static metadata describing one opcode.

    Attributes:
        category: coarse functional grouping.
        arity: number of operands; ``-1`` means variadic.
        flops_per_element: floating point operations per *output* element
            (contractions compute FLOPs from their own attributes instead).
        transcendental: whether the op occupies the special function unit.
        fusible: whether the fusion pass may place this op inside a kernel.
    """

    category: OpCategory
    arity: int
    flops_per_element: float = 0.0
    transcendental: bool = False
    fusible: bool = True


_E = OpCategory.ELEMENTWISE
_D = OpCategory.DATA_MOVEMENT
_R = OpCategory.REDUCTION
_C = OpCategory.CONTRACTION

OPCODE_INFO: dict[Opcode, OpcodeInfo] = {
    Opcode.PARAMETER: OpcodeInfo(OpCategory.PARAMETER, 0, fusible=False),
    Opcode.CONSTANT: OpcodeInfo(OpCategory.CONSTANT, 0),
    Opcode.IOTA: OpcodeInfo(OpCategory.CONSTANT, 0),
    Opcode.NEGATE: OpcodeInfo(_E, 1, 1.0),
    Opcode.ABS: OpcodeInfo(_E, 1, 1.0),
    Opcode.SIGN: OpcodeInfo(_E, 1, 1.0),
    Opcode.EXP: OpcodeInfo(_E, 1, 8.0, transcendental=True),
    Opcode.LOG: OpcodeInfo(_E, 1, 8.0, transcendental=True),
    Opcode.TANH: OpcodeInfo(_E, 1, 12.0, transcendental=True),
    Opcode.SQRT: OpcodeInfo(_E, 1, 6.0, transcendental=True),
    Opcode.RSQRT: OpcodeInfo(_E, 1, 6.0, transcendental=True),
    Opcode.LOGISTIC: OpcodeInfo(_E, 1, 10.0, transcendental=True),
    Opcode.FLOOR: OpcodeInfo(_E, 1, 1.0),
    Opcode.CEIL: OpcodeInfo(_E, 1, 1.0),
    Opcode.COS: OpcodeInfo(_E, 1, 10.0, transcendental=True),
    Opcode.SIN: OpcodeInfo(_E, 1, 10.0, transcendental=True),
    Opcode.NOT: OpcodeInfo(_E, 1, 1.0),
    Opcode.CONVERT: OpcodeInfo(_E, 1, 1.0),
    Opcode.ADD: OpcodeInfo(_E, 2, 1.0),
    Opcode.SUBTRACT: OpcodeInfo(_E, 2, 1.0),
    Opcode.MULTIPLY: OpcodeInfo(_E, 2, 1.0),
    Opcode.DIVIDE: OpcodeInfo(_E, 2, 4.0, transcendental=True),
    Opcode.MAXIMUM: OpcodeInfo(_E, 2, 1.0),
    Opcode.MINIMUM: OpcodeInfo(_E, 2, 1.0),
    Opcode.POWER: OpcodeInfo(_E, 2, 12.0, transcendental=True),
    Opcode.REMAINDER: OpcodeInfo(_E, 2, 4.0),
    Opcode.COMPARE: OpcodeInfo(_E, 2, 1.0),
    Opcode.AND: OpcodeInfo(_E, 2, 1.0),
    Opcode.OR: OpcodeInfo(_E, 2, 1.0),
    Opcode.SELECT: OpcodeInfo(_E, 3, 1.0),
    Opcode.CLAMP: OpcodeInfo(_E, 3, 2.0),
    Opcode.BROADCAST: OpcodeInfo(_D, 1),
    Opcode.RESHAPE: OpcodeInfo(_D, 1),
    Opcode.TRANSPOSE: OpcodeInfo(_D, 1),
    Opcode.SLICE: OpcodeInfo(_D, 1),
    Opcode.CONCATENATE: OpcodeInfo(_D, -1),
    Opcode.PAD: OpcodeInfo(_D, 2),
    Opcode.REVERSE: OpcodeInfo(_D, 1),
    Opcode.DYNAMIC_SLICE: OpcodeInfo(_D, 2),
    Opcode.DYNAMIC_UPDATE_SLICE: OpcodeInfo(_D, 3),
    Opcode.COPY: OpcodeInfo(_D, 1),
    Opcode.REDUCE: OpcodeInfo(_R, 1, 1.0),
    Opcode.REDUCE_WINDOW: OpcodeInfo(_R, 1, 1.0),
    Opcode.ARGMAX: OpcodeInfo(_R, 1, 1.0),
    Opcode.SOFTMAX_XENT: OpcodeInfo(_R, 2, 10.0, transcendental=True),
    Opcode.DOT: OpcodeInfo(_C, 2),
    Opcode.CONVOLUTION: OpcodeInfo(_C, 2),
    Opcode.GATHER: OpcodeInfo(OpCategory.SCATTER_GATHER, 2),
    Opcode.SCATTER: OpcodeInfo(OpCategory.SCATTER_GATHER, 3),
    Opcode.FUSION: OpcodeInfo(_E, -1, fusible=False),
}


def opcode_info(opcode: Opcode) -> OpcodeInfo:
    """Return static metadata for ``opcode``.

    Raises:
        KeyError: if the opcode has no registered metadata (should not happen
            for opcodes constructed through :class:`Opcode`).
    """
    return OPCODE_INFO[opcode]


def is_elementwise(opcode: Opcode) -> bool:
    """True if the op maps each output element from aligned input elements."""
    return OPCODE_INFO[opcode].category is OpCategory.ELEMENTWISE


def is_contraction(opcode: Opcode) -> bool:
    """True for MXU ops (dot / convolution)."""
    return OPCODE_INFO[opcode].category is OpCategory.CONTRACTION


def is_transcendental(opcode: Opcode) -> bool:
    """True if the op executes on the special (transcendental) function unit."""
    return OPCODE_INFO[opcode].transcendental


NUM_OPCODES: int = max(int(op) for op in Opcode) + 1
"""Size of the opcode id space (used to dimension opcode embedding tables)."""
