"""Tensor-program intermediate representation (XLA HLO analogue).

Public surface: opcodes and their metadata, shapes/dtypes/layouts,
instructions, graphs/programs, the :class:`GraphBuilder` construction API,
and JSON serialization.
"""
from .builder import GraphBuilder
from .graph import Graph, GraphError, Program
from .instruction import Instruction
from .opcodes import (
    NUM_OPCODES,
    OpCategory,
    Opcode,
    OpcodeInfo,
    is_contraction,
    is_elementwise,
    is_transcendental,
    opcode_info,
)
from .serialize import graph_from_dict, graph_to_dict
from .shapes import DType, Layout, Shape, scalar

__all__ = [
    "NUM_OPCODES",
    "DType",
    "Graph",
    "GraphBuilder",
    "GraphError",
    "Instruction",
    "Layout",
    "OpCategory",
    "Opcode",
    "OpcodeInfo",
    "Program",
    "Shape",
    "graph_from_dict",
    "graph_to_dict",
    "is_contraction",
    "is_elementwise",
    "is_transcendental",
    "opcode_info",
    "scalar",
]
