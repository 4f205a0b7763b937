"""Static performance analyses over kernels.

These produce the four optional "static performance features" of the paper
(Sec. 3.1): floating point operations, bytes read, bytes written, and the
number of instructions executing on the special (transcendental) functional
unit. As in XLA, they are *estimates*: they are computed on the graph before
code generation and do not see the backend's actual instruction stream.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..hlo.graph import Graph
from ..hlo.instruction import Instruction
from ..hlo.opcodes import OpCategory, Opcode, opcode_info


@dataclass(frozen=True)
class StaticAnalysis:
    """The four whole-kernel static performance features.

    Attributes:
        flops: estimated floating point operations executed by the kernel.
        bytes_read: bytes loaded from HBM (kernel parameter tensors).
        bytes_written: bytes stored to HBM (kernel output tensors).
        transcendental_count: instructions issued to the special function
            unit, weighted by output element count.
    """

    flops: float
    bytes_read: float
    bytes_written: float
    transcendental_count: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Feature vector ordering used by the dataset pipeline."""
        return (self.flops, self.bytes_read, self.bytes_written, self.transcendental_count)


def instruction_flops(inst: Instruction) -> float:
    """Estimated floating point operations performed by one instruction."""
    info = opcode_info(inst.opcode)
    if info.category is OpCategory.CONTRACTION:
        return float(inst.attr("flops", 0.0))
    if inst.opcode is Opcode.REDUCE:
        # One combine op per input element (approximately).
        out = inst.shape.num_elements
        factor = 1
        # Input elements = output elements * product of reduced extents; the
        # reduced extents are not recoverable from the output shape alone, so
        # record them when available via the producer in graph-level analysis.
        return float(out * factor)
    if inst.opcode is Opcode.REDUCE_WINDOW:
        window = inst.attr("window", ())
        per_out = 1
        for w in window:
            per_out *= w
        return float(inst.shape.num_elements * per_out)
    return float(inst.shape.num_elements * info.flops_per_element)


def _reduce_flops(graph: Graph, inst: Instruction) -> float:
    """REDUCE flops using the producer's shape (input element count)."""
    if not inst.operands:
        return 0.0
    producer = graph.get(inst.operands[0])
    return float(producer.shape.num_elements)


def analyze(graph: Graph) -> StaticAnalysis:
    """Run all four static analyses over a kernel graph.

    Bytes read are the sizes of PARAMETER tensors (data copied from HBM into
    scratchpad); bytes written are the sizes of root outputs (copied back).
    Constants are assumed resident (weights are streamed like parameters in
    real TPUs, but XLA's analysis treats them as reads too — we follow that
    and count constants of more than 1024 elements as reads).
    """
    flops = 0.0
    bytes_read = 0.0
    bytes_written = 0.0
    transcendental = 0.0
    for inst in graph.instructions.values():
        info = opcode_info(inst.opcode)
        if inst.opcode is Opcode.PARAMETER:
            bytes_read += inst.shape.byte_size
        elif inst.opcode is Opcode.CONSTANT and inst.shape.num_elements > 1024:
            bytes_read += inst.shape.byte_size
        if inst.is_root:
            bytes_written += inst.shape.byte_size
        if inst.opcode is Opcode.REDUCE:
            flops += _reduce_flops(graph, inst)
        else:
            flops += instruction_flops(inst)
        if info.transcendental:
            transcendental += inst.shape.num_elements
    return StaticAnalysis(flops, bytes_read, bytes_written, transcendental)


def operational_intensity(analysis: StaticAnalysis) -> float:
    """FLOPs per byte moved — the roofline x-axis for a kernel."""
    traffic = analysis.bytes_read + analysis.bytes_written
    if traffic <= 0:
        return 0.0
    return analysis.flops / traffic
