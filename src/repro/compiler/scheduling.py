"""Critical-path list scheduling over kernel bodies.

The TPU backend distributes operations across functional units (MXU, vector
unit, transcendental unit, permute/memory unit) under VLIW issue constraints
and data dependencies; the achieved schedule length — not the raw op count —
determines compute time (paper Appendix A). This module implements a
resource-constrained list scheduler used by the ground-truth simulator, and
a plain critical-path (infinite-resource) bound used by the analytical
model's compute estimate.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from ..hlo.graph import Graph
from ..hlo.instruction import Instruction
from ..hlo.opcodes import OpCategory, Opcode, opcode_info


#: Functional units an instruction can issue to.
UNITS = ("mxu", "vpu", "trans", "perm")

#: Elements a vector op processes per cycle (the VPU lane count).
VECTOR_LANES = 128.0


def functional_unit(inst: Instruction) -> str:
    """The functional unit an instruction executes on."""
    info = opcode_info(inst.opcode)
    if info.category is OpCategory.CONTRACTION:
        return "mxu"
    if info.transcendental:
        return "trans"
    if info.category in (OpCategory.DATA_MOVEMENT, OpCategory.SCATTER_GATHER):
        return "perm"
    return "vpu"


def instruction_cycles(inst: Instruction) -> float:
    """Issue cycles one instruction occupies on its unit (per full tensor).

    Vector ops process :data:`VECTOR_LANES` elements per cycle; MXU ops are
    charged by their FLOP count against a 128x128 systolic array; leaf nodes
    are free (they are materialized by the memory system, priced separately).
    """
    if inst.opcode in (Opcode.PARAMETER, Opcode.CONSTANT):
        return 0.0
    info = opcode_info(inst.opcode)
    n = inst.shape.num_elements
    if info.category is OpCategory.CONTRACTION:
        flops = float(inst.attr("flops", 2.0 * n))
        return flops / (2.0 * 128.0 * 128.0)
    if info.category is OpCategory.DATA_MOVEMENT:
        return n / (2.0 * VECTOR_LANES)
    weight = max(info.flops_per_element, 1.0)
    return weight * n / VECTOR_LANES


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling one kernel body.

    Attributes:
        length_cycles: makespan of the resource-constrained schedule.
        critical_path_cycles: dependence-only lower bound.
        unit_busy_cycles: total busy cycles per functional unit.
        issue_stall_cycles: extra cycles the schedule spends beyond the
            max(critical path, busiest unit) lower bound — a proxy for
            issue stalls caused by op-mix imbalance.
    """

    length_cycles: float
    critical_path_cycles: float
    unit_busy_cycles: dict[str, float]
    issue_stall_cycles: float


def critical_path(graph: Graph) -> float:
    """Dependence-constrained lower bound on schedule length (cycles)."""
    longest: dict[int, float] = {}
    for inst in graph.topological_order():
        cost = instruction_cycles(inst)
        start = max((longest[o] for o in inst.operands), default=0.0)
        longest[inst.id] = start + cost
    return max(longest.values(), default=0.0)


def list_schedule(graph: Graph) -> ScheduleResult:
    """Greedy critical-path-priority list scheduling with unit contention.

    Each functional unit executes one instruction at a time; ready
    instructions are prioritized by their remaining critical path. The
    schedule covers the whole tensor; its length scales linearly with the
    tile fraction, which callers apply to the result.
    """
    order = graph.topological_order()
    cycles = {inst.id: instruction_cycles(inst) for inst in order}

    # Remaining critical path (to any sink) for priorities.
    users = graph.users()
    remaining: dict[int, float] = {}
    for inst in reversed(order):
        tail = max((remaining[u] for u in users[inst.id]), default=0.0)
        remaining[inst.id] = cycles[inst.id] + tail

    indegree = {inst.id: len(inst.operands) for inst in order}
    ready_time = {inst.id: 0.0 for inst in order}
    heap: list[tuple[float, int]] = []
    for inst in order:
        if indegree[inst.id] == 0:
            heappush(heap, (-remaining[inst.id], inst.id))

    unit_free = {u: 0.0 for u in UNITS}
    unit_busy = {u: 0.0 for u in UNITS}
    finish: dict[int, float] = {}
    makespan = 0.0
    while heap:
        _, nid = heappop(heap)
        inst = graph.get(nid)
        unit = functional_unit(inst)
        start = max(ready_time[nid], unit_free[unit])
        end = start + cycles[nid]
        finish[nid] = end
        unit_free[unit] = end
        unit_busy[unit] += cycles[nid]
        makespan = max(makespan, end)
        for u in users[nid]:
            indegree[u] -= 1
            ready_time[u] = max(ready_time[u], end)
            if indegree[u] == 0:
                heappush(heap, (-remaining[u], u))

    cp = max(remaining.values(), default=0.0)
    lower = max(cp, max(unit_busy.values(), default=0.0))
    return ScheduleResult(
        length_cycles=makespan,
        critical_path_cycles=cp,
        unit_busy_cycles=unit_busy,
        issue_stall_cycles=max(0.0, makespan - lower),
    )


def live_tensor_peak(graph: Graph) -> int:
    """Peak number of simultaneously-live tensors under topological order.

    A cheap stand-in for register/scratchpad pressure: walking the schedule
    in topological order, a value becomes live when produced and dies after
    its last user. The peak live count drives the simulator's spill model.
    """
    order = graph.topological_order()
    last_use: dict[int, int] = {}
    for pos, inst in enumerate(order):
        for op in inst.operands:
            last_use[op] = pos
    live = 0
    peak = 0
    for pos, inst in enumerate(order):
        if inst.opcode not in (Opcode.PARAMETER, Opcode.CONSTANT):
            live += 1
        peak = max(peak, live)
        for op, last in list(last_use.items()):
            if last == pos:
                if graph.get(op).opcode not in (Opcode.PARAMETER, Opcode.CONSTANT):
                    live -= 1
                del last_use[op]
    return peak
