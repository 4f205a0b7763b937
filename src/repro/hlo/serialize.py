"""JSON-safe (de)serialization for graphs.

The wire format is intentionally simple: a graph is a list of instruction
records in topological order. Attribute values survive a JSON round-trip as
lists, so tuples are normalized back on load.
"""
from __future__ import annotations

from typing import Any

from .graph import Graph
from .instruction import Instruction
from .opcodes import Opcode
from .shapes import DType, Layout, Shape


def _shape_to_dict(shape: Shape) -> dict[str, Any]:
    return {
        "dims": list(shape.dims),
        "dtype": shape.dtype.value,
        "layout": list(shape.layout.minor_to_major),
    }


def _shape_from_dict(d: dict[str, Any]) -> Shape:
    return Shape(
        tuple(d["dims"]),
        DType(d["dtype"]),
        Layout(tuple(d["layout"])),
    )


def _normalize_attrs(attrs: dict[str, Any]) -> dict[str, Any]:
    """Convert JSON lists back to tuples (our canonical attr container)."""
    out: dict[str, Any] = {}
    for k, v in attrs.items():
        out[k] = tuple(v) if isinstance(v, list) else v
    return out


def graph_to_dict(graph: Graph) -> dict[str, Any]:
    """Serialize a graph to a JSON-compatible dict."""
    return {
        "name": graph.name,
        "instructions": [
            {
                "id": inst.id,
                "opcode": int(inst.opcode),
                "shape": _shape_to_dict(inst.shape),
                "operands": list(inst.operands),
                "attrs": {
                    k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in inst.attrs.items()
                },
                "name": inst.name,
                "is_root": inst.is_root,
            }
            for inst in graph.topological_order()
        ],
    }


def graph_from_dict(d: dict[str, Any]) -> Graph:
    """Deserialize a graph produced by :func:`graph_to_dict`."""
    g = Graph(d["name"])
    for rec in d["instructions"]:
        g.add(
            Instruction(
                id=rec["id"],
                opcode=Opcode(rec["opcode"]),
                shape=_shape_from_dict(rec["shape"]),
                operands=tuple(rec["operands"]),
                attrs=_normalize_attrs(rec["attrs"]),
                name=rec["name"],
                is_root=rec["is_root"],
            )
        )
    g.validate()
    return g

