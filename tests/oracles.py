"""Reference implementations the tests hold shipped code to.

Nothing shipped calls these; each is the straightforward form of
something the library does another way, kept beside its tests as the
oracle it is:

* the elementwise and shape ops of the composite-tape references
  (:func:`tanh`, :func:`sigmoid`, ...), each one tape node built with
  ``Tensor._make`` exactly as a ``Tensor`` method would be;
* :func:`lstm_cell`, the one-step LSTM that ``nn.rnn.lstm_final_state``
  fuses over a whole padded batch;
* :func:`subgraph` and :func:`clone` over ``Graph``;
* :func:`tile_footprint_bytes` for one tile, and :func:`node_features`
  for one instruction, whose batched forms the library runs;
* :func:`service_batcher`, the micro-batcher a ``CostModelService``
  builds from its ``ServiceConfig``, without the model a service needs.

Test modules import it by name (``from oracles import ...``): pytest puts
this directory on ``sys.path`` for the test files in it.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.compiler import Kernel, TileConfig
from repro.compiler.tiling import _FootprintTerms
from repro.data.features import node_feature_matrix
from repro.hlo import Graph, Instruction
from repro.nn import Tensor
from repro.nn.rnn import LSTMCell
from repro.nn.tensor import sigmoid_array

# ---------------------------------------------------------------------- #
# tape ops
# ---------------------------------------------------------------------- #


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return x._make(out, (x,), lambda g: (g * (1.0 - out * out),))


def sigmoid(x: Tensor) -> Tensor:
    out = sigmoid_array(x.data)
    return x._make(out, (x,), lambda g: (g * out * (1.0 - out),))


def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.data)
    return x._make(out, (x,), lambda g: (g * 0.5 / out,))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    mask = (x.data >= lo) & (x.data <= hi)
    return x._make(np.clip(x.data, lo, hi), (x,), lambda g: (g * mask,))


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor._lift(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray):
        slices = np.moveaxis(g, axis, 0)
        return tuple(slices[i] for i in range(len(tensors)))

    return tensors[0]._make(out, tuple(tensors), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    soft = np.exp(out)
    return x._make(
        out, (x,), lambda g: (g - soft * g.sum(axis=axis, keepdims=True),)
    )


def zeros(shape: tuple[int, ...], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def ones(shape: tuple[int, ...], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)


def lstm_cell(cell: LSTMCell, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step on the tape over ``cell``'s fused gate projection:
    input, forget (bias 1), cell and output gates."""
    z = cell.gates(Tensor.concat([x, h], axis=-1))
    hd = cell.hidden_dim
    i = sigmoid(z[:, 0 * hd : 1 * hd])
    f = sigmoid(z[:, 1 * hd : 2 * hd] + 1.0)  # forget-gate bias of 1
    g = tanh(z[:, 2 * hd : 3 * hd])
    o = sigmoid(z[:, 3 * hd : 4 * hd])
    c_next = f * c + i * g
    h_next = o * tanh(c_next)
    return h_next, c_next


# ---------------------------------------------------------------------- #
# graphs, tiles, features
# ---------------------------------------------------------------------- #


def subgraph(graph: Graph, ids: Iterable[int], name: str | None = None) -> Graph:
    """The induced subgraph over ``ids``: ``Graph.induced_subgraph`` with
    the graph-wide views computed for this one cut."""
    ids = set(ids)
    members = [inst for inst in graph.topological_order() if inst.id in ids]
    return graph.induced_subgraph(members, ids, graph.users(), name)


def clone(graph: Graph, name: str | None = None) -> Graph:
    """A copy whose instructions are re-created (attrs copied)."""
    g = Graph(name or graph.name)
    for inst in graph.topological_order():
        g.add(
            Instruction(
                id=inst.id,
                opcode=inst.opcode,
                shape=inst.shape,
                operands=inst.operands,
                attrs=dict(inst.attrs),
                name=inst.name,
                is_root=inst.is_root,
            )
        )
    return g


def tile_footprint_bytes(kernel: Kernel, tile: TileConfig) -> int:
    """Scratchpad bytes one iteration of ``tile`` keeps live: the output
    tile plus, per kernel input, the slice one output tile needs."""
    return _FootprintTerms.of(kernel).bytes(tile.dims)


def node_features(inst: Instruction) -> np.ndarray:
    """The scalar feature vector of one instruction."""
    return node_feature_matrix([inst])[0]


def service_batcher(**settings):
    """The ``MicroBatcher`` of a service built with ``ServiceConfig(**settings)``
    (the batcher has no default settings of its own)."""
    from repro.serving import MicroBatcher, ServiceConfig

    config = ServiceConfig(**settings)
    return MicroBatcher(
        max_batch_size=config.max_batch_size,
        flush_interval_s=config.flush_interval_s,
        adaptive_flush=config.adaptive_flush,
        max_pending=config.max_pending,
    )
