"""The learned performance model (paper Fig. 3).

Pipeline: opcode embedding ⊕ node features (⊕ kernel features under
'option 1') → feedforward → GNN (GraphSAGE / GAT / none) → node final
layers → reduction to a kernel embedding (per-node / column-wise / LSTM /
Transformer) (⊕ kernel features under 'option 2') → linear head → scalar.

For the tile task the scalar is a *rank score* (higher = slower); for the
fusion task it is the predicted log-runtime (seconds), exposed in linear
units via :meth:`LearnedPerformanceModel.predict_runtimes`.
"""
from __future__ import annotations

import numpy as np

from ..data.batching import GraphBatch
from ..data.features import NODE_FEATURE_DIM, STATIC_FEATURE_DIM, TILE_FEATURE_DIM
from ..hlo.opcodes import NUM_OPCODES
from ..nn.attention import TransformerEncoder
from ..nn.graph_layers import GATLayer, GraphSAGELayer
from ..nn.layers import Dense, Embedding, MLP, Module
from ..nn.rnn import LSTM
from ..nn.sparse import segment_sum
from ..nn.tensor import Tensor, array_run, concat, take_rows
from .config import ModelConfig

#: Feedforward layers between the GNN and the reduction (the "node final
#: layers" of Fig. 3).
NODE_FINAL_LAYERS = 2

#: Width of each feature block :meth:`ModelConfig.feature_blocks` names.
_BLOCK_DIMS = {"tile_feats": TILE_FEATURE_DIM, "static_feats": STATIC_FEATURE_DIM}


class LearnedPerformanceModel(Module):
    """GNN-based kernel cost model.

    Args:
        config: architecture configuration.
        seed: parameter-initialization seed.
    """

    def __init__(self, config: ModelConfig, seed: int = 0) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        h = config.hidden_dim

        self.opcode_embedding = Embedding(NUM_OPCODES, config.opcode_embedding_dim, rng=rng)

        node_in = config.opcode_embedding_dim + NODE_FEATURE_DIM
        node_in += sum(_BLOCK_DIMS[name] for name in config.feature_blocks("node"))
        self.input_proj = Dense(node_in, h, activation="relu", rng=rng)

        if config.gnn == "graphsage":
            self.gnn_layers = [
                GraphSAGELayer(h, h, directed=config.directed, rng=rng)
                for _ in range(config.gnn_layers)
            ]
        elif config.gnn == "gat":
            self.gnn_layers = [GATLayer(h, h, rng=rng) for _ in range(config.gnn_layers)]
        else:
            self.gnn_layers = []

        self.node_final = MLP([h] * (NODE_FINAL_LAYERS + 1), final_activation="relu", rng=rng)

        kernel_extra = sum(_BLOCK_DIMS[name] for name in config.feature_blocks("kernel"))
        if config.reduction == "per-node":
            self.node_head = Dense(h, 1, rng=rng)
            self.kernel_correction = (
                Dense(kernel_extra, 1, rng=rng) if kernel_extra else None
            )
        else:
            if config.reduction == "column-wise":
                emb_dim = 2 * h  # concat of column-wise mean and max (App. B)
            elif config.reduction == "lstm":
                self.lstm = LSTM(h, config.lstm_hidden, rng=rng)
                emb_dim = config.lstm_hidden
            elif config.reduction == "transformer":
                self.encoder = TransformerEncoder(h, rng=rng)
                emb_dim = h
            else:  # pragma: no cover - guarded by ModelConfig
                raise AssertionError(config.reduction)
            self.head = Dense(emb_dim + kernel_extra, 1, rng=rng)

    def _gnn_operands(self, batch: GraphBatch) -> tuple:
        """What each GNN hop takes after the node embeddings. Read only when
        there is a hop: a composed context stacks an operator on first read."""
        ctx = batch.context
        if not self.gnn_layers:
            return ()
        if self.config.gnn == "gat":
            return ctx.edges, ctx.num_nodes
        if self.config.directed:
            return ctx.adj_in, ctx.adj_out
        return ctx.adj_sym, ctx.adj_sym

    # --------------------------------------------------------------- forward
    def forward(self, batch: GraphBatch) -> Tensor:
        """Predict one scalar per kernel in the batch: [batch], a
        :class:`Tensor` on the tape, a plain array under
        :func:`~repro.nn.tensor.array_run`. On the tape each batch constant
        enters through :func:`~repro.nn.tensor.concat` or Tensor arithmetic,
        which lift it to a constant Tensor."""
        cfg = self.config
        gids = batch.context.graph_ids
        nb = batch.context.num_graphs
        # Option-1 kernel features repeat across every node of their kernel.
        parts = [self.opcode_embedding(batch.opcodes), batch.node_feats]
        parts += [getattr(batch, name)[gids] for name in cfg.feature_blocks("node")]
        x = self.input_proj(concat(parts, axis=-1))
        operands = self._gnn_operands(batch)
        for layer in self.gnn_layers:
            x = layer(x, *operands)
        x = self.node_final(x)

        extras = [getattr(batch, name) for name in cfg.feature_blocks("kernel")]
        extras = concat(extras, axis=-1) if extras else None

        if cfg.reduction == "per-node":
            pred = segment_sum(self.node_head(x), gids, nb).reshape(nb)
            if extras is not None:
                pred = pred + self.kernel_correction(extras).reshape(nb)
            return pred

        # The sequence reductions read the node embeddings as [batch,
        # max_nodes, h], topologically ordered within each kernel (pad rows
        # repeat node 0; every consumer masks them).
        b, t = batch.pad_index.shape
        padded = take_rows(x, batch.pad_index.reshape(-1)).reshape(b, t, x.shape[-1])
        if cfg.reduction == "column-wise":
            counts = np.bincount(gids, minlength=nb).astype(np.float32)
            mean = segment_sum(x, gids, nb) * (1.0 / counts[:, None])
            neg_inf = np.where(batch.pad_mask[:, :, None], 0.0, -1e30).astype(np.float32)
            kernel_emb = concat([mean, (padded + neg_inf).max(axis=1)], axis=-1)
        elif cfg.reduction == "lstm":
            kernel_emb = self.lstm(padded, batch.pad_mask)
        else:  # transformer
            kernel_emb = self.encoder(padded, batch.pad_mask)

        if extras is not None:
            kernel_emb = concat([kernel_emb, extras], axis=-1)
        return self.head(kernel_emb).reshape(nb)

    def predict(self, batch: GraphBatch) -> np.ndarray:
        """Raw scores: :meth:`forward` under ``no_grad()``, bitwise, as a
        fresh float32 [batch] array computed on plain arrays.

        It is :meth:`forward` under :func:`~repro.nn.tensor.array_run`, so
        each layer runs the array ops its tape ops compute, on the same
        shapes in the same order, and no :class:`Tensor` or backward
        closure is built. Nothing on the module is written, so it is safe
        beside a training thread on the same module; parameters are read at
        call time, so optimizer steps and ``load_state_dict`` show in the
        next call.
        """
        with array_run():
            return self.forward(batch)

    def predict_runtimes(self, batch: GraphBatch) -> np.ndarray:
        """Absolute runtimes in seconds (fusion task: exp of log output)."""
        scores = self.predict(batch)
        return np.exp(scores.astype(np.float64))
