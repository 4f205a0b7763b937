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
from ..nn.tensor import Tensor
from . import inference
from .config import ModelConfig

#: Feedforward layers between the GNN and the reduction (the "node final
#: layers" of Fig. 3).
NODE_FINAL_LAYERS = 2


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
        if config.task == "tile" and config.tile_placement == "node":
            node_in += TILE_FEATURE_DIM
        if config.use_static_features and config.static_placement == "node":
            node_in += STATIC_FEATURE_DIM
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

        kernel_extra = 0
        if config.task == "tile" and config.tile_placement == "kernel":
            kernel_extra += TILE_FEATURE_DIM
        if config.use_static_features and config.static_placement == "kernel":
            kernel_extra += STATIC_FEATURE_DIM
        self._kernel_extra = kernel_extra

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

    # ---------------------------------------------------------------- pieces
    def _node_inputs(self, batch: GraphBatch) -> Tensor:
        """Assemble per-node input vectors (option-1 kernel features repeat
        across every node of their kernel)."""
        cfg = self.config
        parts = [
            self.opcode_embedding(batch.opcodes),
            Tensor(batch.node_feats),
        ]
        gids = batch.context.graph_ids
        if cfg.task == "tile" and cfg.tile_placement == "node":
            parts.append(Tensor(batch.tile_feats[gids]))
        if cfg.use_static_features and cfg.static_placement == "node":
            parts.append(Tensor(batch.static_feats[gids]))
        return Tensor.concat(parts, axis=-1)

    def _kernel_extras(self, batch: GraphBatch) -> Tensor | None:
        """Kernel-embedding-level feature block (option 2), if configured."""
        cfg = self.config
        parts = []
        if cfg.task == "tile" and cfg.tile_placement == "kernel":
            parts.append(Tensor(batch.tile_feats))
        if cfg.use_static_features and cfg.static_placement == "kernel":
            parts.append(Tensor(batch.static_feats))
        if not parts:
            return None
        return Tensor.concat(parts, axis=-1)

    def _run_gnn(self, x: Tensor, batch: GraphBatch) -> Tensor:
        cfg = self.config
        ctx = batch.context
        for layer in self.gnn_layers:
            if cfg.gnn == "graphsage":
                if cfg.directed:
                    x = layer(x, ctx.adj_in, ctx.adj_out)
                else:
                    x = layer(x, ctx.adj_sym, ctx.adj_sym)
            else:  # gat
                x = layer(x, ctx.edges, ctx.num_nodes)
        return x

    def _padded_view(self, nodes: Tensor, batch: GraphBatch) -> Tensor:
        """Gather node embeddings into [batch, max_nodes, h] (topological
        order within each kernel, as the paper's sequence reductions use)."""
        b, t = batch.pad_index.shape
        flat = nodes.take_rows(batch.pad_index.reshape(-1))
        return flat.reshape(b, t, nodes.shape[-1])

    # --------------------------------------------------------------- forward
    def forward(self, batch: GraphBatch) -> Tensor:
        """Predict one scalar per kernel in the batch: [batch]."""
        cfg = self.config
        x = self.input_proj(self._node_inputs(batch))
        x = self._run_gnn(x, batch)
        x = self.node_final(x)

        extras = self._kernel_extras(batch)
        gids = batch.context.graph_ids
        nb = batch.context.num_graphs

        if cfg.reduction == "per-node":
            per_node = self.node_head(x)  # [n, 1]
            pred = segment_sum(per_node, gids, nb).reshape(nb)
            if extras is not None and self.kernel_correction is not None:
                pred = pred + self.kernel_correction(extras).reshape(nb)
            return pred

        if cfg.reduction == "column-wise":
            counts = np.bincount(gids, minlength=nb).astype(np.float32)
            mean = segment_sum(x, gids, nb) * Tensor(1.0 / counts[:, None])
            padded = self._padded_view(x, batch)
            neg_inf = np.where(batch.pad_mask[:, :, None], 0.0, -1e30).astype(np.float32)
            mx = (padded + Tensor(neg_inf)).max(axis=1)
            kernel_emb = Tensor.concat([mean, mx], axis=-1)
        elif cfg.reduction == "lstm":
            padded = self._padded_view(x, batch)
            kernel_emb = self.lstm(padded, batch.pad_mask)
        else:  # transformer
            padded = self._padded_view(x, batch)
            kernel_emb = self.encoder(padded, batch.pad_mask)

        if extras is not None:
            kernel_emb = Tensor.concat([kernel_emb, extras], axis=-1)
        return self.head(kernel_emb).reshape(nb)

    # ------------------------------------------------------------- inference
    def predict(self, batch: GraphBatch) -> np.ndarray:
        """Raw scores: :meth:`forward` under ``no_grad()``, bitwise,
        computed tape-free on plain arrays.

        Runs :func:`repro.models.inference.forward`; it builds no
        :class:`Tensor` and writes nothing on the module, so it is safe
        beside a training thread on the same module. Parameters are read at
        call time: optimizer steps and ``load_state_dict`` show in the next
        call.
        """
        return inference.forward(self, batch)

    def predict_runtimes(self, batch: GraphBatch) -> np.ndarray:
        """Absolute runtimes in seconds (fusion task: exp of log output)."""
        scores = self.predict(batch)
        return np.exp(scores.astype(np.float64))
