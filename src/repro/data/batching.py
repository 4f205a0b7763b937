"""Batch assembly and balanced sampling.

A :class:`GraphBatch` stacks several kernels into one model input: node
features are concatenated into a single matrix, adjacencies become one
block-diagonal sparse operator, and per-kernel features/targets are aligned
by graph index. Tile features and static performance features are kept as
separate blocks — *where* they enter the network (node level vs. kernel
embedding, present vs. absent) is a model configuration, not a dataset
property (paper Fig. 3 options 1/2 and the Table 3 ablations).

Sequence reductions (LSTM/Transformer) additionally need a padded
[batch, max_nodes] view, which the batch precomputes.

Sampling is *balanced by model family* — the paper draws examples evenly
from each model type during training to counter the corpus imbalance.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..nn.graph_layers import BatchedGraphContext, GraphOperators
from .dataset import FusionRecord, TileRecord
from .features import (
    FeatureScaler,
    KernelFeatures,
    TILE_FEATURE_DIM,
)

#: One raw batch item: (features, tile_vector_or_None, target_seconds, group_id).
BatchItem = tuple[KernelFeatures, "np.ndarray | None", float, int]


@dataclass
class GraphBatch:
    """One training/evaluation batch of kernels.

    Attributes:
        context: sparse structural operators (GNN aggregation, edge list).
        opcodes: [total_nodes] opcode ids.
        node_feats: [total_nodes, F] scaled node features.
        tile_feats: [batch, TILE_FEATURE_DIM] scaled tile features (all
            zeros when items carried no tile, e.g. the fusion task).
        static_feats: [batch, STATIC_FEATURE_DIM] scaled static features.
        targets: [batch] true runtimes in seconds.
        group_ids: [batch] ranking-group id (kernel identity) for the
            pairwise rank loss.
        pad_index: [batch, max_nodes] indices into the node axis for padded
            sequence views (entries beyond a graph's size point at node 0).
        pad_mask: [batch, max_nodes] validity mask for ``pad_index``.
    """

    context: BatchedGraphContext
    opcodes: np.ndarray
    node_feats: np.ndarray
    tile_feats: np.ndarray
    static_feats: np.ndarray
    targets: np.ndarray
    group_ids: np.ndarray
    pad_index: np.ndarray
    pad_mask: np.ndarray

    @property
    def size(self) -> int:
        return len(self.targets)


@dataclass
class Scalers:
    """Train-set feature scalers for the three feature blocks."""

    node: FeatureScaler
    tile: FeatureScaler
    static: FeatureScaler

    @staticmethod
    def fit_tile(records: list[TileRecord]) -> "Scalers":
        """Fit all scalers from tile-task training records."""
        node_rows = np.concatenate([r.features.node_feats for r in records], axis=0)
        tile_rows = np.concatenate([r.tile_feats for r in records], axis=0)
        static_rows = np.stack([r.features.static_feats for r in records])
        return Scalers(
            node=FeatureScaler().fit(node_rows),
            tile=FeatureScaler().fit(tile_rows),
            static=FeatureScaler().fit(static_rows),
        )

    @staticmethod
    def fit_fusion(records: list[FusionRecord]) -> "Scalers":
        """Fit scalers from fusion-task training records (tile block gets a
        degenerate unit scaler; the fusion task has no tile features)."""
        node_rows = np.concatenate([r.features.node_feats for r in records], axis=0)
        static_rows = np.stack([r.features.static_feats for r in records])
        tile_sc = FeatureScaler().fit(np.zeros((2, TILE_FEATURE_DIM), dtype=np.float32))
        return Scalers(
            node=FeatureScaler().fit(node_rows),
            tile=tile_sc,
            static=FeatureScaler().fit(static_rows),
        )


def assemble_batch(
    items: list[BatchItem],
    scalers: Scalers | None = None,
    neighbor_cap: int | None = 20,
) -> GraphBatch:
    """Build a :class:`GraphBatch` from raw items.

    Args:
        items: (features, tile_vector, target_runtime, group_id) per kernel
            instance; ``tile_vector`` may be None (fusion task).
        scalers: fitted scalers; None = identity.
        neighbor_cap: GNN neighbor-list truncation (paper App. B: 20).
    """
    import scipy.sparse as sp  # the cold reference path; KernelCache needs none

    if not items:
        raise ValueError("cannot assemble an empty batch")
    adjacencies = [sp.csr_matrix(f.adjacency) for f, _, _, _ in items]
    context = BatchedGraphContext(adjacencies, neighbor_cap=neighbor_cap)
    opcodes = np.concatenate([f.opcodes for f, _, _, _ in items])
    node_feats = np.concatenate([f.node_feats for f, _, _, _ in items], axis=0)
    tile_rows = np.stack(
        [
            t if t is not None else np.zeros(TILE_FEATURE_DIM, dtype=np.float32)
            for _, t, _, _ in items
        ]
    )
    static_rows = np.stack([f.static_feats for f, _, _, _ in items])
    if scalers is not None:
        node_feats = scalers.node.transform(node_feats)
        tile_rows = scalers.tile.transform(tile_rows)
        static_rows = scalers.static.transform(static_rows)
    targets = np.asarray([t for _, _, t, _ in items], dtype=np.float64)
    group_ids = np.asarray([g for _, _, _, g in items], dtype=np.int64)

    pad_index, pad_mask = _pad_views(context.sizes)
    return GraphBatch(
        context=context,
        opcodes=opcodes,
        node_feats=node_feats.astype(np.float32),
        tile_feats=tile_rows.astype(np.float32),
        static_feats=static_rows.astype(np.float32),
        targets=targets,
        group_ids=group_ids,
        pad_index=pad_index,
        pad_mask=pad_mask,
    )


def _pad_views(sizes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Padded [batch, max_nodes] index/mask views over the node axis."""
    sizes = np.asarray(sizes, dtype=np.int64)
    column = np.arange(sizes.max(), dtype=np.int64)
    pad_mask = column < sizes[:, None]
    offsets = np.cumsum(sizes) - sizes
    pad_index = np.where(pad_mask, offsets[:, None] + column, 0)
    return pad_index, pad_mask


class KernelCacheEntry:
    """Per-kernel precomputed batch ingredients.

    Holds everything about one kernel that does not depend on the batch it
    lands in: scaled node features, opcode ids, the scaled static-feature
    row, and the three pre-normalized single-graph adjacency operators
    (built from the dense adjacency by index arithmetic, see
    :class:`~repro.nn.graph_layers.GraphOperators`).
    The strong reference to ``features`` pins the object (and therefore its
    ``id()``, which keys the cache) for the lifetime of the entry.
    """

    __slots__ = ("features", "opcodes", "node_feats", "static_feats", "operators")

    def __init__(
        self,
        features: KernelFeatures,
        scalers: Scalers | None,
        neighbor_cap: int | None,
    ) -> None:
        self.features = features
        self.opcodes = features.opcodes
        node_feats = features.node_feats
        static_row = features.static_feats[None, :]
        if scalers is not None:
            node_feats = scalers.node.transform(node_feats)
            static_row = scalers.static.transform(static_row)
        self.node_feats = node_feats.astype(np.float32)
        self.static_feats = np.asarray(static_row[0], dtype=np.float32)
        self.operators = GraphOperators(features.adjacency, neighbor_cap=neighbor_cap)


class KernelCache:
    """Per-kernel precompute cache and zero-copy batch composer.

    Scaling and adjacency normalization are row-local, so per-kernel
    results compose exactly into batch-level results:
    :meth:`assemble` returns a batch bitwise-identical to
    :func:`assemble_batch` on the same items, but re-does only the
    per-batch work (tile scaling, targets, index arithmetic) — the
    per-kernel work (feature scaling, three mean-aggregation operators by
    index arithmetic) is computed once per unique kernel and reused. No
    SciPy constructor runs on this path (``nn.sparse`` wraps its arrays
    after SciPy's O(1) format checks); ``assemble_batch`` keeps the SciPy
    normalization as the reference.

    Cache invariants — an entry is valid only for the exact configuration
    the cache was constructed with. Invalidate (i.e. build a fresh cache)
    whenever:

    * the ``scalers`` are refit or replaced (entries store *scaled* rows);
    * ``neighbor_cap`` changes (normalized operators bake the truncation);
    * a cached :class:`~repro.data.features.KernelFeatures` object is
      mutated in place (entries alias its arrays and key on its ``id``).

    Composed :class:`~repro.nn.graph_layers.BatchedGraphContext` objects
    are additionally memoized per kernel-composition tuple (LRU, bounded
    by ``max_contexts``), so repeated batches over the same kernels — the
    autotuner scoring one kernel under many tiles, epoch plans bucketing
    identical draws — skip even the index arithmetic. A composed context
    stacks each batch-level operator the first time the model reads it, so
    a memoized context carries only the operators its model uses.

    Entries pin real memory (scaled features + three CSR operators per
    kernel): pass ``max_entries`` to bound the entry store with LRU
    eviction when the kernel population is open-ended (e.g. an evaluator
    fed ever-new fused kernels), or leave it ``None`` when it is finite
    (a training dataset). Evicted kernels are simply recomputed on next
    sight.

    Attributes:
        hits / misses / evictions: per-kernel entry cache counters.
        context_hits / context_misses / context_evictions: composed-context
            memo counters.
    """

    def __init__(
        self,
        scalers: Scalers | None = None,
        neighbor_cap: int | None = 20,
        max_contexts: int = 64,
        max_entries: int | None = None,
    ) -> None:
        self.scalers = scalers
        self.neighbor_cap = neighbor_cap
        self.max_contexts = max_contexts
        self.max_entries = max_entries
        self._entries: OrderedDict[int, KernelCacheEntry] = OrderedDict()
        # Memo values carry their entry tuple so a hit can be validated by
        # identity — entry eviction means an id() can be reused by a new
        # entry, and an id-keyed hit alone could then serve a stale context.
        self._contexts: OrderedDict[
            tuple[int, ...],
            tuple[
                tuple[KernelCacheEntry, ...],
                BatchedGraphContext,
                np.ndarray,
                np.ndarray,
            ],
        ] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.context_hits = 0
        self.context_misses = 0
        self.context_evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Counter snapshot (entry + composed-context caches)."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "contexts": len(self._contexts),
            "context_hits": self.context_hits,
            "context_misses": self.context_misses,
            "context_evictions": self.context_evictions,
        }

    def clear(self) -> None:
        """Drop all cached entries and composed contexts (counters kept)."""
        self._entries.clear()
        self._contexts.clear()

    def entry(self, features: KernelFeatures) -> KernelCacheEntry:
        """The cached entry for one kernel, computing it on first sight."""
        key = id(features)
        cached = self._entries.get(key)
        if cached is not None and cached.features is features:
            self.hits += 1
            self._entries.move_to_end(key)
            return cached
        self.misses += 1
        entry = KernelCacheEntry(features, self.scalers, self.neighbor_cap)
        self._entries[key] = entry
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def _context(
        self, entries: list[KernelCacheEntry]
    ) -> tuple[BatchedGraphContext, np.ndarray, np.ndarray]:
        key = tuple(id(e) for e in entries)
        cached = self._contexts.get(key)
        if cached is not None and all(
            a is b for a, b in zip(cached[0], entries)
        ):
            self.context_hits += 1
            self._contexts.move_to_end(key)
            return cached[1], cached[2], cached[3]
        self.context_misses += 1
        context = BatchedGraphContext.compose([e.operators for e in entries])
        pad_index, pad_mask = _pad_views(context.sizes)
        self._contexts[key] = (tuple(entries), context, pad_index, pad_mask)
        while len(self._contexts) > self.max_contexts:
            self._contexts.popitem(last=False)
            self.context_evictions += 1
        return context, pad_index, pad_mask

    def assemble(self, items: list[BatchItem]) -> GraphBatch:
        """Compose a batch; bitwise-equal to ``assemble_batch`` on ``items``."""
        if not items:
            raise ValueError("cannot assemble an empty batch")
        entries = [self.entry(f) for f, _, _, _ in items]
        context, pad_index, pad_mask = self._context(entries)
        opcodes = np.concatenate([e.opcodes for e in entries])
        node_feats = np.concatenate([e.node_feats for e in entries], axis=0)
        tile_rows = np.stack(
            [
                t if t is not None else np.zeros(TILE_FEATURE_DIM, dtype=np.float32)
                for _, t, _, _ in items
            ]
        )
        if self.scalers is not None:
            tile_rows = self.scalers.tile.transform(tile_rows)
        static_rows = np.stack([e.static_feats for e in entries])
        targets = np.asarray([t for _, _, t, _ in items], dtype=np.float64)
        group_ids = np.asarray([g for _, _, _, g in items], dtype=np.int64)
        return GraphBatch(
            context=context,
            opcodes=opcodes,
            node_feats=node_feats,
            tile_feats=tile_rows.astype(np.float32),
            static_feats=static_rows,
            targets=targets,
            group_ids=group_ids,
            pad_index=pad_index,
            pad_mask=pad_mask,
        )


def _family_buckets(families: list[str]) -> dict[str, list[int]]:
    buckets: dict[str, list[int]] = {}
    for i, fam in enumerate(families):
        buckets.setdefault(fam, []).append(i)
    return buckets


class TileBatchSampler:
    """Family-balanced sampler of (kernel, tile-group) batches.

    Each draw picks ``kernels_per_batch`` kernels (families sampled
    uniformly, then a kernel within the family) and ``tiles_per_kernel``
    tile samples per kernel. All tiles of one kernel share a group id so
    the rank loss only compares within kernels.
    """

    def __init__(
        self,
        records: list[TileRecord],
        kernels_per_batch: int = 8,
        tiles_per_kernel: int = 4,
        seed: int = 0,
    ) -> None:
        if not records:
            raise ValueError("no tile records to sample from")
        self.records = records
        self.kernels_per_batch = kernels_per_batch
        self.tiles_per_kernel = tiles_per_kernel
        self.rng = np.random.default_rng(seed)
        self.buckets = _family_buckets([r.family for r in records])
        self.family_names = sorted(self.buckets)

    def draw_items(self) -> list[BatchItem]:
        """Raw batch items for :func:`assemble_batch`."""
        items: list[BatchItem] = []
        for group in range(self.kernels_per_batch):
            fam = self.family_names[self.rng.integers(0, len(self.family_names))]
            rec = self.records[
                self.buckets[fam][self.rng.integers(0, len(self.buckets[fam]))]
            ]
            count = min(self.tiles_per_kernel, rec.num_samples)
            pick = self.rng.choice(rec.num_samples, size=count, replace=False)
            for t in pick:
                items.append(
                    (rec.features, rec.tile_feats[t], float(rec.runtimes[t]), group)
                )
        return items


class FusionBatchSampler:
    """Family-balanced sampler over fusion records (one kernel per item)."""

    def __init__(
        self,
        records: list[FusionRecord],
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        if not records:
            raise ValueError("no fusion records to sample from")
        self.records = records
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.buckets = _family_buckets([r.family for r in records])
        self.family_names = sorted(self.buckets)

    def draw_items(self) -> list[BatchItem]:
        """Raw batch items for :func:`assemble_batch`."""
        items: list[BatchItem] = []
        for i in range(self.batch_size):
            fam = self.family_names[self.rng.integers(0, len(self.family_names))]
            rec = self.records[
                self.buckets[fam][self.rng.integers(0, len(self.buckets[fam]))]
            ]
            items.append((rec.features, None, rec.runtime, i))
        return items
