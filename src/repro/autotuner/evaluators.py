"""Cost evaluators the autotuner can plug in (paper Fig. 1).

Three ways to price a candidate configuration: run it on the (simulated)
hardware, ask the hand-tuned analytical model, or ask the learned model.
The hardware evaluator meters its use — the entire point of the paper's
Sec. 7 experiments is trading scarce hardware evaluations for cheap model
evaluations.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from ..compiler.kernels import Kernel
from ..compiler.tiling import TileConfig, default_tile
from ..data.batching import BatchItem, KernelCache, Scalers
from ..data.features import (
    TILE_FEATURE_DIM,
    KernelFeatures,
    extract_kernel_features,
    tile_features,
)
from ..models.model import LearnedPerformanceModel
from ..tpu.analytical import AnalyticalModel, CalibratedAnalyticalModel
from ..tpu.simulator import TpuSimulator


@runtime_checkable
class TileScorer(Protocol):
    """Anything that can rank candidate tiles of one kernel.

    ``model_tile_autotune`` scores each kernel's whole candidate set with
    one :meth:`score_tiles_batched` call (lower = faster; an empty list
    scores empty) — satisfied by :class:`LearnedEvaluator`,
    :class:`AnalyticalEvaluator`, and the serving layer's clients.
    """

    def score_tiles_batched(self, kernel: Kernel, tiles: list[TileConfig]) -> np.ndarray: ...


@runtime_checkable
class ProgramCostModel(Protocol):
    """Anything that can price whole programs (lists of kernels).

    ``model_fusion_autotune`` consumes this shape; batched strategies call
    :meth:`program_runtimes_batched` with whole candidate populations.
    """

    def program_runtime(self, kernels: list[Kernel]) -> float: ...

    def program_runtimes_batched(self, programs: list[list[Kernel]]) -> np.ndarray: ...


class _TileRows:
    """One kernel's encoded tile rows (:func:`tile_features`), keyed by
    ``dims``: one float32 block with a row per distinct ``dims`` seen, so a
    memoised row costs a dict entry and its bytes in the block, not an
    array of its own."""

    __slots__ = ("index", "block")

    def __init__(self) -> None:
        self.index: dict[tuple[int, ...], int] = {}
        self.block = np.empty((0, TILE_FEATURE_DIM), dtype=np.float32)

    def rows(self, tiles: list[TileConfig]) -> list[np.ndarray]:
        """The encoded row of each tile, in order (views into the block)."""
        index = self.index
        missing = {t.dims: t for t in tiles if t.dims not in index}
        if missing:
            start = len(self.block)
            encoded = np.stack([tile_features(t) for t in missing.values()])
            self.block = np.concatenate([self.block, encoded])
            index.update(zip(missing, range(start, start + len(missing))))
        block = self.block
        return [block[index[t.dims]] for t in tiles]


class HardwareEvaluator:
    """Executes (kernel, tile) pairs on the simulated TPU, with metering.

    Attributes:
        evaluations: number of kernel executions performed so far — the
            scarce-resource budget of Figures 4 and 5.
    """

    def __init__(self, simulator: TpuSimulator | None = None, rng: np.random.Generator | None = None) -> None:
        self.simulator = simulator or TpuSimulator()
        self.rng = rng
        self.evaluations = 0

    def kernel_runtime(self, kernel: Kernel, tile: TileConfig | None = None) -> float:
        """Measure one kernel (counts against the budget)."""
        self.evaluations += 1
        if self.rng is not None:
            return self.simulator.measure(kernel, tile, rng=self.rng)
        return self.simulator.run(kernel, tile)

    def program_runtime(self, kernels: list[Kernel], tiles: list[TileConfig] | None = None) -> float:
        """Measure a whole program (counts one evaluation per kernel).

        Raises:
            ValueError: ``tiles`` is not one tile per kernel (nothing is
                measured or metered).
        """
        if tiles is None:
            tiles = [default_tile(k) for k in kernels]
        elif len(tiles) != len(kernels):
            raise ValueError(f"{len(tiles)} tiles for {len(kernels)} kernels")
        return sum(self.kernel_runtime(k, t) for k, t in zip(kernels, tiles))


class AnalyticalEvaluator:
    """Prices tiles with the hand-tuned analytical model (free, no meter)."""

    def __init__(self, model: AnalyticalModel | CalibratedAnalyticalModel | None = None) -> None:
        self.model = model or AnalyticalModel()

    def score_tiles_batched(self, kernel: Kernel, tiles: list[TileConfig]) -> np.ndarray:
        """Estimated runtimes (ranking scores) for candidate tiles."""
        return np.asarray([self.model.estimate(kernel, t) for t in tiles])


@dataclass
class LearnedEvaluator:
    """Prices kernels/tiles with a trained learned model.

    Args:
        model: trained :class:`LearnedPerformanceModel`.
        scalers: the feature scalers fitted at training time.

    The autotuners revisit the same kernels constantly, so every query
    reads through LRU-bounded caches: a fingerprint -> features memo (which
    also holds the kernel's encoded tile rows, evicted with its features)
    and a :class:`~repro.data.batching.KernelCache` (scaled features and
    normalized adjacencies are computed once per distinct kernel, not once
    per query batch), plus, for kernel and program pricing, a fingerprint
    -> predicted-runtime memo. A batch composed through them is bitwise
    the cold :func:`~repro.data.batching.assemble_batch` of the same items.

    Cache-hit metering (for the Fig. 4/5 budget accounting — model queries
    are "free" relative to hardware runs, but cached queries are *freer*):
    ``feature_cache_hits`` / ``feature_cache_misses`` count fingerprint-memo
    lookups; ``batch_cache`` exposes the kernel-precompute cache with its
    own ``hits`` / ``misses`` counters.
    """

    model: LearnedPerformanceModel
    scalers: Scalers
    #: Bound on cached per-kernel precomputes/features. The fusion tuner
    #: feeds an open-ended stream of distinct fused kernels, so unbounded
    #: caches would grow with the search budget; LRU-evicted kernels are
    #: recomputed on next sight.
    max_cached_kernels: int = 1024
    #: Bound on the fingerprint -> predicted-runtime memo; ``None`` means
    #: 16x ``max_cached_kernels`` (entries are tiny relative to precompute
    #: entries, but re-pricing an evicted kernel costs a model forward).
    max_cached_predictions: int | None = None
    #: This evaluator's own :class:`~repro.data.batching.KernelCache`
    #: (entries are keyed by the feature objects of its feature memo, so
    #: no two evaluators could share one).
    batch_cache: KernelCache = field(init=False)

    def __post_init__(self) -> None:
        # Prediction memo: entries are tiny (fingerprint -> float) but the
        # kernel stream is open-ended, so bound it too — at a multiple of
        # the precompute caches since re-pricing costs a model forward.
        self._memo: "OrderedDict[str, float]" = OrderedDict()
        if self.max_cached_predictions is None:
            self.max_cached_predictions = 16 * self.max_cached_kernels
        self._memo_cap = self.max_cached_predictions
        # fingerprint -> (features, encoded tile rows by ``dims``): a
        # kernel's tile rows are evicted together with its features.
        self._features_memo: "OrderedDict[str, tuple[KernelFeatures, _TileRows]]" = OrderedDict()
        self.batch_cache = KernelCache(
            self.scalers,
            neighbor_cap=self.model.config.neighbor_cap,
            max_entries=self.max_cached_kernels,
        )
        self.feature_cache_hits = 0
        self.feature_cache_misses = 0
        self.feature_cache_evictions = 0
        self.prediction_memo_hits = 0
        self.prediction_memo_misses = 0
        self.prediction_memo_evictions = 0

    @classmethod
    def from_checkpoint_bytes(cls, blob: bytes, **kwargs) -> "LearnedEvaluator":
        """Build a warm evaluator straight from checkpoint blob bytes.

        ``blob`` is the sealed form produced by
        :func:`repro.models.serialize.save_model_bytes` — exactly what a
        :class:`~repro.serving.ModelRegistry` ships to executor worker
        processes and remote nodes. Integrity failures raise the typed
        ``ModelBlobError`` before any model state is touched.
        """
        from ..models.serialize import load_model_bytes

        result = load_model_bytes(blob)
        return cls(result.model, result.scalers, **kwargs)

    def stats(self) -> dict[str, int]:
        """Cache counter snapshot (the serving metrics layer reads this).

        Keys: ``feature_*`` cover the fingerprint -> features memo,
        ``prediction_*`` the fingerprint -> runtime memo, and ``batch_*``
        the per-kernel precompute cache (hits/misses/evictions each, plus
        current sizes).
        """
        batch = self.batch_cache.stats()
        return {
            "feature_entries": len(self._features_memo),
            "feature_hits": self.feature_cache_hits,
            "feature_misses": self.feature_cache_misses,
            "feature_evictions": self.feature_cache_evictions,
            "prediction_entries": len(self._memo),
            "prediction_hits": self.prediction_memo_hits,
            "prediction_misses": self.prediction_memo_misses,
            "prediction_evictions": self.prediction_memo_evictions,
            **{f"batch_{k}": v for k, v in batch.items()},
        }

    def _features(self, kernel: Kernel) -> tuple[KernelFeatures, _TileRows]:
        """Kernel features and the kernel's tile-row memo, deduped by
        fingerprint."""
        fp = kernel.fingerprint()
        entry = self._features_memo.get(fp)
        if entry is not None:
            self.feature_cache_hits += 1
            self._features_memo.move_to_end(fp)
            return entry
        self.feature_cache_misses += 1
        entry = self._features_memo[fp] = (extract_kernel_features(kernel), _TileRows())
        while len(self._features_memo) > self.max_cached_kernels:
            self._features_memo.popitem(last=False)
            self.feature_cache_evictions += 1
        return entry

    def _remember(self, fingerprint: str, value: float) -> None:
        """Record a per-kernel prediction, evicting oldest beyond the cap."""
        self._memo[fingerprint] = value
        while len(self._memo) > self._memo_cap:
            self._memo.popitem(last=False)
            self.prediction_memo_evictions += 1

    def score_tiles_batched(self, kernel: Kernel, tiles: list[TileConfig]) -> np.ndarray:
        """Rank scores for candidate tiles of one kernel (lower = faster).

        Graph features are extracted/scaled/normalized once per kernel via
        the caches and all candidate tiles go through one forward pass
        sharing the cached adjacency blocks. An empty candidate list
        scores empty without touching the caches.
        """
        if not tiles:
            return np.zeros(0, dtype=np.float32)
        return self.score_tile_groups([(kernel, tiles)])[0]

    def score_tile_groups(
        self, groups: list[tuple[Kernel, list[TileConfig]]]
    ) -> list[np.ndarray]:
        """Score several kernels' candidate tiles in **one** forward pass.

        The cross-kernel analogue of :meth:`score_tiles_batched`: every
        (kernel, tile) pair becomes one batch item — the same multi-kernel
        assembly the trainer and :meth:`program_runtimes_batched` use — so
        N kernels' populations cost one forward instead of N. Returns one
        score array per group, in order. With a single group this is
        bitwise-identical to :meth:`score_tiles_batched`; multiple groups
        change the batch shape, which moves scores only at float32
        rounding level. Both serving executors run a shard's slice of a
        micro-batch through this, so the forward's fixed cost is paid
        once per batch, not once per kernel.
        """
        items: list[BatchItem] = []
        counts: list[int] = []
        for group_index, (kernel, tiles) in enumerate(groups):
            features, encoded = self._features(kernel)
            items.extend((features, row, 0.0, group_index) for row in encoded.rows(tiles))
            counts.append(len(tiles))
        if not items:
            return [np.zeros(0, dtype=np.float32) for _ in groups]
        scores = self.model.predict(self.batch_cache.assemble(items))
        out: list[np.ndarray] = []
        offset = 0
        for n in counts:
            out.append(np.asarray(scores[offset:offset + n]))
            offset += n
        return out

    def kernel_runtime(self, kernel: Kernel, tile: TileConfig | None = None) -> float:
        """Predicted absolute runtime in seconds (fusion-task models)."""
        return self._price_kernels([kernel])[kernel.fingerprint()]

    def _price_kernels(self, kernels: list[Kernel]) -> dict[str, float]:
        """Predicted runtime per unique kernel fingerprint.

        Reads through the prediction memo, prices all still-unpriced
        kernels in one batched forward, and returns a *local* price map —
        robust to memo eviction mid-call (the memo is LRU-bounded).
        """
        prices: dict[str, float] = {}
        unique: dict[str, Kernel] = {}
        for k in kernels:
            fp = k.fingerprint()
            if fp in prices or fp in unique:
                continue
            cached = self._memo.get(fp)
            if cached is not None:
                self.prediction_memo_hits += 1
                self._memo.move_to_end(fp)
                prices[fp] = cached
            else:
                self.prediction_memo_misses += 1
                unique[fp] = k
        if unique:
            missing = list(unique.values())
            items = [(self._features(k)[0], None, 0.0, i) for i, k in enumerate(missing)]
            preds = self.model.predict_runtimes(self.batch_cache.assemble(items))
            for k, p in zip(missing, preds):
                prices[k.fingerprint()] = float(p)
                self._remember(k.fingerprint(), float(p))
        return prices

    def program_runtime(self, kernels: list[Kernel]) -> float:
        """Predicted program runtime: sum of kernel predictions (batched)."""
        prices = self._price_kernels(kernels)
        return sum(prices[k.fingerprint()] for k in kernels)

    def program_runtimes_batched(self, programs: list[list[Kernel]]) -> np.ndarray:
        """Predicted runtimes for many candidate programs in one forward.

        Deduplicates kernels by fingerprint across the whole population
        (fusion configurations overwhelmingly share kernels), prices every
        still-unpriced kernel in a single batched forward pass, then sums
        per program. The per-kernel prices persist in the prediction memo
        across calls.
        """
        if not programs:
            return np.zeros(0, dtype=np.float64)
        prices = self._price_kernels([k for kernels in programs for k in kernels])
        return np.asarray(
            [sum(prices[k.fingerprint()] for k in kernels) for kernels in programs],
            dtype=np.float64,
        )
