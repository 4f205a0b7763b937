"""Tile-size enumeration for kernels.

A kernel computes its (primary) output one *tile* at a time: an output tile
is a per-dimension block size; the kernel loops over ceil(dim/tile) blocks
per dimension, streaming input slices into scratchpad and the output tile
back to HBM (paper Sec. 2.2). ``enumerate_tile_sizes`` queries the valid
tile sizes of a kernel exactly like the paper "queried the compiler for a
list of valid tile sizes" — validity is a scratchpad-footprint constraint.

Real kernels expose between 2 and 500,000 valid tile sizes; enumeration is
therefore capped with deterministic coverage-preserving subsampling. The
compiler has one configuration: the scratchpad and the caps are the module
constants below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..hlo.shapes import Shape
from .kernels import Kernel


@dataclass(frozen=True)
class TileConfig:
    """One tile-size choice for a kernel.

    Attributes:
        dims: block size per output dimension (same rank as the kernel's
            primary output). Every entry is in ``[1, dim]``.
    """

    dims: tuple[int, ...]

    @property
    def volume(self) -> int:
        """Elements per tile."""
        return int(math.prod(self.dims)) if self.dims else 1

    def iterations(self, output: Shape) -> int:
        """Number of tile iterations needed to cover ``output``."""
        it = 1
        for d, t in zip(output.dims, self.dims):
            it *= -(-d // t)
        return int(it) if output.dims else 1


#: On-chip scratchpad capacity of one TPU core (also the fusion pass's
#: footprint guard).
SCRATCHPAD_BYTES = 16 * 1024 * 1024
#: Share of the scratchpad one tile's working set may occupy
#: (double-buffering for compute/transfer overlap means a tile must fit in
#: roughly half the scratchpad).
SCRATCHPAD_FRACTION = 0.5
#: Cap on distinct block sizes tried per output dimension.
MAX_CANDIDATES_PER_DIM = 12
#: Hard cap on the number of tile sizes one kernel enumerates.
MAX_CONFIGS = 512


def candidate_block_sizes(dim: int, cap: int) -> list[int]:
    """Block-size candidates for one dimension of extent ``dim``.

    Powers of two up to ``dim``, multiples of 128 (lane width), plus ``dim``
    itself — then deterministically thinned to ``cap`` entries.
    """
    if dim <= 1:
        return [max(dim, 1)]
    sizes = {dim}
    p = 1
    while p < dim:
        sizes.add(p)
        p *= 2
    m = 128
    while m < dim:
        sizes.add(m)
        m += 128
    ordered = sorted(sizes)
    if len(ordered) <= cap:
        return ordered
    # Thin evenly but always keep the extremes.
    idx = np.linspace(0, len(ordered) - 1, cap).round().astype(int)
    return sorted({ordered[i] for i in idx})


_ALIGNED, _MINOR, _STRIPE = range(3)
"""How an input's per-tile slice shrinks: with the whole tile, with the
tile's minor extent, or one full stripe per tile row."""


@dataclass(frozen=True)
class _FootprintTerms:
    """The tile-independent part of a kernel's scratchpad footprint.

    One iteration of a tile keeps the output tile resident, plus — for each
    kernel input — the slice of it needed for one output tile. Inputs whose
    dimensions align with output dimensions contribute proportionally-shrunk
    slices; mismatched inputs (e.g. full contraction operands) contribute a
    tile-by-full-depth slice.

    Walking the kernel graph (primary output, parameters) costs far more
    than the footprint arithmetic, and enumeration prices thousands of
    tiles per kernel: the walk happens once, in :meth:`of`, and
    :meth:`bytes` is arithmetic on the tile alone.

    Attributes:
        output: shape of the kernel's primary output.
        element_size: bytes per output element.
        elements, minor, lead: the output's element count, last extent and
            first extent, each floored at 1 (the divisors of :meth:`bytes`;
            ``lead`` is ``None`` for a scalar output).
        inputs: per kernel parameter ``(alignment, byte size, element byte
            size)``.
    """

    output: Shape
    element_size: int
    elements: int
    minor: int | None
    lead: int | None
    inputs: tuple[tuple[int, int, int], ...]

    @classmethod
    def of(cls, kernel: Kernel) -> "_FootprintTerms":
        """The terms of ``kernel``, memoised per body (shared by shells)."""
        memo = kernel._body_memo
        terms = memo.get("footprint_terms")
        if terms is None:
            terms = memo["footprint_terms"] = cls._walk(kernel)
        return terms

    @classmethod
    def _walk(cls, kernel: Kernel) -> "_FootprintTerms":
        output = kernel.primary_output().shape
        inputs = []
        for param in kernel.graph.parameters():
            s = param.shape
            if s.dims == output.dims:
                alignment = _ALIGNED
            elif s.rank >= 2 and output.rank >= 2 and s.dims[-1] == output.dims[-1]:
                alignment = _MINOR
            else:
                alignment = _STRIPE
            inputs.append((alignment, s.byte_size, s.dtype.byte_size))
        return cls(
            output=output,
            element_size=output.dtype.byte_size,
            elements=max(output.num_elements, 1),
            minor=max(output.dims[-1], 1) if output.dims else None,
            lead=max(output.dims[0], 1) if output.dims else None,
            inputs=tuple(inputs),
        )

    def bytes(self, dims: tuple[int, ...]) -> int:
        """Scratchpad bytes one iteration of the tile ``dims`` keeps live."""
        tile_elems = int(math.prod(dims)) if dims else 1
        total = tile_elems * self.element_size
        shrink = tile_elems / self.elements
        for alignment, byte_size, element_size in self.inputs:
            if alignment == _ALIGNED:
                # Elementwise-aligned input: slice shrinks with the tile.
                total += int(byte_size * shrink) or element_size
            elif alignment == _MINOR:
                # Shares the minor dimension (e.g. weights [k, n] for out
                # [m, n]): the slice shrinks with the minor tile extent only.
                total += int(byte_size * (dims[-1] / self.minor)) or element_size
            else:
                # Contraction-style operand: one full stripe per tile row.
                lead = dims[0] / self.lead if self.lead else 1.0
                total += int(byte_size * min(1.0, lead * 4)) or element_size
        return total

    def bytes_of_rows(self, dims: np.ndarray) -> np.ndarray:
        """:meth:`bytes` of every row of the [m, rank] int64 array ``dims``.

        One pass of the same float64 operations in the same order, with
        ``astype`` truncating like ``int``, so every entry equals
        :meth:`bytes` of its row.
        """
        tile_elems = dims.prod(axis=1)
        total = tile_elems * self.element_size
        shrink = tile_elems / self.elements
        for alignment, byte_size, element_size in self.inputs:
            if alignment == _ALIGNED:
                part = byte_size * shrink
            elif alignment == _MINOR:
                part = byte_size * (dims[:, -1] / self.minor)
            else:
                lead = dims[:, 0] / self.lead if self.lead else 1.0
                part = byte_size * np.minimum(1.0, lead * 4)
            part = part.astype(np.int64)
            total += np.where(part == 0, element_size, part)
        return total


def tile_transfer_bytes(kernel: Kernel, tile: TileConfig) -> tuple[int, int]:
    """Per-iteration (copy-in, copy-out) HBM traffic for one tile.

    Copy-out is the output tile itself; copy-in is the rest of the tile's
    scratchpad footprint (:class:`_FootprintTerms`). Note the *total*
    copy-in over all iterations may exceed the input tensor sizes —
    contraction operands are re-streamed once per output stripe, which is
    exactly why tile choice changes total data movement (Appendix A,
    point 1).
    """
    terms = _FootprintTerms.of(kernel)
    out_bytes = tile.volume * terms.element_size
    in_bytes = terms.bytes(tile.dims) - out_bytes
    return max(in_bytes, 0), out_bytes


def enumerate_tile_sizes(kernel: Kernel) -> list[TileConfig]:
    """All valid tile sizes of a kernel (capped, deterministic).

    Returns at least one configuration (the full-output tile is clamped into
    validity by halving its largest dimension until it fits). Kernels
    without tile options (data formatting) get the single trivial config.
    The candidates' footprints are tested in one vectorised pass
    (:meth:`_FootprintTerms.bytes_of_rows`); the first :data:`MAX_CONFIGS`
    that fit are kept, in candidate order.

    The list is memoised per kernel body and shared by every
    :meth:`Kernel.shell` of it; each call returns a fresh list.
    """
    memo = kernel._body_memo
    entry = memo.get("tile_sizes")
    if entry is not None:
        return _tile_configs(entry[0])
    dims = _candidate_dims(kernel)
    tiles = _tile_configs(dims)
    # Kept as one int array, not as TileConfigs: a fusion search enumerates
    # each of its many bodies once, and objects held per body cost it more
    # than rebuilding the list costs a search that asks again. The largest
    # candidate rides along for :func:`default_tile`.
    memo["tile_sizes"] = (dims, largest_tile(tiles))
    return tiles


def _tile_configs(dims: np.ndarray) -> list[TileConfig]:
    return [TileConfig(tuple(row)) for row in dims.tolist()]


def _candidate_dims(kernel: Kernel) -> np.ndarray:
    """The candidates of :func:`enumerate_tile_sizes`, as [m, rank] int64 rows."""
    terms = _FootprintTerms.of(kernel)
    output = terms.output
    if not kernel.has_tile_options() or output.rank == 0:
        return np.asarray([output.dims], dtype=np.int64)
    budget = int(SCRATCHPAD_BYTES * SCRATCHPAD_FRACTION)
    per_dim = [candidate_block_sizes(d, MAX_CANDIDATES_PER_DIM) for d in output.dims]
    total = math.prod(len(c) for c in per_dim)
    if total <= MAX_CONFIGS * 4:
        # The whole cross product, last dimension fastest.
        grids = np.meshgrid(*[np.asarray(c, dtype=np.int64) for c in per_dim], indexing="ij")
        combos = np.stack(grids, axis=-1).reshape(-1, output.rank)
    else:
        # Deterministic subsample of the cross product via a generator
        # seeded from the fingerprint's own digits (``hash(str)`` is salted
        # per interpreter, so it would differ between worker processes);
        # a repeated draw keeps its first position.
        rng = np.random.default_rng(int(kernel.fingerprint()[:8], 16))
        samples = dict.fromkeys(
            tuple(c[rng.integers(0, len(c))] for c in per_dim)
            for _ in range(MAX_CONFIGS * 4)
        )
        combos = np.asarray(list(samples), dtype=np.int64)
    fits = combos[np.flatnonzero(terms.bytes_of_rows(combos) <= budget)[:MAX_CONFIGS]]
    if not len(fits):
        return np.asarray([_clamped_full_tile(terms, budget).dims], dtype=np.int64)
    return fits


def _clamped_full_tile(terms: _FootprintTerms, budget: int) -> TileConfig:
    """Whole-output tile, halved along its largest dim until it fits."""
    dims = list(terms.output.dims)
    while terms.bytes(tuple(dims)) > budget and max(dims) > 1:
        i = int(np.argmax(dims))
        dims[i] = max(1, dims[i] // 2)
    return TileConfig(tuple(dims))


def largest_tile(options: list[TileConfig]) -> TileConfig:
    """The compiler-default pick among enumerated tiles: largest by volume."""
    return max(options, key=lambda t: (t.volume, t.dims))


def default_tile(kernel: Kernel) -> TileConfig:
    """A reasonable default tile: the largest valid one by volume.

    This stands in for the compiler's pre-model default; the analytical or
    learned model then picks among :func:`enumerate_tile_sizes`. The answer
    is read from the body's :func:`enumerate_tile_sizes` memo entry, shared
    by every :meth:`Kernel.shell` of it, so pricing many fusion configs of
    one program enumerates each distinct body once.
    """
    memo = kernel._body_memo
    if "tile_sizes" not in memo:
        enumerate_tile_sizes(kernel)  # fills the body's entry
    return memo["tile_sizes"][1]
