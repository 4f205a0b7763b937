"""Dataset generation: the tile-size and fusion datasets (paper Sec. 4).

Tile-size dataset: each program is compiled with the default fusion
heuristic; every kernel is expanded into (kernel, tile) samples over its
valid tile sizes, measured on the (simulated) TPU as the minimum of three
noisy runs.

Fusion dataset: each program is expanded under many random fusion
configurations; the resulting kernels are deduplicated by content
fingerprint and measured at their default tile size.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compiler.fusion import FusionConfig, ProgramFuser, fuse_program
from ..compiler.kernels import Kernel
from ..compiler.tiling import TileConfig, default_tile, enumerate_tile_sizes
from ..hlo.graph import Program
from ..tpu.simulator import TpuSimulator
from .features import KernelFeatures, extract_kernel_features, tile_features

#: Cap on the kernels one fusion configuration adds to the fusion dataset.
MAX_KERNELS_PER_CONFIG = 32


@dataclass
class TileRecord:
    """All tile-size samples of one kernel.

    Attributes:
        kernel: the kernel itself (kept for baseline evaluation).
        features: tile-independent extracted features.
        tiles: the sampled tile configurations.
        tile_feats: [t, TILE_FEATURE_DIM] features per tile.
        runtimes: [t] measured runtimes (seconds).
        program / family: provenance for per-application metrics and
            balanced sampling.
    """

    kernel: Kernel
    features: KernelFeatures
    tiles: list[TileConfig]
    tile_feats: np.ndarray
    runtimes: np.ndarray
    program: str
    family: str

    @property
    def num_samples(self) -> int:
        return len(self.runtimes)


@dataclass
class FusionRecord:
    """One deduplicated kernel sample of the fusion dataset."""

    kernel: Kernel
    features: KernelFeatures
    runtime: float
    program: str
    family: str


@dataclass
class TileSizeDataset:
    """Tile-size dataset over a list of programs."""

    records: list[TileRecord] = field(default_factory=list)

    @property
    def num_kernels(self) -> int:
        return len(self.records)

    @property
    def num_samples(self) -> int:
        return sum(r.num_samples for r in self.records)

    def by_program(self) -> dict[str, list[TileRecord]]:
        out: dict[str, list[TileRecord]] = {}
        for r in self.records:
            out.setdefault(r.program, []).append(r)
        return out


@dataclass
class FusionDataset:
    """Fusion dataset over a list of programs."""

    records: list[FusionRecord] = field(default_factory=list)

    @property
    def num_samples(self) -> int:
        return len(self.records)

    def by_program(self) -> dict[str, list[FusionRecord]]:
        out: dict[str, list[FusionRecord]] = {}
        for r in self.records:
            out.setdefault(r.program, []).append(r)
        return out


def build_tile_dataset(
    programs: list[Program],
    simulator: TpuSimulator | None = None,
    max_kernels_per_program: int = 24,
    max_tiles_per_kernel: int = 32,
    seed: int = 0,
    measure_noise: float = 0.02,
) -> TileSizeDataset:
    """Generate the tile-size dataset.

    Kernels are taken from the default-fusion decomposition; per kernel, at
    most ``max_tiles_per_kernel`` tile sizes are kept (the paper likewise
    measured "as many as possible ... within 30 minutes" rather than all).
    Kernels with fewer than two tile options carry no ranking signal and are
    skipped.
    """
    sim = simulator or TpuSimulator()
    rng = np.random.default_rng(seed)
    ds = TileSizeDataset()
    for program in programs:
        kernels = fuse_program(program.graph, program_name=program.name)
        kernels = [k for k in kernels if k.has_tile_options()]
        if len(kernels) > max_kernels_per_program:
            idx = np.linspace(0, len(kernels) - 1, max_kernels_per_program)
            kernels = [kernels[int(i)] for i in idx.round()]
        for kernel in kernels:
            tiles = enumerate_tile_sizes(kernel)
            if len(tiles) < 2:
                continue
            if len(tiles) > max_tiles_per_kernel:
                pick = rng.choice(len(tiles), size=max_tiles_per_kernel, replace=False)
                pick.sort()
                tiles = [tiles[i] for i in pick]
            runtimes = np.asarray(
                [
                    sim.measure(kernel, t, rng=rng, noise_sigma=measure_noise)
                    for t in tiles
                ],
                dtype=np.float64,
            )
            ds.records.append(
                TileRecord(
                    kernel=kernel,
                    features=extract_kernel_features(kernel),
                    tiles=tiles,
                    tile_feats=np.stack([tile_features(t) for t in tiles]),
                    runtimes=runtimes,
                    program=program.name,
                    family=program.family,
                )
            )
    return ds


def build_fusion_dataset(
    programs: list[Program],
    simulator: TpuSimulator | None = None,
    configs_per_program: int = 8,
    seed: int = 0,
    measure_noise: float = 0.02,
) -> FusionDataset:
    """Generate the fusion dataset with random-search fusion configurations.

    For every program, the default configuration plus ``configs_per_program``
    random configurations are expanded into kernels; kernels are globally
    deduplicated by fingerprint (the paper reports 208M samples "after
    duplicate elimination") and measured at their default tile size. A
    configuration contributes at most :data:`MAX_KERNELS_PER_CONFIG`
    kernels, evenly spaced over its kernel sequence.
    """
    sim = simulator or TpuSimulator()
    rng = np.random.default_rng(seed)
    ds = FusionDataset()
    seen: set[str] = set()
    for program in programs:
        fuser = ProgramFuser(program.graph, program.name)
        num_edges = len(fuser.edges)
        configs: list[FusionConfig | None] = [None]  # None = default heuristic
        for _ in range(configs_per_program):
            configs.append(
                FusionConfig.random(num_edges, rng, p=float(rng.uniform(0.2, 0.9)))
            )
        for config in configs:
            kernels = fuser.fuse(config)
            if len(kernels) > MAX_KERNELS_PER_CONFIG:
                idx = np.linspace(0, len(kernels) - 1, MAX_KERNELS_PER_CONFIG)
                kernels = [kernels[int(i)] for i in idx.round()]
            for kernel in kernels:
                fp = kernel.fingerprint()
                if fp in seen:
                    continue
                seen.add(fp)
                runtime = sim.measure(
                    kernel, default_tile(kernel), rng=rng, noise_sigma=measure_noise
                )
                ds.records.append(
                    FusionRecord(
                        kernel=kernel,
                        features=extract_kernel_features(kernel),
                        runtime=float(runtime),
                        program=program.name,
                        family=program.family,
                    )
                )
    return ds
