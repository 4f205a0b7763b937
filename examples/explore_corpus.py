"""Explore the synthetic 104-program corpus: families, graph sizes, kernel
statistics and simulated runtimes — the data the whole reproduction runs on.

Run:  python examples/explore_corpus.py
"""
import numpy as np

from repro.compiler import enumerate_tile_sizes, fuse_program
from repro.evaluation import format_table
from repro.tpu import TPU_V2, TPU_V3, TpuSimulator
from repro.workloads import build_corpus, manual_split, random_split


def main() -> None:
    corpus = build_corpus()
    print(f"corpus: {len(corpus)} programs")

    by_family: dict[str, list] = {}
    for p in corpus:
        by_family.setdefault(p.family, []).append(p)

    sim_v2 = TpuSimulator(TPU_V2)
    sim_v3 = TpuSimulator(TPU_V3)
    rows = []
    for family in sorted(by_family):
        programs = by_family[family]
        p = programs[0]
        kernels = fuse_program(p.graph, program_name=p.name)
        tiles = [len(enumerate_tile_sizes(k)) for k in kernels if k.has_tile_options()]
        rt_v2 = sim_v2.run_program(kernels) * 1e6
        rt_v3 = sim_v3.run_program(kernels) * 1e6
        rows.append([
            family,
            len(programs),
            len(p.graph),
            len(kernels),
            float(np.mean(tiles)) if tiles else 0.0,
            rt_v2,
            rt_v3,
        ])
    print()
    print(format_table(
        ["family", "variants", "graph ops", "kernels", "avg tiles/kernel",
         "v2 us", "v3 us"],
        rows,
        title="per-family statistics (first variant of each family)",
        float_fmt="{:.1f}",
    ))

    rs, ms = random_split(corpus), manual_split(corpus)
    print(f"\nrandom split: {len(rs.train)}/{len(rs.validation)}/{len(rs.test)} "
          f"programs; test apps: {', '.join(rs.test_names)}")
    print(f"manual split: {len(ms.train)}/{len(ms.validation)}/{len(ms.test)} "
          f"programs; test apps: {', '.join(ms.test_names)}")
    print("\nNote: every program runs faster on TPU v3 than v2 (more MXUs and "
          "bandwidth), matching the hardware description in the paper.")


if __name__ == "__main__":
    main()
