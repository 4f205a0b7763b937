"""repro: a reproduction of "A Learned Performance Model for Tensor
Processing Units" (Kaufman & Phothilimthana et al., MLSys 2021).

Subpackages
-----------
``repro.hlo``
    Tensor-program IR (opcodes, shapes, graphs, builder).
``repro.compiler``
    Fusion pass, kernel extraction, tile enumeration, static analyses,
    list scheduling.
``repro.tpu``
    TPU v2/v3 targets, the hand-tuned analytical cost model and the
    ground-truth performance simulator.
``repro.workloads``
    The 104-program synthetic corpus and its random/manual splits.
``repro.data``
    Feature extraction and the tile-size / fusion datasets.
``repro.nn``
    Pure-NumPy autodiff and neural-network layers (GraphSAGE, GAT, LSTM,
    Transformer).
``repro.models``
    The learned performance model and its trainer.
``repro.autotuner``
    Tile-size and fusion autotuners with hardware/analytical/learned
    evaluators.
``repro.evaluation``
    Tile-Size APE, MAPE, Kendall's tau, serving metrics, and table
    rendering.
``repro.serving``
    Micro-batched cost-model inference service: model registry,
    request coalescing, replica sharding, and the service-backed
    evaluator client.

Each subpackage is imported on first access, so ``import repro`` loads
none of them and a process pays only for the ones it reaches.

Quickstart
----------
>>> from repro.workloads import random_split
>>> from repro.data import build_tile_dataset
>>> from repro.models import train_tile_model
>>> split = random_split()
>>> dataset = build_tile_dataset(split.train[:8])
>>> result = train_tile_model(dataset.records)
"""

__version__ = "1.0.0"

import importlib

#: Resolved by ``__getattr__`` on first access (PEP 562): a shard worker's
#: ``import repro.serving.workers`` never loads ``evaluation`` or
#: ``workloads``.
_SUBPACKAGES = (
    "autotuner",
    "compiler",
    "data",
    "evaluation",
    "hlo",
    "models",
    "nn",
    "serving",
    "tpu",
    "workloads",
)

__all__ = ["__version__", *_SUBPACKAGES]


def __getattr__(name: str):
    if name not in _SUBPACKAGES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
