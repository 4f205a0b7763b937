"""What importing and running the library loads, checked in a fresh interpreter.

Every process that imports ``repro`` pays for what it imports: a serving
shard worker, a tuner, a training run. ``scipy.stats`` (and the
``scipy.spatial`` it pulls in) was half of ``import repro``'s memory and
start-up; only ``evaluation.metrics.kendall_tau`` needs it, so it is
imported there. The ``scipy.sparse`` package cost ≈ 22 MiB more (its import
clones NumPy's namespace through ``array_api_compat``), and the model uses
only its compiled ``_sparsetools`` extension, which ``repro.nn.csr`` loads
alone: a fresh ``import repro.serving.workers`` peaks at ≈ 40 MiB VmHWM
where it peaked at ≈ 56 MiB with the package (SciPy 1.17, NumPy 2.4,
x86-64 Linux). These tests fail if a module-level import brings either
back, or if a forward or a training step reaches for the package.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The one SciPy module a training, tuning or serving process loads.
SPARSETOOLS = {"scipy.sparse._sparsetools"}

PRINT_SCIPY = "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))"


def scipy_modules_after(script):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", f"import sys\n{script}\n{PRINT_SCIPY}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


@pytest.mark.parametrize("module", ["repro", "repro.serving.workers"])
def test_import_does_not_load_heavy_scipy(module):
    loaded = scipy_modules_after(f"import {module}")
    assert loaded == SPARSETOOLS, sorted(loaded)


FORWARD_AND_STEP = """
import numpy as np
from repro.autotuner import LearnedEvaluator
from repro.compiler import enumerate_tile_sizes
from repro.data import KernelCache, Scalers, build_tile_dataset
from repro.models import LearnedPerformanceModel, ModelConfig
from repro.nn import Adam, log_mse_loss
from repro.workloads import vision

records = build_tile_dataset([vision.alexnet(0)], max_tiles_per_kernel=4, seed=0).records
scalers = Scalers.fit_tile(records)
model = LearnedPerformanceModel(ModelConfig.paper_best_tile(), seed=0)
model.eval()
record = records[0]
scores = LearnedEvaluator(model, scalers).score_tiles_batched(
    record.kernel, enumerate_tile_sizes(record.kernel)[:8]
)
assert np.isfinite(scores).all()
model.train()
batch = KernelCache(scalers).assemble(
    [(r.features, r.tile_feats[0], r.runtimes[0], k) for k, r in enumerate(records[:4])]
)
loss = log_mse_loss(model(batch), batch.targets)
loss.backward()
Adam(model.parameters()).step()
assert batch.context.adj_in._transpose is not None  # the backward ran the transpose
"""


def test_forward_and_training_step_load_only_the_sparse_kernels():
    loaded = scipy_modules_after(FORWARD_AND_STEP)
    assert loaded == SPARSETOOLS, sorted(loaded)


def test_a_later_scipy_sparse_import_reuses_the_loaded_extension():
    loaded = scipy_modules_after(
        "import repro.nn.csr as csr\n"
        "import scipy.sparse._compressed as compressed\n"
        "assert compressed._sparsetools is csr._sparsetools"
    )
    assert "scipy.sparse" in loaded
