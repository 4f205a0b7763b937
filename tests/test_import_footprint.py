"""What importing and running the library loads, checked in a fresh interpreter.

Every process that imports ``repro`` pays for what it imports: a serving
shard worker, a tuner, a training run. ``repro`` and ``repro.serving``
resolve their public names on first access (PEP 562), so ``import repro``
loads no subpackage, and a shard worker's ``import repro.serving.workers``
loads the model path and the worker's own modules — not the service, the
frontends (``http.server``, ``ssl``, ``email``), the control plane, the
observability stack, ``repro.evaluation`` or ``repro.workloads``.
``scipy.stats`` (and the ``scipy.spatial`` it pulls in) was half of
``import repro``'s memory and start-up; only
``evaluation.metrics.kendall_tau`` needs it, so it is imported there. The
``scipy.sparse`` package cost ≈ 22 MiB more (its import clones NumPy's
namespace through ``array_api_compat``), and the model uses only its
compiled ``_sparsetools`` extension, which ``repro.nn.csr`` loads alone: a
fresh ``import repro.serving.workers`` peaks at ≈ 35 MiB VmHWM and loads 273
modules, where it peaked at ≈ 40 MiB over 346 modules while ``repro`` and
``repro.serving`` imported every subpackage eagerly, and at ≈ 56 MiB with
the ``scipy.sparse`` package (SciPy 1.17, NumPy 2.4, x86-64 Linux). These
tests fail if a module-level import brings any of it back, or if a
forward or a training step reaches for the package.
"""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The one SciPy module a training, tuning or serving process loads.
SPARSETOOLS = {"scipy.sparse._sparsetools"}


def run_fresh(script):
    """``script``'s standard output, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def modules_after(script, prefix):
    """The modules under ``prefix`` loaded after ``script`` runs in a
    fresh interpreter."""
    listing = f"print(' '.join(m for m in sys.modules if m.startswith({prefix!r})))"
    return set(run_fresh(f"import sys\n{script}\n{listing}").split())


def scipy_modules_after(script):
    return modules_after(script, "scipy")


def test_import_repro_loads_no_subpackage_and_no_scipy():
    assert modules_after("import repro", "repro") == {"repro"}
    assert scipy_modules_after("import repro") == set()


def test_worker_import_loads_only_the_sparse_kernels():
    loaded = scipy_modules_after("import repro.serving.workers")
    assert loaded == SPARSETOOLS, sorted(loaded)


#: What a shard worker never runs, so never imports.
NOT_IN_A_WORKER = [
    "http.server", "ssl", "email", "repro.evaluation", "repro.workloads",
    *(
        f"repro.serving.{name}"
        for name in (
            "service", "frontend", "client", "scheduler", "registry",
            "executors", "rollout", "feedback", "placement", "resilience",
            "alerts", "incidents", "prober", "profiler", "journal",
            "http_gateway",
        )
    ),
]


def test_worker_import_leaves_the_serving_stack_out():
    loaded = modules_after("import repro.serving.workers", "")
    assert loaded & set(NOT_IN_A_WORKER) == set()
    assert {"repro.serving.workers", "repro.serving.protocol"} <= loaded


PUBLIC_NAMES = """
import importlib
import repro
import repro.serving as serving

for name in repro.__all__:
    expected = (
        "1.0.0" if name == "__version__"
        else importlib.import_module(f"repro.{name}")
    )
    assert getattr(repro, name) == expected, name
    assert name in vars(repro), name  # cached after the first access
for name in serving.__all__:
    module = importlib.import_module(f"repro.serving.{serving._SOURCE[name]}")
    assert getattr(serving, name) is getattr(module, name), name
    assert name in vars(serving), name  # cached after the first access
for package in (repro, serving):
    assert set(package.__all__) <= set(dir(package)), package
bound = {}
exec("from repro.serving import *", bound)
for name in serving.__all__:
    assert bound[name] is getattr(serving, name), name
print("ok")
"""


def test_every_public_name_resolves_lists_and_star_imports():
    assert run_fresh(PUBLIC_NAMES).split() == ["ok"]


def test_public_names_are_the_same_set():
    import repro
    import repro.serving

    assert len(repro.__all__) == len(set(repro.__all__)) == 11
    assert len(repro.serving.__all__) == len(set(repro.serving.__all__)) == 104
    assert set(repro.serving.__all__) >= {
        "CostModelService", "ProcessShardExecutor", "SocketFrontend",
        "ModelRegistry", "MetricsGateway", "ServiceConfig",
    }


@pytest.mark.parametrize("package", ["repro", "repro.serving"])
def test_an_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


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
record = records[0]
scores = LearnedEvaluator(model, scalers).score_tiles_batched(
    record.kernel, enumerate_tile_sizes(record.kernel)[:8]
)
assert np.isfinite(scores).all()
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
