"""What importing the library loads, checked in a fresh interpreter.

Every process that imports ``repro`` pays for what it imports: a serving
shard worker, a tuner, a training run. ``scipy.stats`` (and the
``scipy.spatial`` it pulls in) is half of ``import repro``'s memory and
start-up, and only ``evaluation.metrics.kendall_tau`` needs it, so it is
imported there. This test fails if a module-level import brings it back.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Heavy SciPy subpackages no training, tuning or serving path needs.
HEAVY = ("scipy.stats", "scipy.spatial")


@pytest.mark.parametrize("module", ["repro", "repro.serving.workers"])
def test_import_does_not_load_heavy_scipy(module):
    script = (
        f"import sys, {module}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "scipy.sparse" in loaded  # the model path's one SciPy dependency
    assert not [m for m in HEAVY if m in loaded], sorted(m for m in loaded if m.startswith(HEAVY))
