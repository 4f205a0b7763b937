"""The paper runner's shape checks: all 14 hold at the committed numbers,
and each one can fail on its own.

``benchmarks/bench_paper.py`` exits non-zero when a check fails. These
tests feed its pure check function the committed ``BENCH_paper.json``
(no training), then move one check's value at a time just past its bound.
"""
from __future__ import annotations

import copy
import importlib
import json
import math
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NUM_CHECKS = 14


@pytest.fixture
def bench_paper(monkeypatch):
    # Importing the runner pins one BLAS thread with os.environ.setdefault.
    # Record each variable first so monkeypatch restores it: later tests'
    # spawned workers must inherit the environment they had before.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(variable, os.environ.get(variable, "1"))
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    return importlib.import_module("bench_paper")


@pytest.fixture(scope="module")
def committed() -> dict:
    return json.loads((ROOT / "BENCH_paper.json").read_text())


def _past(op: str, bound: float) -> float:
    """The nearest value on the failing side of ``bound``."""
    if op in ("<", ">"):
        return bound
    return math.nextafter(bound, math.inf if op == "<=" else -math.inf)


def _inside(op: str, bound: float) -> float:
    """The nearest value on the passing side of ``bound``."""
    if op in ("<=", ">="):
        return bound
    return math.nextafter(bound, -math.inf if op == "<" else math.inf)


def test_committed_numbers_pass_every_check(bench_paper, committed):
    result = bench_paper.evaluate(committed)
    assert len(result["checks"]) == NUM_CHECKS
    assert all(check["passed"] for check in result["checks"])
    assert result["ok"]
    assert result["checks"] == committed["checks"]
    assert committed["ok"]


@pytest.mark.parametrize("index", range(NUM_CHECKS))
def test_each_check_fails_alone(bench_paper, committed, index):
    target = bench_paper.evaluate(committed)["checks"][index]
    report = copy.deepcopy(committed)
    section = report[target["section"]]

    section[target["name"]] = _past(target["op"], target["bound"])
    result = bench_paper.evaluate(report)
    assert [check["passed"] for check in result["checks"]] == [
        i != index for i in range(NUM_CHECKS)
    ]
    assert not result["ok"]

    section[target["name"]] = _inside(target["op"], target["bound"])
    assert bench_paper.evaluate(report)["ok"]
