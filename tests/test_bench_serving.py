"""The serving runner's checks: all 53 hold at the committed numbers, each
one can fail on its own, and a client that fails is never counted as
served.

``benchmarks/bench_serving.py`` exits non-zero when an enforced check
fails. These tests feed its pure check function the committed
``BENCH_serving.json`` (no service runs), then move one check's value at
a time just past its bound; and they drive its client fleet with fake
scorers that raise or hang.
"""
from __future__ import annotations

import copy
import importlib
import json
import math
import os
import threading
from pathlib import Path

import pytest

from repro.serving import DeadlineExceeded

ROOT = Path(__file__).resolve().parent.parent
NUM_CHECKS = 53
NUM_TIMING_CHECKS = 12


@pytest.fixture
def bench_serving(monkeypatch):
    # Importing the runner pins one BLAS thread with os.environ.setdefault.
    # Record each variable first so monkeypatch restores it: later tests'
    # spawned workers must inherit the environment they had before.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(variable, os.environ.get(variable, "1"))
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    return importlib.import_module("bench_serving")


@pytest.fixture(scope="module")
def committed() -> dict:
    return json.loads((ROOT / "BENCH_serving.json").read_text())


def _past(op: str, bound):
    """The nearest value on the failing side of ``bound`` (another value,
    for ``==``)."""
    if op == "==":
        return not bound if isinstance(bound, bool) else f"not {bound}"
    if op in ("<", ">"):
        return bound
    return math.nextafter(bound, math.inf if op == "<=" else -math.inf)


def _inside(op: str, bound):
    """The nearest value on the passing side of ``bound``."""
    if op in ("<=", ">=", "=="):
        return bound
    return math.nextafter(bound, -math.inf if op == "<" else math.inf)


def test_committed_numbers_pass_every_check(bench_serving, committed):
    result = bench_serving.evaluate(committed)
    checks = result["checks"]
    assert len(checks) == NUM_CHECKS
    assert sum(check["timing"] for check in checks) == NUM_TIMING_CHECKS
    assert all(check["passed"] and check["enforced"] for check in checks)
    assert result["ok"]
    assert checks == committed["checks"]
    assert committed["ok"] and not committed["fast_mode"]


@pytest.mark.parametrize("index", range(NUM_CHECKS))
def test_each_check_fails_alone(bench_serving, committed, index):
    target = bench_serving.evaluate(committed)["checks"][index]
    report = copy.deepcopy(committed)
    section = report[target["section"]]

    section[target["name"]] = _past(target["op"], target["bound"])
    result = bench_serving.evaluate(report)
    assert [check["passed"] for check in result["checks"]] == [
        i != index for i in range(NUM_CHECKS)
    ]
    assert not result["ok"]

    section[target["name"]] = _inside(target["op"], target["bound"])
    assert bench_serving.evaluate(report)["ok"]


def test_a_raising_section_keeps_its_checks_failing_with_null(bench_serving, committed):
    report = copy.deepcopy(committed)
    report["placement"] = {"error": "RuntimeError: kernel pool too small"}
    checks = bench_serving.evaluate(report)["checks"]
    assert len(checks) == NUM_CHECKS
    assert [check["passed"] for check in checks] == [
        check["section"] != "placement" for check in checks
    ]
    assert all(check["value"] is None for check in checks if check["section"] == "placement")


def test_fast_mode_reports_timing_checks_and_enforces_the_rest(bench_serving, committed):
    report = copy.deepcopy(committed)
    report["fast_mode"] = True
    report["rollout"]["requests_to_detect"] = 1  # the fast budget is smaller
    checks = bench_serving.evaluate(report)["checks"]
    assert [check["enforced"] for check in checks] == [not check["timing"] for check in checks]
    assert bench_serving.evaluate(report)["ok"]

    report["rollout"]["canary_vs_plain"] = 0.5  # a slow pass: reported only
    result = bench_serving.evaluate(report)
    assert result["ok"] and not result["checks"][5]["passed"]
    report["rollout"]["canary_vs_plain"] = None  # no value: a failed fleet
    assert not bench_serving.evaluate(report)["ok"]
    report["rollout"]["canary_vs_plain"] = 0.5
    report["placement"]["migration_dropped"] = 1
    assert not bench_serving.evaluate(report)["ok"]


class _Scorer:
    """Scores every request, except that its ``fail_at``-th call raises
    ``error`` and a call made while ``gate`` is clear blocks on it."""

    def __init__(self, fail_at=None, error=RuntimeError, gate=None) -> None:
        self.calls = 0
        self.fail_at = fail_at
        self.error = error
        self.gate = gate
        self.last_response = None

    def score_tiles_batched(self, kernel, tiles):
        self.calls += 1
        if self.gate is not None:
            self.gate.wait()
        if self.calls == self.fail_at:
            raise self.error("scorer failure")
        return [0.0] * len(tiles)


STREAMS = [[("kernel", (1, 2, 3, 4))] * 5 for _ in range(3)]


def test_a_client_that_raises_is_not_counted_as_served(bench_serving, committed):
    fleet = bench_serving.run_fleet(
        STREAMS, lambda i: _Scorer(fail_at=3 if i == 0 else None), timeout_s=30.0
    )
    assert fleet["requests"] == 15
    assert fleet["resolved"] == 14 < fleet["requests"]
    assert (fleet["untyped_error"], fleet["unresolved"], fleet["hung"]) == (1, 0, 0)
    healthy = bench_serving.run_fleet(STREAMS, lambda i: _Scorer(), timeout_s=30.0)
    assert healthy["resolved"] == healthy["ok"] == 15

    ratio = bench_serving.fleet_ratio(
        bench_serving.summarize([fleet]), bench_serving.summarize([healthy])
    )
    assert ratio is None
    report = copy.deepcopy(committed)
    report["rollout"]["canary_vs_plain"] = ratio
    result = bench_serving.evaluate(report)
    assert [check["name"] for check in result["checks"] if not check["passed"]] == [
        "canary_vs_plain"
    ]
    assert not result["ok"]


def test_typed_errors_resolve_and_failed_or_stuck_clients_do_not(bench_serving):
    typed = bench_serving.run_fleet(
        STREAMS, lambda i: _Scorer(fail_at=2, error=DeadlineExceeded), timeout_s=30.0
    )
    assert (typed["typed_error"], typed["resolved"]) == (3, 15)
    assert bench_serving.fleet_ratio(
        bench_serving.summarize([typed]), bench_serving.summarize([typed])
    ) == 1.0

    def make_client(index):
        if index == 1:
            raise RuntimeError("client failed to start")
        return _Scorer()

    unstarted = bench_serving.run_fleet(STREAMS, make_client, timeout_s=30.0)
    assert (unstarted["resolved"], unstarted["unresolved"], unstarted["hung"]) == (10, 5, 0)

    gate = threading.Event()
    try:
        stuck = bench_serving.run_fleet(
            STREAMS, lambda i: _Scorer(gate=gate if i == 2 else None), timeout_s=0.2
        )
    finally:
        gate.set()
    assert (stuck["resolved"], stuck["unresolved"], stuck["hung"]) == (10, 5, 1)
