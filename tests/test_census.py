"""``tools/census.py``: the classifier on a tiny package, the hook in one subprocess.

The full census runs every entry point under the hook (minutes); these
tests run neither, only the two halves it is made of.
"""
from __future__ import annotations

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CORE = '''\
import functools
import threading


def shipped():
    return helper()


def helper():
    return 1


@functools.lru_cache(maxsize=None)
def decorated(x):
    return x + 1


def outer():
    def inner():
        return 2

    return inner()


class Thing:
    def __init__(self):
        self.x = 1

    def method(self):
        return self.x


def unused():
    return 3


def in_thread():
    worker = threading.Thread(target=threaded)
    worker.start()
    worker.join()


def threaded():
    return 4
'''


@pytest.fixture
def census(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("census")


@pytest.fixture
def package(tmp_path):
    root = tmp_path / "src" / "pkg"
    root.mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "core.py").write_text(CORE)
    return root


def first_lines(source: str) -> dict[str, int]:
    """``co_firstlineno`` of every function the interpreter would enter."""
    lines, stack = {}, [compile(source, "core.py", "exec")]
    while stack:
        code = stack.pop()
        for const in code.co_consts:
            if hasattr(const, "co_firstlineno"):
                lines[const.co_name] = const.co_firstlineno
                stack.append(const)
    return lines


def test_classifier_buckets_and_line_counts(census, package, tmp_path):
    lines = first_lines(CORE)
    out = tmp_path / "census"
    entries = {
        "example-demo": ["shipped", "helper", "decorated", "__init__"],
        census.TIER1: ["shipped", "outer", "inner", "method"],
    }
    for entry, names in entries.items():
        (out / entry).mkdir(parents=True)
        (out / entry / "1-1.txt").write_text(
            "".join(f"core.py\t{lines[name]}\t{name}\n" for name in names)
        )

    buckets = census.classify(census.functions(package), census.entered(out))
    got = {
        bucket: {(f.name, f.lines) for f in members} for bucket, members in buckets.items()
    }
    assert got == {
        "shipped": {("shipped", 2), ("helper", 2), ("decorated", 3)},
        "tests-only": {("outer", 5), ("outer.inner", 2), ("Thing.method", 2)},
        "nowhere": {("unused", 2), ("in_thread", 4), ("threaded", 2)},
        "dunders": {("Thing.__init__", 2)},
    }


def test_hook_records_threads_and_dumps_before_os_exit(census, package, tmp_path):
    hook_dir = census.write_hook(tmp_path / "hook")
    dump_dir = tmp_path / "dump"
    env = census.hook_env(hook_dir, dump_dir, package, package.parent)
    script = "import os, pkg.core as core\ncore.shipped()\ncore.in_thread()\nos._exit(3)\n"
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 3, result.stderr
    dumps = list(dump_dir.glob("*.txt"))
    assert len(dumps) == 1
    rows = {tuple(row.split("\t")[::2]) for row in dumps[0].read_text().splitlines()}
    assert {("core.py", name) for name in ("shipped", "helper", "in_thread", "threaded")} <= rows
    assert ("core.py", "unused") not in rows


def test_report_prints_counts_failures_and_lists_by_file(
    census, package, tmp_path, monkeypatch, capsys
):
    lines = first_lines(CORE)
    out = tmp_path / "census"
    for entry, names in {"example-demo": ["shipped", "helper"], census.TIER1: ["outer"]}.items():
        (out / entry).mkdir(parents=True)
        (out / entry / "1-1.txt").write_text(
            "".join(f"core.py\t{lines[name]}\t{name}\n" for name in names)
        )
    runs = [{"entry": "example-demo", "argv": [], "returncode": 1, "seconds": 0.1}]
    (out / "runs.json").write_text(json.dumps(runs))
    monkeypatch.setattr(census, "PACKAGE", package)

    assert census.report(out) == 0
    text = capsys.readouterr().out
    assert "2 entry points recorded; non-zero exit under the hook: example-demo (1)" in text
    assert re.search(r"shipped\s+2 functions\s+4 raw lines", text)
    assert re.search(r"tests-only\s+1 functions\s+5 raw lines", text)
    assert re.search(r"nowhere\s+6 functions\s+15 raw lines", text)
    assert re.search(r"dunders\s+1 functions\s+2 raw lines", text)
    tests_only = text.split("\ntests-only:\n")[1].split("\nnowhere:\n")[0]
    assert tests_only.split() == ["core.py", "5", "outer", "(line", f"{lines['outer']})"]


def test_report_refuses_a_run_without_tier1(census, tmp_path, capsys):
    out = tmp_path / "census"
    (out / "example-demo").mkdir(parents=True)
    (out / "example-demo" / "1-1.txt").write_text("core.py\t1\tshipped\n")
    assert census.report(out) == 2
    assert "no complete run" in capsys.readouterr().err


def test_entry_points_cover_examples_spine_runners_then_tier1(census):
    entries = census.entry_points()
    names = [name for name, _argv, _env in entries]
    examples = sorted((ROOT / "examples").glob("*.py"))
    assert names[: len(examples)] == [f"example-{path.stem}" for path in examples]
    assert "spine-selfcheck" in names
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    for workload in workloads:
        (argv,) = [argv for name, argv, _env in entries if name == f"spine-{workload['name']}"]
        assert argv[-4:] == ["--trace", "1", "--seconds", "2"]
    for runner in ("bench_paper", "bench_serving"):
        (env,) = [env for name, _argv, env in entries if name == runner]
        assert env == {"REPRO_BENCH_FAST": "1"}
    assert names[-1] == census.TIER1
    assert len(names) == len(set(names))
