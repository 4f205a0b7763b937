#!/usr/bin/env python3
"""Which functions in ``src/repro`` a shipped entry point enters.

    python3 tools/census.py run [--out DIR]
    python3 tools/census.py report DIR

``run`` starts each entry point in a subprocess of its own, with a
generated ``sitecustomize.py`` first on ``PYTHONPATH``. That file installs
a ``sys.setprofile`` / ``threading.setprofile`` hook recording every code
object entered, and writes the ones under ``src/repro`` to
``DIR/<entry>/<pid>-<n>.txt`` at ``atexit`` and before ``os._exit``, so the
spawned shard workers and fixture builders are counted too. The entry
points are the nine examples, ``benchmarks/spine/run.py --selfcheck``,
each spine workload with ``--trace 1 --seconds 2`` (the traced passes
replay each layer's public functions), both runners with
``REPRO_BENCH_FAST=1``, and then tier-1 on its own. Each entry's output
goes to ``DIR/<entry>/output.log``, and ``DIR/runs.json`` records its
command, exit code and wall time. An entry that fails under the hook is
still counted for what it entered; ``report`` names it. The default
``DIR`` is ``bench-artifacts/census``. A full run takes about 12 minutes
on 2 cores: the hook makes tier-1 about three times slower.

``report`` parses ``src/repro`` with ``ast`` and matches each ``def`` to
the recorded code objects by file and first line (a decorated function's
``co_firstlineno`` is its first decorator's line). A function is
*shipped* when an entry point other than tier-1 entered it, *tests-only*
when only tier-1 did, and *nowhere* when nothing did. A function's raw
lines run from its first decorator to its last line, nested functions
included. Dunders (``__init__``, ``__repr__``, ...) are counted apart.
It prints the three counts with their raw lines, then the tests-only and
nowhere functions by file. The figure simplicity PRs quote when they
delete what nothing ships; a report, not a gate.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
TIER1 = "tier1"
BUCKETS = ("shipped", "tests-only", "nowhere")

HOOK = '''\
"""Generated by tools/census.py: record every code object this process enters."""
import atexit
import os
import sys
import threading

_DIR = os.environ["CENSUS_DUMP_DIR"]
_PREFIX = os.environ["CENSUS_PREFIX"]
_seen = {}
_dumps = [0]


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code


def _dump():
    rows = set()
    for code in list(_seen.values()):
        path = os.path.abspath(code.co_filename)
        if path.startswith(_PREFIX):
            rows.add(f"{os.path.relpath(path, _PREFIX)}\\t{code.co_firstlineno}\\t{code.co_name}\\n")
    _dumps[0] += 1
    name = os.path.join(_DIR, f"{os.getpid()}-{_dumps[0]}.txt")
    with open(name, "w", encoding="utf-8") as out:
        out.writelines(sorted(rows))


_real_exit = os._exit


def _exit(status):
    _dump()
    _real_exit(status)


os._exit = _exit
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


@dataclass(frozen=True)
class Function:
    file: str  # relative to the package root
    line: int  # first decorator's line, or the ``def`` line
    name: str  # dotted through enclosing classes and functions
    lines: int

    @property
    def dunder(self) -> bool:
        leaf = self.name.rsplit(".", 1)[-1]
        return leaf.startswith("__") and leaf.endswith("__")


def write_hook(directory: Path) -> Path:
    """Write the recording ``sitecustomize.py`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    return directory


def hook_env(hook_dir: Path, dump_dir: Path, package: Path, src: Path) -> dict[str, str]:
    """An environment whose Python processes record into ``dump_dir``."""
    dump_dir.mkdir(parents=True, exist_ok=True)
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(hook_dir), str(src)]),
        CENSUS_DUMP_DIR=str(dump_dir),
        CENSUS_PREFIX=str(package.resolve()) + os.sep,
    )


def entry_points() -> list[tuple[str, list[str], dict[str, str]]]:
    """``(name, argv, extra environment)`` of every entry point, tier-1 last."""
    py = sys.executable
    fast = {"REPRO_BENCH_FAST": "1"}
    entries = [
        (f"example-{path.stem}", [py, str(path)], {})
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    spine = str(ROOT / "benchmarks" / "spine" / "run.py")
    entries.append(("spine-selfcheck", [py, spine, "--selfcheck"], {}))
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in contract["workloads"]:
        name = workload["name"]
        entries.append((
            f"spine-{name}",
            [py, spine, "--workload", name, "--trace", "1", "--seconds", "2"],
            {},
        ))
    for runner in ("bench_paper", "bench_serving"):
        entries.append((runner, [py, str(ROOT / "benchmarks" / f"{runner}.py")], fast))
    entries.append((TIER1, [py, "-m", "pytest", "-q", "-p", "no:cacheprovider"], {}))
    return entries


def run(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    hook_dir = write_hook(out / "_hook")
    runs = []
    for name, argv, extra in entry_points():
        dump_dir = out / name
        env = dict(hook_env(hook_dir, dump_dir, PACKAGE, ROOT / "src"), **extra)
        started = time.perf_counter()
        with open(dump_dir / "output.log", "w", encoding="utf-8") as log:
            code = subprocess.run(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT).returncode
        seconds = round(time.perf_counter() - started, 1)
        runs.append({"entry": name, "argv": argv[1:], "returncode": code, "seconds": seconds})
        print(f"census: {name:28s} exit {code:3d}  {seconds:7.1f} s", file=sys.stderr)
    (out / "runs.json").write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0


def functions(package: Path) -> list[Function]:
    """Every ``def`` under ``package``, methods and nested functions included."""
    found: list[Function] = []

    def visit(node: ast.AST, rel: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{scope}{child.name}"
                found.append(Function(rel, first, name, child.end_lineno - first + 1))
                visit(child, rel, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, rel, f"{scope}{child.name}.")
            else:
                visit(child, rel, scope)

    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8")), rel, "")
    return found


def entered(out: Path) -> dict[str, set[tuple[str, int]]]:
    """``{entry: {(file, first line)}}`` read from a run's dumps."""
    seen: dict[str, set[tuple[str, int]]] = defaultdict(set)
    for dump in sorted(out.glob("*/*.txt")):
        for row in dump.read_text(encoding="utf-8").splitlines():
            rel, line, _name = row.split("\t")
            seen[dump.parent.name].add((rel, int(line)))
    return dict(seen)


def classify(
    found: list[Function], seen: dict[str, set[tuple[str, int]]]
) -> dict[str, list[Function]]:
    """Split functions into ``BUCKETS``; dunders go under ``"dunders"``."""
    shipped = set().union(*(keys for entry, keys in seen.items() if entry != TIER1))
    tests = seen.get(TIER1, set())
    buckets: dict[str, list[Function]] = {bucket: [] for bucket in (*BUCKETS, "dunders")}
    for function in found:
        key = (function.file, function.line)
        if function.dunder:
            buckets["dunders"].append(function)
        elif key in shipped:
            buckets["shipped"].append(function)
        elif key in tests:
            buckets["tests-only"].append(function)
        else:
            buckets["nowhere"].append(function)
    return buckets


def report(out: Path) -> int:
    runs_file = out / "runs.json"
    runs = json.loads(runs_file.read_text(encoding="utf-8")) if runs_file.exists() else []
    seen = entered(out)
    if TIER1 not in seen or len(seen) < 2:
        print(f"census: {out} holds no complete run (need tier-1 and a shipped entry)", file=sys.stderr)
        return 2
    buckets = classify(functions(PACKAGE), seen)
    failed = [f"{r['entry']} ({r['returncode']})" for r in runs if r["returncode"]]
    print(f"census of src/repro: {len(seen)} entry points recorded"
          + (f"; non-zero exit under the hook: {', '.join(failed)}" if failed else ""))
    for bucket in (*BUCKETS, "dunders"):
        members = buckets[bucket]
        print(f"  {bucket:10s} {len(members):5d} functions {sum(f.lines for f in members):7d} raw lines")
    for bucket in ("tests-only", "nowhere"):
        print(f"\n{bucket}:")
        by_file: dict[str, list[Function]] = defaultdict(list)
        for function in buckets[bucket]:
            by_file[function.file].append(function)
        for rel in sorted(by_file):
            print(f"  {rel}")
            for function in by_file[rel]:
                print(f"    {function.lines:5d}  {function.name} (line {function.line})")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run every entry point under the hook")
    run_parser.add_argument("--out", type=Path, default=ROOT / "bench-artifacts" / "census")
    report_parser = commands.add_parser("report", help="classify src/repro against a run")
    report_parser.add_argument("dir", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.out.resolve())
    return report(args.dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
