"""The spine benchmark: train -> tune -> serve, six workloads, one command.

    python3 benchmarks/spine/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE]
    python3 benchmarks/spine/run.py --selfcheck

``--trace 0`` (default) measures the end-to-end metrics with all tracing
off. ``--trace 1`` runs the same workload with spans recorded, replays
each layer's public functions, and reports the per-layer metrics; spans
go to ``spans.json`` next to ``--out`` (or under ``.bench_build/spine/``).
The last line of standard output is one JSON object with the metrics
``BENCHMARK.json`` names; the exit code is non-zero when any oracle check
fails. See README.md in this directory for what every number means.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# One BLAS thread per process, set before NumPy loads (spawned workers
# inherit it). On the 2-core box this is sized for, the generator, the
# service thread and two shard workers already fill both cores; a second
# BLAS thread only spins (same throughput, twice the CPU, measured) and
# makes every timing depend on whether a neighbour holds the other core.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="write the full report here")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"spine: the program under test is missing: no {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # Imported here, not at the top: spawned shard workers re-import this
    # file and must not pay for (or depend on) the benchmark's own modules.
    from inputs import BUILD_DIR, Sizes, ensure_fixtures  # isort: skip (sets up sys.path)
    import harness
    from measure import RESOURCE_METHOD
    from runner import last_line, print_report, run_traced, run_untraced, selfcheck
    from workloads import WORKLOADS

    if args.selfcheck:
        return selfcheck()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")
    seconds = args.seconds if args.seconds is not None else float(contract["run_seconds"])
    sizes = Sizes.full()
    fixtures = ensure_fixtures(sizes)
    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    units = {spec["name"]: spec["unit"] for spec in wanted}

    out_dir = args.out.parent if args.out else BUILD_DIR
    reports = {}
    for name in names:
        if len(names) > 1:
            # Each workload in a process of its own, as the driver runs it:
            # peak RSS, imports and warm caches are not shared between them.
            part = out_dir / f"part-{name}.json"
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(args.trace), "--out", str(part)],
            )
            reports[name] = json.loads(part.read_text())["workloads"][name]
            part.unlink()
            continue
        if args.trace:
            reports[name] = run_traced(WORKLOADS[name], fixtures, sizes, args.seed, seconds,
                                       out_dir / f"spans-{name}.json")
        else:
            reports[name] = run_untraced(WORKLOADS[name], fixtures, sizes, args.seed, seconds)
        print_report(name, reports[name], units)

    full = harness.stamp_report({
        "benchmark": "spine", "seed": args.seed, "seconds": seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "resource_method": RESOURCE_METHOD,
        "fixtures": fixtures.meta, "workloads": reports,
    })
    print(f"\nseed {args.seed}, {seconds:g} s measured per workload, nproc {full['nproc']}, "
          f"python {full['meta']['python']}, revision {full['meta']['git_revision']}, "
          f"schema {full['schema_version']}; fixtures built in {fixtures.meta['build_s']:.1f} s")
    print(f"resources: {RESOURCE_METHOD}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(full, indent=1))
    result = last_line(reports, wanted, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


SUPERVISED = "SPINE_SUPERVISED"


def supervise(argv: list[str], grace_s: float = 3.0) -> int:
    """Run the benchmark in a child process and end only after every
    process that child started has ended and been reaped.

    ``spawn`` (fixture build, shard workers) starts a ``multiprocessing``
    resource tracker that by design outlives its parent: it exits a moment
    *after* the benchmark, re-parents to init, and where init does not reap
    it stays behind as a zombie. As a child subreaper (Linux
    ``PR_SET_CHILD_SUBREAPER``) this process is the one such orphans
    re-parent to, whatever the program under test starts, so it can wait
    for each of them, and kill what outstays ``grace_s``.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: only the direct child is waited for
    child = subprocess.Popen([sys.executable, __file__, *argv],
                             env={**os.environ, SUPERVISED: "1"})
    signal.signal(signal.SIGTERM, lambda signum, frame: child.terminate())
    try:
        return child.wait()
    finally:
        child.kill()  # no-op once it has been waited for
        deadline = time.monotonic() + grace_s
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break  # no descendant left, alive or zombie
            if pid == 0:
                if time.monotonic() > deadline:
                    from measure import process_tree
                    for straggler in process_tree()[1:]:
                        try:
                            os.kill(straggler, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                time.sleep(0.01)


if __name__ == "__main__":  # shard workers are spawned: they re-import this file
    if os.environ.get(SUPERVISED):
        sys.exit(main(sys.argv[1:]))
    sys.exit(supervise(sys.argv[1:]))
