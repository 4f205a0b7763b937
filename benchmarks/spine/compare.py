"""Compare two spine reports against the bounds in BENCHMARK.json.

    python3 benchmarks/spine/compare.py A.json B.json

A and B are ``run.py --out`` reports (A is the base: the parent commit, or
the first of two runs of one commit). For every (workload, end-to-end
metric) pair both reports hold, prints both medians with their quartiles
across passes, the ratio B/A, and a verdict:

* ``regressed``  — B is worse than A by more than the metric's bound;
* ``unresolved`` — the pass-to-pass spread of A or B exceeds the bound, so
  the two cannot be told apart at that resolution (reported as such, not
  as unchanged), unless every pass of B reads better than every pass of A;
* ``ok``         — otherwise.

Exit code 1 if any pair regressed, 0 otherwise.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from measure import quartiles, spread

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if max(spread(e["samples"]) for e in (a, b)) > bound:
        b_always_better = all(
            sign * (y - x) < 0 for x in a["samples"] for y in b["samples"]
        )
        return "ok" if b_always_better else "unresolved"
    return "regressed" if worse_by > bound else "ok"


def _cell(entry: dict) -> str:
    samples = entry["samples"] or [entry["value"]]
    q1, _, q3 = quartiles(samples)
    return f"{entry['value']:.5g} [{q1:.5g}..{q3:.5g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a_report, b_report = (json.loads(Path(p).read_text()) for p in argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"A = {argv[0]} (revision {a_report['meta']['git_revision'][:12]}, seed {a_report['seed']})")
    print(f"B = {argv[1]} (revision {b_report['meta']['git_revision'][:12]}, seed {b_report['seed']})")
    print(f"{'workload':<16} {'metric':<15} {'A median [q1..q3]':<34} "
          f"{'B median [q1..q3]':<34} {'B/A':>7} {'bound':>6}  verdict")
    regressed = 0
    for name, a_workload in a_report["workloads"].items():
        b_workload = b_report["workloads"].get(name)
        if b_workload is None or "metrics" not in a_workload or "metrics" not in b_workload:
            continue
        for spec in contract["end_to_end"]:
            a, b = a_workload["metrics"][spec["name"]], b_workload["metrics"][spec["name"]]
            outcome = verdict(a, b, spec["better"], spec["bound"])
            regressed += outcome == "regressed"
            print(f"{name:<16} {spec['name']:<15} {_cell(a):<34} {_cell(b):<34} "
                  f"{b['value'] / a['value']:>7.3f} {spec['bound']:>6.2f}  {outcome}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
