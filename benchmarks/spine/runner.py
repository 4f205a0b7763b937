"""Runs one workload of the spine benchmark and reports it.

``run_untraced`` produces the end-to-end metrics with all tracing off;
``run_traced`` produces the per-layer metrics; ``selfcheck`` proves that
the failure accounting cannot be fooled by a dead worker. ``run.py`` is
the command-line entry.
"""
from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import statistics
import threading
import time
from pathlib import Path

import inputs
import layers
from inputs import Sizes, ensure_fixtures
from measure import (
    NullRecorder,
    SpanRecorder,
    percentile,
    tree_cpu_seconds,
    tree_peak_rss_mib,
)
from workloads import QUALITY_FLOOR, WORKLOADS, ServeRemote, TrainTile, _ServedWorkload

TRACED_MIN_PASSES = 2
CHEAP_SETUPS_S = 2.0


def measure(workload, seconds: float, min_passes: int):
    """Run passes for about ``seconds``; returns (passes, CPU-s per pass).

    A pass is never cut short, so the phase ends at the pass boundary
    nearest to ``seconds``. CPU is read from the process tree at pass
    boundaries, outside any pass's own wall time.
    """
    passes, cpu = [], []
    begin = time.perf_counter()
    while True:
        cpu_before = tree_cpu_seconds()
        passes.append(workload.run_pass(len(passes)))
        cpu.append(tree_cpu_seconds() - cpu_before)
        elapsed = time.perf_counter() - begin
        if len(passes) >= min_passes and elapsed + 0.5 * elapsed / len(passes) > seconds:
            return passes, cpu


def end_to_end(workload, passes, cpu, setup_s, rss_mib, verdict) -> dict:
    """The end-to-end metrics of one untraced run, with per-pass samples."""
    pooled = [ms for p in passes for ms in p.latencies_ms]
    attempted = sum(p.ops for p in passes)
    metrics = {
        "throughput": {
            "unit": "ops/s", "samples": [p.ops / p.wall_s for p in passes],
            "note": f"op = {workload.op}",
        },
        "latency_p50_ms": {
            "unit": "ms", "value": percentile(pooled, 50), "n": len(pooled),
            "samples": [percentile(p.latencies_ms, 50) for p in passes if p.latencies_ms],
            "note": workload.latency_of,
        },
        "latency_p99_ms": {
            "unit": "ms", "value": percentile(pooled, 99), "n": len(pooled),
            "samples": [percentile(p.latencies_ms, 99) for p in passes if p.latencies_ms],
            "note": workload.latency_of,
        },
        "cpu_s_per_kop": {
            "unit": "CPU-s/kop", "samples": [c / (p.ops / 1e3) for c, p in zip(cpu, passes)],
        },
        "peak_rss_mb": {"unit": "MiB", "samples": [rss_mib]},
        "setup_s": {"unit": "s", "samples": setup_s},
        "failed_share": {"unit": "ratio", "value": verdict.failed / attempted, "samples": []},
    }
    if verdict.quality is not None:
        metrics["solution_quality"] = {"unit": "ratio", "value": verdict.quality, "samples": []}
    for entry in metrics.values():
        if "value" not in entry:
            entry["value"] = statistics.median(entry["samples"])
    return metrics


def judged(workload, passes, verdict) -> dict:
    """What was attempted, what failed, and whether the run is correct:
    no failed operation and no run-level violation, the quality floor
    included."""
    problems = list(verdict.problems)
    floor = QUALITY_FLOOR.get(workload.name)
    if floor is not None and (verdict.quality is None or verdict.quality < floor):
        problems.append(f"solution_quality {verdict.quality} is below the floor {floor}")
    return {
        "op": workload.op, "passes": len(passes), "attempted": sum(p.ops for p in passes),
        "failed": verdict.failed, "problems": problems,
        "correct": verdict.failed == 0 and not problems,
    }


def run_untraced(cls, fixtures, sizes, seed: int, seconds: float) -> dict:
    """Set up (several times, for a steady ``setup_s``), measure, verify."""
    began = time.perf_counter()
    setup_s, workload = [], None
    try:
        # At least `setup_repeats` set-ups, and more while they are cheap:
        # three samples of a half-second set-up do not make a steady median.
        while len(setup_s) < sizes.setup_repeats or (
            sum(setup_s) < CHEAP_SETUPS_S and len(setup_s) < sizes.max_setup_repeats
        ):
            if workload is not None:
                workload.close()
            workload = cls(fixtures, sizes, seed, NullRecorder())
            gc.collect()  # the previous set-up's garbage is not this one's cost
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        passes, cpu = measure(workload, seconds, workload.min_passes)
        rss_mib = tree_peak_rss_mib()
        verdict = workload.verify(passes)
    finally:
        if workload is not None:
            workload.close()
    return {
        **judged(workload, passes, verdict),
        "metrics": end_to_end(workload, passes, cpu, setup_s, rss_mib, verdict),
        "wall_s": time.perf_counter() - began,
    }


def run_traced(cls, fixtures, sizes, seed: int, seconds: float, spans_path: Path) -> dict:
    """An untraced reference, then the same workload traced, then the
    layer replays; tracing overhead is the difference of the first two."""
    began = time.perf_counter()
    plain = cls(fixtures, sizes, seed, NullRecorder())
    try:
        plain.setup()
        reference, _ = measure(plain, seconds / 2, TRACED_MIN_PASSES)
    finally:
        plain.close()

    recorder = SpanRecorder()
    workload = cls(fixtures, sizes, seed, recorder)
    try:
        workload.setup()
        recorder.spans.clear()  # warm-up spans are not part of the measurement
        passes, _ = measure(workload, seconds / 2, TRACED_MIN_PASSES)
        verdict = workload.verify(passes)
        self_s, operation_s = recorder.self_seconds(), recorder.operation_seconds()
        # What the workload's own passes say comes first and wins; replay
        # spans land in the same recorder, so they are taken afterwards.
        served = isinstance(workload, _ServedWorkload)
        own = layers.serving_metrics(workload, passes) if served else workload.layer_counts()
        if isinstance(workload, TrainTile):
            own.update(layers.train_step_metrics(recorder))
            own["models.final_loss"] = workload.final_loss
        if verdict.quality is not None:
            own["autotuner.solution_quality"] = verdict.quality
        programs = inputs.draw_programs().tuned[: sizes.tuned_programs]
        found = layers.replay(fixtures, inputs.serving_pool(programs), programs, recorder, seed)
        if not served:
            found.update(layers.serving_probe(fixtures, sizes, seed))
        found.update(own)
    finally:
        workload.close()

    def rate(results) -> float:
        return statistics.median(p.ops / p.wall_s for p in results)

    found["trace.overhead_share"] = 1.0 - rate(passes) / rate(reference)
    # Tail latency of the untraced reference passes: reported, not gated
    # (README, "Reported, not gated").
    found["latency_p99_ms"] = percentile([ms for p in reference for ms in p.latencies_ms], 99)
    recorder.dump(spans_path)
    return {
        **judged(workload, passes, verdict),
        "layers": found,
        # Sum of these shares is 1 by construction: every span's self time
        # is counted once, and root spans are the operations.
        "self_time_share": {layer: s / operation_s for layer, s in sorted(self_s.items())},
        "spans": str(spans_path), "wall_s": time.perf_counter() - began,
    }


# --------------------------------------------------------------------- output
def print_report(name: str, report: dict, units: dict[str, str]) -> None:
    print(f"\n== {name}: {report['passes']} passes, {report['attempted']} {report['op']}s "
          f"attempted, {report['failed']} failed, wall {report['wall_s']:.1f} s ==")
    for metric, entry in report.get("metrics", {}).items():
        extra = f"  n={entry['n']}" if "n" in entry else ""
        note = f"  ({entry['note']})" if "note" in entry else ""
        print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']}{extra}{note}")
    for metric, unit in units.items():
        if metric in report.get("layers", {}):
            print(f"  {metric:<44} {report['layers'][metric]:>14.6g} {unit}")
    if "self_time_share" in report:
        print("  self time / operation time, by layer (sums to 1):")
        for layer, share in report["self_time_share"].items():
            print(f"    {layer:<42} {share:>14.4f}")
    for problem in report["problems"]:
        print(f"  ORACLE: {problem}")


def last_line(reports: dict[str, dict], wanted: list[dict], traced: bool) -> dict:
    """The driver's result object: exactly the metrics BENCHMARK.json names
    for this kind of run."""
    prefix = len(reports) > 1
    metrics = {}
    for name, report in reports.items():
        for spec in wanted:
            value = (
                report["layers"][spec["name"]] if traced
                else report["metrics"][spec["name"]]["value"]
            )
            key = f"{name}.{spec['name']}" if prefix else spec["name"]
            metrics[key] = {"value": value, "unit": spec["unit"]}
    return {
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }


# ------------------------------------------------------------------ selfcheck
def selfcheck() -> int:
    """Tiny sizes: every workload passes its oracle, and a shard worker
    killed mid-pass shows up as failed operations, not as a faster run."""
    sizes = Sizes.tiny()
    fixtures = ensure_fixtures(sizes)
    ok = True
    for name, cls in WORKLOADS.items():
        report = run_untraced(cls, fixtures, sizes, seed=1, seconds=0.0)
        print(f"selfcheck {name:<16} correct={report['correct']} failed={report['failed']}"
              f"/{report['attempted']} {report['problems']}")
        ok &= report["correct"]

    # A worker that keeps dying is answered for by the analytical fallback:
    # fast, error-free, degraded=True. The run must count those as failed.
    struck_done = threading.Event()

    def keep_killing_workers() -> None:
        while not struck_done.wait(0.05):
            for child in multiprocessing.active_children():
                if child.name.startswith("cost-model-shard") and child.pid is not None:
                    try:
                        os.kill(child.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass  # already gone

    workload = ServeRemote(fixtures, sizes, seed=1, recorder=NullRecorder())
    killer = threading.Thread(target=keep_killing_workers)
    try:
        workload.setup()
        healthy = workload.run_pass(0)
        killer.start()
        struck = workload.run_pass(1)
        struck_done.set()
        killer.join()
        verdict = workload.verify([healthy, struck])
    finally:
        struck_done.set()
        workload.close()
    share = verdict.failed / (healthy.ops + struck.ops)
    caught = verdict.failed > 0 and bool(verdict.problems)
    print(f"selfcheck worker-kill      failed_share={share:.4f} problems={verdict.problems} "
          f"healthy {healthy.ops / healthy.wall_s:.0f} req/s, struck "
          f"{struck.ops / struck.wall_s:.0f} req/s -> {'caught' if caught else 'MISSED'}")
    return 0 if ok and caught else 1
