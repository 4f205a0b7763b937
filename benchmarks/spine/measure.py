"""Measuring instruments of the spine benchmark.

Three instruments, none of which imports the program under test:

* order statistics (nearest-rank percentiles, quartiles), so every
  reported tail is an observed sample and ``compare.py`` computes spreads
  the same way the runner does;
* CPU time and peak RSS of the *process tree*, read from ``/proc`` —
  ``resource.getrusage(RUSAGE_CHILDREN)`` only covers children that were
  already reaped, so it silently omits the forwards of live shard workers;
* an in-memory span recorder (name, layer, start, end, parent, one id per
  operation) with self-time accounting: a span's self time is its
  duration minus the part of that interval its child spans cover.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# ------------------------------------------------------------ order statistics
def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(samples)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def spread(samples: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(samples)
    return (q3 - q1) / q2 if q2 else 0.0


# ------------------------------------------------------------- process tree
def process_tree() -> list[int]:
    """This process and every live descendant, from one ``/proc`` scan."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited between listdir and read
        # Field 4 (ppid) follows the parenthesised command, which may
        # itself contain spaces and parentheses.
        ppid = int(stat.rpartition(")")[2].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, frontier = [], [os.getpid()]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def tree_cpu_seconds() -> float:
    """user+sys CPU seconds consumed so far by the live process tree.

    A worker that exits takes its counters with it, so read this only
    across a phase in which no worker is stopped on purpose. This process
    is read from its CPU clock (the same quantity, in nanoseconds instead
    of 10 ms ticks, so a single-process workload's figure is not quantised).
    """
    ticks = 0
    for pid in process_tree()[1:]:
        try:
            fields = Path("/proc", str(pid), "stat").read_text().rpartition(")")[2].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return time.process_time() + ticks / _CLOCK_TICKS


def tree_peak_rss_mib() -> float:
    """Sum of ``VmHWM`` (peak resident set) over the live process tree."""
    total_kib = 0
    for pid in process_tree():
        try:
            status = Path("/proc", str(pid), "status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
                break
    return total_kib / 1024.0


RESOURCE_METHOD = (
    "CPU: process CPU clock of the benchmark process plus utime+stime of "
    "/proc/<pid>/stat summed over its live descendants, difference across "
    "each measured pass; "
    "memory: VmHWM of /proc/<pid>/status summed over the same tree at the "
    "end of the measured phase"
)


# -------------------------------------------------------------------- spans
class SpanRecorder:
    """Spans kept in memory and written out when the run ends.

    ``span()`` nests by thread: the innermost open span of the calling
    thread is the parent. ``add()`` records an interval timed elsewhere
    (a served request's lifetime, a span the service's own ``Tracer``
    recorded) under an explicit parent. Times are ``time.perf_counter()``
    seconds; ``wall_offset`` converts the service tracer's ``time.time()``
    stamps onto the same axis.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._open = threading.local()
        self.wall_offset = time.perf_counter() - time.time()

    def add(self, name: str, layer: str, start: float, end: float,
            parent: int | None = None, op: int | None = None) -> int:
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                {"id": span_id, "name": name, "layer": layer, "start": start,
                 "end": end, "parent": parent, "op": op}
            )
        return span_id

    @contextmanager
    def span(self, name: str, layer: str, op: int | None = None):
        stack = self._open.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        span_id = self.add(name, layer, time.perf_counter(), 0.0, parent, op)
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            self.spans[span_id]["end"] = time.perf_counter()

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus the union of
        the parts of it that its children cover."""
        kids: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                kids.setdefault(span["parent"], []).append((span["start"], span["end"]))
        totals: dict[str, float] = {}
        for span in self.spans:
            covered, cursor = 0.0, span["start"]
            for start, end in sorted(kids.get(span["id"], ())):
                start, end = max(start, cursor), min(end, span["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            own = (span["end"] - span["start"]) - covered
            totals[span["layer"]] = totals.get(span["layer"], 0.0) + max(own, 0.0)
        return totals

    def operation_seconds(self) -> float:
        """Total duration of the root (per-operation) spans."""
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"clock": "perf_counter_s", "spans": self.spans}))


class NullRecorder:
    """The tracing-off recorder: every hook is a no-op."""

    enabled = False
    _noop = nullcontext()

    def span(self, name: str, layer: str, op: int | None = None):
        return self._noop
