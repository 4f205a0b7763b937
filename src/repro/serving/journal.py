"""Durable ops journal: a crash-safe, append-only JSONL event log.

Every lifecycle event the serving stack emits — registry hot-swaps and
spills, rollout phase transitions, rebalance plans applied, worker
respawns, circuit-breaker state changes, degradations, alert transitions
— used to vanish with the process. This module makes them durable: one
JSON object per line, appended and flushed per event, with size-based
rotation, so a post-mortem can replay exactly what the control planes
did and when — correlated to request traces through the ``trace_id``
field events carry.

Design rules:

* **Append-only JSONL.** One event per line, ``json.dumps`` + ``"\\n"``,
  flushed to the OS per record (``fsync`` optional — per-event fsync is
  an order of magnitude slower and the OS-buffer guarantee is the right
  default for an ops log). Nothing in the file is ever rewritten.
* **Crash-safe on both ends.** A process killed mid-append leaves at
  most one *torn* final line. On reopen the torn tail is truncated away
  (appending after it would corrupt the next record) and counted;
  :meth:`replay` additionally skips — and counts — any line that fails
  to parse, so one bad record never takes down a post-mortem.
* **Size-based rotation.** When the live file would exceed
  ``max_bytes``, it is rotated to ``<name>.1`` (shifting ``.1 → .2`` …
  and dropping the oldest past ``max_files``). :meth:`replay` reads the
  rotated generations oldest-first, so event order is preserved across
  rotation.
* **Zero overhead when absent.** Components hold ``journal = None`` by
  default and record through :func:`record_event`, whose first act is
  one ``is None`` check — the same discipline as the fault injector and
  the tracer. The journal is duck-typed there: anything with a
  ``record(kind, trace_id=None, **fields)`` method works (tests use
  in-memory fakes), and a journal that raises never fails its caller.

Events are plain dicts with reserved keys ``seq`` (monotone per journal
lineage, survives reopen), ``ts`` (wall clock, injectable), ``kind``
(dotted event vocabulary: ``registry.activate``, ``rollout.transition``,
``placement.rebalance``, ``worker.respawn``, ``breaker.transition``,
``service.degraded``, ``alert.transition``, …) and optional ``trace_id``
linking the event to a retained request trace.
"""
from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path

__all__ = ["OpsJournal", "record_event"]


def record_event(journal, kind: str, trace_id: str | None = None, **fields) -> dict | None:
    """Record one event in ``journal`` if one is attached; returns the
    entry as written, or ``None`` when there is no journal or it failed.

    Observability must never fail the operation it observes, so whatever
    ``journal.record`` raises is swallowed here.
    """
    if journal is None:
        return None
    try:
        return journal.record(kind, trace_id=trace_id, **fields)
    except Exception:
        return None


class OpsJournal:
    """Crash-safe append-only JSONL event journal with rotation.

    Args:
        path: the live journal file (created, with parents, on first
            record). Rotated generations live beside it as ``<name>.1``
            (newest) … ``<name>.<max_files>`` (oldest).
        max_bytes: rotate before an append would push the live file past
            this size. 0 disables rotation.
        max_files: rotated generations to keep (the live file is not
            counted). Older generations are deleted at rotation time.
        fsync: additionally ``os.fsync`` after every record — durable
            through power loss, ~10x slower. The default (flush only)
            survives process crashes, which is the failure the serving
            stack actually has.
        clock: wall-clock source for the ``ts`` field (tests inject a
            fake for deterministic timelines).
        recent_events: bound on the in-memory tail served by
            :meth:`recent` (the gateway's ``/events/recent``) without
            touching disk.

    Thread-safe: one lock serializes append + rotate. Reopening an
    existing path resumes the ``seq`` numbering after the last valid
    record and truncates a torn final line (counted in
    ``torn_lines_skipped``).
    """

    def __init__(
        self,
        path: str | Path,
        max_bytes: int = 1 << 20,
        max_files: int = 4,
        fsync: bool = False,
        clock=time.time,
        recent_events: int = 256,
    ) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0 (0 = no rotation)")
        if max_files < 1:
            raise ValueError("max_files must be >= 1")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self.fsync = fsync
        self._clock = clock
        self._lock = threading.Lock()
        self._recent: deque[dict] = deque(maxlen=max(recent_events, 1))
        self._file = None
        self._size = 0
        self._seq = 0
        self._closed = False
        self.events_recorded = 0
        self.bytes_written = 0
        self.rotations = 0
        self.torn_lines_skipped = 0
        self.invalid_lines_skipped = 0
        self.write_errors = 0
        self._open()

    # ------------------------------------------------------------------ #
    # open / reopen
    # ------------------------------------------------------------------ #

    def _open(self) -> None:
        """Open (or reopen) the live file for appending.

        An existing file is scanned backwards just far enough to recover
        the last valid record's ``seq`` and to detect a torn final line
        (no trailing newline — the signature of a crash mid-append),
        which is truncated away so the next append starts a clean line.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            raw = self.path.read_bytes()
            if raw and not raw.endswith(b"\n"):
                keep = raw.rfind(b"\n") + 1  # 0 when no complete line exists
                with open(self.path, "r+b") as f:
                    f.truncate(keep)
                raw = raw[:keep]
                self.torn_lines_skipped += 1
            for line in reversed(raw.splitlines()):
                try:
                    entry = json.loads(line)
                    self._seq = int(entry["seq"])
                    break
                except (ValueError, KeyError, TypeError):
                    continue
        self._file = open(self.path, "ab")
        self._size = self._file.tell()

    # ------------------------------------------------------------------ #
    # append path
    # ------------------------------------------------------------------ #

    def record(self, kind: str, trace_id: str | None = None, **fields) -> dict:
        """Append one event; returns the entry as written.

        ``fields`` must be JSON-serializable (anything else is rendered
        through ``str`` — an ops journal degrades to lossy before it
        degrades to lost). Never raises on IO failure once open: a full
        disk must not take the serving path down with it; the failure is
        counted instead (``write_errors``).
        """
        entry = {"seq": 0, "ts": self._clock(), "kind": kind}
        if trace_id is not None:
            entry["trace_id"] = trace_id
        entry.update(fields)
        with self._lock:
            if self._closed:
                return entry
            # Encoded once, here, where ``seq`` is known; an entry that
            # cannot be encoded raises before it consumes a number.
            entry["seq"] = self._seq + 1
            line = (json.dumps(entry, default=str) + "\n").encode()
            self._seq += 1
            try:
                if (
                    self.max_bytes
                    and self._size > 0
                    and self._size + len(line) > self.max_bytes
                ):
                    self._rotate_locked()
                self._file.write(line)
                self._file.flush()
                if self.fsync:
                    os.fsync(self._file.fileno())
                self._size += len(line)
                self.bytes_written += len(line)
                self.events_recorded += 1
            except OSError:
                self.write_errors += 1
            self._recent.append(entry)
        return entry

    def _rotate_locked(self) -> None:
        """Shift ``.1 → .2 → …`` (dropping past ``max_files``) and start
        a fresh live file. ``os.replace`` per generation keeps every
        intermediate state a valid set of journal files."""
        self._file.close()
        oldest = self.path.with_name(f"{self.path.name}.{self.max_files}")
        oldest.unlink(missing_ok=True)
        for gen in range(self.max_files - 1, 0, -1):
            src = self.path.with_name(f"{self.path.name}.{gen}")
            if src.exists():
                os.replace(src, self.path.with_name(f"{self.path.name}.{gen + 1}"))
        os.replace(self.path, self.path.with_name(f"{self.path.name}.1"))
        self._file = open(self.path, "ab")
        self._size = 0
        self.rotations += 1

    # ------------------------------------------------------------------ #
    # readout
    # ------------------------------------------------------------------ #

    def recent(self, n: int = 50) -> list[dict]:
        """The newest ``n`` events, newest first, from the in-memory
        tail (no disk IO — this is the gateway's hot path)."""
        with self._lock:
            tail = list(self._recent)
        return list(reversed(tail[-max(n, 0):]))

    def generations(self) -> list[Path]:
        """Every journal file on disk, oldest first (rotated then live)."""
        out = []
        for gen in range(self.max_files, 0, -1):
            candidate = self.path.with_name(f"{self.path.name}.{gen}")
            if candidate.exists():
                out.append(candidate)
        if self.path.exists():
            out.append(self.path)
        return out

    def replay(self):
        """Yield every durable event, oldest first, across rotations.

        Unparseable lines (torn mid-file by a crash during rotation, or
        hand-damaged) are skipped and counted in
        ``invalid_lines_skipped`` — replay is for post-mortems, and a
        post-mortem tool that dies on the corruption it is investigating
        is useless.
        """
        with self._lock:
            if self._file is not None and not self._closed:
                self._file.flush()
            files = self.generations()
        for path in files:
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            for line in raw.splitlines():
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    self.invalid_lines_skipped += 1
                    continue
                if not isinstance(entry, dict) or "kind" not in entry:
                    self.invalid_lines_skipped += 1
                    continue
                yield entry

    def timeline(self, kinds: tuple[str, ...] | None = None) -> list[dict]:
        """Replay into a list, optionally filtered to ``kinds`` prefixes
        (``("rollout.", "placement.")`` reconstructs the control planes'
        state history)."""
        out = []
        for entry in self.replay():
            if kinds is None or any(entry["kind"].startswith(k) for k in kinds):
                out.append(entry)
        return out

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Journal accounting for the metrics registry."""
        with self._lock:
            return {
                "journal_events": float(self.events_recorded),
                "journal_bytes_written": float(self.bytes_written),
                "journal_rotations": float(self.rotations),
                "journal_torn_lines_skipped": float(self.torn_lines_skipped),
                "journal_size_bytes": float(self._size),
                "journal_write_errors": float(self.write_errors),
            }

    def register_into(self, registry) -> None:
        """Contribute journal accounting to a telemetry registry
        (duck-typed, like every other component's ``register_into``)."""
        registry.register_collector(
            "journal",
            self.snapshot,
            counters=(
                "journal_events",
                "journal_bytes_written",
                "journal_rotations",
                "journal_torn_lines_skipped",
                "journal_write_errors",
            ),
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Flush and close; idempotent. Further records are dropped."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._file.flush()
                self._file.close()
            except OSError:
                pass

    def __enter__(self) -> "OpsJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
