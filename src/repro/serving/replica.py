"""Fingerprint routing and the response cache in front of the replicas.

One checkpoint is served by N :class:`~repro.autotuner.LearnedEvaluator`
replicas — in-thread evaluators or worker subprocesses. Requests are
routed by kernel fingerprint (stable content hash), so each replica's
prediction memo, feature memo and per-kernel precompute cache only ever
see its own shard of the kernel population — N replicas give N times the
effective cache capacity without duplication, the in-process analogue of
cache-affinity placement in a multi-node serving tier.

A :class:`ResultCache` — fingerprint-keyed, LRU, shared across replicas
and versions — short-circuits repeated identical requests before they
reach any replica at all.
"""
from __future__ import annotations

import threading
from collections import OrderedDict


def shard_of(shard_key: str, num_shards: int) -> int:
    """Stable shard index for a routing key (a hex fingerprint digest).

    Kernel fingerprints are sha256 hex digests — uniformly distributed
    already, so a slice of the digest is a fair shard id, and (unlike
    ``hash()``) stable across processes and machines. Every execution
    backend routes through this one function, which is why a request
    lands on the same shard whether the shard is an in-process replica or
    a worker subprocess.
    """
    if num_shards <= 1 or not shard_key:
        return 0
    return int(shard_key[:8], 16) % num_shards


class ResultCache:
    """Thread-safe LRU cache of finished responses, keyed by request.

    Keys are ``(model_version, request.cache_key())`` so a hot swap never
    serves a stale checkpoint's result. Counters feed the serving metrics.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple | None):
        """The cached value, or ``None`` (uncacheable keys always miss)."""
        if key is None:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return value

    def put(self, key: tuple | None, value) -> None:
        if key is None or self.max_entries <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
