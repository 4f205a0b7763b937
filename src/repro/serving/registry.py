"""Versioned model registry with atomic activation and disk spill.

Checkpoints are stored as the sealed blob bytes produced by
:func:`repro.models.serialize.save_model_bytes` — publishing and
hot-swapping a checkpoint is a pure in-memory operation, and the bytes
form is exactly what ships to executor worker processes (over pipes) and
remote nodes (over sockets). :meth:`ModelRegistry.spill` writes those
same bytes to a directory (one file per version plus a manifest) and
:meth:`ModelRegistry.load` restores them byte-identically, so a restarted
service — or a fresh worker on another machine — recovers the exact
active checkpoint.

Activation is a single reference swap under a lock: the service snapshots
the active version once per micro-batch, so an in-flight batch keeps the
checkpoint it started with and a swap never mixes two checkpoints inside
one response.

Staged-version lifecycle (the deployment control plane's half of the
contract): :meth:`stage` marks one version as *staged* — published,
shippable to executors, but never serving unless a rollout policy
explicitly routes to it. The staged marker survives spill/load, is
cleared by a rollback (:meth:`clear_staged`) or consumed by promotion
(:meth:`activate` of the staged version), and — like the active version —
is exempt from retention pruning.
"""
from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path

from ..models.serialize import (
    load_model_bytes,
    save_model_bytes,
    validate_model_blob,
)
from ..models.trainer import TrainResult
from .journal import record_event

#: Version names double as spill file names, so they are restricted to
#: filesystem-safe characters.
_VERSION_RE = re.compile(r"^[A-Za-z0-9._-]+$")

_MANIFEST_NAME = "manifest.json"
_BLOB_SUFFIX = ".ckpt"


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file +
    ``os.replace``, so a crash mid-write never leaves a truncated file
    under the final name (``os.replace`` is atomic within a filesystem)."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class ModelRegistry:
    """In-memory store of serialized checkpoints, one of them *active*.

    Versions are auto-assigned (``v1``, ``v2``, ...) unless the caller
    names them. Deserialized checkpoints are memoized per version, so
    repeated :meth:`get` calls (every executor building a live version)
    pay the npz decode once.

    Args:
        retain: keep at most this many published versions; publishing
            past the bound drops the oldest versions that are neither
            active nor staged (a continuous-learning loop publishes
            forever — the registry must not grow forever with it).
            ``None`` (default) disables pruning.
    """

    def __init__(self, retain: int | None = None) -> None:
        if retain is not None and retain < 2:
            # Active + staged can coexist; a bound of 1 would have to
            # drop one of them.
            raise ValueError("retain must be >= 2 (or None)")
        self._lock = threading.Lock()
        self._retain = retain
        self._blobs: dict[str, bytes] = {}
        self._materialized: dict[str, TrainResult] = {}
        self._order: list[str] = []
        self._active: str | None = None
        self._staged: str | None = None
        self._counter = 0
        #: Duck-typed ops journal, written through ``record_event``;
        #: ``None`` by default — every hook below is one None-check.
        self.journal = None

    def publish(
        self,
        result: TrainResult | bytes,
        version: str | None = None,
        activate: bool = True,
        stage: bool = False,
    ) -> str:
        """Store a checkpoint; returns its version string.

        Args:
            result: a trained :class:`TrainResult` (serialized internally)
                or pre-serialized checkpoint bytes.
            version: explicit version name; auto-assigned when ``None``.
            activate: immediately make this the active version. With
                ``activate=False`` the registry's active version is left
                untouched — including ``None`` on a fresh registry (staged
                checkpoints never serve before an explicit
                :meth:`activate`).
            stage: mark the new version as *staged* (mutually exclusive
                with ``activate``). The marker is set inside the same
                locked section as retention pruning, so a freshly staged
                version can never be its own retention victim.

        Raises:
            ValueError: if ``version`` is already taken or not a
                filesystem-safe name (it doubles as the spill file name).
            ModelBlobError: if ``result`` is bytes that fail integrity
                validation (a garbage blob is rejected at publish time,
                not when a worker tries to serve it).
        """
        if activate and stage:
            raise ValueError("a version cannot be both active and staged")
        if isinstance(result, bytes):
            validate_model_blob(result)
            blob = result
        else:
            blob = save_model_bytes(result)
        with self._lock:
            if version is None:
                self._counter += 1
                version = f"v{self._counter}"
            elif not _VERSION_RE.match(version):
                raise ValueError(
                    f"version {version!r} is not a filesystem-safe name"
                )
            if version in self._blobs:
                raise ValueError(f"version {version!r} already published")
            # Keep auto-numbering ahead of explicit vN names so a reloaded
            # registry (or a caller mixing both styles) never collides.
            match = re.fullmatch(r"v(\d+)", version)
            if match:
                self._counter = max(self._counter, int(match.group(1)))
            self._blobs[version] = blob
            self._order.append(version)
            if activate:
                self._active = version
                if self._staged == version:
                    self._staged = None
            if stage:
                self._staged = version
            self._prune_materialized_locked()
            self._prune_retention_locked()
        record_event(
            self.journal,
            "registry.publish", version=version, activated=activate, staged=stage
        )
        return version

    def activate(self, version: str) -> None:
        """Atomically make ``version`` the active checkpoint.

        Activating the staged version consumes the staged marker — that
        *is* a promotion.
        """
        with self._lock:
            if version not in self._blobs:
                raise KeyError(f"unknown model version {version!r}")
            previous = self._active
            promoted = self._staged == version
            self._active = version
            if promoted:
                self._staged = None
            self._prune_materialized_locked()
            self._prune_retention_locked()
        record_event(
            self.journal,
            "registry.activate",
            version=version,
            previous=previous,
            promoted=promoted,
        )

    # ------------------------------------------------------------------ #
    # staged-version lifecycle
    # ------------------------------------------------------------------ #

    def stage(
        self,
        result: TrainResult | bytes | str,
        version: str | None = None,
    ) -> str:
        """Publish (without activating) and mark a checkpoint as staged.

        Args:
            result: a :class:`TrainResult`, pre-serialized blob bytes, or
                the name of an **already published** version to stage.
            version: explicit version name when publishing.

        Returns the staged version string. Staging replaces any previous
        staged marker (the old staged version stays published but loses
        its pruning exemption).
        """
        if isinstance(result, str):
            if version is not None and version != result:
                raise ValueError("cannot rename an already-published version")
            with self._lock:
                if result not in self._blobs:
                    raise KeyError(f"unknown model version {result!r}")
                if result == self._active:
                    raise ValueError(
                        f"version {result!r} is active; a version cannot be "
                        "both active and staged"
                    )
                self._staged = result
            record_event(self.journal, "registry.stage", version=result)
            return result
        return self.publish(result, version=version, activate=False, stage=True)

    def clear_staged(self) -> None:
        """Drop the staged marker (a rollback); the blob stays published
        until retention prunes it."""
        with self._lock:
            cleared = self._staged
            self._staged = None
            self._prune_materialized_locked()
            self._prune_retention_locked()
        if cleared is not None:
            record_event(self.journal, "registry.clear_staged", version=cleared)

    @property
    def staged_version(self) -> str | None:
        """The currently staged version (``None`` when nothing is staged)."""
        with self._lock:
            return self._staged

    def _prune_materialized_locked(self) -> None:
        """Drop deserialized models of versions that are neither active
        nor staged (the blobs can rebuild them on demand) so a long
        publish/swap history doesn't pin every old checkpoint's
        parameters in memory. Active *and* staged stay warm — a live
        rollout serves both concurrently."""
        keep = {self._active, self._staged}
        for version in list(self._materialized):
            if version not in keep:
                del self._materialized[version]

    def _prune_retention_locked(self) -> None:
        """Enforce the retention bound, never touching active or staged."""
        if self._retain is None:
            return
        while len(self._order) > self._retain:
            victim = next(
                (
                    v
                    for v in self._order
                    if v != self._active and v != self._staged
                ),
                None,
            )
            if victim is None:
                return
            self._order.remove(victim)
            del self._blobs[victim]
            self._materialized.pop(victim, None)

    def __contains__(self, version: str) -> bool:
        with self._lock:
            return version in self._blobs

    @property
    def active_version(self) -> str | None:
        """The currently active version (``None`` when empty)."""
        with self._lock:
            return self._active

    @property
    def versions(self) -> list[str]:
        """All published versions, in publication order."""
        with self._lock:
            return list(self._order)

    @property
    def live_versions(self) -> tuple[str, ...]:
        """Versions an executor must keep warm: active first, then staged.

        This is the blob-sync set for placement changes — a newly spawned
        shard worker is synced to every live version before the shard map
        swaps to it, so a mid-rollout migration can serve a canary- or
        shadow-routed batch from the new worker without a cold blob load
        (and without ever mixing versions inside a batch).
        """
        with self._lock:
            return tuple(
                v for v in (self._active, self._staged) if v is not None
            )

    def get(self, version: str) -> TrainResult:
        """Deserialize (memoized) the checkpoint stored under ``version``."""
        with self._lock:
            blob = self._blobs.get(version)
            cached = self._materialized.get(version)
        if blob is None:
            raise KeyError(f"unknown model version {version!r}")
        if cached is not None:
            return cached
        result = load_model_bytes(blob)
        with self._lock:
            self._materialized.setdefault(version, result)
            return self._materialized[version]

    def blob(self, version: str) -> bytes:
        """The raw serialized checkpoint (what a remote node would fetch)."""
        with self._lock:
            try:
                return self._blobs[version]
            except KeyError:
                raise KeyError(f"unknown model version {version!r}") from None

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def spill(self, directory: str | Path) -> Path:
        """Write every checkpoint + a manifest to ``directory``.

        Each version lands as ``<version>.ckpt`` holding its exact blob
        bytes; ``manifest.json`` records publication order, the active
        version, and the staged version. Re-spilling over an existing
        directory overwrites — version blobs are immutable, so this is
        idempotent.

        Every file is written atomically (same-directory temp file +
        ``os.replace``): a process killed mid-spill leaves either the
        previous complete file or the new complete file, never a
        truncated blob — so a warm-start :meth:`load` after a crash
        always sees integrity-valid checkpoints.

        Returns:
            The directory written.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self._lock:
            blobs = dict(self._blobs)
            order = list(self._order)
            active = self._active
            staged = self._staged
        for version, blob in blobs.items():
            _write_atomic(directory / f"{version}{_BLOB_SUFFIX}", blob)
        manifest = {"versions": order, "active": active, "staged": staged}
        _write_atomic(
            directory / _MANIFEST_NAME,
            json.dumps(manifest, indent=2).encode(),
        )
        record_event(
            self.journal,
            "registry.spill",
            directory=str(directory),
            versions=len(order),
            active=active,
            staged=staged,
        )
        return directory

    @classmethod
    def load(
        cls,
        directory: str | Path,
        retain: int | None = None,
        journal=None,
    ) -> "ModelRegistry":
        """Restore a registry spilled by :meth:`spill`, byte-identically.

        Every blob is integrity-checked on the way in (typed
        ``ModelBlobError`` on truncation/corruption), the publication
        order, active version, and staged marker are restored, and
        auto-numbering resumes past the highest reloaded ``vN``.

        Raises:
            FileNotFoundError: no manifest (or a missing version file).
            ModelBlobError: a checkpoint file failed validation.
        """
        directory = Path(directory)
        manifest = json.loads((directory / _MANIFEST_NAME).read_text())
        # Retention is applied only after the active/staged markers are
        # restored — pruning mid-load could otherwise evict the very
        # version the manifest is about to activate.
        registry = cls()
        for version in manifest["versions"]:
            blob = (directory / f"{version}{_BLOB_SUFFIX}").read_bytes()
            registry.publish(blob, version=version, activate=False)
        if manifest["active"] is not None:
            registry.activate(manifest["active"])
        # .get(): manifests written before the control plane carry no
        # staged marker.
        staged = manifest.get("staged")
        if staged is not None:
            registry.stage(staged)
        if retain is not None:
            if retain < 2:
                raise ValueError("retain must be >= 2 (or None)")
            with registry._lock:
                registry._retain = retain
                registry._prune_retention_locked()
        # Attach the journal only after the interior publish/activate
        # replays — the restore is one event, not a re-run of history.
        registry.journal = journal
        record_event(
            registry.journal,
            "registry.load",
            directory=str(directory),
            versions=len(registry.versions),
            active=registry.active_version,
            staged=registry.staged_version,
        )
        return registry
