"""The content-addressed on-disk artifact store.

Layout: ``<root>/<kind>/<key[:2]>/<key>.<ext>`` — one file per
artifact, JSON for structured payloads and ``.npz`` for numpy array
bundles. The two-level fan-out keeps directories small at millions of
entries.

Concurrency model: *atomic last-writer-wins*. Every write lands in a
temp file in the destination directory and is published with
``os.replace``, so readers never observe a partial artifact and two
processes racing to publish the same key both succeed (the artifacts
are byte-identical by construction — the key is a content address).
Corrupt or truncated files (a crashed writer on a non-atomic
filesystem, bit rot) are treated as misses, counted, and overwritten
by the next put.

Counters (hits/misses/puts/bytes) accumulate in-process and are folded
into the persistent ``<root>/stats.json`` ledger by :meth:`flush_stats`
(read-merge-replace; concurrent flushes may drop a few counts, which
is acceptable for telemetry).
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import zipfile
from typing import Any, Optional

from repro.artifacts.keys import sha256_hex  # noqa: F401  (re-export)

#: Artifact kinds get one subdirectory each (the run-manifest, fleet
#: and frontier kinds are defined next to their writers).
KIND_SIGNATURES = "signatures"
KIND_SPACES = "spaces"
KIND_MODELS = "models"

_STATS_FILE = "stats.json"
_COUNTER_FIELDS = ("hits", "misses", "puts", "bytes_written")


class ArtifactStore:
    """A persistent, content-addressed artifact cache rooted at a
    directory. Safe for concurrent writers (see module docstring)."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.counters = {field: 0 for field in _COUNTER_FIELDS}

    # -- paths -----------------------------------------------------------

    def _path(self, kind: str, key: str, ext: str) -> str:
        return os.path.join(self.root, kind, key[:2], f"{key}.{ext}")

    def _publish(self, path: str, payload: bytes) -> None:
        """Atomically write ``payload`` to ``path``.

        An active :class:`~repro.resilience.faults.FaultPlan` with an
        ``artifact_corrupt_rate`` may truncate the payload mid-write
        here — simulating a torn write on a non-atomic filesystem —
        which downstream reads must treat as a cache miss.
        """
        from repro.resilience.faults import active_fault_plan

        plan = active_fault_plan()
        if plan is not None and plan.corrupts_artifact(os.path.basename(path)):
            payload = payload[: max(1, len(payload) // 2)]
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.counters["puts"] += 1
        self.counters["bytes_written"] += len(payload)

    # -- JSON artifacts --------------------------------------------------

    def get_json(self, kind: str, key: str) -> Optional[Any]:
        """Load a JSON artifact, or ``None`` on a miss.

        A corrupt/unreadable file counts as a miss (and will be
        repaired by the next :meth:`put_json` for the key).
        """
        path = self._path(kind, key, "json")
        try:
            with open(path, "rb") as handle:
                value = json.loads(handle.read().decode("utf-8"))
        except (OSError, ValueError, UnicodeDecodeError):
            self.counters["misses"] += 1
            return None
        self.counters["hits"] += 1
        return value

    def put_json(self, kind: str, key: str, value: Any) -> None:
        payload = json.dumps(value, ensure_ascii=False, separators=(",", ":"))
        self._publish(self._path(kind, key, "json"), payload.encode("utf-8"))

    # -- numpy array bundles ---------------------------------------------

    def get_arrays(self, kind: str, key: str) -> Optional[dict]:
        """Load an ``.npz`` bundle as ``{name: array}``, or ``None``.

        The bundle's ``__meta__`` entry (see :meth:`put_arrays`) is
        decoded back from JSON under the ``"meta"`` result key.
        """
        import numpy as np

        path = self._path(kind, key, "npz")
        try:
            with np.load(path, allow_pickle=False) as bundle:
                arrays = {name: bundle[name] for name in bundle.files}
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            # BadZipFile/EOFError: a truncated bundle (torn write on a
            # non-atomic filesystem) — a miss like any other corruption.
            self.counters["misses"] += 1
            return None
        meta_blob = arrays.pop("__meta__", None)
        if meta_blob is not None:
            try:
                arrays["meta"] = json.loads(str(meta_blob))
            except ValueError:
                self.counters["misses"] += 1
                return None
        self.counters["hits"] += 1
        return arrays

    def put_arrays(self, kind: str, key: str, arrays: dict, meta: Any = None) -> None:
        """Store arrays (plus an optional JSON-able ``meta``) as npz."""
        import numpy as np

        payload: dict = dict(arrays)
        if meta is not None:
            payload["__meta__"] = np.asarray(
                json.dumps(meta, ensure_ascii=False, separators=(",", ":"))
            )
        buffer = io.BytesIO()
        np.savez(buffer, **payload)
        self._publish(self._path(kind, key, "npz"), buffer.getvalue())

    # -- stats -----------------------------------------------------------

    def stats(self) -> dict:
        """This process's counters for the store (no disk scan)."""
        return dict(self.counters)

    def flush_stats(self) -> None:
        """Fold this process's counters into ``<root>/stats.json``."""
        deltas = {k: v for k, v in self.counters.items() if v}
        if not deltas:
            return
        merge_persistent_stats(self.root, deltas)
        for field in deltas:
            self.counters[field] = 0


def merge_persistent_stats(root: str | os.PathLike, deltas: dict) -> dict:
    """Read-merge-replace the cumulative counter ledger of a store."""
    root = os.fspath(root)
    path = os.path.join(root, _STATS_FILE)
    totals = load_persistent_stats(root)
    for field, value in deltas.items():
        totals[field] = totals.get(field, 0) + value
    os.makedirs(root, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(totals, handle, sort_keys=True)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return totals


def load_persistent_stats(root: str | os.PathLike) -> dict:
    """The cumulative hit/miss/put ledger of a store directory."""
    path = os.path.join(os.fspath(root), _STATS_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            value = json.load(handle)
    except (OSError, ValueError):
        return {}
    return value if isinstance(value, dict) else {}


__all__ = [
    "ArtifactStore",
    "KIND_MODELS",
    "KIND_SIGNATURES",
    "KIND_SPACES",
    "load_persistent_stats",
    "merge_persistent_stats",
]
