"""The execution layer: *how* the pipeline computes.

This module centralizes the execution questions behind one
:class:`ExecutionConfig` (probe concurrency, cache policy, recovery)
and provides the shared machinery:

- **Per-restart seed streams** (:func:`restart_seed_streams`): each
  restart of a clustering driver draws from its own namespaced RNG
  stream, so a restart is a pure function of ``(data, restart_seed)``
  and its result never depends on how many draws the previous restart
  consumed. The streams fix every seeded digest.
- **Chunked process fan-out** (:func:`run_chunked`): the fleet driver
  spreads *sites* over a :class:`~concurrent.futures.ProcessPoolExecutor`
  in contiguous chunks and gets results back in item order. Failed
  chunks (crashed workers, chunk exceptions) are retried and then
  degraded to in-process serial execution — see the worker-crash
  recovery notes on :func:`run_chunked` and DESIGN.md §11. Work inside
  one site runs in-process: at genre sizes a process pool never beat
  the serial loop.
- **Keyed vector-space cache** (:func:`cached_weighted_space`): the
  k-sensitivity sweeps re-cluster the *same* collection dozens of
  times with different k/restart settings; interning the collection
  into a :class:`~repro.vsm.matrix.VectorSpace` each time was the
  dominant cost. The cache keys on the collection *content* (count
  maps + weighting scheme), so it can never serve a stale space. Only
  Phase 1's page-signature spaces go through it: a Phase-2 subtree set
  is small and seen once per run, so ranking builds its space directly.

The user-facing knobs live on :class:`repro.config.ExecutionConfig`
(re-exported here), threaded through ``ThorConfig.execution``, every
pipeline stage, and the CLI ``--jobs`` flag.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import (
    Any, Callable, Iterable, Mapping, Optional, Sequence, Tuple, Union
)

from repro.config import ExecutionConfig, resolve_cache_dir, resolve_n_jobs
from repro.errors import ChunkFailedError

#: Seed material for one restart: anything ``random.Random`` accepts
#: deterministically (namespaced strings for seeded runs, fresh 64-bit
#: integers for unseeded ones).
SeedMaterial = Union[str, int]


def restart_seed_streams(
    seed: Optional[int], restarts: int, namespace: str
) -> list[SeedMaterial]:
    """One independent RNG seed per restart.

    Seeded runs derive ``"namespace:seed:restart"`` strings (string
    seeding is deterministic across processes, unlike salted tuple
    hashes — see :mod:`repro.seeding`); unseeded runs draw fresh
    entropy per restart. Either way restart ``r``'s stream never
    depends on how many draws restart ``r-1`` consumed.

    >>> restart_seed_streams(7, 2, "kmeans")
    ['kmeans:7:0', 'kmeans:7:1']
    """
    if seed is None:
        entropy = random.Random()
        return [entropy.getrandbits(64) for _ in range(restarts)]
    return [f"{namespace}:{seed}:{index}" for index in range(restarts)]


def _chunks(items: Sequence[Any], n_jobs: int) -> list[list[Any]]:
    """Split ``items`` into at most ``n_jobs`` contiguous chunks."""
    n_jobs = min(n_jobs, len(items))
    size, extra = divmod(len(items), n_jobs)
    chunks = []
    start = 0
    for index in range(n_jobs):
        stop = start + size + (1 if index < extra else 0)
        chunks.append(list(items[start:stop]))
        start = stop
    return chunks


#: Backoff schedule for chunk re-execution after a worker crash. The
#: delays are tiny (workers are local processes, not remote services)
#: and seeded, so a retried run schedules identically every time.
_CHUNK_BACKOFF_BASE_S = 0.01
_CHUNK_BACKOFF_CAP_S = 0.25


def _chunk_offsets(chunks: Sequence[Sequence[Any]]) -> list[int]:
    """Start index of each contiguous chunk in the original items."""
    offsets = []
    start = 0
    for chunk in chunks:
        offsets.append(start)
        start += len(chunk)
    return offsets


def _transport_bytes(value: Any) -> int:
    """Serialized size of one cross-process value: its pickle, exactly
    what the process pool ships."""
    import pickle

    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0


def run_chunked(
    worker: Callable[[Any, Sequence[Any]], list],
    payload: Any,
    items: Sequence[Any],
    n_jobs: int = 1,
    *,
    label: str = "chunked",
    execution: Optional[ExecutionConfig] = None,
) -> list:
    """Run ``worker(payload, chunk)`` over all items, possibly across
    processes, returning per-item results in item order.

    ``worker`` must be a module-level (picklable) function that maps a
    chunk of items to one result per item, in order; items must pickle
    (the fleet driver's site specs). With ``n_jobs <= 1``
    (or a single item) everything runs inline; a pool that cannot
    start (sandboxes without process support) also degrades to inline
    execution rather than failing the computation. Chunking is
    contiguous, so concatenating the chunk results reproduces the
    serial output order exactly.

    **Worker-crash recovery.** A chunk whose worker dies
    (``BrokenProcessPool``) or raises is retried in a fresh pool up to
    ``execution.chunk_retries`` times under seeded backoff (the
    :class:`~repro.probe.retry.RetryPolicy` schedule), then falls back
    to in-process serial execution. ``worker`` is pure, so a
    re-execution — parallel or serial — returns bitwise-identical
    results; recovery can change *where* a chunk computes, never what.
    With ``execution.recovery="off"`` the first failure raises
    :class:`~repro.errors.ChunkFailedError` instead, carrying the
    chunk's payload indices (and the worker exception as
    ``__cause__``) for an actionable traceback. Retries and fallbacks
    are counted on the active run report, and an active
    :class:`~repro.resilience.faults.FaultPlan` may inject
    deterministic chunk faults here (chaos tests).

    **Transport accounting.** When a run report is active, every
    successful pool chunk records its serialized payload size (what
    was pickled *to* the worker) and result size (its pickle) under
    ``label`` — the ``--report`` CLI output reads these to keep
    transport-cost regressions visible. Inline and
    serial-fallback execution cross no process boundary and count
    nothing.
    """
    items = list(items)
    if n_jobs <= 1 or len(items) <= 1:
        return worker(payload, items)
    if execution is None:
        execution = ExecutionConfig()
    recovery = execution.recovery == "on"
    chunks = _chunks(items, n_jobs)
    offsets = _chunk_offsets(chunks)
    try:
        import concurrent.futures
    except ImportError:  # pragma: no cover - stdlib always present
        return worker(payload, items)
    from repro.resilience.faults import active_fault_plan
    from repro.resilience.report import current_report

    plan = active_fault_plan()
    report = current_report()
    results: list = [None] * len(chunks)
    failures: dict[int, Exception] = {}
    pending = list(range(len(chunks)))
    max_attempts = 1 + (execution.chunk_retries if recovery else 0)
    policy = None
    for attempt in range(1, max_attempts + 1):
        if attempt > 1:
            if report is not None:
                report.count_chunk_retry(len(pending))
            if policy is None:
                from repro.probe.retry import RetryPolicy

                policy = RetryPolicy(
                    max_retries=execution.chunk_retries,
                    backoff_base_s=_CHUNK_BACKOFF_BASE_S,
                    backoff_cap_s=_CHUNK_BACKOFF_CAP_S,
                    seed=0,
                )
            delay = policy.backoff_delay(label, attempt - 1)
            if delay > 0:
                import time

                time.sleep(delay)
        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=len(pending)
            ) as pool:
                futures = {
                    index: pool.submit(worker, payload, chunks[index])
                    for index in pending
                }
                still_failed = []
                for index in pending:
                    injected = (
                        plan.worker_fault(label, index, attempt)
                        if plan is not None
                        else None
                    )
                    if injected is not None:
                        failures[index] = injected
                        still_failed.append(index)
                        continue
                    try:
                        results[index] = futures[index].result()
                    except Exception as exc:  # incl. BrokenProcessPool
                        failures[index] = exc
                        still_failed.append(index)
                        continue
                    if report is not None:
                        report.count_transport(
                            label,
                            sent=_transport_bytes((payload, chunks[index])),
                            received=_transport_bytes(results[index]),
                        )
                pending = still_failed
        except (OSError, PermissionError):  # pragma: no cover
            # Process pools need /dev/shm semaphores and fork/spawn
            # rights; degrade to the (identical) serial computation.
            break
        if not pending:
            break
    if pending:
        if not recovery:
            index = pending[0]
            indices = tuple(
                range(offsets[index], offsets[index] + len(chunks[index]))
            )
            raise ChunkFailedError(
                f"{label} chunk {index} (items {indices[0]}..{indices[-1]}) "
                f"failed and recovery is off",
                indices=indices,
                label=label,
            ) from failures.get(index)
        # Last line of defense: the failed chunks run serially in this
        # process — the same pure computation, so results (and their
        # order) are unchanged.
        for index in pending:
            indices = tuple(
                range(offsets[index], offsets[index] + len(chunks[index]))
            )
            try:
                results[index] = worker(payload, chunks[index])
            except Exception as exc:
                raise ChunkFailedError(
                    f"{label} chunk {index} (items {indices[0]}.."
                    f"{indices[-1]}) failed in every worker attempt and in "
                    "the serial fallback",
                    indices=indices,
                    label=label,
                ) from exc
            if report is not None:
                report.count_serial_fallback()
    return [result for batch in results for result in batch]


def select_best(results: Iterable, better: Callable[[Any, Any], bool]):
    """First-wins best-of reduction in restart order.

    ``better(candidate, incumbent)`` must implement a *strict* "is
    better than", so ties keep the earliest restart.
    """
    best = None
    for result in results:
        if best is None or better(result, best):
            best = result
    return best


# ---------------------------------------------------------------------------
# Artifact-store registry
# ---------------------------------------------------------------------------

#: One :class:`~repro.artifacts.store.ArtifactStore` per root path, so
#: every stage of one process shares a counter set per cache directory.
_STORE_REGISTRY: dict[str, Any] = {}


def artifact_store_for(execution: Optional[ExecutionConfig] = None):
    """The process-wide artifact store for an execution plan.

    Returns ``None`` when no persistent cache is configured (no
    ``cache_dir``, no ``REPRO_CACHE_DIR``, or ``artifact_cache="off"``
    — see :func:`repro.config.resolve_cache_dir`). Stores are memoized
    per root path; an unusable root (read-only filesystem) disables
    the cache rather than failing the pipeline.
    """
    root = resolve_cache_dir(execution)
    if root is None:
        return None
    store = _STORE_REGISTRY.get(root)
    if store is None:
        from repro.artifacts.store import ArtifactStore

        try:
            store = ArtifactStore(root)
        except OSError:
            return None
        _STORE_REGISTRY[root] = store
    return store


def clear_artifact_store_registry() -> None:
    """Forget memoized stores (tests that reuse a tmp root path)."""
    _STORE_REGISTRY.clear()


# ---------------------------------------------------------------------------
# Keyed VectorSpace cache
# ---------------------------------------------------------------------------

_SpaceKey = Tuple[str, tuple]

_SPACE_CACHE: "OrderedDict[_SpaceKey, Any]" = OrderedDict()
_SPACE_CACHE_LIMIT = 16
_SPACE_CACHE_STATS = {"hits": 0, "misses": 0}


def _space_key(count_maps: Sequence[Mapping[str, float]], weighting: str) -> _SpaceKey:
    """A content key for a collection: never stale, cheap vs interning.

    Items are kept in *iteration order*, not sorted: the vocabulary
    column order of the built space follows first-seen term order, so
    two collections with equal sorted content but different insertion
    order produce different (column-permuted) spaces and must not
    share a cache slot.
    """
    return (
        weighting,
        tuple(tuple(counts.items()) for counts in count_maps),
    )


def cached_weighted_space(
    count_maps: Sequence[Mapping[str, float]],
    weighting: str = "tfidf",
    execution: Optional[ExecutionConfig] = None,
):
    """:func:`repro.vsm.matrix.weighted_space` behind the keyed cache.

    The cache key is the collection *content* (count maps in order,
    plus the weighting scheme), so a hit is always the exact space a
    fresh build would produce; the k-sensitivity sweeps re-cluster one
    collection per (k, restarts) point and pay the interning cost once.
    ``ExecutionConfig(cache="off")`` bypasses the cache entirely.
    Spaces must be treated as immutable by callers (they already are:
    every kernel copies before writing).

    When the execution plan configures a persistent artifact store
    (``cache_dir`` / ``REPRO_CACHE_DIR``), an in-memory miss falls
    through to the on-disk cache before rebuilding, and fresh builds
    are persisted — the keyed space cache survives across processes.
    Stored matrices are exact float64 round-trips, so a disk hit is
    bitwise identical to a cold build.
    """
    from repro.vsm.matrix import weighted_space

    if execution is not None and execution.cache == "off":
        return weighted_space(count_maps, weighting)
    key = _space_key(count_maps, weighting)
    space = _SPACE_CACHE.get(key)
    if space is not None:
        _SPACE_CACHE.move_to_end(key)
        _SPACE_CACHE_STATS["hits"] += 1
        return space
    _SPACE_CACHE_STATS["misses"] += 1
    store = artifact_store_for(execution)
    space = _load_persistent_space(store, count_maps, weighting)
    if space is None:
        space = weighted_space(count_maps, weighting)
        _store_persistent_space(store, count_maps, weighting, space)
    _SPACE_CACHE[key] = space
    while len(_SPACE_CACHE) > _SPACE_CACHE_LIMIT:
        _SPACE_CACHE.popitem(last=False)
    return space


def _load_persistent_space(
    store, count_maps: Sequence[Mapping[str, float]], weighting: str
):
    """Rebuild a :class:`VectorSpace` from the artifact store, if any."""
    if store is None:
        return None
    from repro.artifacts.keys import space_key as persistent_space_key
    from repro.artifacts.store import KIND_SPACES
    from repro.vsm.matrix import VectorSpace

    bundle = store.get_arrays(KIND_SPACES, persistent_space_key(count_maps, weighting))
    if bundle is None:
        return None
    meta = bundle.get("meta")
    if (
        not isinstance(meta, dict)
        or not isinstance(meta.get("features"), list)
        or "matrix" not in bundle
        or "norms" not in bundle
    ):
        return None
    features = meta["features"]
    matrix = bundle["matrix"]
    if matrix.ndim != 2 or matrix.shape != (len(count_maps), len(features)):
        return None
    vocabulary = {feature: index for index, feature in enumerate(features)}
    return VectorSpace(vocabulary, matrix, bundle["norms"])


def _store_persistent_space(
    store, count_maps: Sequence[Mapping[str, float]], weighting: str, space
) -> None:
    """Persist a freshly built space (best effort — cache, not state)."""
    if store is None:
        return
    from repro.artifacts.keys import space_key as persistent_space_key
    from repro.artifacts.store import KIND_SPACES

    try:
        store.put_arrays(
            KIND_SPACES,
            persistent_space_key(count_maps, weighting),
            {"matrix": space.matrix, "norms": space.norms},
            meta={"features": space.features},
        )
    except OSError:  # pragma: no cover - disk-full/permission races
        pass


def space_cache_stats() -> dict[str, int]:
    """Hit/miss counters plus current size (diagnostics and tests)."""
    return {**_SPACE_CACHE_STATS, "size": len(_SPACE_CACHE)}


def clear_space_cache() -> None:
    """Drop every cached space and reset the counters."""
    _SPACE_CACHE.clear()
    _SPACE_CACHE_STATS["hits"] = 0
    _SPACE_CACHE_STATS["misses"] = 0


__all__ = [
    "ExecutionConfig",
    "SeedMaterial",
    "artifact_store_for",
    "cached_weighted_space",
    "clear_artifact_store_registry",
    "clear_space_cache",
    "resolve_cache_dir",
    "resolve_n_jobs",
    "restart_seed_streams",
    "run_chunked",
    "select_best",
    "space_cache_stats",
]
