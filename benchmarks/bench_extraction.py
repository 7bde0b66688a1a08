"""Phase-2 extraction: serial cold vs warm read-back of the artifact cache.

Per-page single-page analysis — parse → candidate subtrees → node-free
record snapshots with subtree term counts
(:func:`repro.core.single_page.candidate_records_for_cluster`) —
carries the bulk of Phase 2's per-page cost; cross-page grouping
reuses memoized quadruple distance matrices either way. With a
persistent artifact store, a later run reads each page's records back
instead of recomputing them.

This bench measures that stage with no store, cold into a fresh store,
and warm from the filled store, asserts the bitwise-equivalence
invariant along the way (warm == cold == no store, record for record),
and archives ``BENCH_extraction.json``. Everything runs in one process:
process fan-out inside a site never beat the serial loop at genre
sizes, so sites are the only unit of process parallelism.

Floor (a skipped floor would be recorded in the archived JSON's
``skipped_floors`` list, with its reason — never silently):

- warm read-back ≥ ``REPRO_BENCH_WARM_FLOOR``× the no-store run
  (default 4.0; measured 2.16× on 2 CPUs, so the floor currently
  fails: decoding a cached record costs more than it once did
  relative to recomputing it from the page's preorder index).
"""

from __future__ import annotations

import os
import tempfile
import time

from conftest import emit, emit_json
from repro.config import ExecutionConfig, SubtreeConfig
from repro.core.identification import PageletIdentifier
from repro.core.page import Page
from repro.core.single_page import candidate_records_for_cluster

WARM_FLOOR = float(os.environ.get("REPRO_BENCH_WARM_FLOOR", "4.0"))


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _reset_caches() -> None:
    from repro.core.subtree_sets import clear_quad_matrix_memo
    from repro.runtime import clear_artifact_store_registry, clear_space_cache

    clear_space_cache()
    clear_artifact_store_registry()
    clear_quad_matrix_memo()


def _timed(fn, rounds: int = 2):
    """Best-of-``rounds`` wall clock and the last result."""
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_phase2_cache_speedup(corpus, capsys):
    pages = [page for sample in corpus for page in sample.pages]

    def clone_pages():
        # Fresh Page objects every timed run: a previously parsed tree
        # cached on the page would hand a later run a head start (and
        # the cache paths must re-derive everything from HTML).
        return [Page(p.html, url=p.url, query=p.query) for p in pages]

    serial_s, baseline = _timed(
        lambda: candidate_records_for_cluster(clone_pages())
    )

    root = tempfile.mkdtemp(prefix="bench-extraction-")
    execution = ExecutionConfig(cache_dir=root)
    _reset_caches()
    start = time.perf_counter()
    cold_records = candidate_records_for_cluster(
        clone_pages(), execution=execution
    )
    cold_s = time.perf_counter() - start  # one shot: a rerun is warm
    assert cold_records == baseline  # cold == no store, bitwise

    _reset_caches()
    warm_s, warm_records = _timed(
        lambda: candidate_records_for_cluster(
            clone_pages(), execution=execution
        )
    )
    assert warm_records == baseline  # warm == cold, bitwise

    # End-to-end Phase 2 for context: grouping, ranking and selection
    # downstream of the per-page records run the same way either way.
    site_pages = list(corpus[0].pages)
    root = tempfile.mkdtemp(prefix="bench-extraction-identify-")

    def identify(execution=None):
        return PageletIdentifier(
            SubtreeConfig(), seed=0, execution=execution
        ).identify([Page(p.html, url=p.url, query=p.query) for p in site_pages])

    _reset_caches()
    identify_serial_s, serial_result = _timed(identify)
    _reset_caches()
    identify_cold_s, _ = _timed(
        lambda: identify(ExecutionConfig(cache_dir=root)), rounds=1
    )
    _reset_caches()
    identify_warm_s, warm_result = _timed(
        lambda: identify(ExecutionConfig(cache_dir=root))
    )
    assert [
        (p.path, repr(p.score), p.rank) for p in warm_result.pagelets
    ] == [(p.path, repr(p.score), p.rank) for p in serial_result.pagelets]

    cpus = _available_cpus()
    skipped_floors: list = []
    cold = {"seconds": cold_s, "speedup": serial_s / cold_s}
    warm = {"seconds": warm_s, "speedup": serial_s / warm_s}
    lines = [
        f"pages: {len(pages)}  cpus: {cpus}",
        f"per-page analysis, no store: {serial_s:.3f}s",
        f"  cold store: {cold_s:.3f}s ({cold['speedup']:.2f}x)"
        f"  warm read-back: {warm_s:.3f}s ({warm['speedup']:.2f}x)",
        f"identify end-to-end ({len(site_pages)} pages):"
        f" no store {identify_serial_s:.3f}s"
        f"  cold {identify_cold_s:.3f}s"
        f"  warm {identify_warm_s:.3f}s"
        f" ({identify_serial_s / identify_warm_s:.2f}x)",
    ]
    emit(capsys, "extraction_speedup", "\n".join(lines))

    emit_json(
        "BENCH_extraction",
        {
            "available_cpus": cpus,
            "n_pages": len(pages),
            "estimator": "min (cold runs are single-shot: a rerun is warm)",
            "per_page_analysis": {
                "serial_seconds": serial_s,
                "cold": cold,
                "warm_read_back": warm,
            },
            "identify_end_to_end": {
                "n_pages": len(site_pages),
                "serial_seconds": identify_serial_s,
                "cold_seconds": identify_cold_s,
                "warm_seconds": identify_warm_s,
                "warm_speedup": identify_serial_s / identify_warm_s,
            },
            "bitwise_identical": True,
            "floors": {
                "warm": WARM_FLOOR,
                "skipped_floors": skipped_floors,
            },
        },
    )

    assert warm["speedup"] >= WARM_FLOOR
