"""Whole-site runs with no artifact store, into a fresh store, and warm.

A site's ``Thor.run`` (probe → signatures → Phase 1 → Phase 2 →
partition) is timed three ways over one site per genre:

- **no store**: nothing is read or written;
- **cold**: into a fresh store, which the run fills with page
  signatures, Phase-1 spaces and the site model;
- **warm**: again over the filled store, which primes every page's
  signatures and Phase-1 spaces.

Phase 2 computes from the page trees in all three (it stores nothing),
so the store can only change what Phase 1 costs. The bench asserts the
three runs give bitwise-identical result digests per site, and archives
``BENCH_extraction.json`` with each variant's speed relative to the
no-store run, the CPU count and any skipped floor. Everything runs in
one process: sites are the only unit of process parallelism.

Floor (a skipped floor is recorded in the archived JSON's
``skipped_floors`` list, with its reason — never silently):

- warm speed ≥ ``REPRO_BENCH_WARM_FLOOR``× the no-store run (default
  0.8): a filled store must not make a run noticeably slower than no
  store at all.
"""

from __future__ import annotations

import os
import tempfile
import time

from conftest import BENCH_SEED, emit, emit_json
from repro.config import ExecutionConfig, ThorConfig
from repro.core.thor import Thor
from repro.deepweb import make_site
from repro.deepweb.domains import DOMAINS
from repro.io.export import result_digest

WARM_FLOOR = float(os.environ.get("REPRO_BENCH_WARM_FLOOR", "0.8"))
#: Records per simulated site (the CLI default).
RECORDS = 150
GENRES = sorted(DOMAINS)


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


def _sweep(execution: ExecutionConfig) -> tuple[float, list[str], int]:
    """Run every genre's site once: (seconds, digests, pages)."""
    _reset_caches()
    digests = []
    pages = 0
    elapsed = 0.0
    for genre in GENRES:
        site = make_site(genre, seed=BENCH_SEED, records=RECORDS)
        thor = Thor(ThorConfig(seed=BENCH_SEED, execution=execution))
        start = time.perf_counter()
        result = thor.run(site)
        elapsed += time.perf_counter() - start
        digests.append(result_digest(result))
        pages += len(result.pages)
    return elapsed, digests, pages


def _best(runs):
    """The fastest of several sweeps (its digests are all equal)."""
    return min(runs, key=lambda run: run[0])


def test_store_costs_no_run_time(capsys):
    rounds = 3
    # One untimed sweep first: process-wide memos (stems, path
    # distances) then start equally warm for every timed variant.
    _sweep(ExecutionConfig())
    runs: dict[str, list] = {"no_store": [], "cold": [], "warm": []}
    for _ in range(rounds):
        # Interleaved, so drift on a shared host hits all three alike;
        # each cold sweep fills its own fresh store, which the warm
        # sweep right after it reads.
        execution = ExecutionConfig(
            cache_dir=tempfile.mkdtemp(prefix="bench-extraction-")
        )
        runs["no_store"].append(_sweep(ExecutionConfig()))
        runs["cold"].append(_sweep(execution))
        runs["warm"].append(_sweep(execution))
    no_store, cold, warm = (_best(runs[name]) for name in runs)

    assert cold[1] == no_store[1]  # cold == no store, bitwise
    assert warm[1] == no_store[1]  # warm == no store, bitwise

    cpus = _available_cpus()
    n_pages = no_store[2]
    speed = {
        "cold": no_store[0] / cold[0],
        "warm": no_store[0] / warm[0],
    }
    skipped_floors: list = []
    lines = [
        f"sites: {len(GENRES)} (seed {BENCH_SEED})  pages: {n_pages}  cpus: {cpus}",
        f"Thor.run, no store: {no_store[0]:.3f}s"
        f" ({n_pages / no_store[0]:.0f} pages/s)",
        f"  cold store: {cold[0]:.3f}s ({speed['cold']:.2f}x)"
        f"  warm store: {warm[0]:.3f}s ({speed['warm']:.2f}x)",
        "  (speed relative to no store; best of "
        f"{rounds} sweeps each)",
    ]
    emit(capsys, "extraction_speedup", "\n".join(lines))

    emit_json(
        "BENCH_extraction",
        {
            "available_cpus": cpus,
            "n_sites": len(GENRES),
            "site_seed": BENCH_SEED,
            "n_pages": n_pages,
            "estimator": f"min over {rounds} interleaved sweeps of all sites,"
            " after one untimed warm-up sweep",
            "run_seconds": {
                "no_store": no_store[0],
                "cold": cold[0],
                "warm": warm[0],
            },
            "speed_vs_no_store": speed,
            "bitwise_identical": True,
            "floors": {
                "warm": WARM_FLOOR,
                "skipped_floors": skipped_floors,
            },
        },
    )

    assert speed["warm"] >= WARM_FLOOR
