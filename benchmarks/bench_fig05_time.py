"""Figure 5: average time per clustering iteration vs pages per site.

Paper claim: tag-based clustering is about an order of magnitude faster
than content-based clustering (22.3 distinct tags vs 184.0 distinct
content terms per page), and the URL edit-distance approach is far
slower still.
"""

from __future__ import annotations

import os

from conftest import BENCH_SEED, emit, merge_json
from repro.eval.reporting import format_series
from repro.signatures.registry import get_configuration
from tests import oracles


def test_fig05_time(corpus, quality_results, benchmark, capsys):
    sizes, configs, results = quality_results
    series = {
        key: [results[key][n].seconds for n in sizes] for key in configs
    }
    emit(
        capsys,
        "fig05_time",
        format_series(
            "pages/site",
            sizes,
            series,
            title="Figure 5 — avg seconds per clustering iteration",
            precision=5,
        ),
    )

    at_110 = {key: results[key][110].seconds for key in configs}
    # Tag-based must beat content-based; URL edit distance is the
    # slowest of the similarity-based approaches.
    assert at_110["ttag"] < at_110["tcon"]
    assert at_110["rtag"] < at_110["rcon"]
    assert at_110["url"] > at_110["ttag"]

    # Benchmark one content-based run for the timing table.
    pages = list(corpus[0].pages)
    config = get_configuration("tcon")
    benchmark.pedantic(
        lambda: config(pages, 5, restarts=1, seed=BENCH_SEED),
        rounds=3,
        iterations=1,
    )


#: Wall-clock floor asserted for the TFIDF-tag speedup of the numpy
#: kernels over the scalar oracles at n=110. Measured ~5.6× on the
#: reference machine; the CI smoke run (tiny corpus, shared runners)
#: overrides this downward.
SPEEDUP_FLOOR = float(os.environ.get("REPRO_BENCH_SPEEDUP_FLOOR", "5.0"))

CONFIGS = ("ttag", "rtag", "tcon", "rcon", "url")


def _oracle_cluster(key, pages, k, seed):
    """Configuration ``key`` computed by the scalar oracle kernels
    (``tests/oracles.py``): SparseVector TFIDF weighting and one
    ``cosine_similarity`` per (page, center) pair for K-Means, one
    scalar ``url_distance`` per pair for k-medoids."""
    from repro.cluster.kmeans import KMeans
    from repro.cluster.kmedoids import KMedoids
    from repro.signatures.content import content_signature
    from repro.signatures.tag import tag_signature
    from repro.signatures.url import url_distance
    from repro.vsm.weighting import raw_tf_vector, tfidf_vectors

    if key == "url":
        model = KMedoids(k, distance=url_distance, restarts=1, seed=seed)
        return oracles.kmedoids_fit(model, pages).clustering
    signature = tag_signature if key in ("ttag", "rtag") else content_signature
    documents = [signature(page) for page in pages]
    if key in ("ttag", "tcon"):
        vectors = tfidf_vectors(documents)
    else:
        vectors = [raw_tf_vector(document) for document in documents]
    model = KMeans(k, restarts=1, seed=seed)
    return oracles.kmeans_fit(model, vectors).clustering


def test_fig05_backend_speedup(corpus, capsys):
    """Compare the production kernels with the scalar oracles per
    configuration at n=110.

    Writes machine-readable per-config wall clock and speedups to
    ``results/BENCH_clustering.json`` and asserts the headline claim:
    TFIDF-tag K-Means (THOR's configuration) runs at least
    ``SPEEDUP_FLOOR``× faster on the production numpy path than on the
    scalar oracle. Times are the minimum over several calls — the
    estimator least sensitive to scheduler noise — so the asserted
    ratio is the kernels', not the machine's.
    """
    import time

    calls_per_site = 3
    sites = corpus[:3]  # the url oracle is O(n²) scalar calls — keep it bounded
    page_sets = [list(sample.pages) for sample in sites]
    for pages in page_sets:  # pre-parse outside every timed region
        for page in pages:
            page.tag_counts()
            page.term_counts()

    runners = {
        "oracle": lambda key, pages, seed: _oracle_cluster(key, pages, 4, seed),
        "production": lambda key, pages, seed: get_configuration(key)(
            pages, 4, restarts=1, seed=seed
        ),
    }
    times: dict[str, dict[str, float]] = {}
    for impl, run in runners.items():
        times[impl] = {}
        for key in CONFIGS:
            calls = 1 if key == "url" and impl == "oracle" else calls_per_site
            best = float("inf")
            for pages in page_sets:
                for call in range(calls):
                    started = time.perf_counter()
                    run(key, pages, BENCH_SEED + call)
                    best = min(best, time.perf_counter() - started)
            times[impl][key] = best

    payload = {
        "n_pages": 110,
        "k": 4,
        "restarts": 1,
        "sites": len(sites),
        "calls_per_site": calls_per_site,
        "estimator": "min",
        "notes": (
            "oracle = the scalar reference kernels of tests/oracles.py; "
            "production = the numpy path the pipeline runs. url "
            "production wall clock depends heavily on interned-pair "
            "Levenshtein memo warmth: the first run over a URL "
            "collection pays the kernel cost, repeats mostly hit the "
            "memo, so the url speedup varies with what ran earlier."
        ),
        "configs": {
            key: {
                "oracle_seconds": times["oracle"][key],
                "production_seconds": times["production"][key],
                "speedup": times["oracle"][key] / times["production"][key],
            }
            for key in CONFIGS
        },
    }
    merge_json("BENCH_clustering", payload)

    lines = [f"{'config':<8}{'oracle s':>12}{'numpy s':>12}{'speedup':>10}"]
    for key in CONFIGS:
        entry = payload["configs"][key]
        lines.append(
            f"{key:<8}{entry['oracle_seconds']:>12.5f}"
            f"{entry['production_seconds']:>12.5f}"
            f"{entry['speedup']:>9.2f}x"
        )
    emit(capsys, "fig05_backend_speedup", "\n".join(lines))

    assert payload["configs"]["ttag"]["speedup"] >= SPEEDUP_FLOOR


#: Restarts for the parallel-fan-out bench: enough serial work that the
#: one-time process-pool startup (~0.25 s) does not dominate.
PARALLEL_RESTARTS = int(os.environ.get("REPRO_BENCH_PARALLEL_RESTARTS", "64"))

#: Wall-clock floor asserted for the n_jobs=2 restart fan-out — only
#: meaningful with at least two cores; single-core machines record the
#: honest (≈1×) number and assert a sanity floor instead.
PARALLEL_FLOOR = float(os.environ.get("REPRO_BENCH_PARALLEL_FLOOR", "1.2"))


def test_fig05_restart_parallelism(corpus, capsys):
    """Restart fan-out across worker processes on the Figure-5 workload.

    Clusters one site's 110-page sample with TFIDF-content K-Means
    (the heaviest per-restart kernel of the figure), serial vs
    ``n_jobs=2``. The floor is asserted on the scalar oracle's restarts
    (``tests/oracles.py``, fanned out through the same
    :func:`repro.runtime.run_restarts`), whose per-restart work is large
    enough for the fan-out to pay; the production numpy path's ratio is
    recorded next to it without a floor. Per-restart seed streams make
    the fan-out bitwise identical to the serial loop, which this
    asserts for both — the timing entry lands in
    ``BENCH_clustering.json`` next to the speedups, with ``cpu_count``
    recorded so single-core machines (where two workers time-slice one
    core) are not read as regressions.
    """
    import time

    from repro.cluster.kmeans import KMeans
    from repro.signatures.content import content_signature
    from repro.vsm.weighting import tfidf_vectors

    pages = list(corpus[0].pages)
    vectors = tfidf_vectors([content_signature(p) for p in pages])
    try:
        cpu_count = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-POSIX only
        cpu_count = os.cpu_count() or 1

    fits = {"oracle": oracles.kmeans_fit, "production": KMeans.fit}
    timings: dict[str, dict[int, float]] = {}
    for impl, fit in fits.items():
        timings[impl] = {}
        results = {}
        for n_jobs in (1, 2):
            model = KMeans(
                k=4, restarts=PARALLEL_RESTARTS, seed=BENCH_SEED, n_jobs=n_jobs
            )
            best = float("inf")
            for _ in range(2):
                started = time.perf_counter()
                results[n_jobs] = fit(model, vectors)
                best = min(best, time.perf_counter() - started)
            timings[impl][n_jobs] = best
        # The execution plan must not change the seeded outcome.
        assert results[2].clustering.labels == results[1].clustering.labels
        assert results[2].internal_similarity == results[1].internal_similarity

    speedup = timings["oracle"][1] / timings["oracle"][2]
    production_speedup = timings["production"][1] / timings["production"][2]
    merge_json(
        "BENCH_clustering",
        {
            "restart_parallelism": {
                "configuration": "tcon",
                "kernel": "oracle",
                "n_pages": len(pages),
                "k": 4,
                "restarts": PARALLEL_RESTARTS,
                "n_jobs": 2,
                "cpu_count": cpu_count,
                "serial_seconds": timings["oracle"][1],
                "parallel_seconds": timings["oracle"][2],
                "speedup": speedup,
                "production": {
                    "serial_seconds": timings["production"][1],
                    "parallel_seconds": timings["production"][2],
                    "speedup": production_speedup,
                    "floor": None,
                },
                "estimator": "min",
                "labels_identical": True,
                "note": (
                    "speedup requires >= 2 available cores; on a "
                    "single core two workers time-slice and the ratio "
                    "sits near 1x (pool startup amortized over "
                    f"{PARALLEL_RESTARTS} restarts). The production "
                    "numpy restarts are too cheap for process fan-out "
                    "to pay, so their ratio is recorded without a floor."
                ),
            }
        },
    )
    emit(
        capsys,
        "fig05_restart_parallelism",
        f"tcon restarts={PARALLEL_RESTARTS} cpus={cpu_count}\n"
        f"{'':<12}{'oracle':>10}{'numpy':>10}\n"
        f"{'serial':<12}{timings['oracle'][1]:>9.3f}s"
        f"{timings['production'][1]:>9.3f}s\n"
        f"{'n_jobs=2':<12}{timings['oracle'][2]:>9.3f}s"
        f"{timings['production'][2]:>9.3f}s\n"
        f"{'speedup':<12}{speedup:>9.2f}x{production_speedup:>9.2f}x",
    )

    if cpu_count >= 2:
        assert speedup >= PARALLEL_FLOOR
    else:
        # One core: no parallel speedup is possible — assert the fan-out
        # at least stays within 2x of serial (overhead sanity bound).
        assert speedup >= 0.5
