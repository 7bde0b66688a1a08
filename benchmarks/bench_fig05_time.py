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
