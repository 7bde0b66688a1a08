"""Phase 2 with and without an artifact store, in one process.

The invariants under test: Phase 2 computes from the page trees whether
or not a store is configured — it neither reads nor writes the store —
so a run with a store (cold or warm) is *bitwise identical* to one
without, on every deep-web domain; and no execution setting makes one
site's run leave its own process.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from hypothesis import given, settings, strategies as st

from repro.config import ExecutionConfig, SubtreeConfig
from repro.core import subtree_ranking, subtree_sets
from repro.core.identification import PageletIdentifier
from repro.core.single_page import (
    candidate_records_for_cluster,
    candidate_subtrees_for_cluster,
)
from repro.deepweb import generate_corpus
from repro.deepweb.domains import DOMAINS
from tests import oracles


ALL_DOMAINS = sorted(DOMAINS)  # all seven deep-web domains


def cluster_pages(domain: str, seed: int = 2, n: int = 10):
    """A fresh cluster of probe-result pages from one simulated site."""
    sample = generate_corpus(n_sites=1, seed=seed, domains=[domain])[0]
    return list(sample.pages)[:n]


def result_digest(pages, result) -> str:
    """A canonical digest of everything Phase 2 decided.

    Floats go through ``repr`` (shortest round-trip form), so two
    results digest equal iff they are bitwise equal.
    """
    index_of = {id(page): i for i, page in enumerate(pages)}
    payload = {
        "pagelets": [
            [
                index_of[id(p.page)],
                p.path,
                p.rank,
                repr(p.score),
                list(p.contained_dynamic_paths),
                list(p.contained_static_paths),
                p.html(),
            ]
            for p in result.pagelets
        ],
        "ranked": [
            [r.subtree_set.support, repr(r.similarity), r.is_static]
            for r in result.ranked_sets
        ],
        "scored": [repr(s.score) for s in result.scored_sets],
    }
    blob = json.dumps(payload, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture(autouse=True)
def fresh_caches():
    from repro.core.subtree_sets import clear_quad_matrix_memo
    from repro.runtime import clear_artifact_store_registry, clear_space_cache

    def reset():
        clear_space_cache()
        clear_artifact_store_registry()
        clear_quad_matrix_memo()

    reset()
    yield reset
    reset()


@pytest.fixture
def no_process_pools(monkeypatch):
    """Make any attempt to start a process pool fail the test."""
    import concurrent.futures

    from repro import runtime

    def refuse(*args, **kwargs):
        raise AssertionError("a single-site run started a process pool")

    monkeypatch.setattr(runtime, "run_chunked", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


def identify(pages, execution=None):
    # The prototype-page draw is seeded: an unseeded identifier would
    # make the two runs we compare diverge for reasons unrelated to
    # the store under test.
    return PageletIdentifier(
        SubtreeConfig(), seed=0, execution=execution
    ).identify(pages)


class TestTracerShim:
    def test_candidate_records_for_cluster_is_the_node_path(self):
        # A separate function object (so an outside tracer wrapping
        # both names never wraps one function twice) that returns the
        # node path's candidates.
        assert candidate_records_for_cluster is not candidate_subtrees_for_cluster
        pages = cluster_pages("music", n=4)
        nodes = candidate_subtrees_for_cluster(pages)
        assert candidate_records_for_cluster(pages) == nodes
        assert candidate_records_for_cluster(pages, True) == (
            candidate_subtrees_for_cluster(pages, True)
        )


class TestBitwiseEquivalence:
    @settings(max_examples=7, deadline=None)
    @given(
        domain=st.sampled_from(ALL_DOMAINS),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_store_path_matches_no_store_on_every_domain(
        self, domain, seed, tmp_path_factory
    ):
        pages = cluster_pages(domain, seed=seed, n=8)
        baseline = result_digest(pages, identify(pages))
        root = tmp_path_factory.mktemp(f"store-{domain}-{seed}")
        execution = ExecutionConfig(cache_dir=str(root))
        stored = result_digest(pages, identify(pages, execution))
        assert stored == baseline

    @pytest.mark.parametrize("domain", ALL_DOMAINS)
    def test_n_jobs_matches_serial(self, domain, tmp_path, no_process_pools):
        # n_jobs only sets probe concurrency: Phase 2 stays in-process
        # and bitwise serial, with or without a store.
        pages = cluster_pages(domain, n=8)
        baseline = result_digest(pages, identify(pages))
        plain = result_digest(pages, identify(pages, ExecutionConfig(n_jobs=2)))
        stored = result_digest(
            pages,
            identify(pages, ExecutionConfig(n_jobs=2, cache_dir=str(tmp_path))),
        )
        assert plain == baseline
        assert stored == baseline

    def test_identify_never_touches_the_store(self, tmp_path, fresh_caches):
        from repro.runtime import artifact_store_for

        execution = ExecutionConfig(cache_dir=str(tmp_path))
        pages = cluster_pages("travel", n=8)
        baseline = result_digest(pages, identify(pages))
        for _ in range(2):  # a first and a repeated run alike
            fresh_caches()
            again = cluster_pages("travel", n=8)  # unparsed pages
            assert result_digest(again, identify(again, execution)) == baseline
            assert artifact_store_for(execution).stats() == {
                "hits": 0, "misses": 0, "puts": 0, "bytes_written": 0,
            }
        assert os.listdir(tmp_path) == []

    def test_backends_agree_on_extraction_outputs(self, tmp_path, monkeypatch):
        # The scalar oracles don't promise bitwise-equal similarity
        # *floats* with the production kernels (the ranking sort key is
        # quantized to absorb that), but the extraction outputs — which
        # pagelet, where, at what rank — must coincide, cache or no
        # cache.
        pages = cluster_pages("movies", n=8)
        execution = ExecutionConfig(cache_dir=str(tmp_path))

        def outputs():
            result = identify(pages, execution)
            return [(p.path, p.rank, p.html()) for p in result.pagelets]

        production = outputs()
        monkeypatch.setattr(
            subtree_sets, "_assignable_pairs", oracles.assignable_pairs
        )
        monkeypatch.setattr(
            subtree_ranking,
            "intra_set_similarity",
            oracles.intra_set_similarity,
        )
        assert outputs() == production

    def test_warm_n_jobs_matches_too(self, tmp_path, fresh_caches, no_process_pools):
        pages = cluster_pages("jobs", n=8)
        baseline = result_digest(pages, identify(pages))
        execution = ExecutionConfig(n_jobs=2, cache_dir=str(tmp_path))
        cold = result_digest(pages, identify(pages, execution))
        fresh_caches()
        warm_pages = cluster_pages("jobs", n=8)
        warm = result_digest(warm_pages, identify(warm_pages, execution))
        assert cold == baseline
        assert warm == baseline


class TestConcurrentWriters:
    def test_two_workers_race_on_the_same_keys(self, tmp_path):
        """Two processes extracting the same pages into one store.

        Both publish every page signature and Phase-1 space at once.
        Last-writer-wins atomic publishes mean the store stays readable
        and every run, warm ones included, gives the no-store result.
        """
        from repro.runtime import run_chunked

        htmls = [p.html for p in cluster_pages("library", n=12)]
        expected = _extract_digest(htmls, ExecutionConfig())
        # Two items, each the whole page list: over 2 workers, each
        # worker extracts one full copy, racing on every key.
        raced = run_chunked(
            _store_extract_worker, str(tmp_path), [htmls, htmls], 2
        )
        assert raced == [expected, expected]
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        assert _extract_digest(htmls, execution) == expected


def _extract_digest(htmls, execution) -> str:
    from repro.config import ThorConfig
    from repro.core.page import Page
    from repro.core.thor import Thor
    from repro.io.export import result_digest as run_digest

    config = ThorConfig(seed=1, execution=execution)
    return run_digest(Thor(config).extract([Page(html) for html in htmls]))


def _store_extract_worker(cache_root, copies):
    """Process-pool worker: one extraction digest per copy of the page
    list, each through the store at ``cache_root``."""
    execution = ExecutionConfig(cache_dir=cache_root)
    return [_extract_digest(htmls, execution) for htmls in copies]


class TestNoProcessFanoutInsideASite:
    """Sites are the one unit of process parallelism: a single-site
    ``Thor.run`` computes in-process at any ``n_jobs``, so it finishes
    with the serial digest even where no process can be started."""

    @pytest.mark.parametrize("domain", ALL_DOMAINS)
    def test_run_never_fans_out(self, domain, tmp_path, no_process_pools):
        from repro.config import ThorConfig
        from repro.core.thor import Thor
        from repro.deepweb import make_site
        from repro.io.export import result_digest as run_digest

        serial = Thor(ThorConfig(seed=3)).run(
            make_site(domain, seed=3, records=60)
        )
        config = ThorConfig(
            seed=3,
            execution=ExecutionConfig(n_jobs=2, cache_dir=str(tmp_path)),
        )
        thor = Thor(config)
        fanned = thor.run(make_site(domain, seed=3, records=60))
        assert run_digest(fanned) == run_digest(serial)
        assert thor.report().transport == {}


class TestRunWithAStore:
    """A whole ``Thor.run`` gives one digest with no store, into a fresh
    store and from the filled store, and the store holds no Phase-2
    kinds afterwards."""

    @pytest.mark.parametrize("domain", ALL_DOMAINS)
    def test_cold_equals_warm_equals_no_store(self, domain, tmp_path, fresh_caches):
        from repro.config import ThorConfig
        from repro.core.thor import Thor
        from repro.deepweb import make_site
        from repro.io.export import result_digest as run_digest

        def run(execution):
            fresh_caches()
            thor = Thor(ThorConfig(seed=3, execution=execution))
            result = thor.run(make_site(domain, seed=3, records=60))
            return run_digest(result), thor.artifact_stats(), len(result.pages)

        no_store, _, _ = run(ExecutionConfig())
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        cold, cold_stats, pages = run(execution)
        warm, warm_stats, _ = run(execution)
        assert cold == warm == no_store
        assert cold_stats["hits"] == 0
        assert warm_stats["hits"] >= pages  # every page signature hits
        # Every run republishes the site's model slot; nothing else.
        assert warm_stats["puts"] == 1
        assert not (tmp_path / "records").exists()
        assert not (tmp_path / "trees").exists()
