"""Bitwise-equivalence tests for the cache-backed Phase 2.

The hard invariant under test: the record-backed pipeline (node-free
candidate snapshots round-tripped through the persistent artifact
store) produces *bitwise identical* extraction output to the plain
node-backed pipeline — warm == cold, on every deep-web domain — and
no execution setting makes one site's run leave its own process.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from hypothesis import given, settings, strategies as st

from repro.config import ExecutionConfig, SubtreeConfig
from repro.core import subtree_ranking, subtree_sets
from repro.core.identification import PageletIdentifier
from repro.core.single_page import (
    candidate_record,
    candidate_records_for_cluster,
    candidate_subtrees_for_cluster,
    payload_to_record,
    record_to_payload,
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
    # the record/cache machinery under test.
    return PageletIdentifier(
        SubtreeConfig(), seed=0, execution=execution
    ).identify(pages)


class TestRecordPipeline:
    def test_record_round_trips_through_json(self):
        pages = cluster_pages("ecommerce", n=3)
        nodes = candidate_subtrees_for_cluster(pages)
        for node in nodes[0]:
            record = candidate_record(node)
            assert payload_to_record(record_to_payload(record)) == record

    def test_records_match_nodes_without_cache(self):
        pages = cluster_pages("music", n=4)
        from_nodes = [
            [candidate_record(n) for n in page_nodes]
            for page_nodes in candidate_subtrees_for_cluster(pages)
        ]
        assert candidate_records_for_cluster(pages) == from_nodes

    def test_malformed_payload_decodes_to_none(self):
        assert payload_to_record({"path": "html"}) is None
        assert payload_to_record("nonsense") is None


class TestBitwiseEquivalence:
    @settings(max_examples=7, deadline=None)
    @given(
        domain=st.sampled_from(ALL_DOMAINS),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_record_path_matches_node_path_on_every_domain(
        self, domain, seed, tmp_path_factory
    ):
        # The node-backed pipeline (no execution config) vs the
        # record-backed one (forced by a cache dir), serial both times.
        pages = cluster_pages(domain, seed=seed, n=8)
        baseline = result_digest(pages, identify(pages))
        root = tmp_path_factory.mktemp(f"store-{domain}-{seed}")
        execution = ExecutionConfig(cache_dir=str(root))
        recorded = result_digest(pages, identify(pages, execution))
        assert recorded == baseline

    @pytest.mark.parametrize("domain", ALL_DOMAINS)
    def test_n_jobs_matches_serial(self, domain, tmp_path, no_process_pools):
        # n_jobs only sets probe concurrency: Phase 2 stays in-process
        # and bitwise serial, on the node path and the record path.
        pages = cluster_pages(domain, n=8)
        baseline = result_digest(pages, identify(pages))
        nodes = result_digest(pages, identify(pages, ExecutionConfig(n_jobs=2)))
        records = result_digest(
            pages,
            identify(pages, ExecutionConfig(n_jobs=2, cache_dir=str(tmp_path))),
        )
        assert nodes == baseline
        assert records == baseline

    def test_warm_equals_cold_with_hits(self, tmp_path, fresh_caches):
        from repro.runtime import artifact_store_for

        execution = ExecutionConfig(cache_dir=str(tmp_path))
        pages = cluster_pages("travel", n=8)
        baseline = result_digest(pages, identify(pages))

        cold = result_digest(pages, identify(pages, execution))
        cold_stats = artifact_store_for(execution).stats()
        assert cold_stats["puts"] > 0
        assert cold_stats["hits"] == 0

        fresh_caches()  # drop every in-memory cache; disk survives
        warm_pages = cluster_pages("travel", n=8)  # unparsed pages
        warm = result_digest(warm_pages, identify(warm_pages, execution))
        warm_stats = artifact_store_for(execution).stats()
        assert warm_stats["hits"] > 0
        assert warm_stats["puts"] == 0

        assert cold == baseline
        assert warm == baseline

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
            lambda subtree_set, extractor, use_tfidf, execution=None: (
                oracles.intra_set_similarity(subtree_set, extractor, use_tfidf)
            ),
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
        """Two processes publishing the same artifacts concurrently.

        Every page appears in both workers' chunks, so both processes
        race to publish every key. Last-writer-wins atomic publishes
        mean the store stays readable and the records stay exact.
        """
        from repro.runtime import run_chunked

        pages = cluster_pages("library", n=6)
        htmls = [p.html for p in pages]
        expected = candidate_records_for_cluster(pages)
        # Duplicate the whole page list: chunking over 2 workers gives
        # each worker one full copy, racing on every key.
        doubled = run_chunked(
            _cached_records_worker, str(tmp_path), htmls + htmls, 2
        )
        assert doubled[: len(htmls)] == expected
        assert doubled[len(htmls) :] == expected
        # And a warm read-back from the racing writers' store is exact.
        warm = candidate_records_for_cluster(
            cluster_pages("library", n=6),
            execution=ExecutionConfig(cache_dir=str(tmp_path)),
        )
        assert warm == expected


def _cached_records_worker(cache_root, htmls):
    """Process-pool worker: records for a chunk of page HTML strings,
    served from (or published to) the store at ``cache_root``."""
    from repro.core.page import Page
    from repro.runtime import artifact_store_for

    execution = ExecutionConfig(cache_dir=cache_root)
    records = candidate_records_for_cluster(
        [Page(html) for html in htmls], execution=execution
    )
    artifact_store_for(execution).flush_stats()
    return records


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
