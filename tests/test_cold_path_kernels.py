"""Cold-path kernel equivalence: batched distances.

The batched **editdist** kernel and the vectorized **quad**ruple
distance matrices equal the scalar python oracles element for element,
bitwise (hypothesis-driven, plus all seven synthetic domains and the
NaN/empty-path edges).
"""

from __future__ import annotations

import math

import pytest

from hypothesis import given, settings, strategies as st

from repro.cluster.editdist import (
    batch_normalized_levenshtein,
    normalized_levenshtein,
)
from repro.config import ExecutionConfig
from repro.core.single_page import candidate_subtrees_for_cluster
from repro.core.subtree_sets import (
    SubtreeCandidate,
    clear_quad_matrix_memo,
    find_common_subtree_sets,
    make_candidate,
    quad_matrix_memo_stats,
    set_quad_matrix_memo_limit,
    shape_distance,
    shape_distance_matrix,
)
from repro.deepweb import generate_corpus
from repro.deepweb.domains import DOMAINS
from repro.html.metrics import SubtreeShape
from repro.html.paths import TagCodec

ALL_DOMAINS = sorted(DOMAINS)


@pytest.fixture(autouse=True)
def fresh_kernel_state():
    from repro.runtime import clear_artifact_store_registry, clear_space_cache

    def reset():
        clear_space_cache()
        clear_artifact_store_registry()
        set_quad_matrix_memo_limit(None)
        clear_quad_matrix_memo()

    reset()
    yield reset
    reset()


def cluster_pages(domain: str, seed: int = 2, n: int = 8):
    sample = generate_corpus(n_sites=1, seed=seed, domains=[domain])[0]
    return list(sample.pages)[:n]


def domain_candidates(domain: str, n: int = 6) -> list[SubtreeCandidate]:
    """Real candidates (one flat list) from one domain's pages."""
    nodes = candidate_subtrees_for_cluster(cluster_pages(domain, n=n))
    codec = TagCodec(1)
    return [
        make_candidate(i, node, codec)
        for i, page_nodes in enumerate(nodes)
        for node in page_nodes
    ]


def quad_candidate(path: str, fanout: int, depth: int, nodes: int):
    return SubtreeCandidate(
        page_index=0,
        node=None,
        shape=SubtreeShape(path="p", fanout=fanout, depth=depth, nodes=nodes),
        code_path=path,
    )


# ---------------------------------------------------------------------------
# Batched path edit distance (the editdist kernel)
# ---------------------------------------------------------------------------

strings = st.text(
    alphabet=st.sampled_from("abtdxyz αβ🦉"), min_size=0, max_size=12
)


class TestBatchedEditdistKernel:
    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(strings, strings), max_size=24))
    def test_editdist_backends_match_oracle_bitwise(self, pairs):
        a_strings = [a for a, _ in pairs]
        b_strings = [b for _, b in pairs]
        oracle = [
            normalized_levenshtein(a, b) for a, b in zip(a_strings, b_strings)
        ]
        assert batch_normalized_levenshtein(a_strings, b_strings) == oracle

    def test_editdist_empty_and_equal_fast_paths(self):
        out = batch_normalized_levenshtein(
            ["", "", "abc", "same"], ["", "xy", "", "same"]
        )
        assert out == [0.0, 1.0, 1.0, 0.0]

    def test_editdist_batch_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="batch length mismatch"):
            batch_normalized_levenshtein(["a"], ["a", "b"])

    @pytest.mark.parametrize("domain", ALL_DOMAINS)
    def test_editdist_matches_oracle_on_domain_paths(self, domain):
        paths = [c.code_path for c in domain_candidates(domain)]
        assert paths
        a_strings = paths
        b_strings = list(reversed(paths))
        assert batch_normalized_levenshtein(a_strings, b_strings) == [
            normalized_levenshtein(a, b)
            for a, b in zip(a_strings, b_strings)
        ]


# ---------------------------------------------------------------------------
# Vectorized quadruple distance matrices (the quad kernel)
# ---------------------------------------------------------------------------

quads = st.tuples(
    st.text(alphabet="abtd", max_size=6),  # code path
    st.integers(min_value=0, max_value=40),  # fanout
    st.integers(min_value=0, max_value=20),  # depth
    st.integers(min_value=1, max_value=200),  # nodes
)

weight_values = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


def assert_quad_matrix_matches_scalar(a_cands, b_cands, weights):
    matrix = shape_distance_matrix(a_cands, b_cands, weights)
    for i, a in enumerate(a_cands):
        for j, b in enumerate(b_cands):
            expected = shape_distance(a, b, weights)
            actual = float(matrix[i, j])
            if math.isnan(expected):
                assert math.isnan(actual)
            else:
                assert actual == expected, (i, j, actual, expected)


class TestQuadMatrixKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        a_quads=st.lists(quads, min_size=1, max_size=8),
        b_quads=st.lists(quads, min_size=1, max_size=8),
        weights=st.tuples(
            weight_values, weight_values, weight_values, weight_values
        ),
    )
    def test_quad_matrix_matches_scalar_oracle(self, a_quads, b_quads, weights):
        clear_quad_matrix_memo()
        a_cands = [quad_candidate(*q) for q in a_quads]
        b_cands = [quad_candidate(*q) for q in b_quads]
        assert_quad_matrix_matches_scalar(a_cands, b_cands, weights)

    @pytest.mark.parametrize("domain", ALL_DOMAINS)
    def test_quad_matrix_matches_scalar_on_domain(self, domain):
        candidates = domain_candidates(domain)
        half = len(candidates) // 2
        assert_quad_matrix_matches_scalar(
            candidates[:half], candidates[half:], (0.25, 0.25, 0.25, 0.25)
        )

    def test_quad_zero_quadruples_and_empty_paths(self):
        # 0/0 ratio terms are defined as 0; two empty paths are at
        # path-distance 0, empty-vs-nonempty at 1.
        zero = quad_candidate("", 0, 0, 1)
        other = quad_candidate("tb", 3, 2, 7)
        assert_quad_matrix_matches_scalar(
            [zero, other], [zero, other], (0.25, 0.25, 0.25, 0.25)
        )

    def test_quad_nan_weight_propagates_like_scalar(self):
        a = quad_candidate("ab", 2, 2, 5)
        b = quad_candidate("ad", 3, 1, 9)
        weights = (float("nan"), 0.25, 0.25, 0.25)
        assert math.isnan(shape_distance(a, b, weights))
        assert_quad_matrix_matches_scalar([a], [b], weights)

    def test_quad_zero_weights_skip_terms(self):
        a = quad_candidate("ab", 2, 2, 5)
        b = quad_candidate("ad", 3, 1, 9)
        assert_quad_matrix_matches_scalar([a], [b], (0.0, 0.0, 0.0, 0.0))
        assert_quad_matrix_matches_scalar([a], [b], (1.0, 0.0, 0.0, 0.0))


class TestQuadMatrixMemo:
    def test_quad_memo_counts_hits_and_misses(self):
        a = [quad_candidate("ab", 2, 2, 5)]
        b = [quad_candidate("ad", 3, 1, 9)]
        shape_distance_matrix(a, b)
        shape_distance_matrix(a, b)
        stats = quad_matrix_memo_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1

    def test_quad_memo_lru_cap_evicts_oldest(self):
        set_quad_matrix_memo_limit(2)
        pairs = [
            ([quad_candidate("a" * (k + 1), k, k, k + 1)],
             [quad_candidate("b", 1, 1, 1)])
            for k in range(3)
        ]
        for a, b in pairs:
            shape_distance_matrix(a, b)
        stats = quad_matrix_memo_stats()
        assert stats["size"] == 2
        assert stats["evictions"] == 1
        assert stats["limit"] == 2
        # The evicted (oldest) entry recomputes: a miss, not a hit.
        shape_distance_matrix(*pairs[0])
        assert quad_matrix_memo_stats()["misses"] == 4

    def test_quad_memo_zero_limit_disables_memoization(self):
        set_quad_matrix_memo_limit(0)
        a = [quad_candidate("ab", 2, 2, 5)]
        b = [quad_candidate("ad", 3, 1, 9)]
        shape_distance_matrix(a, b)
        shape_distance_matrix(a, b)
        stats = quad_matrix_memo_stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 2
        assert stats["size"] == 0

    def test_quad_memo_negative_limit_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            set_quad_matrix_memo_limit(-1)

    def test_quad_memo_limit_wired_from_execution_config(self):
        nodes = candidate_subtrees_for_cluster(cluster_pages("music", n=4))
        find_common_subtree_sets(
            nodes,
            seed=0,
            execution=ExecutionConfig(distance_memo_entries=7),
        )
        assert quad_matrix_memo_stats()["limit"] == 7
        assert ExecutionConfig(distance_memo_entries=0).distance_memo_entries == 0
        with pytest.raises(ValueError, match="distance_memo_entries"):
            ExecutionConfig(distance_memo_entries=-1)


# ---------------------------------------------------------------------------
# Removed record transport option
# ---------------------------------------------------------------------------


class TestRecordTransportOption:
    def test_record_transport_validation(self):
        # Phase 2 computes in-process from the page trees; the option
        # is gone.
        with pytest.raises(TypeError, match="record_transport"):
            ExecutionConfig(record_transport="pickle")
