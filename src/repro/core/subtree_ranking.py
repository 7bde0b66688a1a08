"""Phase 2, step 2: ranking common subtree sets by content variability.

The QA-Pagelet varies from page to page (every page answers a
different probe query); navigation bars, ads with fixed copy, and
boilerplate do not. Each set member's content is turned into a
Porter-stemmed term vector weighted with the paper's TFIDF (document
frequencies computed *within the set*), and the set's intra-similarity
is the mean pairwise cosine of its members. Sets above the static
threshold (0.5) are pruned; the rest are ranked ascending — lowest
similarity (most dynamic) first.

Each set is weighted from its members' live subtree text on every run:
the batch is small, so building its space directly costs less than
keying or persisting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.subtree_sets import CommonSubtreeSet
from repro.text.terms import TermExtractor, DEFAULT_EXTRACTOR
from repro.vsm.matrix import weighted_space


@dataclass(frozen=True)
class RankedSubtreeSet:
    """A common subtree set with its intra-set content similarity."""

    subtree_set: CommonSubtreeSet
    #: Mean pairwise cosine similarity of member content vectors
    #: (1.0 for singleton sets — nothing varies).
    similarity: float
    #: True when the similarity exceeds the static threshold.
    is_static: bool


def intra_set_similarity(
    subtree_set: CommonSubtreeSet,
    extractor: TermExtractor = DEFAULT_EXTRACTOR,
    use_tfidf: bool = True,
) -> float:
    """Mean pairwise cosine similarity of the set's member contents.

    Singleton sets score 1.0 (no variation is observable, so they are
    indistinguishable from static content). Members whose content is
    empty yield zero vectors, which cosine treats as orthogonal. With
    ``use_tfidf=False`` raw (normalized) term frequencies are used —
    the ablation shown in Figure 9's left histogram.

    The whole set is weighted in one
    :func:`repro.vsm.matrix.weighted_space` batch.
    """
    counts = [
        extractor.extract_counts(c.node.text())
        for c in subtree_set.candidates()
    ]
    n = len(counts)
    if n <= 1:
        return 1.0
    space = weighted_space(counts, "tfidf" if use_tfidf else "raw")
    # Rows are unit length (or zero), so the mean pairwise cosine has a
    # closed form: Σ_{i<j} v_i·v_j = (‖Σv‖² − #non-zero) / 2, one
    # axis-sum and one dot product instead of the naive O(n²·dims).
    composite = space.matrix.sum(axis=0)
    non_zero = int((space.norms > 0.0).sum())
    pair_sum = (float(composite @ composite) - non_zero) / 2.0
    return _clamp_unit(pair_sum / (n * (n - 1) / 2.0))


def _clamp_unit(value: float) -> float:
    """Floating-point drift guard for mean cosines."""
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


#: Decimal places the ranking sort sees. The closed-form similarity
#: agrees with the scalar pairwise-mean oracle well past this precision
#: but not bitwise; quantizing the sort key (and breaking the resulting
#: ties by discovery order) keeps the ranked order — and everything
#: downstream, e.g. exported pagelet annotations — independent of
#: ulp-level summation-order differences.
_SORT_PRECISION = 12


def rank_subtree_sets(
    sets: Sequence[CommonSubtreeSet],
    n_pages: int,
    static_similarity_threshold: float = 0.5,
    min_support: float = 0.5,
    extractor: TermExtractor = DEFAULT_EXTRACTOR,
    use_tfidf: bool = True,
) -> list[RankedSubtreeSet]:
    """Score, filter, and rank common subtree sets.

    Sets supported by fewer than ``min_support · n_pages`` pages are
    dropped before ranking (an accidental one-page grouping carries no
    cross-page evidence). The returned list is sorted ascending by
    similarity, so the most dynamic sets — QA-Pagelet candidates —
    come first; static sets are retained (flagged) for diagnostics but
    sorted after dynamic ones.
    """
    min_pages = max(1, int(min_support * n_pages))
    ranked = []
    for subtree_set in sets:
        if subtree_set.support < min_pages:
            continue
        similarity = intra_set_similarity(subtree_set, extractor, use_tfidf)
        ranked.append(
            RankedSubtreeSet(
                subtree_set=subtree_set,
                similarity=similarity,
                is_static=similarity > static_similarity_threshold,
            )
        )
    ranked.sort(key=lambda r: round(r.similarity, _SORT_PRECISION))
    return ranked


def dynamic_sets(ranked: Sequence[RankedSubtreeSet]) -> list[RankedSubtreeSet]:
    """The non-static (query-dependent) sets, best first."""
    return [r for r in ranked if not r.is_static]
