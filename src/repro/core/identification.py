"""Phase 2 orchestration: from one page cluster to QA-Pagelets.

Pipeline per cluster: single-page analysis → common subtree sets →
TFIDF content ranking (static pruning) → selection scoring → one
QA-Pagelet per page (from the best-scoring set that has a member in
that page), each annotated with the other dynamic subtrees it contains
(the QA-Object recommendations for Stage 3).

Phase 2 always computes from the cluster's page trees; an artifact
store, when configured, is neither read nor written here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.config import ExecutionConfig, SubtreeConfig
from repro.core.page import Page
from repro.core.pagelet import QAPagelet
from repro.core.selection import ScoredSet, score_sets
from repro.core.single_page import candidate_subtrees_for_cluster
from repro.core.subtree_ranking import (
    RankedSubtreeSet,
    dynamic_sets,
    rank_subtree_sets,
)
from repro.core.subtree_sets import find_common_subtree_sets
from repro.errors import ExtractionError


@dataclass(frozen=True)
class IdentificationResult:
    """Everything Phase 2 produced for one page cluster."""

    pages: tuple[Page, ...]
    #: One QA-Pagelet per page that received one (pages with no member
    #: in any scored set are absent).
    pagelets: tuple[QAPagelet, ...]
    #: All ranked common subtree sets (dynamic and static), ascending
    #: similarity — Figure 9's raw material.
    ranked_sets: tuple[RankedSubtreeSet, ...] = field(repr=False)
    #: The selection scores of the dynamic sets, best first.
    scored_sets: tuple[ScoredSet, ...] = field(repr=False)

    def pagelet_for(self, page_index: int) -> Optional[QAPagelet]:
        """The pagelet extracted from cluster page ``page_index``."""
        for pagelet in self.pagelets:
            if pagelet.page is self.pages[page_index]:
                return pagelet
        return None


class PageletIdentifier:
    """Phase-2 driver for a single page cluster."""

    def __init__(
        self,
        config: SubtreeConfig = SubtreeConfig(),
        seed: Optional[int] = None,
        execution: Optional[ExecutionConfig] = None,
    ) -> None:
        self.config = config
        self.seed = seed
        self.execution = execution if execution is not None else ExecutionConfig()

    def identify(self, pages: Sequence[Page]) -> IdentificationResult:
        """Run Phase 2 over one cluster of pages.

        Raises :class:`ExtractionError` on an empty cluster. A cluster
        whose pages yield no dynamic subtree sets (e.g. a cluster of
        identical "no matches" pages) returns a result with zero
        pagelets rather than raising — that is the correct answer.
        """
        if not pages:
            raise ExtractionError("cannot identify pagelets in an empty cluster")
        cfg = self.config
        candidates = candidate_subtrees_for_cluster(
            pages, require_branching=cfg.require_branching
        )
        if not any(candidates):
            return IdentificationResult(tuple(pages), (), (), ())
        sets = find_common_subtree_sets(
            candidates,
            weights=cfg.distance_weights,
            max_assign_distance=cfg.max_assign_distance,
            path_code_length=cfg.path_code_length,
            seed=self.seed,
            execution=self.execution,
        )
        ranked = rank_subtree_sets(
            sets,
            n_pages=len(pages),
            static_similarity_threshold=cfg.static_similarity_threshold,
            min_support=cfg.min_support,
        )
        scored = score_sets(
            dynamic_sets(ranked),
            cfg.selection_weights,
            coverage_ratio=cfg.coverage_ratio,
        )
        static_sets = [r for r in ranked if r.is_static]
        pagelets = self._build_pagelets(pages, scored, static_sets)
        return IdentificationResult(
            tuple(pages), tuple(pagelets), tuple(ranked), tuple(scored)
        )

    def _build_pagelets(
        self,
        pages: Sequence[Page],
        scored: Sequence[ScoredSet],
        static_sets: Sequence[RankedSubtreeSet],
    ) -> list[QAPagelet]:
        """One pagelet per page, from the best set covering that page.

        Only sets on the selection descent path (wrapper → … →
        pagelet) may contribute: when a page has no member in any of
        those — e.g. an error page swept into a content cluster by a
        tight k — it gets *no* pagelet rather than a junk region from
        some low-ranked set. Precision at the cluster boundary is
        exactly what the paper says the second phase must protect.
        """
        pagelets: list[QAPagelet] = []
        if not scored:
            return pagelets
        from repro.core.subtree_sets import shape_distance

        winner = scored[0]
        winner_proto = winner.ranked.subtree_set.prototype
        # Fallbacks for pages the winner set does not cover, in order:
        # 1. the set with a member on that page whose prototype is
        #    *shape-closest* to the winner's (the same results
        #    container under a per-page template variant — an extra
        #    wrapper on some pages shifts it into a sibling set), as
        #    long as it is reasonably close;
        # 2. otherwise nothing — a page with no winner-shaped region
        #    (an error page swept in by a tight k) gets no pagelet
        #    rather than a junk region from a low-ranked set.
        lookalike_cap = 0.45
        fallbacks = sorted(
            (s for s in scored if s is not winner),
            key=lambda s: shape_distance(
                winner_proto, s.ranked.subtree_set.prototype
            ),
        )
        eligible = [winner] + [
            s
            for s in fallbacks
            if shape_distance(winner_proto, s.ranked.subtree_set.prototype)
            <= lookalike_cap
        ]
        for page_index, page in enumerate(pages):
            for rank, scored_set in enumerate(eligible):
                member = scored_set.ranked.subtree_set.members.get(page_index)
                if member is None:
                    continue
                # Strict descendants of the pagelet are exactly the
                # paths extending its own (see _containment_relation
                # for why the trailing "/" makes this the descendant
                # relation).
                prefix = member.shape.path + "/"
                dynamic_paths = self._member_paths_inside(
                    prefix,
                    page_index,
                    [s.ranked for s in scored if s is not scored_set],
                )
                static_paths = self._member_paths_inside(
                    prefix, page_index, static_sets
                )
                pagelets.append(
                    QAPagelet(
                        page=page,
                        path=member.shape.path,
                        node=member.node,
                        score=scored_set.score,
                        rank=rank,
                        contained_dynamic_paths=dynamic_paths,
                        contained_static_paths=static_paths,
                    )
                )
                break
        return pagelets

    @staticmethod
    def _member_paths_inside(
        prefix: str,
        page_index: int,
        sets: Sequence[RankedSubtreeSet],
    ) -> tuple[str, ...]:
        """Paths of the given sets' members lying inside the pagelet."""
        paths: list[str] = []
        for ranked in sets:
            member = ranked.subtree_set.members.get(page_index)
            if member is not None and member.shape.path.startswith(prefix):
                paths.append(member.shape.path)
        return tuple(paths)
