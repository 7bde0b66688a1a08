"""Phase 2, step 1a: single-page candidate-subtree filtering.

For each page of a top-ranked cluster, prune the subtrees that cannot
correspond to QA-Pagelets (Section 3.2.1):

1. drop subtrees that contain no content at all;
2. drop subtrees that contain *equivalent content but are not minimal*
   — a node whose entire content comes from exactly one child subtree
   duplicates that child and only the (smaller) child is kept;
3. (optional) require the subtree to contain a branching node. The
   paper's phrasing of this rule is ambiguous ("for any descendant w of
   u, the fanout(w) is greater than one" cannot hold literally for
   leaves); we expose it as ``require_branching`` and leave it off by
   default, since QA-Pagelets of single-match pages need not branch.

The page root itself is never a candidate: the paper's selection step
explicitly discourages "the subtree corresponding to the entire page".

:func:`candidate_subtrees` returns live :class:`~repro.html.tree.TagNode`
handles into the page tree. Every later Phase-2 step reads what it
needs (shape quadruple, root→node tags, subtree text, DOM siblings)
from those nodes through the tree's preorder index, so Phase 2 has one
path whether or not an artifact store is configured: recomputing from
the tree costs less than reading a per-page record back.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.page import Page
from repro.html.tree import TagNode, TreeIndex, tree_index


def _content_profile(index: TreeIndex) -> tuple[list[int], list[int]]:
    """Per position: (direct non-blank content children,
    content-bearing tag children), in one reverse sweep of the index."""
    parent, tags = index.parent, index.tags
    end, solid = index.end, index.solid_start
    direct = [0] * len(parent)
    bearing = [0] * len(parent)
    for pos in range(len(parent) - 1, 0, -1):
        if solid[end[pos]] > solid[pos]:
            if tags[pos] is None:
                direct[parent[pos]] += 1
            else:
                bearing[parent[pos]] += 1
    return direct, bearing


def candidate_subtrees(
    page: Page, require_branching: bool = False
) -> list[TagNode]:
    """The page's candidate subtrees after single-page filtering.

    Results are in document (pre-order) order.

    >>> page = Page("<html><body><div><p>hello</p></div><div></div></body></html>")
    >>> [n.tag for n in candidate_subtrees(page)]
    ['p']

    (``body`` and the first ``div`` duplicate ``p``'s content and are
    non-minimal; the second ``div`` is empty.)
    """
    root = page.tree.root
    index = tree_index(root)
    direct, bearing = _content_profile(index)
    nodes, tags, end, fanout = index.nodes, index.tags, index.end, index.fanout
    candidates: list[TagNode] = []
    for pos in range(root._pos + 1, end[root._pos]):
        if tags[pos] is None:
            continue
        own, bearers = direct[pos], bearing[pos]
        if own + bearers == 0:
            continue  # rule 1: no content
        if own == 0 and bearers == 1:
            continue  # rule 2: equivalent to its single content child
        if require_branching and max(fanout[pos : end[pos]]) <= 1:
            continue  # rule 3 (optional): no node with fanout > 1
        candidates.append(nodes[pos])
    return candidates


def candidate_subtrees_for_cluster(
    pages: Sequence[Page], require_branching: bool = False
) -> list[list[TagNode]]:
    """Single-page analysis over a whole page cluster."""
    return [candidate_subtrees(p, require_branching) for p in pages]


def candidate_records_for_cluster(
    pages: Sequence[Page], require_branching: bool = False
) -> list[list[TagNode]]:
    """Former record-form entry point, now the node path itself.

    Kept as its own function only because the benchmark tracer still
    names it (ROADMAP item 8 retires both the target and this shim).
    """
    return candidate_subtrees_for_cluster(pages, require_branching)
