"""Structural measures over tag trees.

These feed two parts of THOR: the cluster-ranking criteria of Phase 1
(average max fanout, page size, distinct terms) and the subtree shape
quadruple ⟨P, F, D, N⟩ of Phase 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.html.tree import TagNode, TagTree, tree_index


def max_fanout(tree: Union[TagTree, TagNode]) -> int:
    """The largest fanout of any node in the tree.

    This is the per-page quantity averaged by the paper's
    "Average Fanout" cluster-ranking criterion.
    """
    root = tree.root if isinstance(tree, TagTree) else tree
    index = tree_index(root)
    return max(index.fanout[root._pos : index.end[root._pos]])


def distinct_tags(tree: Union[TagTree, TagNode]) -> int:
    """Number of distinct tag names in the tree."""
    root = tree.root if isinstance(tree, TagTree) else tree
    return len(tree_index(root).tag_counts(root._pos))


@dataclass(frozen=True)
class SubtreeShape:
    """The paper's shape quadruple for a subtree: ⟨P, F, D, N⟩.

    - ``path``: path expression from the page root to the subtree root,
    - ``fanout``: fanout of the subtree's root node,
    - ``depth``: depth of the subtree's root in the page tree,
    - ``nodes``: total number of nodes in the subtree.
    """

    path: str
    fanout: int
    depth: int
    nodes: int


def subtree_shape(node: TagNode) -> SubtreeShape:
    """The shape quadruple for the subtree rooted at ``node``, read
    from the tree's preorder index.

    >>> from repro.html import parse
    >>> tree = parse("<html><body><table><tr><td>x</td></tr></table></body></html>")
    >>> shape = subtree_shape(tree.root.find("table"))
    >>> (shape.fanout, shape.depth, shape.nodes)
    (1, 2, 4)
    """
    index = tree_index(node)
    pos = node._pos
    return SubtreeShape(
        path=index.path(pos),
        fanout=index.fanout[pos],
        depth=index.depth[pos],
        nodes=index.end[pos] - pos,
    )
