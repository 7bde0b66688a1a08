"""Stage 3: QA-Object partitioning.

Splits a QA-Pagelet into its itemized QA-Objects. The second phase
already recommends QA-Object candidates (the other dynamic subtrees
inside the pagelet); Stage 3 examines each candidate's structure and
"searches the rest of the QA-Pagelet for similar structures",
considering size, layout, and depth — i.e. the same shape quadruple.

Algorithm:

1. If recommended candidates include a same-parent sibling group, grow
   it to all same-tag, shape-similar siblings under that parent; use it
   when it is big enough.
2. Otherwise search every tag node inside the pagelet for the best
   repeating unit: the group of same-tag, shape-similar, content-bearing
   children that *dominates* its parent (covers ≥ 75% of the parent's
   content-bearing children). Among dominant groups the shallowest
   parent wins — rows over the cells nested inside one row.
3. Detail pages are caught by the *property-list* check: when the
   repeating group's siblings largely match the pagelet's known static
   subtrees (field labels between the values), the page answers with a
   single item and the whole pagelet is the one QA-Object. The same
   holds when no repeating structure exists at all.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import SubtreeConfig
from repro.core.pagelet import PartitionedPagelet, QAObject, QAPagelet
from repro.core.subtree_sets import make_candidate, shape_distance
from repro.html.paths import TagCodec, node_path, resolve_path
from repro.html.tree import TagNode, tree_index


class ObjectPartitioner:
    """Stage-3 driver."""

    def __init__(
        self,
        config: SubtreeConfig = SubtreeConfig(),
        similarity_threshold: float = 0.3,
        min_group: int = 2,
        dominance_ratio: float = 0.75,
        static_fraction_threshold: float = 0.5,
    ) -> None:
        #: Shape distance below which two same-tag siblings are "the
        #: same kind of object".
        self.similarity_threshold = similarity_threshold
        #: Minimum repeating-group size to call it a results list.
        self.min_group = min_group
        #: A group must cover at least this fraction of its parent's
        #: content-bearing children to be the repeating unit.
        self.dominance_ratio = dominance_ratio
        #: When static siblings amount to at least this fraction of the
        #: group size, the group is a field list of a single-match page.
        self.static_fraction_threshold = static_fraction_threshold
        self.config = config

    def partition(self, pagelet: QAPagelet) -> PartitionedPagelet:
        """Split ``pagelet`` into QA-Objects."""
        group, parent = self._from_recommendations(pagelet)
        if group is None:
            group, parent = self._structural_search(pagelet.node)
        if group is not None and parent is not None:
            if self._is_property_list(pagelet, group, parent):
                group = None
        if group is None:
            objects = (QAObject(pagelet.path, pagelet.node),)
            return PartitionedPagelet(pagelet, objects, separator_parent=None)
        objects = tuple(QAObject(node_path(node), node) for node in group)
        return PartitionedPagelet(
            pagelet, objects, separator_parent=node_path(parent) if parent else None
        )

    # -- step 1: recommendations ---------------------------------------

    def _from_recommendations(
        self, pagelet: QAPagelet
    ) -> tuple[Optional[list[TagNode]], Optional[TagNode]]:
        """Try to build the object group from Phase-2 recommendations."""
        if len(pagelet.contained_dynamic_paths) < self.min_group:
            return None, None
        page_root = pagelet.page.tree
        nodes: list[TagNode] = []
        for path in pagelet.contained_dynamic_paths:
            try:
                node = resolve_path(page_root, path)
            except Exception:  # stale path: fall back to search
                return None, None
            if isinstance(node, TagNode):
                nodes.append(node)
        # Group recommendations by parent and tag; grow the biggest
        # same-parent group to every similar same-tag sibling.
        by_parent: dict[tuple[int, str], list[TagNode]] = {}
        parents: dict[tuple[int, str], TagNode] = {}
        for node in nodes:
            if node.parent is None:
                continue
            key = (id(node.parent), node.tag)
            by_parent.setdefault(key, []).append(node)
            parents[key] = node.parent
        groups = {k: v for k, v in by_parent.items() if len(v) >= self.min_group}
        if not groups:
            return None, None
        # QA-Objects are the direct repeating items of the pagelet, so
        # prefer the shallowest sibling group (rows over the cells
        # nested inside one row), breaking ties toward the larger one.
        best_key = min(
            groups, key=lambda k: (parents[k].depth(), -len(groups[k]))
        )
        parent = parents[best_key]
        expanded = self._similar_children(parent, seed_nodes=groups[best_key])
        if expanded is not None and len(expanded) >= self.min_group:
            return expanded, parent
        return None, None

    # -- step 2: structural search --------------------------------------

    def _structural_search(
        self, root: TagNode
    ) -> tuple[Optional[list[TagNode]], Optional[TagNode]]:
        """Find the best repeating unit under the pagelet.

        Dominant groups (covering most of their parent) win; among
        those, the shallowest parent, then the larger group.
        """
        best_group: Optional[list[TagNode]] = None
        best_parent: Optional[TagNode] = None
        best_key: Optional[tuple[int, int, int]] = None
        for node in root.iter_tags():
            group = self._similar_children(node)
            if not group or len(group) < self.min_group:
                continue
            bearing = self._content_bearing_children(node)
            dominance = len(group) / max(1, len(bearing))
            key = (
                1 if dominance >= self.dominance_ratio else 0,
                -node.depth(),
                len(group),
            )
            if best_key is None or key > best_key:
                best_key = key
                best_group = group
                best_parent = node
        return best_group, best_parent

    @staticmethod
    def _content_bearing_children(parent: TagNode) -> list[TagNode]:
        index = tree_index(parent)
        tags = index.tags
        return [
            child
            for child in parent.children
            if tags[child._pos] is not None and index.has_content(child._pos)
        ]

    def _similar_children(
        self, parent: TagNode, seed_nodes: Optional[Sequence[TagNode]] = None
    ) -> Optional[list[TagNode]]:
        """The largest group of same-tag, shape-similar tag children.

        Children with no content are skipped (spacer rows). When
        ``seed_nodes`` is given, the group grows around those nodes'
        shapes; otherwise each child is tried as the group seed.
        """
        children = self._content_bearing_children(parent)
        if len(children) < self.min_group:
            return None
        codec = TagCodec(self.config.path_code_length)
        candidates = [make_candidate(0, c, codec) for c in children]
        seeds = candidates
        if seed_nodes is not None:
            seed_ids = {id(n) for n in seed_nodes}
            seeds = [c for c in candidates if id(c.node) in seed_ids] or candidates
        best: Optional[list[TagNode]] = None
        for seed in seeds:
            # Objects of one results list share a tag (all <tr>, all
            # <li>, …): same-shape siblings with different tags (an
            # <h2> next to a <p>) are layout, not repetition.
            group = [
                c.node
                for c in candidates
                if c.node.tag == seed.node.tag
                and shape_distance(seed, c, self.config.distance_weights)
                <= self.similarity_threshold
            ]
            if best is None or len(group) > len(best):
                best = group
        if best is not None and len(best) >= self.min_group:
            return best
        return None

    # -- step 3: property-list detection ---------------------------------

    def _is_property_list(
        self,
        pagelet: QAPagelet,
        group: Sequence[TagNode],
        parent: TagNode,
    ) -> bool:
        """Detect a field-name/value list (a single-match detail page).

        A results list repeats *dynamic* rows; a detail page's values
        interleave with static field labels under the same parent (the
        ``<dt>`` between the ``<dd>``, the label cell beside the value
        cell). When the group's sibling context contains enough of the
        pagelet's known static subtrees, the page answers with one item.
        """
        if not pagelet.contained_static_paths:
            return False
        page_tree = pagelet.page.tree
        index = tree_index(page_tree.root)
        resolved = 0
        static_spans: list[tuple[int, int]] = []
        for path in pagelet.contained_static_paths:
            try:
                node = resolve_path(page_tree, path)
            except Exception:
                continue
            resolved += 1
            if isinstance(node, TagNode):
                static_spans.append((node._pos, index.end[node._pos]))
        if not resolved:
            return False
        end = index.end

        def touches_static(node: TagNode) -> bool:
            # A static tag subtree marks every tag node it holds, so a
            # node is static-marked when its subtree and a static one
            # nest, in either direction. A static content leaf marks
            # no tag node.
            pos = node._pos
            return any(
                start <= pos < stop or pos <= start < end[pos]
                for start, stop in static_spans
            )

        group_ids = {id(n) for n in group}
        static_siblings = sum(
            1
            for child in parent.tag_children()
            if id(child) not in group_ids and touches_static(child)
        )
        # Also count static members hiding inside the group itself
        # (label cells grouped with value cells).
        static_members = sum(1 for member in group if touches_static(member))
        score = (static_siblings + static_members) / max(1, len(group))
        return score >= self.static_fraction_threshold

    def partition_all(
        self, pagelets: Sequence[QAPagelet]
    ) -> list[PartitionedPagelet]:
        """Partition every pagelet of a Phase-2 result."""
        return [self.partition(p) for p in pagelets]
