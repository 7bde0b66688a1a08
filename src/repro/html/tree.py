"""Tag-tree model: the paper's variation of the DOM.

A tag tree consists of *tag nodes* (one per start/end tag pair, labeled
by the tag name) and *content nodes* (the character data between tags).
Content nodes are always leaves. Attributes are retained on tag nodes
but play no role in the paper's algorithms; tag names and tree shape do.

Every per-subtree fact the algorithms read — depth, node count, fanout,
subtree text, path expression — comes from one flat preorder
:class:`TreeIndex` per tree, built in a single pass the first time any
node of the tree is queried. A subtree is the contiguous position range
``[pos, end)``, so these facts are list lookups and slices rather than
walks. :meth:`TagNode.append` drops the index of every tree it touches,
so an index never describes a tree that has since changed.
"""

from __future__ import annotations

from typing import Iterator, Optional


class Node:
    """Common base for :class:`TagNode` and :class:`ContentNode`."""

    __slots__ = ("parent", "_index", "_pos")

    def __init__(self) -> None:
        self.parent: Optional[TagNode] = None
        #: The tree's preorder index, once built, and this node's
        #: position in it.
        self._index: Optional[TreeIndex] = None
        self._pos = 0

    @property
    def is_tag(self) -> bool:
        return isinstance(self, TagNode)

    @property
    def is_content(self) -> bool:
        return isinstance(self, ContentNode)

    def depth(self) -> int:
        """Distance from the root (the root has depth 0)."""
        return (self._index or _build_index(self)).depth[self._pos]

    def ancestors(self) -> Iterator["TagNode"]:
        """Yield ancestors from the immediate parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "Node":
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node


class ContentNode(Node):
    """A text leaf. ``text`` is entity-decoded character data."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        super().__init__()
        self.text = text

    def __repr__(self) -> str:
        preview = self.text if len(self.text) <= 30 else self.text[:27] + "..."
        return f"ContentNode({preview!r})"


class TagNode(Node):
    """An element node labeled by its (lower-case) tag name."""

    __slots__ = ("tag", "attrs", "children")

    def __init__(
        self,
        tag: str,
        attrs: tuple[tuple[str, str], ...] = (),
        children: Optional[list[Node]] = None,
    ) -> None:
        super().__init__()
        self.tag = tag
        self.attrs = attrs
        self.children: list[Node] = []
        if children:
            for child in children:
                self.append(child)

    def __repr__(self) -> str:
        return f"TagNode(<{self.tag}>, {len(self.children)} children)"

    def get(self, attr: str, default: Optional[str] = None) -> Optional[str]:
        """Return the first value of attribute ``attr`` (lower-case)."""
        wanted = attr.lower()
        for key, value in self.attrs:
            if key == wanted:
                return value
        return default

    def append(self, child: Node) -> None:
        """Attach ``child`` as the last child of this node.

        Both trees involved lose their index; the next query rebuilds
        it from the changed structure.
        """
        if self._index is not None:
            self._index.release()
        if child._index is not None:
            child._index.release()
        child.parent = self
        self.children.append(child)

    def tag_children(self) -> list["TagNode"]:
        """Children that are tag nodes, in document order."""
        return [c for c in self.children if isinstance(c, TagNode)]

    def content_children(self) -> list[ContentNode]:
        """Children that are content nodes, in document order."""
        return [c for c in self.children if isinstance(c, ContentNode)]

    @property
    def fanout(self) -> int:
        """Number of children (tag and content nodes alike)."""
        return len(self.children)

    def iter(self) -> Iterator[Node]:
        """Pre-order traversal of the subtree rooted here (inclusive)."""
        index = self._index or _build_index(self)
        pos = self._pos
        return iter(index.nodes[pos : index.end[pos]])

    def iter_tags(self) -> Iterator["TagNode"]:
        """Pre-order traversal over tag nodes only."""
        index = self._index or _build_index(self)
        pos = self._pos
        nodes, tags = index.nodes, index.tags
        return iter(
            [nodes[i] for i in range(pos, index.end[pos]) if tags[i] is not None]
        )

    def iter_content(self) -> Iterator[ContentNode]:
        """Pre-order traversal over content nodes only."""
        index = self._index or _build_index(self)
        pos = self._pos
        nodes, tags = index.nodes, index.tags
        return iter(
            [nodes[i] for i in range(pos, index.end[pos]) if tags[i] is None]
        )

    def text(self, separator: str = " ") -> str:
        """Concatenated text of all content nodes in this subtree."""
        return (self._index or _build_index(self)).text(self._pos, separator)

    def size(self) -> int:
        """Total number of nodes in the subtree (inclusive)."""
        index = self._index or _build_index(self)
        return index.end[self._pos] - self._pos

    def subtree_depth(self) -> int:
        """Height of the subtree rooted here (a leaf has height 0)."""
        index = self._index or _build_index(self)
        pos = self._pos
        return max(index.depth[pos : index.end[pos]]) - index.depth[pos]

    def find_all(self, tag: str) -> list["TagNode"]:
        """All descendant tag nodes (inclusive) with the given name."""
        wanted = tag.lower()
        return [n for n in self.iter_tags() if n.tag == wanted]

    def find(self, tag: str) -> Optional["TagNode"]:
        """First descendant tag node (inclusive) with the given name."""
        wanted = tag.lower()
        for node in self.iter_tags():
            if node.tag == wanted:
                return node
        return None


class TreeIndex:
    """Flat preorder arrays over one tag tree.

    Position ``i`` is the i-th node in document (pre-)order; the
    subtree rooted at ``i`` occupies positions ``[i, end[i])``. Per
    position the index holds the node, its ``parent`` position (-1 at
    the root), ``depth``, subtree ``end``, ``fanout`` (0 for content),
    and ``tags`` (``None`` for content nodes). ``texts`` lists the
    non-empty content strings in document order, and
    ``text_start[i]`` counts those before position ``i``, so a
    subtree's text is one slice of ``texts``; ``solid_start`` does the
    same count for texts that are not whitespace only, so whether a
    subtree holds any visible content is one subtraction.

    Path expressions need each node's step among its same-tag
    siblings (``td[2]``). Steps are worked out per parent, for all its
    children at once, the first time a path through that parent is
    asked for; each parent then also holds a step → child map, so a
    path resolves by one lookup per level. A path is joined from the
    steps of its ancestor chain rather than stored whole, because
    whole paths cost memory quadratic in depth (a hostile page nested
    20,000 levels deep would need about a gigabyte of path strings).
    """

    __slots__ = (
        "nodes",
        "parent",
        "depth",
        "end",
        "fanout",
        "tags",
        "texts",
        "text_start",
        "solid_start",
        "_steps",
        "_tables",
    )

    def __init__(self, root: Node) -> None:
        nodes: list[Node] = []
        parent: list[int] = []
        depth: list[int] = []
        fanout: list[int] = []
        tags: list[Optional[str]] = []
        texts: list[str] = []
        text_start: list[int] = []
        solid_start: list[int] = []
        solid = 0
        stack: list[tuple[Node, int, int]] = [(root, -1, 0)]
        while stack:
            node, up, level = stack.pop()
            pos = len(nodes)
            node._index = self
            node._pos = pos
            nodes.append(node)
            parent.append(up)
            depth.append(level)
            text_start.append(len(texts))
            solid_start.append(solid)
            if isinstance(node, TagNode):
                children = node.children
                fanout.append(len(children))
                tags.append(node.tag)
                level += 1
                for child in reversed(children):
                    stack.append((child, pos, level))
            else:
                fanout.append(0)
                tags.append(None)
                text = node.text
                if text:
                    texts.append(text)
                    if text.strip():
                        solid += 1
        text_start.append(len(texts))
        solid_start.append(solid)
        # Children sit after their parent, so a reverse sweep sees each
        # subtree's end final before it extends its parent's.
        end = list(range(1, len(nodes) + 1))
        for pos in range(len(nodes) - 1, 0, -1):
            up = parent[pos]
            if end[pos] > end[up]:
                end[up] = end[pos]
        self.nodes = nodes
        # Tuples of ints and strings: the cyclic garbage collector stops
        # tracking them after their first collection, so columns of
        # every live page do not lengthen each full collection.
        self.parent = tuple(parent)
        self.depth = tuple(depth)
        self.end = tuple(end)
        self.fanout = tuple(fanout)
        self.tags = tuple(tags)
        self.texts = tuple(texts)
        self.text_start = tuple(text_start)
        self.solid_start = tuple(solid_start)
        self._steps: dict[int, str] = {}
        self._tables: dict[int, dict[str, int]] = {}

    def release(self) -> None:
        """Detach every node from this index (the tree changed)."""
        for node in self.nodes:
            node._index = None

    # -- subtree facts -------------------------------------------------

    def text(self, pos: int, separator: str = " ") -> str:
        """The non-empty texts of the subtree at ``pos``, joined."""
        start = self.text_start
        return separator.join(self.texts[start[pos] : start[self.end[pos]]])

    def has_content(self, pos: int) -> bool:
        """True when the subtree at ``pos`` holds non-blank text."""
        solid = self.solid_start
        return solid[self.end[pos]] > solid[pos]

    def tag_counts(self, pos: int = 0) -> dict[str, int]:
        """Tag-name frequencies in the subtree at ``pos``, in
        first-occurrence order."""
        counts: dict[str, int] = {}
        for tag in self.tags[pos : self.end[pos]]:
            if tag is not None:
                counts[tag] = counts.get(tag, 0) + 1
        return counts

    # -- paths -----------------------------------------------------------

    def _child_steps(self, pos: int) -> dict[str, int]:
        """Step → position for the children of the node at ``pos``.

        A tag step carries ``[k]`` (1-based among same-tag siblings)
        only when the parent has more than one child with that tag;
        content steps count content siblings the same way. Computed
        once per parent, on first use, and recorded in ``_steps``.
        """
        table = self._tables.get(pos)
        if table is not None:
            return table
        table = {}
        if self.fanout[pos]:
            tags, steps = self.tags, self._steps
            kids = [child._pos for child in self.nodes[pos].children]
            names = [tags[kid] or "#text" for kid in kids]
            totals: dict[str, int] = {}
            for name in names:
                totals[name] = totals.get(name, 0) + 1
            seen: dict[str, int] = {}
            for kid, name in zip(kids, names):
                if totals[name] > 1:
                    nth = seen.get(name, 0) + 1
                    seen[name] = nth
                    name = f"{name}[{nth}]"
                table[name] = kid
                steps[kid] = name
        self._tables[pos] = table
        return table

    def path(self, pos: int) -> str:
        """Path expression from the root to the node at ``pos``."""
        parent, steps = self.parent, self._steps
        chain = []
        while pos:
            step = steps.get(pos)
            if step is None:
                self._child_steps(parent[pos])
                step = steps[pos]
            chain.append(step)
            pos = parent[pos]
        chain.append(self.tags[0] or "#text")
        chain.reverse()
        return "/".join(chain)

    def lineage(self, pos: int) -> list[str]:
        """Tag names from the root down to ``pos`` (inclusive)."""
        tags, parent = self.tags, self.parent
        chain = []
        while pos >= 0:
            chain.append(tags[pos])
            pos = parent[pos]
        chain.reverse()
        return chain

    def child(self, pos: int, step: str) -> Optional[int]:
        """Position of the child of ``pos`` whose step is ``step``."""
        return self._child_steps(pos).get(step)


def _build_index(node: Node) -> TreeIndex:
    """Index the whole tree containing ``node``."""
    return TreeIndex(node.root())


def tree_index(node: Node) -> TreeIndex:
    """The preorder index of ``node``'s tree (built on first use).

    ``node._pos`` is then the node's position in it.
    """
    return node._index or _build_index(node)


class TagTree:
    """A parsed page: a root :class:`TagNode` plus page-level metadata.

    ``source_size`` records the byte length of the original HTML, which
    the size-based clustering baseline and the cluster-ranking criteria
    use (the paper measures "page size in bytes").
    """

    __slots__ = ("root", "source_size", "url")

    def __init__(self, root: TagNode, source_size: int = 0, url: str = "") -> None:
        self.root = root
        self.source_size = source_size
        self.url = url

    def __repr__(self) -> str:
        return f"TagTree(root=<{self.root.tag}>, nodes={self.root.size()})"

    def iter(self) -> Iterator[Node]:
        return self.root.iter()

    def iter_tags(self) -> Iterator[TagNode]:
        return self.root.iter_tags()

    def iter_content(self) -> Iterator[ContentNode]:
        return self.root.iter_content()

    def text(self, separator: str = " ") -> str:
        return self.root.text(separator)

    def size(self) -> int:
        return self.root.size()

    def tag_counts(self) -> dict[str, int]:
        """Frequency of each tag name in the tree (the raw tag signature)."""
        return tree_index(self.root).tag_counts(self.root._pos)
