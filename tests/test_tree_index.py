"""The preorder tree index against the tree-walking oracles.

Every per-node answer the index serves — depth, size, subtree text,
path expression, tag sequence, shape quadruple, path resolution, the
content profile of single-page filtering — must equal what the walks
in :mod:`tests.oracles` compute, on every node of rendered genre
pages, hostile markup, trees rebuilt node by node and a very deep
tree.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.single_page import _content_profile
from repro.deepweb import make_site
from repro.deepweb.domains import DOMAINS
from repro.errors import PathResolutionError, PathSyntaxError
from repro.html import parse
from repro.html.metrics import distinct_tags, max_fanout, subtree_shape
from repro.html.paths import node_path, node_tag_sequence, resolve_path
from repro.html.tree import ContentNode, TagNode, TagTree, tree_index
from tests import oracles


def _variants(path: str) -> list[str]:
    """Other spellings of ``path`` that resolve step by step: ``[1]``
    dropped or added, upper-case tags, outer slashes."""
    steps = path.split("/")
    dropped = "/".join(s[:-3] if s.endswith("[1]") else s for s in steps)
    added = "/".join(steps[:1] + [s if "[" in s else s + "[1]" for s in steps[1:]])
    return [dropped, added, path.upper(), "/" + path + "/"]


def _resolve_both(tree: TagTree, path: str):
    """(index answer, oracle answer), each a node or the error type."""
    answers = []
    for resolver in (resolve_path, oracles.walk_resolve_path):
        try:
            answers.append(resolver(tree, path))
        except (PathResolutionError, PathSyntaxError) as exc:
            answers.append(type(exc))
    return answers


def _rebuild(node: TagNode) -> TagNode:
    """A fresh copy of ``node``'s subtree, built child by child."""
    copy = TagNode(node.tag, node.attrs)
    for child in node.children:
        if isinstance(child, TagNode):
            copy.append(_rebuild(child))
        else:
            copy.append(ContentNode(child.text))
    return copy


def assert_matches_oracle(tree: TagTree) -> None:
    """Every node's indexed answers equal the walking oracle's."""
    root = tree.root
    walked = list(oracles.walk_iter(root))
    assert list(root.iter()) == walked
    assert [n._pos for n in walked] == list(range(len(walked)))
    assert tree.tag_counts() == oracles.walk_tag_counts(root)
    assert max_fanout(tree) == oracles.walk_max_fanout(root)
    assert distinct_tags(tree) == len(oracles.walk_tag_counts(root))
    assert tree.text() == oracles.walk_text(root)
    index = tree_index(root)
    direct, bearing = _content_profile(index)
    profile = oracles.walk_content_profile(root)
    for node in walked:
        path = node_path(node)
        assert path == oracles.walk_node_path(node)
        assert node.depth() == oracles.walk_depth(node)
        if isinstance(node, TagNode):
            assert node.size() == oracles.walk_size(node)
            assert node.text() == oracles.walk_text(node)
            assert node.text("|") == oracles.walk_text(node, "|")
            assert subtree_shape(node) == oracles.walk_subtree_shape(node)
            assert node_tag_sequence(node) == oracles.walk_tag_sequence(node)
            assert (direct[node._pos], bearing[node._pos]) == profile[id(node)]
            assert list(node.iter_content()) == [
                n for n in oracles.walk_iter(node) if isinstance(n, ContentNode)
            ]
        assert resolve_path(tree, path) is node
        assert oracles.walk_resolve_path(tree, path) is node
        for variant in _variants(path):
            found, expected = _resolve_both(tree, variant)
            assert found is expected


GENRES = sorted(DOMAINS)


class TestRenderedPagesTreeOracle:
    @pytest.mark.parametrize("genre", GENRES)
    @settings(deadline=None, max_examples=3)
    @given(seed=st.integers(0, 10_000), pick=st.integers(0, 10_000))
    def test_genre_pages_tree_oracle(self, genre, seed, pick):
        site = make_site(genre, seed=seed)
        vocabulary = sorted(site.database.vocabulary())
        terms = [vocabulary[(pick + 7 * i) % len(vocabulary)] for i in range(3)]
        for term in terms + ["zzqxnomatch"]:
            assert_matches_oracle(parse(site.query(term).html))


_HOSTILE_PIECES = st.sampled_from(
    [
        "<div>",
        "</div>",
        "<p>",
        "</p>",
        "<table><tr><td>",
        "</td>",
        "<tr>",
        "<li>",
        "<ul>",
        "</ul>",
        "<b><i>",
        "</b></i>",
        "<span class='x'>",
        "<br>",
        "<img src=x>",
        "</nope>",
        "<script>if (a < b) {}</script>",
        "<!-- c -->",
        "<",
        ">",
        "&amp;",
        "&#0;",
        "\x00",
        "  ",
        "naïve café",
        "東京",
        "Москва",
        "مرحبا",
        "text",
    ]
)


class TestHostileMarkupTreeOracle:
    @settings(deadline=None, max_examples=150)
    @given(st.lists(_HOSTILE_PIECES, max_size=60))
    def test_hostile_markup_tree_oracle(self, pieces):
        assert_matches_oracle(parse("".join(pieces)))

    @settings(deadline=None, max_examples=100)
    @given(st.text(alphabet="<>/abtdp &;\x00é東", max_size=150))
    def test_random_markup_tree_oracle(self, html):
        assert_matches_oracle(parse(html))

    @settings(deadline=None, max_examples=60)
    @given(st.lists(_HOSTILE_PIECES, max_size=60))
    def test_rebuilt_tree_tree_oracle(self, pieces):
        # A copy assembled with ``append`` (not by the parser) indexes
        # like the parsed original.
        tree = parse("".join(pieces))
        tree.root.size()  # index the source tree first
        rebuilt = TagTree(_rebuild(tree.root))
        assert_matches_oracle(rebuilt)
        assert rebuilt.text() == tree.text()
        assert [node_path(n) for n in rebuilt.root.iter()] == [
            node_path(n) for n in tree.root.iter()
        ]


class TestWhitespaceTreeOracle:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(_HOSTILE_PIECES | st.sampled_from([" ", "\n\t", "\u3000"]), max_size=40))
    def test_kept_whitespace_tree_oracle(self, pieces):
        # Blank leaves are text but not content: they join into
        # ``text()`` and never make a subtree content-bearing.
        assert_matches_oracle(parse("".join(pieces), keep_whitespace=True))

    def test_hand_built_blank_leaves_tree_oracle(self):
        cell = TagNode("td", children=[ContentNode(""), ContentNode("  ")])
        row = TagNode("tr", children=[cell, TagNode("td", children=[ContentNode("x")])])
        root = TagNode("html", children=[TagNode("table", children=[row]), ContentNode("")])
        tree = TagTree(root)
        assert_matches_oracle(tree)
        assert cell.text() == "  "
        direct, bearing = _content_profile(tree_index(root))
        assert (direct[cell._pos], bearing[row._pos]) == (0, 1)


class TestDeepTreeOracle:
    def test_deep_tree_tree_oracle(self):
        levels = 20_000
        tree = parse("<span>" * levels + "core" + "</span>" * levels)
        root = tree.root
        chain = list(root.iter())
        assert len(chain) == levels + 2  # html, the spans, the text leaf
        leaf = chain[-1]
        assert isinstance(leaf, ContentNode)
        assert leaf.depth() == levels + 1
        assert root.size() == levels + 2
        assert root.subtree_depth() == levels + 1
        assert tree.text() == "core"
        # The walking oracles are linear per call: sample the chain.
        for node in chain[:: levels // 20] + chain[-3:]:
            path = node_path(node)
            assert path == oracles.walk_node_path(node)
            assert node.depth() == oracles.walk_depth(node)
            assert resolve_path(tree, path) is node
            if isinstance(node, TagNode):
                assert node.size() == oracles.walk_size(node)
                assert node.text() == oracles.walk_text(node)
                assert subtree_shape(node) == oracles.walk_subtree_shape(node)
        direct, bearing = _content_profile(tree_index(root))
        assert direct[levels] == 1 and bearing[levels] == 0
        assert all(bearing[pos] == 1 for pos in range(levels))


class TestIndexNeverStale:
    def test_append_after_query_reindexes(self):
        tree = parse("<html><body><p>one</p></body></html>")
        body = tree.root.find("body")
        old = tree_index(body)
        assert body.size() == 3
        extra = TagNode("p")
        extra.append(ContentNode("two"))
        extra.text()  # the new subtree is indexed on its own
        body.append(extra)
        # Both indexes let go of their nodes ...
        assert all(node._index is None for node in old.nodes)
        assert extra._index is None
        # ... and the next query sees the grown tree.
        assert body.size() == 5
        assert tree.text() == "one two"
        assert node_path(extra) == "html/body/p[2]"
        assert resolve_path(tree, "html/body/p[2]") is extra
        assert extra.depth() == 2
        assert_matches_oracle(tree)


class TestLazyBuild:
    @pytest.mark.parametrize(
        "query, oracle",
        [
            (TagNode.size, oracles.walk_size),
            (TagNode.depth, oracles.walk_depth),
            (TagNode.text, oracles.walk_text),
            (
                TagNode.subtree_depth,
                lambda node: max(map(oracles.walk_depth, oracles.walk_iter(node)))
                - oracles.walk_depth(node),
            ),
            (lambda node: list(node.iter()), lambda node: list(oracles.walk_iter(node))),
            (node_path, oracles.walk_node_path),
            (node_tag_sequence, oracles.walk_tag_sequence),
            (subtree_shape, oracles.walk_subtree_shape),
            (max_fanout, oracles.walk_max_fanout),
        ],
    )
    def test_first_query_on_an_inner_node(self, query, oracle):
        # The query that builds the index must answer for its own node,
        # not for the position an unindexed node starts at.
        tree = parse("<html><body><p>a</p><div><p>b</p><p>c</p></div></body></html>")
        div = tree.root.children[0].children[1]
        expected = oracle(div)
        assert div._index is None
        assert query(div) == expected

    def test_index_built_once_per_tree(self):
        tree = parse("<html><body><p>a</p><p>b</p></body></html>")
        index = tree_index(tree.root)
        tree.text()
        node_path(tree.root.find_all("p")[1])
        assert all(node._index is index for node in tree.iter())
