"""Scalar reference implementations of the pipeline's fast kernels.

The pipeline computes every stage one way: with the dense numpy
kernels and the compiled-regex HTML scanners. This module keeps the
readable form of each of those computations — one
``cosine_similarity`` per (vector, center) pair, one
dynamic-programming cell at a time, one subtree distance per pair, one
HTML character per tokenizer step — as the oracle the equivalence
tests (and the Figure-5 speedup bench) compare the production path
against. Production code never imports it.

Where an oracle draws from a seeded RNG it does so call for call like
the production kernel, so seeded runs compare label for label.

The tag-tree section keeps the per-call walks — sibling scans for
path expressions, subtree walks for size, text and the content
profile — that the preorder tree index replaced.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

from repro.cluster.assignments import NEAR_TIE_EPSILON, Clustering
from repro.cluster.hierarchical import AgglomerativeResult, AverageLinkClusterer
from repro.cluster.kmeans import KMeans, KMeansResult
from repro.cluster.kmedoids import KMedoids, KMedoidsResult
from repro.cluster.treeedit import _AnnotatedTree, _compute_treedist
from repro.core.subtree_ranking import _clamp_unit
from repro.core.subtree_sets import (
    CommonSubtreeSet,
    SubtreeCandidate,
    shape_distance,
)
from repro.errors import ClusteringError, PathResolutionError
from repro.html.entities import decode_entities
from repro.html.metrics import SubtreeShape
from repro.html.paths import parse_path
from repro.html.tokenizer import (
    RAWTEXT_ELEMENTS,
    Comment,
    Doctype,
    EndTag,
    StartTag,
    Text,
    Token,
)
from repro.html.tree import ContentNode, Node, TagNode, TagTree
from repro.runtime import restart_seed_streams, select_best
from repro.text.terms import DEFAULT_EXTRACTOR, TermExtractor
from repro.vsm.centroid import centroid, vector_sum
from repro.vsm.similarity import cosine_similarity
from repro.vsm.vector import SparseVector
from repro.vsm.weighting import CorpusWeighter, raw_tf_vector

# ---------------------------------------------------------------------------
# K-Means (repro.cluster.kmeans)
# ---------------------------------------------------------------------------


def _assign(
    vectors: Sequence[SparseVector], centers: Sequence[SparseVector]
) -> list[int]:
    """Per vector, the lowest center index whose cosine lies within
    ``NEAR_TIE_EPSILON`` of the best (the kernel's near-tie rule)."""
    labels = []
    for vector in vectors:
        sims = [cosine_similarity(vector, center) for center in centers]
        best = max(sims)
        labels.append(
            next(i for i, sim in enumerate(sims) if sim >= best - NEAR_TIE_EPSILON)
        )
    return labels


def _cohesion(
    vectors: Sequence[SparseVector],
    labels: Sequence[int],
    centers: Sequence[SparseVector],
) -> float:
    """Σ_i Σ_{p∈C_i} cos(p, center_i), over the loop's final centers
    (on convergence these equal the centroids of the final labels)."""
    return sum(
        cosine_similarity(vector, centers[label])
        for vector, label in zip(vectors, labels)
    )


def kmeans_seed_centers(
    model: KMeans, vectors: Sequence[SparseVector], k: int, rng: random.Random
) -> list[SparseVector]:
    if model.init == "random":
        return [vectors[i] for i in rng.sample(range(len(vectors)), k)]
    # kmeans++: pick the first center uniformly, then each next
    # center with probability proportional to its cosine distance
    # to the nearest already-chosen center.
    centers = [vectors[rng.randrange(len(vectors))]]
    while len(centers) < k:
        weights = []
        for vector in vectors:
            nearest = max(cosine_similarity(vector, center) for center in centers)
            weights.append(max(0.0, 1.0 - nearest))
        total = sum(weights)
        if total == 0.0:
            centers.append(vectors[rng.randrange(len(vectors))])
            continue
        threshold = rng.random() * total
        cumulative = 0.0
        chosen = vectors[-1]
        for vector, weight in zip(vectors, weights):
            cumulative += weight
            if cumulative >= threshold:
                chosen = vector
                break
        centers.append(chosen)
    return centers


def kmeans_run_once(
    model: KMeans, vectors: Sequence[SparseVector], k: int, rng: random.Random
) -> KMeansResult:
    """One seeded restart of ``model``'s configuration."""
    centers = kmeans_seed_centers(model, vectors, k, rng)
    labels = _assign(vectors, centers)
    iterations = 1
    while iterations < model.max_iterations:
        new_centers = []
        for cluster in range(k):
            members = [vectors[i] for i, lab in enumerate(labels) if lab == cluster]
            if members:
                new_centers.append(centroid(members))
            else:
                # Re-seed an empty cluster with a random vector so k
                # clusters survive.
                new_centers.append(vectors[rng.randrange(len(vectors))])
        new_labels = _assign(vectors, new_centers)
        centers = new_centers
        iterations += 1
        if new_labels == labels:
            labels = new_labels
            break
        labels = new_labels
    similarity = _cohesion(vectors, labels, centers)
    return KMeansResult(
        clustering=Clustering(tuple(labels), k),
        centroids=tuple(centers),
        internal_similarity=similarity,
        iterations=iterations,
        restarts_run=1,
    )


def kmeans_fit(model: KMeans, vectors: Sequence[SparseVector]) -> KMeansResult:
    """:meth:`KMeans.fit` with the scalar kernel: the same per-restart
    seed streams, the same serial restart loop, the same first-wins
    best-cohesion selection."""
    if not vectors:
        raise ClusteringError("cannot cluster an empty collection")
    vectors = list(vectors)
    k = min(model.k, len(vectors))
    seeds = restart_seed_streams(model.seed, model.restarts, "kmeans")
    best = select_best(
        (kmeans_run_once(model, vectors, k, random.Random(seed)) for seed in seeds),
        lambda result, incumbent: result.internal_similarity
        > incumbent.internal_similarity,
    )
    return model._with_restarts(best)


# ---------------------------------------------------------------------------
# K-medoids (repro.cluster.kmedoids)
# ---------------------------------------------------------------------------


def _kmedoids_assign(matrix: list[list[float]], n: int, medoids: list[int]) -> list[int]:
    labels = []
    for i in range(n):
        best_label = 0
        best_dist = float("inf")
        for index, medoid in enumerate(medoids):
            d = matrix[i][medoid]
            if d < best_dist:
                best_dist = d
                best_label = index
        labels.append(best_label)
    return labels


def kmedoids_run_once(
    model: KMedoids, matrix: list[list[float]], n: int, k: int, rng: random.Random
) -> KMedoidsResult:
    """One seeded restart of ``model``'s configuration."""
    medoids = rng.sample(range(n), k)
    labels = _kmedoids_assign(matrix, n, medoids)
    iterations = 1
    while iterations < model.max_iterations:
        new_medoids = []
        for cluster in range(k):
            members = [i for i, lab in enumerate(labels) if lab == cluster]
            if not members:
                new_medoids.append(rng.randrange(n))
                continue
            # Member totals sum in a different order than the kernel's,
            # so the lowest index within NEAR_TIE_EPSILON of the
            # minimum wins, as in the kernel.
            totals = [sum(matrix[m][other] for other in members) for m in members]
            best = min(totals)
            new_medoids.append(
                next(
                    m
                    for m, total in zip(members, totals)
                    if total <= best + NEAR_TIE_EPSILON
                )
            )
        new_labels = _kmedoids_assign(matrix, n, new_medoids)
        iterations += 1
        if new_labels == labels and new_medoids == medoids:
            break
        labels, medoids = new_labels, new_medoids
    total = sum(matrix[i][medoids[labels[i]]] for i in range(n))
    return KMedoidsResult(
        clustering=Clustering(tuple(labels), k),
        medoid_indices=tuple(medoids),
        total_distance=total,
        iterations=iterations,
    )


def kmedoids_fit(model: KMedoids, items: Sequence) -> KMedoidsResult:
    """:meth:`KMedoids.fit` over nested lists, one scalar
    ``model.distance`` call per pair."""
    n = len(items)
    if not n:
        raise ClusteringError("cannot cluster an empty collection")
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = model.distance(items[i], items[j])
            matrix[i][j] = d
            matrix[j][i] = d
    k = min(model.k, n)
    seeds = restart_seed_streams(model.seed, model.restarts, "kmedoids")
    return select_best(
        (kmedoids_run_once(model, matrix, n, k, random.Random(seed)) for seed in seeds),
        lambda result, incumbent: result.total_distance < incumbent.total_distance,
    )


# ---------------------------------------------------------------------------
# Average-link agglomerative clustering (repro.cluster.hierarchical)
# ---------------------------------------------------------------------------


def average_link_fit(vectors: Sequence[SparseVector], k: int) -> AgglomerativeResult:
    """One single-shot fit (``restarts=1``), one sparse dot product per
    linkage."""
    n = len(vectors)
    target_k = min(k, n)
    # Normalize defensively; zero vectors stay zero (similarity 0
    # to everything, merged last).
    unit: list[SparseVector] = [v if v.is_zero() else v.normalized() for v in vectors]

    # Active cluster id → (sum vector, size, member indices).
    sums: dict[int, SparseVector] = {i: unit[i] for i in range(n)}
    sizes: dict[int, int] = {i: 1 for i in range(n)}
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    next_id = n

    def linkage(a: int, b: int) -> float:
        denom = sizes[a] * sizes[b]
        if denom == 0:
            return 0.0
        return sums[a].dot(sums[b]) / denom

    heap: list[tuple[float, int, int]] = []
    active = set(range(n))
    for a in active:
        for b in active:
            if a < b:
                heapq.heappush(heap, (-linkage(a, b), a, b))

    merge_similarities: list[float] = []
    while len(active) > target_k and heap:
        neg_sim, a, b = heapq.heappop(heap)
        if a not in active or b not in active:
            continue  # stale entry
        merge_similarities.append(-neg_sim)
        merged = next_id
        next_id += 1
        sums[merged] = sums[a] + sums[b]
        sizes[merged] = sizes[a] + sizes[b]
        members[merged] = members[a] + members[b]
        for stale in (a, b):
            active.discard(stale)
            del sums[stale], sizes[stale], members[stale]
        for other in active:
            heapq.heappush(heap, (-linkage(merged, other), merged, other))
        active.add(merged)

    return AverageLinkClusterer._label(n, active, members, merge_similarities)


# ---------------------------------------------------------------------------
# Zhang–Shasha tree edit distance (repro.cluster.treeedit)
# ---------------------------------------------------------------------------


def tree_edit_distance(
    a: Union[TagTree, TagNode],
    b: Union[TagTree, TagNode],
    relabel_cost: Optional[Callable[[str, str], float]] = None,
    insert_cost: float = 1.0,
    delete_cost: float = 1.0,
) -> float:
    """The all-scalar keyroot DP: every forest, wide or narrow, one
    cell at a time."""
    ta = _AnnotatedTree(a.root if isinstance(a, TagTree) else a)
    tb = _AnnotatedTree(b.root if isinstance(b, TagTree) else b)
    size_a, size_b = len(ta), len(tb)
    if relabel_cost is None:
        relabel_cost = lambda x, y: 0.0 if x == y else 1.0  # noqa: E731
    treedist = [[0.0] * size_b for _ in range(size_a)]
    for i in ta.keyroots:
        for j in tb.keyroots:
            _compute_treedist(
                ta, tb, i, j, treedist, relabel_cost, insert_cost, delete_cost
            )
    return treedist[size_a - 1][size_b - 1]


def normalized_tree_edit_distance(
    a: Union[TagTree, TagNode], b: Union[TagTree, TagNode]
) -> float:
    root_a = a.root if isinstance(a, TagTree) else a
    root_b = b.root if isinstance(b, TagTree) else b
    largest = max(root_a.size(), root_b.size())
    if largest == 0:
        return 0.0
    return tree_edit_distance(root_a, root_b) / largest


# ---------------------------------------------------------------------------
# Common subtree sets (repro.core.subtree_sets)
# ---------------------------------------------------------------------------


def assignable_pairs(
    prototypes: Sequence[SubtreeCandidate],
    page_candidates: Sequence[SubtreeCandidate],
    weights: tuple[float, float, float, float],
    max_assign_distance: float,
) -> list[tuple[float, int, int]]:
    """One scalar :func:`shape_distance` per (prototype, candidate)
    pair, in the production kernel's row-major order."""
    pairs: list[tuple[float, int, int]] = []
    for set_index, proto in enumerate(prototypes):
        for cand_index, candidate in enumerate(page_candidates):
            distance = shape_distance(proto, candidate, weights)
            if distance <= max_assign_distance:
                pairs.append((distance, set_index, cand_index))
    return pairs


# ---------------------------------------------------------------------------
# Intra-set content similarity (repro.core.subtree_ranking)
# ---------------------------------------------------------------------------


def set_content_vectors(
    subtree_set: CommonSubtreeSet,
    extractor: TermExtractor = DEFAULT_EXTRACTOR,
    use_tfidf: bool = True,
) -> list[SparseVector]:
    """One :class:`SparseVector` per member (TFIDF within the set, or
    raw normalized term frequencies)."""
    counts = [extractor.extract_counts(c.node.text()) for c in subtree_set.candidates()]
    if not use_tfidf:
        return [raw_tf_vector(c) for c in counts]
    weighter = CorpusWeighter.fit(counts)
    return weighter.transform_all(counts)


def intra_set_similarity(
    subtree_set: CommonSubtreeSet,
    extractor: TermExtractor = DEFAULT_EXTRACTOR,
    use_tfidf: bool = True,
) -> float:
    """Mean pairwise member cosine over :func:`set_content_vectors`."""
    vectors = set_content_vectors(subtree_set, extractor, use_tfidf)
    n = len(vectors)
    if n <= 1:
        return 1.0
    # The member vectors are unit length (or zero), so Σ_{i<j} v_i·v_j =
    # (‖Σv‖² − #non-zero) / 2.
    composite = vector_sum(vectors)
    non_zero = sum(1 for v in vectors if not v.is_zero())
    pair_sum = (composite.norm**2 - non_zero) / 2.0
    return _clamp_unit(pair_sum / (n * (n - 1) / 2.0))


# ---------------------------------------------------------------------------
# HTML tokenizer (repro.html.tokenizer)
# ---------------------------------------------------------------------------

_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_CHARS = _NAME_START | frozenset("0123456789-_:.")
_SPACE = frozenset(" \t\n\r\f")


@dataclass
class _Cursor:
    """Mutable scan position over the source text."""

    text: str
    pos: int = 0
    length: int = field(init=False)

    def __post_init__(self) -> None:
        self.length = len(self.text)

    def eof(self) -> bool:
        return self.pos >= self.length

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index < self.length:
            return self.text[index]
        return ""

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def skip_space(self) -> None:
        while self.pos < self.length and self.text[self.pos] in _SPACE:
            self.pos += 1


def _scan_name(cur: _Cursor) -> str:
    start = cur.pos
    while not cur.eof() and cur.peek() in _NAME_CHARS:
        cur.advance()
    return cur.text[start : cur.pos].lower()


def _scan_attribute_value(cur: _Cursor) -> str:
    quote = cur.peek()
    if quote in ('"', "'"):
        cur.advance()
        start = cur.pos
        end = cur.text.find(quote, start)
        if end == -1:
            # Unterminated quote: take everything to end of document.
            end = cur.length
            cur.pos = end
        else:
            cur.pos = end + 1
        return decode_entities(cur.text[start:end])
    start = cur.pos
    while not cur.eof() and cur.peek() not in _SPACE and cur.peek() not in (">", "/"):
        cur.advance()
    return decode_entities(cur.text[start : cur.pos])


def _scan_attributes(cur: _Cursor) -> tuple[tuple[tuple[str, str], ...], bool]:
    attrs: list[tuple[str, str]] = []
    self_closing = False
    while True:
        cur.skip_space()
        if cur.eof():
            break
        ch = cur.peek()
        if ch == ">":
            cur.advance()
            break
        if ch == "/":
            cur.advance()
            cur.skip_space()
            if cur.peek() == ">":
                cur.advance()
                self_closing = True
                break
            continue
        if ch not in _NAME_START:
            # Junk between attributes: skip one character and retry.
            cur.advance()
            continue
        name = _scan_name(cur)
        cur.skip_space()
        value = ""
        if cur.peek() == "=":
            cur.advance()
            cur.skip_space()
            value = _scan_attribute_value(cur)
        attrs.append((name, value))
    return tuple(attrs), self_closing


def _scan_comment(cur: _Cursor) -> Comment:
    # cur is positioned just after "<!--".
    end = cur.text.find("-->", cur.pos)
    if end == -1:
        data = cur.text[cur.pos :]
        cur.pos = cur.length
    else:
        data = cur.text[cur.pos : end]
        cur.pos = end + 3
    return Comment(data)


def _scan_declaration(cur: _Cursor) -> Token:
    # cur is positioned just after "<!".
    rest = cur.text[cur.pos : cur.pos + 7].lower()
    if rest.startswith("doctype"):
        end = cur.text.find(">", cur.pos)
        if end == -1:
            end = cur.length
        data = cur.text[cur.pos + 7 : end].strip()
        cur.pos = min(end + 1, cur.length)
        return Doctype(data)
    if cur.text.startswith("[CDATA[", cur.pos):
        end = cur.text.find("]]>", cur.pos + 7)
        if end == -1:
            data = cur.text[cur.pos + 7 :]
            cur.pos = cur.length
        else:
            data = cur.text[cur.pos + 7 : end]
            cur.pos = end + 3
        return Text(data)
    # Bogus declaration: consume to ">" and emit as comment.
    end = cur.text.find(">", cur.pos)
    if end == -1:
        end = cur.length
    data = cur.text[cur.pos : end]
    cur.pos = min(end + 1, cur.length)
    return Comment(data)


def _at_close_tag(cur: _Cursor, element: str) -> bool:
    """True when ``</element`` (in any case) starts at the cursor."""
    needle = "</" + element
    return cur.text[cur.pos : cur.pos + len(needle)].lower() == needle


def _scan_rawtext(cur: _Cursor, element: str) -> str:
    """Consume raw text until ``</element``, leaving the cursor on it."""
    start = cur.pos
    while not cur.eof() and not _at_close_tag(cur, element):
        cur.advance()
    return cur.text[start : cur.pos]


def tokenize_html(html: str) -> Iterator[Token]:
    """The character-stepping tokenizer: one ``peek``/``advance`` per
    character of every name, attribute and bare value."""
    cur = _Cursor(html)
    text_start = 0

    def flush_text(upto: int) -> Iterator[Text]:
        if upto > text_start:
            data = cur.text[text_start:upto]
            if data:
                yield Text(decode_entities(data))

    while not cur.eof():
        lt = cur.text.find("<", cur.pos)
        if lt == -1:
            cur.pos = cur.length
            yield from flush_text(cur.length)
            return
        nxt = cur.text[lt + 1] if lt + 1 < cur.length else ""
        if nxt in _NAME_START:
            yield from flush_text(lt)
            cur.pos = lt + 1
            name = _scan_name(cur)
            attrs, self_closing = _scan_attributes(cur)
            yield StartTag(name, attrs, self_closing)
            if name in RAWTEXT_ELEMENTS and not self_closing:
                raw = _scan_rawtext(cur, name)
                if raw:
                    yield Text(raw)
                # Consume the close tag if present.
                if _at_close_tag(cur, name):
                    cur.pos += 2 + len(name)
                    end = cur.text.find(">", cur.pos)
                    cur.pos = cur.length if end == -1 else end + 1
                    yield EndTag(name)
            text_start = cur.pos
        elif nxt == "/":
            yield from flush_text(lt)
            cur.pos = lt + 2
            name = _scan_name(cur)
            end = cur.text.find(">", cur.pos)
            cur.pos = cur.length if end == -1 else end + 1
            if name:
                yield EndTag(name)
            text_start = cur.pos
        elif nxt == "!":
            yield from flush_text(lt)
            cur.pos = lt + 2
            if cur.text.startswith("--", cur.pos):
                cur.pos += 2
                yield _scan_comment(cur)
            else:
                yield _scan_declaration(cur)
            text_start = cur.pos
        elif nxt == "?":
            # Processing instruction (e.g. <?xml ...?>): skip as comment.
            yield from flush_text(lt)
            end = cur.text.find(">", lt + 2)
            data_end = cur.length if end == -1 else end
            yield Comment(cur.text[lt + 2 : data_end])
            cur.pos = cur.length if end == -1 else end + 1
            text_start = cur.pos
        else:
            # Stray "<": treat as text and keep scanning.
            cur.pos = lt + 1
    yield from flush_text(cur.length)


# ---------------------------------------------------------------------------
# Tag-tree walks (repro.html.tree index, repro.html.paths,
# repro.html.metrics, repro.core.single_page)
# ---------------------------------------------------------------------------


def walk_iter(node: Node) -> Iterator[Node]:
    """Pre-order traversal by an explicit stack over ``children``."""
    stack: list[Node] = [node]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, TagNode):
            stack.extend(reversed(current.children))


def walk_depth(node: Node) -> int:
    """Distance from the root, counted along ``parent`` links."""
    count = 0
    while node.parent is not None:
        node = node.parent
        count += 1
    return count


def walk_size(node: Node) -> int:
    return sum(1 for _ in walk_iter(node))


def walk_text(node: Node, separator: str = " ") -> str:
    parts = [n.text for n in walk_iter(node) if isinstance(n, ContentNode)]
    return separator.join(part for part in parts if part)


def sibling_index(node: TagNode) -> tuple[int, int]:
    """Return (1-based index among same-tag siblings, total same-tag)."""
    parent = node.parent
    if parent is None:
        return 1, 1
    same = [c for c in parent.children if isinstance(c, TagNode) and c.tag == node.tag]
    return same.index(node) + 1, len(same)


def walk_node_path(node: Node) -> str:
    """The path expression, scanning sibling lists up to the root."""
    steps: list[str] = []
    current: Optional[Node] = node
    if isinstance(current, ContentNode):
        parent = current.parent
        if parent is None:
            return "#text"
        texts = [c for c in parent.children if isinstance(c, ContentNode)]
        index = texts.index(current) + 1
        steps.append(f"#text[{index}]" if len(texts) > 1 else "#text")
        current = parent
    while current is not None:
        assert isinstance(current, TagNode)
        index, total = sibling_index(current)
        steps.append(f"{current.tag}[{index}]" if total > 1 else current.tag)
        current = current.parent
    steps.reverse()
    return "/".join(steps)


def walk_tag_sequence(node: TagNode) -> list[str]:
    tags = [ancestor.tag for ancestor in node.ancestors()]
    tags.reverse()
    tags.append(node.tag)
    return tags


def walk_subtree_shape(node: TagNode) -> SubtreeShape:
    return SubtreeShape(
        path=walk_node_path(node),
        fanout=node.fanout,
        depth=walk_depth(node),
        nodes=walk_size(node),
    )


def walk_resolve_path(tree: Union[TagTree, TagNode], path: str) -> Node:
    """Resolve a path one parsed step at a time over child lists."""
    root = tree.root if isinstance(tree, TagTree) else tree
    steps = parse_path(path)
    first_tag, first_index = steps[0]
    if first_tag != root.tag or (first_index or 1) != 1:
        raise PathResolutionError(f"path {path!r} does not start at <{root.tag}>")
    node: Node = root
    for tag, index in steps[1:]:
        if not isinstance(node, TagNode):
            raise PathResolutionError(f"step {tag!r} descends below a leaf in {path!r}")
        wanted = (index or 1) - 1
        if tag == "#text":
            same = [c for c in node.children if isinstance(c, ContentNode)]
        else:
            same = [c for c in node.children if isinstance(c, TagNode) and c.tag == tag]
        if wanted >= len(same):
            raise PathResolutionError(f"no <{tag}>[{wanted + 1}] in {path!r}")
        node = same[wanted]
    return node


def walk_content_profile(root: TagNode) -> dict[int, tuple[int, int]]:
    """For every tag node (by id): (direct content children,
    content-bearing tag children). Computed in one postorder pass."""
    profile: dict[int, tuple[int, int]] = {}
    has_content: dict[int, bool] = {}
    stack: list[tuple[TagNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            for child in node.children:
                if isinstance(child, TagNode):
                    stack.append((child, False))
            continue
        direct = 0
        bearing = 0
        for child in node.children:
            if isinstance(child, ContentNode):
                if child.text.strip():
                    direct += 1
            elif has_content.get(id(child), False):
                bearing += 1
        profile[id(node)] = (direct, bearing)
        has_content[id(node)] = (direct + bearing) > 0
    return profile


def walk_tag_counts(root: TagNode) -> dict[str, int]:
    counts: dict[str, int] = {}
    for node in walk_iter(root):
        if isinstance(node, TagNode):
            counts[node.tag] = counts.get(node.tag, 0) + 1
    return counts


def walk_max_fanout(root: TagNode) -> int:
    return max(
        (n.fanout for n in walk_iter(root) if isinstance(n, TagNode)), default=0
    )
