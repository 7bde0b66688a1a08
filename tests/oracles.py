"""Scalar reference implementations of the pipeline's numpy kernels.

The pipeline computes every stage one way: with the dense numpy
kernels. This module keeps the readable form of each of those
computations — one ``cosine_similarity`` per (vector, center) pair, one
dynamic-programming cell at a time, one subtree distance per pair — as
the oracle the equivalence tests (and the Figure-5 speedup bench)
compare the production path against. Production code never imports it.

Where an oracle draws from a seeded RNG it does so call for call like
the production kernel, so seeded runs compare label for label.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, Optional, Sequence, Union

from repro.cluster.assignments import Clustering
from repro.cluster.hierarchical import AgglomerativeResult, AverageLinkClusterer
from repro.cluster.kmeans import KMeans, KMeansResult
from repro.cluster.kmedoids import KMedoids, KMedoidsResult
from repro.cluster.treeedit import _AnnotatedTree, _compute_treedist
from repro.core.subtree_ranking import _clamp_unit, _member_term_counts
from repro.core.subtree_sets import (
    CommonSubtreeSet,
    SubtreeCandidate,
    shape_distance,
)
from repro.errors import ClusteringError
from repro.html.tree import TagNode, TagTree
from repro.runtime import restart_seed_streams, run_restarts, select_best
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
    labels = []
    for vector in vectors:
        best_label = 0
        best_sim = -1.0
        for index, center in enumerate(centers):
            sim = cosine_similarity(vector, center)
            if sim > best_sim:
                best_sim = sim
                best_label = index
        labels.append(best_label)
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


def _kmeans_restart_batch(payload, seeds) -> list[KMeansResult]:
    model, vectors, k = payload
    return [kmeans_run_once(model, vectors, k, random.Random(seed)) for seed in seeds]


def kmeans_fit(model: KMeans, vectors: Sequence[SparseVector]) -> KMeansResult:
    """:meth:`KMeans.fit` with the scalar kernel: the same per-restart
    seed streams, the same restart fan-out (``model.n_jobs``), the same
    first-wins best-cohesion selection."""
    if not vectors:
        raise ClusteringError("cannot cluster an empty collection")
    results = run_restarts(
        _kmeans_restart_batch,
        (model, list(vectors), min(model.k, len(vectors))),
        restart_seed_streams(model.seed, model.restarts, "kmeans"),
        model.n_jobs,
        label="kmeans",
        execution=model.execution,
    )
    best = select_best(
        results,
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
            best_member = min(
                members,
                key=lambda m: sum(matrix[m][other] for other in members),
            )
            new_medoids.append(best_member)
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


def _kmedoids_restart_batch(payload, seeds) -> list[KMedoidsResult]:
    model, matrix, n, k = payload
    return [
        kmedoids_run_once(model, matrix, n, k, random.Random(seed)) for seed in seeds
    ]


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
    results = run_restarts(
        _kmedoids_restart_batch,
        (model, matrix, n, min(model.k, n)),
        restart_seed_streams(model.seed, model.restarts, "kmedoids"),
        model.n_jobs,
        label="kmedoids",
        execution=model.execution,
    )
    return select_best(
        results,
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
    counts = [_member_term_counts(c, extractor) for c in subtree_set.candidates()]
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
