"""Anomaly scorers: OOV detector, rarity model, k-means, isolation forest.

All scorers share one contract: fit on training data, then return one
finite score per document where larger means more anomalous.  Fitted
models are immutable; scoring a document never looks at other documents.
A scorer scores each stored row of the matrix once and maps the row scores
to the documents (``DocTermMatrix.per_doc``), so documents that share a row
cost one score.  Fits read documents through the map too, gathering the
stored rows of the documents they take (``DocTermMatrix.take_docs``).

The isolation forest keeps all its trees in one node table with each
tree's root, and scores by walking every tree at once, one level per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .vectorize import CSRMatrix, DocTermMatrix, Vocabulary, Weighting


def _check_columns(expected: int, docs: DocTermMatrix, what: str) -> None:
    if docs.n_terms != expected:
        raise ValueError(f"{what}: matrix has {docs.n_terms} columns, expected {expected}")


# ---------------------------------------------------------------------------
# Out-of-vocabulary detector
# ---------------------------------------------------------------------------

def oovd_score(v: Vocabulary, docs: DocTermMatrix) -> np.ndarray:
    """Number of out-of-vocabulary terms per document.

    Computed as original token count minus the count-matrix row sum, which
    is orders of magnitude faster than matching terms one by one.  Only
    meaningful when the vocabulary was fitted on anomaly-free data.
    """
    if docs.weighting is not Weighting.COUNT:
        raise ValueError(f"oovd_score needs a Count matrix, got {docs.weighting.value}")
    _check_columns(v.n_terms, docs, "oovd_score")
    return docs.per_doc(docs.doc_token_totals.astype(np.float64) - docs.row_sums())


# ---------------------------------------------------------------------------
# Rarity model
# ---------------------------------------------------------------------------

@dataclass
class RarityModel:
    """Per-column rarity: -ln(term occurrence share in the training corpus)."""

    rarity: np.ndarray


def rm_fit(v: Vocabulary) -> RarityModel:
    if v.corpus_total <= 0:
        raise ValueError("rarity model needs a non-empty training corpus")
    shares = v.term_total / float(v.corpus_total)
    return RarityModel(rarity=-np.log(shares))


def rm_score(m: RarityModel, docs: DocTermMatrix) -> np.ndarray:
    """Tf-idf weighted rarity per document, divided by its token count.

    The denominator is the document's original token count, OOV tokens
    included.  OOV terms contribute nothing to the numerator either, which
    is the model's known blind spot and the OOV detector's niche.  Empty
    documents score 0.
    """
    if docs.weighting is not Weighting.TFIDF:
        raise ValueError(f"rm_score needs a TfIdf matrix, got {docs.weighting.value}")
    _check_columns(len(m.rarity), docs, "rm_score")
    dots = docs.matrix @ m.rarity
    denom = docs.doc_token_totals.astype(np.float64)
    return docs.per_doc(np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0))


# ---------------------------------------------------------------------------
# K-means
# ---------------------------------------------------------------------------

@dataclass
class KMeansModel:
    k: int
    centroids: np.ndarray
    seed: int


def _sq_distances(X: CSRMatrix, x_sq: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances via |x|^2 + |c|^2 - 2 x.c, clipped at 0."""
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    d2 = x_sq[:, None] + c_sq[None, :] - 2.0 * (X @ centroids.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _plus_plus_init(
    train: DocTermMatrix, x_sq: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n, X = train.n_docs, train.matrix
    chosen = [int(rng.integers(n))]
    centroids = np.zeros((k, train.n_terms))
    centroids[0] = train.take_docs([chosen[0]]).toarray()[0]
    d2 = train.per_doc(_sq_distances(X, x_sq, centroids[:1])).ravel()
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # All the mass sits on chosen points: take the idx-th unchosen
            # document, which draws what rng.choice over the unchosen
            # documents draws (kmeans_fit's k <= n leaves one).
            taken = sorted(set(chosen))
            idx = int(rng.integers(n - len(taken)))
            for c in taken:
                if c > idx:
                    break
                idx += 1
        chosen.append(idx)
        centroids[j] = train.take_docs([idx]).toarray()[0]
        d2 = np.minimum(d2, train.per_doc(_sq_distances(X, x_sq, centroids[j : j + 1])).ravel())
    return centroids


# Lloyd rounds after which k-means stops even without a fixpoint.
_KMEANS_MAX_ITER = 100


def kmeans_fit(train: DocTermMatrix, k: int = 8, seed: int = 0) -> KMeansModel:
    """Lloyd's algorithm from a seeded k-means++-style initialization.

    Runs until the assignment reaches a fixpoint or ``_KMEANS_MAX_ITER`` rounds.
    Empty clusters are repaired by reseeding them to the point currently
    farthest from its own centroid among the clusters with another member.
    """
    n = train.n_docs
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n_docs], got k={k} for {n} docs")
    X = train.matrix
    x_sq = X.row_sq_norms()
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(train, x_sq, k, rng)

    prev = None
    for _ in range(_KMEANS_MAX_ITER):
        d2 = train.per_doc(_sq_distances(X, x_sq, centroids))
        assign = d2.argmin(axis=1)
        own = d2[np.arange(n), assign]
        sizes = np.bincount(assign, minlength=k)
        for j in np.flatnonzero(sizes == 0):
            # Taking a cluster's only member would leave it empty.
            far = int(np.where(sizes[assign] > 1, own, -1.0).argmax())
            sizes[assign[far]] -= 1
            sizes[j] = 1
            assign[far] = j
        if prev is not None and np.array_equal(assign, prev):
            break
        for j in range(k):
            members = np.flatnonzero(assign == j)
            centroids[j] = train.take_docs(members).column_sums() / len(members)
        prev = assign
    return KMeansModel(k=k, centroids=centroids, seed=seed)


def kmeans_score(m: KMeansModel, docs: DocTermMatrix) -> np.ndarray:
    """Euclidean distance to the nearest centroid."""
    _check_columns(m.centroids.shape[1], docs, "kmeans_score")
    X = docs.matrix
    d2 = _sq_distances(X, X.row_sq_norms(), m.centroids)
    return docs.per_doc(np.sqrt(d2.min(axis=1)))


# ---------------------------------------------------------------------------
# Isolation forest
# ---------------------------------------------------------------------------

@dataclass
class IForestModel:
    """Every tree in one node table; ``feature < 0`` marks a leaf.

    ``roots[t]`` is tree ``t``'s root.  ``path`` holds a node's depth plus
    c(its training rows): the path length of a document that ends there.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    path: np.ndarray
    roots: np.ndarray
    subsample: int
    c_norm: float
    n_terms: int
    depth_cap: int


def average_path_length(n: int) -> float:
    """Expected unsuccessful-search path length c(n) in a random tree.

    Uses the exact harmonic number, so c(2) == 1 precisely.
    """
    if n <= 1:
        return 0.0
    h = float(np.sum(1.0 / np.arange(1, n)))
    return 2.0 * h - 2.0 * (n - 1) / n


def iforest_fit(
    train: DocTermMatrix, n_trees: int = 100, subsample: int = 256, seed: int = 0
) -> IForestModel:
    """Grow isolation trees on random subsamples into one node table.

    Each tree takes a subsample of up to ``subsample`` documents, recursively
    splits a randomly chosen feature (only features that actually vary in
    the node's rows are candidates) at a uniform point between its min and
    max, and stops at isolation or the depth ceiling ceil(log2 subsample).
    """
    n = train.n_docs
    if n < 2:
        raise ValueError(f"isolation forest needs at least 2 documents, got {n}")
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    if subsample < 2:
        # c(1) = 0 would divide every path length by zero.
        raise ValueError(f"subsample must be >= 2, got {subsample}")
    psi = min(subsample, n)
    depth_cap = max(1, math.ceil(math.log2(psi)))
    c = [average_path_length(size) for size in range(psi + 1)]
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    path: list[float] = []
    # Each node is done with its rows before its children run, so all gather
    # here: a fresh copy past glibc's mmap threshold faults in fresh pages.
    gathered = np.empty((psi, train.n_terms))

    def grow(dense: np.ndarray, rng: np.random.Generator, rows: np.ndarray, d: int) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        path.append(d + c[rows.size])
        if d >= depth_cap or rows.size <= 1:
            return node
        # mode="clip" keeps np.take from buffering; the indices are valid.
        sub = np.take(dense, rows, axis=0, out=gathered[:rows.size], mode="clip")
        mins = sub.min(axis=0)
        maxs = sub.max(axis=0)
        candidates = np.flatnonzero(maxs > mins)
        if candidates.size == 0:
            return node
        # Draws what rng.choice(candidates) draws, without its overhead.
        f = int(candidates[rng.integers(candidates.size)])
        t = float(rng.uniform(mins[f], maxs[f]))
        if t <= mins[f]:  # uniform() may return its lower bound
            t = (float(mins[f]) + float(maxs[f])) / 2.0
        mask = sub[:, f] < t
        feature[node] = f
        threshold[node] = t
        left[node] = grow(dense, rng, rows[mask], d + 1)
        right[node] = grow(dense, rng, rows[~mask], d + 1)
        return node

    roots = []
    for ss in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(ss)
        docs = rng.choice(n, size=psi, replace=False)
        dense = train.take_docs(docs).toarray()
        roots.append(grow(dense, rng, np.arange(psi), 0))
    return IForestModel(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        path=np.asarray(path, dtype=np.float64),
        roots=np.asarray(roots, dtype=np.int64),
        subsample=psi,
        c_norm=c[psi],
        n_terms=train.n_terms,
        depth_cap=depth_cap,
    )


# Dense scoring buffer budget (elements per chunk); keeps peak memory flat
# when documents are wide.
_CHUNK_ELEMENTS = 1 << 24
# Node slots (trees x stored rows) per chunk: a walk over 2^20 slots falls
# out of the cache and was slower than walking the trees one by one.
_WALK_SLOTS = 1 << 16


def iforest_score(m: IForestModel, docs: DocTermMatrix) -> np.ndarray:
    """2^(-E[path length] / c(subsample)); in (0, 1], larger = more anomalous."""
    _check_columns(m.n_terms, docs, "iforest_score")
    n = docs.n_rows
    n_trees = len(m.roots)
    chunk = max(1, min(_CHUNK_ELEMENTS // max(1, m.n_terms), _WALK_SLOTS // n_trees))
    mean_h = np.zeros(n)
    # Node-slot buffers (trees x a chunk's rows) that every step of every
    # chunk writes into: a fresh array of this size per step would be a
    # fresh mapping, whose cost depends on what earlier stages freed.
    slots = n_trees * min(chunk, n)
    int_bufs = [np.empty(slots, dtype=np.int64) for _ in range(4)]
    float_bufs = [np.empty(slots) for _ in range(2)]
    bool_bufs = [np.empty(slots, dtype=bool) for _ in range(2)]
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        width = stop - start
        node, feats, child, right, vals, acc, internal, go_left = (
            buf[:n_trees * width].reshape(n_trees, width)
            for buf in (*int_bufs, *float_bufs, *bool_bufs)
        )
        dense = docs.matrix.take_rows(np.arange(start, stop)).toarray().ravel()
        row_start = np.arange(width) * m.n_terms  # each row's offset in ``dense``
        np.copyto(node, m.roots[:, None])
        for _ in range(m.depth_cap + 1):
            # The indices are valid; mode="clip" keeps np.take from buffering.
            np.take(m.feature, node, out=feats, mode="clip")
            np.greater_equal(feats, 0, out=internal)
            if not internal.any():
                break
            np.maximum(feats, 0, out=feats)  # a leaf reads column 0 and stays put
            np.add(feats, row_start, out=feats)
            np.take(dense, feats, out=vals, mode="clip")
            np.take(m.threshold, node, out=acc, mode="clip")
            np.less(vals, acc, out=go_left)
            np.take(m.left, node, out=child, mode="clip")
            np.take(m.right, node, out=right, mode="clip")
            np.copyto(right, child, where=go_left)
            np.copyto(node, right, where=internal)
        # Adds tree by tree, in tree order.  np.add.reduce would sum a
        # one-doc chunk pairwise, since its trees axis is contiguous.
        np.take(m.path, node, out=vals, mode="clip")
        np.cumsum(vals, axis=0, out=acc)
        mean_h[start:stop] = acc[-1] / n_trees
    return docs.per_doc(np.power(2.0, -mean_h / m.c_norm))
