"""A deliberately naive reference pipeline, built from the per-layer
references that the tests of single layers import.

``reference_run`` runs one cell the long way.  Records are the ``LogRecord``
rows of the raw ``load``, and each message is normalized alone by the regex
normalizer.  Sample, split and filter go row by row.  Every record is
tokenized, and Drain fits every train line and parses every test line.
Each unit is one document, counted with ``Counter`` into a dense row.
Tf-idf, oovd, rm and the k-means distances are computed row by row; the
forest is grown and walked by the reference tree builder.  The k-means
centroids come from the library fit on the reference's own per-unit
matrix.  Nothing here deduplicates messages or maps rows.

The evaluators take per-document scores: the pairwise AUC, the exact F1
sweep and per-bin histogram masks.  Nothing here imports scipy.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from logad.detect import average_path_length, kmeans_fit
from logad.ingest import Granularity, Label, SplitMode, SplitSpec, load
from logad.represent import DrainParser, TokenSeq, tokenize_trigrams, tokenize_words
from logad.vectorize import DocTermMatrix, Weighting
from csr import from_dense

# -- normalize ---------------------------------------------------------------

_DIGITS_TO_ZERO = str.maketrans("123456789", "000000000")
_ZERO_RUN = re.compile("0{2,}")


def reference_normalize(raw: str) -> str:
    """The regex normalizer that the byte pass over UTF-8 replaced."""
    return _ZERO_RUN.sub("0", raw.lower().translate(_DIGITS_TO_ZERO))


# -- sample, split, filter, one row at a time --------------------------------

def ref_sample(records, fraction, seed):
    n = len(records)
    count = math.floor(fraction * n + 0.5)
    if count >= n:
        return list(records)
    keep = np.sort(np.random.default_rng(seed).choice(n, size=count, replace=False))
    return [records[i] for i in keep]


def _ref_unit(granularity):
    if granularity is Granularity.LINE:
        return lambda i, r: i
    return lambda i, r: r.seq_key


def ref_split(records, granularity, spec):
    """(train, test) rows, or None where a side would be empty."""
    unit = _ref_unit(granularity)
    units = list(dict.fromkeys(unit(i, r) for i, r in enumerate(records)))
    train_count = math.floor(spec.train_fraction * len(units) + 0.5)
    if train_count in (0, len(units)):
        return None
    if spec.mode is SplitMode.RANDOM:
        order = np.random.default_rng(spec.seed).permutation(len(units))
        chosen = {units[i] for i in order[:train_count]}
    else:
        chosen = set(units[:train_count])
    train = [r for i, r in enumerate(records) if unit(i, r) in chosen]
    test = [r for i, r in enumerate(records) if unit(i, r) not in chosen]
    return train, test


def ref_sequence_labels(records):
    """Each key's label, in the keys' first appearance: anomaly beats
    unknown, and unknown beats normal."""
    labels = {}
    for r in records:
        current = labels.setdefault(r.seq_key, r.label)
        if current is not Label.ANOMALY and r.label is not Label.NORMAL:
            labels[r.seq_key] = r.label
    return labels


def ref_filter_normal(records, granularity):
    """The kept rows, or None where an unknown label makes it an error."""
    if any(r.label is Label.UNKNOWN for r in records):
        return None
    if granularity is Granularity.LINE:
        return [r for r in records if r.label is Label.NORMAL]
    labels = ref_sequence_labels(records)
    return [r for r in records if labels[r.seq_key] is Label.NORMAL]


# -- represent ---------------------------------------------------------------

def flatten_sequences(records, token_seqs):
    """One document per sequence key, in the keys' first appearance: the
    records' token sequences merged in record order, so the total token
    count is kept.  ``records`` are rows, or a set that iterates as rows."""
    if len(records) != len(token_seqs):
        raise ValueError(f"{len(records)} records but {len(token_seqs)} token sequences")
    merged = {}
    for r, ts in zip(records, token_seqs):
        if r.seq_key is None:
            raise ValueError(f"record at line {r.line_no} has no sequence key to flatten by")
        merged.setdefault(r.seq_key, []).extend(ts.terms)
    return [TokenSeq(terms) for terms in merged.values()]


def reference_docs(config, train, test, granularity):
    """Per-unit documents of the two sides, one tokenizer or parser call per record."""
    if config.representation == "events":
        drain = DrainParser(depth=config.depth, sim_threshold=config.sim_threshold)
        train_docs = [TokenSeq([drain.fit_line(r.message)]) for r in train]
        test_docs = [TokenSeq([drain.parse_line(r.message)]) for r in test]
    else:
        tokenize = {"words": tokenize_words, "trigrams": tokenize_trigrams}[config.representation]
        train_docs = [tokenize(r.message) for r in train]
        test_docs = [tokenize(r.message) for r in test]
    if granularity is Granularity.SEQUENCE:
        train_docs = flatten_sequences(train, train_docs)
        test_docs = flatten_sequences(test, test_docs)
    return train_docs, test_docs


# -- isolation forest --------------------------------------------------------

def reference_build_tree(dense, rng, depth_cap):
    """The tree builder before the fit-wide c(n) table and the cheaper draw."""
    features, thresholds, left, right, depth, adjust = [], [], [], [], [], []

    def new_node(d):
        for column, value in ((features, -1), (thresholds, 0.0), (left, -1), (right, -1),
                              (depth, d), (adjust, 0.0)):
            column.append(value)
        return len(features) - 1

    def grow(rows, d):
        node = new_node(d)
        if d >= depth_cap or rows.size <= 1:
            adjust[node] = average_path_length(rows.size)
            return node
        sub = dense[rows]
        mins = sub.min(axis=0)
        maxs = sub.max(axis=0)
        candidates = np.flatnonzero(maxs > mins)
        if candidates.size == 0:
            adjust[node] = average_path_length(rows.size)
            return node
        f = int(rng.choice(candidates))
        t = float(rng.uniform(mins[f], maxs[f]))
        if t <= mins[f]:
            t = (float(mins[f]) + float(maxs[f])) / 2.0
        mask = sub[:, f] < t
        features[node] = f
        thresholds[node] = t
        left[node] = grow(rows[mask], d + 1)
        right[node] = grow(rows[~mask], d + 1)
        return node

    grow(np.arange(dense.shape[0]), 0)
    return [np.asarray(features, dtype=np.int64), np.asarray(thresholds, dtype=np.float64),
            np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64),
            np.asarray(depth, dtype=np.int64), np.asarray(adjust, dtype=np.float64)]


def reference_iforest_trees(dense, n_trees, subsample, seed):
    """The trees of the fit before the node table, on the dense rows ``dense``."""
    n = dense.shape[0]
    psi = min(subsample, n)
    depth_cap = max(1, math.ceil(math.log2(psi)))
    trees = []
    for ss in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(ss)
        rows = rng.choice(n, size=psi, replace=False)
        trees.append(reference_build_tree(dense[rows], rng, depth_cap))
    return trees


def reference_iforest_score(trees, c_norm, dense):
    """The per-tree walk before the node table, on reference trees."""
    rows = np.arange(dense.shape[0])
    acc = np.zeros(dense.shape[0])
    for feature, threshold, left, right, depth, adjust in trees:
        node = np.zeros(dense.shape[0], dtype=np.int64)
        while (feature[node] >= 0).any():
            feats = feature[node]
            internal = feats >= 0
            vals = dense[rows, np.where(internal, feats, 0)]
            go_left = vals < threshold[node]
            node = np.where(internal, np.where(go_left, left[node], right[node]), node)
        acc += depth[node] + adjust[node]
    return np.power(2.0, -(acc / len(trees)) / c_norm)


# -- evaluate ----------------------------------------------------------------

def pairwise_auc(scores, labels):
    """O(n^2) oracle: fraction of (positive, negative) pairs ordered right."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return wins / (len(pos) * len(neg))


def reference_best_f1(scores, labels):
    """(threshold, f1) of the exact sweep: every distinct score, counted over
    every document, plus one threshold above the maximum, which predicts
    nothing anomalous.  F1 values compare as fractions, and among equally
    good thresholds the smallest wins."""
    pairs = [(float(s), int(y)) for s, y in zip(scores, labels)]
    n_pos = sum(y for _, y in pairs)
    best = (Fraction(0), max(s for s, _ in pairs) + 1.0, 0.0)
    for t in sorted({s for s, _ in pairs}, reverse=True):
        tp = sum(1 for s, y in pairs if s >= t and y == 1)
        fp = sum(1 for s, y in pairs if s >= t and y == 0)
        denom = 2 * tp + fp + (n_pos - tp)
        if Fraction(2 * tp, denom) >= best[0]:
            best = (Fraction(2 * tp, denom), t, 2.0 * tp / denom)
    return best[1], best[2]


def reference_bins(scores, labels, n_bins):
    """One boolean-mask pass over every score per bin: bin b holds the
    scores in its printed [low, high), the last bin also those at high."""
    s, y = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    lo, hi = float(s.min()), float(s.max())
    if lo == hi:
        return [(lo, hi, int((y == 0).sum()), int((y == 1).sum()))]
    width = (hi - lo) / n_bins
    bins = []
    for b in range(n_bins):
        low = lo + b * width
        high = hi if b == n_bins - 1 else lo + (b + 1) * width
        in_bin = (s >= low) & ((s <= high) if b == n_bins - 1 else (s < high))
        bins.append((low, high, int((y[in_bin] == 0).sum()), int((y[in_bin] == 1).sum())))
    return bins


# -- one cell, end to end ----------------------------------------------------

@dataclass
class ReferenceCell:
    """One cell's per-unit test scores and 0/1 labels, and its counts."""

    scores: np.ndarray
    labels: np.ndarray
    n_train_docs: int
    n_test_docs: int
    n_terms: int


def _unit_labels(records, granularity):
    if granularity is Granularity.LINE:
        return [r.label for r in records]
    return list(ref_sequence_labels(records).values())


def reference_run(config) -> ReferenceCell:
    """Run the cell ``config`` names the naive way; raises ValueError where
    the pipeline must reject the run."""
    rs = load(config.input, config.adapter, config.labels)
    granularity = rs.granularity
    records = [replace(r, message=reference_normalize(r.message)) for r in rs]
    records = ref_sample(records, config.sample_fraction, config.seed)
    spec = SplitSpec(config.train_fraction, config.seed, SplitMode(config.split_mode))
    if (sides := ref_split(records, granularity, spec)) is None:
        raise ValueError("a side of the split is empty")
    train, test = sides
    labels = _unit_labels(test, granularity)
    if Label.UNKNOWN in labels or len(set(labels)) < 2:
        raise ValueError("the test side needs known labels of both classes")
    if config.scenario == "normal_only" and not (train := ref_filter_normal(train, granularity)):
        raise ValueError("no normal train unit, or an unknown label on the train side")
    n_train = len(_unit_labels(train, granularity))
    if n_train < {"kmeans": config.k, "iforest": 2}.get(config.model, 1):
        raise ValueError(f"{n_train} train units are too few for {config.model}")

    train_docs, test_docs = reference_docs(config, train, test, granularity)
    term_total, doc_freq = Counter(), Counter()
    for doc in train_docs:
        term_total.update(doc.terms)
        doc_freq.update(set(doc.terms))
    col = {term: j for j, term in enumerate(term_total)}  # first appearance
    if not col:
        raise ValueError("every train document is empty")
    # numpy's log over the term arrays, as the library takes it: math.log
    # may round differently.
    idf = np.log((1.0 + len(train_docs)) / (1.0 + np.array([doc_freq[t] for t in col]))) + 1.0
    totals = np.array([term_total[t] for t in col])
    rarity = -np.log(totals / float(totals.sum()))

    def counts(doc):
        row = np.zeros(len(col))
        for term, n in Counter(doc.terms).items():
            if term in col:
                row[col[term]] = n
        return row

    def tfidf(doc):
        row = counts(doc) * idf
        # The squared norm sums the stored values in ascending column order
        # as numpy's add.reduceat does, so tf-idf values keep their bits.
        squares = row[row > 0] ** 2
        norm = np.sqrt(np.add.reduceat(squares, [0])[0]) if squares.size else 0.0
        return row * (1.0 / norm) if norm > 0 else row

    if config.model == "oovd":
        scores = [float(len(doc.terms) - counts(doc).sum()) for doc in test_docs]
    elif config.model == "rm":
        scores = []
        for doc in test_docs:
            x, dot = tfidf(doc), 0.0
            for j in np.flatnonzero(x):
                dot += x[j] * rarity[j]
            scores.append(dot / len(doc.terms) if doc.terms else 0.0)
    else:
        train_x = np.array([tfidf(doc) for doc in train_docs])
        test_x = np.array([tfidf(doc) for doc in test_docs])
        if config.model == "kmeans":
            train_m = DocTermMatrix(from_dense(train_x), Weighting.TFIDF,
                                    np.array([len(doc.terms) for doc in train_docs]))
            centroids = kmeans_fit(train_m, config.k, config.seed).centroids
            scores = [math.sqrt(min(float(((x - c) ** 2).sum()) for c in centroids))
                      for x in test_x]
        else:
            trees = reference_iforest_trees(train_x, config.n_trees, config.subsample, config.seed)
            c_norm = average_path_length(min(config.subsample, n_train))
            scores = reference_iforest_score(trees, c_norm, test_x)
    return ReferenceCell(np.asarray(scores, dtype=np.float64),
                         np.array([label is Label.ANOMALY for label in labels], dtype=np.int64),
                         n_train, len(test_docs), len(col))
