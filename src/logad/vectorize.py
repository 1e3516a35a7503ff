"""Vocabulary fitting and sparse document-term matrices.

The vocabulary is fitted on training documents only; transforming test
data silently drops out-of-vocabulary terms, which is exactly what the
OOV detector exploits downstream (dropped terms leave a gap between a
row's sum and the document's original token count).

Tf-idf weighting is pinned to smoothed idf with L2 row normalization:

    idf(t) = ln((1 + n_train_docs) / (1 + doc_freq(t))) + 1

with raw in-vocabulary counts as tf and no sublinear scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from .represent import TokenSeq


class Weighting(Enum):
    COUNT = "count"
    TFIDF = "tfidf"


@dataclass
class Vocabulary:
    """Term statistics of the training corpus.

    Columns are assigned in first-appearance order, which keeps fitting
    deterministic and stable under streaming input.
    """

    term_to_col: dict[str, int]
    doc_freq: np.ndarray
    term_total: np.ndarray
    train_doc_count: int
    corpus_total: int

    @property
    def n_terms(self) -> int:
        return len(self.term_to_col)

    def idf(self) -> np.ndarray:
        return np.log((1.0 + self.train_doc_count) / (1.0 + self.doc_freq)) + 1.0


@dataclass
class DocTermMatrix:
    """Sparse document-term matrix plus per-document original token counts.

    ``doc_token_totals[d]`` is the source_len of document d, i.e. it still
    counts tokens that fell out of the vocabulary.
    """

    matrix: sp.csr_matrix
    weighting: Weighting
    doc_token_totals: np.ndarray

    @property
    def n_docs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_terms(self) -> int:
        return self.matrix.shape[1]

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()


def fit_vocabulary(train_docs: Iterable[TokenSeq]) -> Vocabulary:
    """Collect the distinct terms of the training documents and their stats."""
    term_to_col: dict[str, int] = {}
    doc_freq: list[int] = []
    term_total: list[int] = []
    n_docs = 0
    corpus_total = 0
    for doc in train_docs:
        n_docs += 1
        counts: dict[int, int] = {}
        for term in doc.terms:
            col = term_to_col.get(term)
            if col is None:
                col = len(term_to_col)
                term_to_col[term] = col
                doc_freq.append(0)
                term_total.append(0)
            counts[col] = counts.get(col, 0) + 1
        for col, c in counts.items():
            doc_freq[col] += 1
            term_total[col] += c
            corpus_total += c
    if n_docs == 0:
        raise ValueError("cannot fit a vocabulary on zero documents")
    if corpus_total == 0:
        raise ValueError("cannot fit a vocabulary: all documents are empty")
    return Vocabulary(
        term_to_col=term_to_col,
        doc_freq=np.asarray(doc_freq, dtype=np.int64),
        term_total=np.asarray(term_total, dtype=np.int64),
        train_doc_count=n_docs,
        corpus_total=corpus_total,
    )


def count_transform(v: Vocabulary, docs: Iterable[TokenSeq]) -> DocTermMatrix:
    """Per-document in-vocabulary term counts; OOV terms contribute nothing."""
    term_to_col = v.term_to_col
    indptr = [0]
    indices: list[int] = []
    data: list[int] = []
    totals: list[int] = []
    for doc in docs:
        counts: dict[int, int] = {}
        for term in doc.terms:
            col = term_to_col.get(term)
            if col is not None:
                counts[col] = counts.get(col, 0) + 1
        for col in sorted(counts):
            indices.append(col)
            data.append(counts[col])
        indptr.append(len(indices))
        totals.append(doc.source_len)
    matrix = sp.csr_matrix(
        (
            np.asarray(data, dtype=np.float64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(indptr, dtype=np.int64),
        ),
        shape=(len(totals), v.n_terms),
    )
    return DocTermMatrix(matrix, Weighting.COUNT, np.asarray(totals, dtype=np.int64))


def tfidf_weighting(v: Vocabulary, counts: DocTermMatrix) -> DocTermMatrix:
    """Tf-idf weighted copy of a count matrix; idf comes from training
    statistics only."""
    matrix = counts.matrix.copy()
    if matrix.nnz:
        matrix.data *= v.idf()[matrix.indices]
        # L2-normalize nonzero rows in place.
        sq = matrix.copy()
        sq.data **= 2
        norms = np.sqrt(np.asarray(sq.sum(axis=1)).ravel())
        row_lengths = np.diff(matrix.indptr)
        scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        matrix.data *= np.repeat(scale, row_lengths)
    return DocTermMatrix(matrix, Weighting.TFIDF, counts.doc_token_totals)


def tfidf_transform(v: Vocabulary, docs: Iterable[TokenSeq]) -> DocTermMatrix:
    """Tf-idf weighted matrix: the weighting of ``count_transform``."""
    return tfidf_weighting(v, count_transform(v, docs))
