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

from array import array
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


def _counts(term_to_col: dict[str, int], docs: Iterable[TokenSeq]) -> DocTermMatrix:
    """Per-document counts of the terms in ``term_to_col``, the one counting
    routine; other terms contribute nothing to a row but still count in its
    ``doc_token_totals``."""
    indptr, indices, totals = array("q", [0]), array("q"), array("q")
    for doc in docs:
        indices.extend(col for term in doc.terms if (col := term_to_col.get(term)) is not None)
        indptr.append(len(indices))
        totals.append(doc.source_len)
    matrix = sp.csr_matrix(
        (np.ones(len(indices)), np.frombuffer(indices, np.int64), np.frombuffer(indptr, np.int64)),
        shape=(len(totals), len(term_to_col)),
    )
    # Sums the repeats of a term in a row and sorts each row's columns.
    matrix.sum_duplicates()
    return DocTermMatrix(matrix, Weighting.COUNT, np.array(totals, dtype=np.int64))


def fit_vocabulary(train_docs: Iterable[TokenSeq]) -> Vocabulary:
    """Collect the distinct terms of the training documents and their stats."""
    docs = list(train_docs)
    if not docs:
        raise ValueError("cannot fit a vocabulary on zero documents")
    terms = dict.fromkeys(term for doc in docs for term in doc.terms)
    if not terms:
        raise ValueError("cannot fit a vocabulary: all documents are empty")
    term_to_col = dict(zip(terms, range(len(terms))))
    counts = _counts(term_to_col, docs).matrix
    term_total = np.bincount(counts.indices, weights=counts.data).astype(np.int64)
    return Vocabulary(
        term_to_col=term_to_col,
        doc_freq=np.bincount(counts.indices).astype(np.int64, copy=False),
        term_total=term_total,
        train_doc_count=len(docs),
        corpus_total=int(term_total.sum()),
    )


def count_transform(v: Vocabulary, docs: Iterable[TokenSeq]) -> DocTermMatrix:
    """Per-document in-vocabulary term counts; OOV terms contribute nothing."""
    return _counts(v.term_to_col, docs)


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
