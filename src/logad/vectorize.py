"""Vocabulary fitting and sparse document-term matrices.

The vocabulary is fitted on training documents only; transforming test
data silently drops out-of-vocabulary terms, which is exactly what the
OOV detector exploits downstream (dropped terms leave a gap between a
row's sum and the document's original token count).

Tf-idf weighting is pinned to smoothed idf with L2 row normalization:

    idf(t) = ln((1 + n_train_docs) / (1 + doc_freq(t))) + 1

with raw in-vocabulary counts as tf and no sublinear scaling.

Matrices are held in ``CSRMatrix``, a small numpy compressed-sparse-row
form with only the operations the detectors use.  Each computes the same
bits as the scipy.sparse operation it replaced: sums run in the same order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

import numpy as np

from .represent import TokenSeq


def _weighted_bincount(bins: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """The sum of ``weights`` per bin, added in order; float64 also when
    there are no weights, where ``np.bincount`` returns int64."""
    return np.bincount(bins, weights=weights, minlength=n).astype(np.float64, copy=False)


def _index_dtype(largest: int) -> type:
    """int32 while ``largest`` fits, else int64, as scipy chooses index arrays."""
    return np.int32 if largest <= np.iinfo(np.int32).max else np.int64


def _sum_repeats(positions: np.ndarray, n_positions: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct positions (all below ``n_positions``), ascending, and
    the float64 count of each; ``positions`` may be sorted in place."""
    if n_positions <= len(positions):
        # A count per possible position takes no more room than the entries.
        # Sequence units summed from their records are this dense (each run
        # of about 65k trigram entries falls on about 28k positions on the
        # grid_hdfs workload), and counting them is several times quicker
        # than the sort below.
        counts = np.bincount(positions, minlength=n_positions)
        distinct = np.flatnonzero(counts)
        return distinct, counts[distinct].astype(np.float64)
    positions.sort()
    starts_run = np.ones(len(positions), dtype=bool)
    np.not_equal(positions[1:], positions[:-1], out=starts_run[1:])
    first = np.flatnonzero(starts_run)
    # Run lengths, written straight into floats to spare a copy.
    counts = np.empty(len(first))
    np.subtract(first[1:], first[:-1], out=counts[:-1])
    counts[-1:] = len(positions) - first[-1:]
    return positions[first], counts


# Entries summed per step when documents' columns are summed into their
# rows: it bounds the size of the transient position arrays.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class CSRMatrix:
    """Compressed sparse rows: row ``r`` holds the values
    ``data[indptr[r]:indptr[r + 1]]`` at the columns
    ``indices[indptr[r]:indptr[r + 1]]``, which ascend and never repeat.

    Index arrays are int32 while every index fits, else int64, as scipy
    chooses them.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def _entry_rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def take_rows(self, rows: np.ndarray) -> CSRMatrix:
        """The listed rows, in the listed order (scipy's ``X[rows]``)."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows].astype(np.int64)
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        entries = np.arange(indptr[-1])
        entries += np.repeat(starts - indptr[:-1], lengths)
        shape = (len(rows), self.shape[1])
        index = _index_dtype(max(*shape, int(indptr[-1])))
        return CSRMatrix(
            indptr.astype(index), self.indices[entries].astype(index, copy=False),
            self.data[entries], shape,
        )

    def toarray(self) -> np.ndarray:
        """The dense matrix."""
        dense = np.zeros(self.shape, dtype=self.data.dtype)
        dense[self._entry_rows(), self.indices] = self.data
        return dense

    def row_sums(self) -> np.ndarray:
        """Each row's sum, as scipy's ``sum(axis=1)``: ``np.add.reduceat``
        over the non-empty rows."""
        sums = np.zeros(self.shape[0], dtype=self.data.dtype)
        nonempty = np.flatnonzero(np.diff(self.indptr))
        if len(nonempty):
            sums[nonempty] = np.add.reduceat(self.data, self.indptr[nonempty])
        return sums

    def row_sq_norms(self) -> np.ndarray:
        """Each row's squared L2 norm: the row sums of the squared values."""
        return replace(self, data=self.data**2).row_sums()

    def column_sums(self) -> np.ndarray:
        """Each column's sum, added in entry order as scipy's ``sum(axis=0)``."""
        return _weighted_bincount(self.indices, self.data, self.shape[1])

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        """The product with a dense vector or matrix.  Every output entry is
        summed in entry order from 0, as scipy's ``csr_matvec`` does;
        ``np.add.reduceat`` would pair the terms differently.  A ``bincount``
        per column of ``other`` is quicker than one over (row, column) bins,
        whose arrays are as many times longer."""
        rows = self._entry_rows()

        def dot(v):
            return _weighted_bincount(rows, self.data * v[self.indices], self.shape[0])

        return dot(other) if other.ndim == 1 else np.column_stack([dot(v) for v in other.T])


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
    """Sparse document-term matrix plus per-row original token counts.

    ``matrix`` and ``doc_token_totals`` hold one entry per stored row;
    ``doc_token_totals[r]`` is the source_len of row r, i.e. it still counts
    tokens that fell out of the vocabulary.  ``doc_rows`` holds one entry
    per document: the stored row of each document, so documents may share a
    row.  Given as None, it is the identity map: document d is row d.
    """

    matrix: CSRMatrix
    weighting: Weighting
    doc_token_totals: np.ndarray
    doc_rows: np.ndarray | None = None

    def __post_init__(self):
        if self.doc_rows is None:
            self.doc_rows = np.arange(self.n_rows)
        rows = self.doc_rows
        if not (isinstance(rows, np.ndarray) and rows.ndim == 1 and rows.dtype.kind in "iu"):
            got = f"{rows.ndim}-D {rows.dtype}" if isinstance(rows, np.ndarray) else type(rows)
            raise ValueError(f"doc_rows must be a 1-D integer array, got {got}")
        bad = np.flatnonzero((rows < 0) | (rows >= self.n_rows))
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"doc_rows[{i}] = {rows[i]} is outside [0, {self.n_rows})")

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_docs(self) -> int:
        return len(self.doc_rows)

    @property
    def n_terms(self) -> int:
        return self.matrix.shape[1]

    def row_sums(self) -> np.ndarray:
        """Each stored row's sum."""
        return self.matrix.row_sums()

    def per_doc(self, row_values: np.ndarray) -> np.ndarray:
        """Each document's entry of ``row_values``, which has one per stored row."""
        return row_values[self.doc_rows]

    def take_docs(self, docs: np.ndarray) -> CSRMatrix:
        """The stored rows of the documents ``docs``, one per listed document."""
        return self.matrix.take_rows(self.doc_rows[docs])


def _unit_counts(term_to_col: dict[str, int], docs: Iterable[TokenSeq], ids: np.ndarray | None,
                 unit_ids: np.ndarray | None, n_units: int | None) -> DocTermMatrix:
    """The counts of the terms in ``term_to_col`` in units made of the
    distinct ``docs``, the one counting routine: record ``i`` adds document
    ``ids[i]`` to unit ``unit_ids[i]``, which is row ``unit_ids[i]``.  Without
    ``unit_ids`` each record is its own unit (a line), which ``doc_rows`` maps
    to its document's row; without ``ids`` too, document d is row d.  Other
    terms add nothing to a row but still count in its ``doc_token_totals``.

    Each document's columns are collected once, and the records' columns are
    summed into their rows in runs of about ``_CHUNK`` entries, a larger row
    in a run of its own, so no array spans all the entries.  Each row's
    columns ascend without repeats, as scipy's ``sum_duplicates`` leaves
    them, and index arrays are int32 while the row and column counts and the
    number of entries fit.
    """
    # Columns are C ints, half the room of int64: a vocabulary never nears
    # 2**31 terms, and a larger column would overflow loudly.
    lengths, cols, totals = array("q"), array("i"), array("q")
    for doc in docs:
        start = len(cols)
        cols.extend(col for term in doc.terms if (col := term_to_col.get(term)) is not None)
        lengths.append(len(cols) - start)
        totals.append(doc.source_len)
    lengths, cols = np.frombuffer(lengths, np.int64), np.frombuffer(cols, np.intc)
    totals = np.frombuffer(totals, np.int64)
    doc_starts = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=doc_starts[1:])
    if unit_ids is None:
        # A row per document, whose columns lie in row order already.
        records, n_rows, row_starts = None, len(lengths), doc_starts
    else:
        row_totals = np.zeros(n_units, dtype=np.int64)
        np.add.at(row_totals, unit_ids, totals[ids])
        totals, n_rows = row_totals, n_units
        # The records in unit order, so each unit's columns are one run.
        order = np.argsort(unit_ids, kind="stable")
        records, rows = ids[order], unit_ids[order]
        del order
        record_starts = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum(lengths[records], out=record_starts[1:])
        row_records = np.searchsorted(rows, np.arange(n_rows + 1))
        row_starts = record_starts[row_records]
    n_cols = len(term_to_col)
    index = _index_dtype(max(n_rows, n_cols, int(row_starts[-1])))
    # Cut after the first row that reaches each multiple of _CHUNK entries.
    ends = np.searchsorted(row_starts[1:], np.arange(_CHUNK, row_starts[-1], _CHUNK)) + 1
    cuts = sorted({0, n_rows, *ends.tolist()})
    # A run sums to no more entries than it has, nor than its rows have columns.
    room = int(np.minimum(np.diff(row_starts[cuts]), np.diff(cuts) * n_cols).sum())
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    indices, data = np.empty(room, index), np.empty(room)
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        if records is None:
            run_rows, run_lengths = np.arange(r1 - r0, dtype=np.int64), lengths[r0:r1]
            positions = cols[row_starts[r0]:row_starts[r1]].astype(np.int64)
        else:
            b0, b1 = row_records[r0], row_records[r1]
            run_rows, run_lengths = (rows[b0:b1] - r0).astype(np.int64), lengths[records[b0:b1]]
            # Each record's columns: its document's entries, gathered in record order.
            positions = np.arange(row_starts[r0], row_starts[r1])
            positions += np.repeat(doc_starts[records[b0:b1]] - record_starts[b0:b1], run_lengths)
            positions = cols[positions].astype(np.int64)
        positions += np.repeat(run_rows * n_cols, run_lengths)
        distinct, sums = _sum_repeats(positions, (r1 - r0) * n_cols)
        start = int(indptr[r0])
        row_ends = np.searchsorted(distinct, np.arange(1, r1 - r0 + 1, dtype=np.int64) * n_cols)
        indptr[r0 + 1:r1 + 1] = row_ends + start
        np.remainder(distinct, n_cols, out=distinct)
        indices[start:start + len(distinct)] = distinct
        data[start:start + len(distinct)] = sums
    # Shrink to the entries written; realloc frees the tail without a copy.
    indices.resize(indptr[-1], refcheck=False)
    data.resize(indptr[-1], refcheck=False)
    matrix = CSRMatrix(indptr.astype(index), indices, data, (n_rows, n_cols))
    return DocTermMatrix(matrix, Weighting.COUNT, totals, ids if unit_ids is None else None)


def _fit_units(docs: list[TokenSeq], ids, unit_ids, n_units) -> tuple[Vocabulary, DocTermMatrix]:
    """The vocabulary and the ``_unit_counts`` of the distinct ``docs``.
    Columns are in first appearance over the units' documents, unit by unit."""
    by_unit = ids if unit_ids is None else ids[np.argsort(unit_ids, kind="stable")]
    terms = dict.fromkeys(term for i in dict.fromkeys(by_unit.tolist()) for term in docs[i].terms)
    if not terms:
        raise ValueError("cannot fit a vocabulary: all documents are empty")
    term_to_col = dict(zip(terms, range(len(terms))))
    counts = _unit_counts(term_to_col, docs, ids, unit_ids, n_units)
    m, n_terms = counts.matrix, len(term_to_col)
    # A stored row counts once for each unit that maps to it.
    units_per_row = np.bincount(counts.doc_rows, minlength=counts.n_rows)
    weights = np.repeat(units_per_row, np.diff(m.indptr))
    term_total = _weighted_bincount(m.indices, m.data * weights, n_terms).astype(np.int64)
    return Vocabulary(
        term_to_col=term_to_col,
        doc_freq=_weighted_bincount(m.indices, weights, n_terms).astype(np.int64),
        term_total=term_total,
        train_doc_count=n_units,
        corpus_total=int(term_total.sum()),
    ), counts


def fit_vocabulary(train_docs: Iterable[TokenSeq]) -> Vocabulary:
    """Collect the distinct terms of the training documents and their stats."""
    docs = list(train_docs)
    if not docs:
        raise ValueError("cannot fit a vocabulary on zero documents")
    return _fit_units(docs, np.arange(len(docs)), None, len(docs))[0]


def count_transform(v: Vocabulary, docs: Iterable[TokenSeq]) -> DocTermMatrix:
    """Per-document in-vocabulary term counts; OOV terms contribute nothing."""
    return _unit_counts(v.term_to_col, docs, None, None, None)


def tfidf_weighting(v: Vocabulary, counts: DocTermMatrix) -> DocTermMatrix:
    """Tf-idf weighted copy of a count matrix, sharing its index arrays and
    row map; idf comes from training statistics only."""
    matrix = counts.matrix
    data = matrix.data * v.idf()[matrix.indices]
    weighted = replace(matrix, data=data)
    # L2-normalize the nonzero rows.
    norms = np.sqrt(weighted.row_sq_norms())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    data *= np.repeat(scale, np.diff(matrix.indptr))
    return replace(counts, matrix=weighted, weighting=Weighting.TFIDF)


def tfidf_transform(v: Vocabulary, docs: Iterable[TokenSeq]) -> DocTermMatrix:
    """Tf-idf weighted matrix: the weighting of ``count_transform``."""
    return tfidf_weighting(v, count_transform(v, docs))
