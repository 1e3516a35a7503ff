"""``CSRMatrix`` against scipy.sparse, used here as an oracle only.

Every operation the pipeline uses must give the bytes scipy gave before it
was replaced: the build that sums repeated entries, row sums, the tf-idf
norms, products with a vector and with the transposed centroids, row
gathers, row slices, column sums of a row subset, and the sum of records'
documents into units.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from logad.represent import TokenSeq
from logad.vectorize import (
    CSRMatrix, DocTermMatrix, Vocabulary, Weighting, _index_dtype, count_units,
    tfidf_weighting,
)


def _assert_same(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _assert_same_csr(actual: CSRMatrix, expected: sp.csr_matrix):
    assert actual.shape == expected.shape
    assert actual.nnz == expected.nnz
    for name in ("indptr", "indices", "data"):
        _assert_same(getattr(actual, name), getattr(expected, name))


@st.composite
def entries(draw, max_rows=8, max_cols=8, max_entries=40):
    """Shape and (row, col, integer count) entries, repeats included; rows
    without entries stand for empty and all-OOV documents."""
    n_rows = draw(st.integers(0, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    if n_rows == 0:
        return (0, n_cols), np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    triples = draw(st.lists(
        st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), st.integers(1, 4)),
        max_size=max_entries,
    ))
    if draw(st.booleans()):
        triples.sort(key=lambda t: t[0])  # grouped by row, as documents are
    rows, cols, values = (np.array([t[i] for t in triples], dtype=np.int64) for i in range(3))
    return (n_rows, n_cols), rows, cols, values.astype(np.float64)


def _docs(shape, rows, cols, values=None, extra=None):
    """A document per row: each entry's term ``t{col}``, ``values`` times
    (once without values), in entry order, then ``extra[row]``
    out-of-vocabulary terms, which count only in its token total."""
    terms = [[] for _ in range(shape[0])]
    counts = np.ones(len(rows), np.int64) if values is None else values.astype(np.int64)
    for row, col, n in zip(rows.tolist(), cols.tolist(), counts.tolist()):
        terms[row] += [f"t{col}"] * n
    extra = [0] * shape[0] if extra is None else extra
    return [TokenSeq(t + ["oov"] * e) for t, e in zip(terms, extra)]


def _build(shape, rows, cols, values=None):
    """The count matrix of the entries, each entry a term repeated
    ``values`` times in its row's document."""
    term_to_col = {f"t{c}": c for c in range(shape[1])}
    return count_units(term_to_col, _docs(shape, rows, cols, values)).matrix


def _scipy_build(shape, rows, cols, values):
    """The old build: a CSR over the entries, then ``sum_duplicates``."""
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(shape[0] + 1))
    m = sp.csr_matrix((values[order], cols[order], indptr), shape=shape)
    m.sum_duplicates()
    return m


def _scipy_tfidf(idf, counts):
    """The old ``tfidf_weighting`` on a scipy matrix."""
    matrix = counts.copy()
    if matrix.nnz:
        matrix.data *= idf[matrix.indices]
        sq = matrix.copy()
        sq.data **= 2
        norms = np.sqrt(np.asarray(sq.sum(axis=1)).ravel())
        scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        matrix.data *= np.repeat(scale, np.diff(matrix.indptr))
    return matrix


def _weighted(shape, rows, cols, values, seed):
    """The count matrix and its tf-idf weighting, each with its scipy twin."""
    counts = _build(shape, rows, cols, values)
    ref = _scipy_build(shape, rows, cols, values)
    _assert_same_csr(counts, ref)
    rng = np.random.default_rng(seed)
    df = rng.integers(1, 10, shape[1])
    vocab = Vocabulary({f"t{i}": i for i in range(shape[1])}, df, df, 10, int(df.sum()))
    dtm = DocTermMatrix(counts, Weighting.COUNT, np.zeros(shape[0], np.int64))
    tfidf = tfidf_weighting(vocab, dtm).matrix
    ref_tfidf = _scipy_tfidf(vocab.idf(), ref)
    _assert_same_csr(tfidf, ref_tfidf)
    return [(counts, ref), (tfidf, ref_tfidf)]


class TestBuild:
    @given(entries())
    def test_sums_repeats_and_sorts_columns(self, case):
        shape, rows, cols, values = case
        _assert_same_csr(
            _build(shape, rows, cols, values),
            _scipy_build(shape, rows, cols, values),
        )

    @given(entries())
    def test_each_entry_counts_one_without_values(self, case):
        shape, rows, cols, _ = case
        _assert_same_csr(
            _build(shape, rows, cols),
            _scipy_build(shape, rows, cols, np.ones(len(rows))),
        )

    def test_index_arrays_are_int32_while_they_fit(self):
        assert _index_dtype(np.iinfo(np.int32).max) is np.int32
        assert _index_dtype(np.iinfo(np.int32).max + 1) is np.int64


class TestOperations:
    # Rows, and columns, of more than 8 entries, where numpy's pairwise sums
    # part from sequential ones.
    @settings(max_examples=200)
    @given(
        st.one_of(entries(max_rows=6, max_cols=24, max_entries=100),
                  entries(max_rows=30, max_cols=4, max_entries=100)),
        st.integers(0, 2**32 - 1),
    )
    def test_row_operations(self, case, seed):
        rng = np.random.default_rng(seed)
        for X, S in _weighted(*case, seed):
            n_rows, n_cols = X.shape
            _assert_same(X.row_sums(), np.asarray(S.sum(axis=1)).ravel())
            _assert_same(X.row_sq_norms(), np.asarray(S.multiply(S).sum(axis=1)).ravel())
            v = rng.random(n_cols) * 10
            _assert_same(X @ v, S @ v)
            centroids = rng.random((int(rng.integers(1, 4)), n_cols))
            _assert_same(X @ centroids.T, S @ centroids.T)
            if n_rows == 0:
                continue
            rows = rng.integers(0, n_rows, int(rng.integers(1, 2 * n_rows + 1)))
            gathered = X.take_rows(rows)
            _assert_same_csr(gathered, S[rows])
            _assert_same(gathered.toarray(), np.asarray(S[rows].todense()))
            start, stop = sorted(rng.integers(0, n_rows + 1, 2))
            _assert_same(
                X.take_rows(np.arange(start, stop)).toarray(), np.asarray(S[start:stop].todense())
            )
            members = np.flatnonzero(rng.random(n_rows) < 0.5)
            _assert_same(
                X.take_rows(members).column_sums(), np.asarray(S[members].sum(axis=0)).ravel()
            )

    def test_gather_index_dtype_follows_the_result(self):
        # int64 source arrays whose gather fits int32, and int32 source
        # arrays whose gather has more columns than int32 holds.
        X = CSRMatrix(np.array([0, 1, 2]), np.array([0, 2]), np.array([1.0, 2.0]), (2, 3))
        gathered = X.take_rows([1, 0, 1])
        assert gathered.indptr.dtype == gathered.indices.dtype == np.int32
        assert gathered.indptr.tolist() == [0, 1, 2, 3]
        assert gathered.indices.tolist() == [2, 0, 2]
        assert gathered.data.tolist() == [2.0, 1.0, 2.0]
        wide = CSRMatrix(np.array([0, 1], np.int32), np.array([5], np.int32), np.array([1.0]),
                         (1, 2**31))
        gathered = wide.take_rows([0, 0])
        assert gathered.indptr.dtype == gathered.indices.dtype == np.int64
        assert gathered.indices.tolist() == [5, 5]


@st.composite
def records(draw):
    """Distinct documents' entries, and records that name a document and a
    unit: one record per unit (lines) or any number (sequences)."""
    shape, rows, cols, values = draw(entries())
    n_docs = shape[0]
    if n_docs == 0:
        return None
    n_records = draw(st.integers(1, 12))
    message_ids = np.array(draw(st.lists(st.integers(0, n_docs - 1), min_size=n_records,
                                         max_size=n_records)), dtype=np.int64)
    if draw(st.booleans()):
        unit_ids, n_units = np.arange(n_records), n_records
    else:
        n_units = draw(st.integers(1, n_records))
        unit_ids = np.array(draw(st.lists(st.integers(0, n_units - 1), min_size=n_records,
                                          max_size=n_records)), dtype=np.int64)
    extra = draw(st.lists(st.integers(0, 20), min_size=n_docs, max_size=n_docs))
    docs = _docs(shape, rows, cols, values, extra)
    return (shape, rows, cols, values), docs, message_ids, unit_ids, n_units


class TestUnitCounts:
    @given(records())
    def test_equals_multiplicity_product(self, case):
        if case is None:
            return
        (shape, rows, cols, values), docs, message_ids, unit_ids, n_units = case
        term_to_col = {f"t{c}": c for c in range(shape[1])}
        got = count_units(term_to_col, docs, message_ids, unit_ids, n_units)
        np.testing.assert_array_equal(got.doc_rows, np.arange(n_units))
        assert got.n_docs == n_units
        # The old aggregation: a units x documents multiplicity matrix.
        multiplicity = sp.csr_matrix(
            (np.ones(len(message_ids), dtype=np.int64), (unit_ids, message_ids)),
            shape=(n_units, len(docs)),
        )
        want = multiplicity @ _scipy_build(shape, rows, cols, values)
        want.sort_indices()
        _assert_same_csr(got.matrix, want)
        totals = np.array([len(d.terms) for d in docs], dtype=np.int64)
        _assert_same(got.doc_token_totals, multiplicity @ totals)
        assert got.weighting is Weighting.COUNT
