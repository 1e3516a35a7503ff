"""The chunked count build against one-shot references.

``count_units`` counts documents, lines and sequence units in runs of about
``vectorize._CHUNK`` entries.  It must give the bytes and index dtypes of
counting every entry at once, whatever the chunk size, and neither the unit
sum nor the document build may hold an entry-sized array beyond each entry's
column.  A line set's units map to their messages' rows, with no array per
line.  The references count with ``np.unique`` and share no code with src.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

from logad import vectorize
from logad.ingest import Granularity, RecordSet
from logad.represent import TokenSeq
from logad.vectorize import Weighting, count_units, fit_units

from csr import expand


def peak_of(fn):
    """``fn()`` and the peak of the memory that tracemalloc saw it hold."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _reference_from_positions(positions, shape):
    """The one-shot build: every entry's row-major position counted at once,
    index arrays int32 while the shape and the number of entries fit."""
    n_rows, n_cols = shape
    positions = np.asarray(positions, dtype=np.int64)
    index = np.int32 if max(n_rows, n_cols, len(positions)) < 2**31 else np.int64
    distinct, counts = np.unique(positions, return_counts=True)
    indptr = np.searchsorted(distinct, np.arange(n_rows + 1) * n_cols)
    return indptr.astype(index), (distinct % n_cols).astype(index), counts.astype(np.float64)


def _reference_sum_rows(term_to_col, docs, ids, unit_ids, n_units):
    """The unit counts as one build over every record's columns, and the
    units' token totals: record ``i`` adds document ``ids[i]`` to unit
    ``unit_ids[i]``."""
    n_cols = len(term_to_col)
    doc_cols = [np.array([term_to_col[t] for t in d.terms if t in term_to_col], dtype=np.int64)
                for d in docs]
    positions = [doc_cols[d] + u * n_cols for d, u in zip(ids.tolist(), unit_ids.tolist())]
    built = _reference_from_positions(np.concatenate([np.zeros(0, np.int64)] + positions),
                                     (n_units, n_cols))
    totals = np.zeros(n_units, dtype=np.int64)
    for d, u in zip(ids.tolist(), unit_ids.tolist()):
        totals[u] += len(docs[d].terms)
    return built, totals


def _docs(dense, extra=None):
    """A document per dense row of term counts: term ``t{j}`` ``dense[d][j]``
    times, interleaved, then ``extra[d]`` out-of-vocabulary terms, which
    count only in its token total."""
    docs = []
    for d, row in enumerate(np.asarray(dense).tolist()):
        terms = [f"t{j}" for j, n in enumerate(row) for _ in range(n)]
        terms = terms[::2] + terms[1::2]
        docs.append(TokenSeq(terms + ["oov"] * (0 if extra is None else int(extra[d]))))
    return docs


def _assert_same(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def _assert_same_build(matrix, built):
    for name, want in zip(("indptr", "indices", "data"), built):
        _assert_same(getattr(matrix, name), want)


@st.composite
def unit_records(draw):
    """Distinct documents and records naming a document and a unit, in any
    order: units interleave, some have no records, and one unit can hold
    many records."""
    n_docs = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    dense = draw(st.lists(st.lists(st.integers(0, 3), min_size=n_cols, max_size=n_cols),
                          min_size=n_docs, max_size=n_docs))
    extra = draw(st.lists(st.integers(0, 5), min_size=n_docs, max_size=n_docs))
    n_units = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_docs - 1), st.integers(0, n_units - 1)),
                          max_size=40))
    rows = np.array([p[0] for p in pairs], dtype=np.int64)
    units = np.array([p[1] for p in pairs], dtype=np.int32)
    assume(not np.array_equal(units, np.arange(n_units)))  # lines map rows instead
    term_to_col = {f"t{j}": j for j in range(n_cols)}
    return term_to_col, _docs(dense, extra), rows, units, n_units


class TestChunkedSumRows:
    @given(unit_records(), st.sampled_from([1, 2, 3, 4, 5, 6, 7, vectorize._CHUNK]))
    @example(  # unit 0 interleaves with unit 2, unit 1 has no record, and
        # unit 2 holds 9 entries against chunks of 2
        ({"t0": 0, "t1": 1, "t2": 2}, _docs([[1, 2, 0], [0, 1, 1]], [2, 5]),
         np.array([0, 1, 0, 1, 0, 1]), np.array([2, 0, 2, 2, 0, 2], dtype=np.int32), 3),
        2,
    )
    def test_equals_the_one_shot_build(self, case, chunk):
        term_to_col, docs, rows, units, n_units = case
        want, want_totals = _reference_sum_rows(term_to_col, docs, rows, units, n_units)
        with mock.patch.object(vectorize, "_CHUNK", chunk):
            got = count_units(term_to_col, docs, rows, units, n_units)
        # Sequence units are their own rows.
        np.testing.assert_array_equal(got.doc_rows, np.arange(n_units))
        assert got.matrix.shape == (n_units, len(term_to_col))
        _assert_same_build(got.matrix, want)
        _assert_same(got.doc_token_totals, want_totals)
        assert got.weighting is Weighting.COUNT

    def test_peak_stays_near_the_output(self):
        # 200 units of about 400 records each, 80,000 records of about 12
        # entries (columns of 1 or 2 tokens) each over 30 columns: the
        # entries sum to 6,000 at most.
        rng = np.random.default_rng(0)
        dense = rng.integers(1, 3, size=(50, 30)) * (rng.random((50, 30)) < 0.4)
        docs = _docs(dense)
        term_to_col = {f"t{j}": j for j in range(30)}
        rows = rng.integers(0, 50, 80_000)
        units = rng.integers(0, 200, len(rows)).astype(np.int32)
        entries = int(np.count_nonzero(dense, axis=1)[rows].sum())
        assert entries > 500_000

        def build():
            return count_units(term_to_col, docs, rows, units, 200)

        chunk = 4096
        with mock.patch.object(vectorize, "_CHUNK", chunk):
            got, peak = peak_of(build)
        with mock.patch.object(vectorize, "_CHUNK", 1 << 40):
            _, one_shot_peak = peak_of(build)
        matrix = got.matrix
        output = (matrix.indptr.nbytes + matrix.indices.nbytes + matrix.data.nbytes
                  + got.doc_token_totals.nbytes)
        # Per record: the sort order, the sorted rows and units, the entry
        # offsets and the gathered totals.  Per chunk: the positions, the
        # gathered entries and their offsets, and the count bins.
        bound = output + 5 * 8 * len(rows) + 3 * 6 * 8 * chunk
        assert peak < bound
        assert one_shot_peak > bound


def test_document_build_peak_stays_near_its_columns():
    # 20,000 distinct documents of 60 tokens over 12 columns and one unknown
    # term: 1.1M entries, which sum to 240,000 at most.
    rng = np.random.default_rng(1)
    n_docs, n_cols = 20_000, 12
    vocab, _ = fit_units([TokenSeq([f"t{j}" for j in range(n_cols)])])
    docs = [TokenSeq([f"t{j}" for j in rng.integers(0, n_cols + 1, 60)]) for _ in range(n_docs)]
    entries = sum(t != f"t{n_cols}" for d in docs for t in d.terms)

    chunk = 4096
    with mock.patch.object(vectorize, "_CHUNK", chunk):
        got, peak = peak_of(lambda: count_units(vocab.term_to_col, docs))
    with mock.patch.object(vectorize, "_CHUNK", 1 << 40):
        _, one_shot_peak = peak_of(lambda: count_units(vocab.term_to_col, docs))
    matrix = got.matrix
    output = (matrix.indptr.nbytes + matrix.indices.nbytes + matrix.data.nbytes
              + got.doc_token_totals.nbytes)
    # Per entry: its column as a C int, with the buffer's spare growth.  Per
    # document: its entry count, token total and first entry.  Per chunk: the
    # positions, their row offsets and the count bins.
    bound = output + 4.5 * entries + 3 * 8 * n_docs + 3 * 6 * 8 * chunk
    assert peak < bound
    assert one_shot_peak > bound


def test_line_units_map_to_their_messages_without_a_per_line_array():
    # 500,000 lines over 40 distinct messages, as the test side's count
    # build sees them: each line's index among the distinct messages.
    n_lines, rng = 500_000, np.random.default_rng(0)
    docs = [TokenSeq([f"t{j}" for j in rng.integers(0, 30, 5)]) for _ in range(40)]
    ids = rng.integers(0, len(docs), n_lines).astype(np.int32)
    rs = RecordSet(Granularity.LINE, [f"m{i}" for i in range(len(docs))], ids,
                   np.zeros(n_lines, dtype=np.int8), np.full(n_lines, -1, dtype=np.int32), [],
                   np.arange(n_lines))
    term_to_col = {f"t{j}": j for j in range(25)}
    got, peak = peak_of(lambda: count_units(term_to_col, docs, ids, rs.unit_ids, rs.n_units))
    assert got.doc_rows is ids
    assert got.n_docs == n_lines and got.n_rows == len(docs)
    want = count_units(term_to_col, [docs[i] for i in ids])
    got = expand(got)
    _assert_same_build(got.matrix, (want.matrix.indptr, want.matrix.indices, want.matrix.data))
    _assert_same(got.doc_token_totals, want.doc_token_totals)
    # Under one int32 per line: an int64 array per line (the units as line
    # positions, say) would not fit.
    assert peak < 4 * n_lines


_TERMS = [f"t{i}" for i in range(6)]


@given(
    st.lists(st.lists(st.sampled_from(_TERMS + ["oov"]), max_size=9), max_size=12),
    st.sampled_from([1, 2, 3, 4, 5, 6, 7]),
)
def test_counts_equal_the_one_shot_build(docs, chunk):
    vocab, _ = fit_units([TokenSeq(_TERMS)])
    seqs = [TokenSeq(terms) for terms in docs]
    positions = [d * len(_TERMS) + vocab.term_to_col[t]
                 for d, terms in enumerate(docs) for t in terms if t != "oov"]
    want = _reference_from_positions(positions, (len(docs), len(_TERMS)))
    with mock.patch.object(vectorize, "_CHUNK", chunk):
        got = count_units(vocab.term_to_col, seqs)
    _assert_same_build(got.matrix, want)
    _assert_same(got.doc_token_totals, np.array([len(t) for t in docs], dtype=np.int64))
