"""The chunked count builds against the one-shot build they replaced.

``DocTermMatrix.sum_rows`` sums sequence units, and ``count_transform``
counts documents, in runs of about ``vectorize._CHUNK`` entries.  Both must
give the bytes and index dtypes of building every entry at once, whatever
the chunk size, and the unit sum must hold no entry-sized array.  A line
set's units map to their messages' rows, with no array per line.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

from logad import vectorize
from logad.ingest import Granularity, RecordSet
from logad.represent import TokenSeq
from logad.vectorize import (
    DocTermMatrix, Weighting, _index_dtype, _sum_repeats, _unit_counts, count_transform,
    fit_vocabulary,
)

from csr import expand, from_dense


def peak_of(fn):
    """``fn()`` and the peak of the memory that tracemalloc saw it hold."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _reference_from_positions(positions, shape, values=None):
    """The one-shot build: every entry's row-major position summed at once."""
    n_rows, n_cols = shape
    index = _index_dtype(max(n_rows, n_cols, len(positions)))
    distinct, data = _sum_repeats(positions, values, n_rows * n_cols)
    indptr = np.searchsorted(distinct, np.arange(n_rows + 1, dtype=np.int64) * n_cols)
    np.remainder(distinct, n_cols, out=distinct)
    return indptr.astype(index), distinct.astype(index), data


def _reference_sum_rows(m, rows, groups, n_groups):
    """The unit sum as one build over every record's gathered row."""
    records = m.matrix.take_rows(rows)
    n_cols = records.shape[1]
    positions = np.repeat(groups.astype(np.int64) * n_cols, np.diff(records.indptr))
    positions += records.indices
    built = _reference_from_positions(positions, (n_groups, n_cols), records.data)
    totals = np.zeros(n_groups, dtype=np.int64)
    np.add.at(totals, groups, m.doc_token_totals[rows])
    return built, totals


def _assert_same(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def _assert_same_build(matrix, built):
    for name, want in zip(("indptr", "indices", "data"), built):
        _assert_same(getattr(matrix, name), want)


@st.composite
def unit_records(draw):
    """Distinct documents' counts and records naming a document and a unit,
    in any order: units interleave, some have no records, and one unit can
    hold many records."""
    n_docs = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    dense = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=n_cols,
                                            max_size=n_cols), min_size=n_docs, max_size=n_docs)))
    totals = np.array(draw(st.lists(st.integers(0, 50), min_size=n_docs, max_size=n_docs)),
                      dtype=np.int64)
    n_units = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_docs - 1), st.integers(0, n_units - 1)),
                          max_size=40))
    rows = np.array([p[0] for p in pairs], dtype=np.int64)
    units = np.array([p[1] for p in pairs], dtype=np.int32)
    assume(not np.array_equal(units, np.arange(n_units)))  # lines map rows instead
    return DocTermMatrix(from_dense(dense), Weighting.COUNT, totals), rows, units, n_units


class TestChunkedSumRows:
    @given(unit_records(), st.sampled_from([1, 2, 3, 4, 5, 6, 7, vectorize._CHUNK]))
    @example(  # unit 0 interleaves with unit 2, unit 1 has no record, and
        # unit 2 holds 9 entries against chunks of 2
        (DocTermMatrix(from_dense([[1, 2, 0], [0, 1, 1]]), Weighting.COUNT,
                       np.array([5, 7], dtype=np.int64)),
         np.array([0, 1, 0, 1, 0, 1]), np.array([2, 0, 2, 2, 0, 2], dtype=np.int32), 3),
        2,
    )
    def test_equals_the_one_shot_build(self, case, chunk):
        m, rows, units, n_units = case
        want, want_totals = _reference_sum_rows(m, rows, units, n_units)
        with mock.patch.object(vectorize, "_CHUNK", chunk):
            got = m.sum_rows(rows, units, n_units)
        assert got.doc_rows is None
        assert got.matrix.shape == (n_units, m.n_terms)
        _assert_same_build(got.matrix, want)
        _assert_same(got.doc_token_totals, want_totals)
        assert got.weighting is Weighting.COUNT

    def test_peak_stays_near_the_output(self):
        # 200 units of about 400 records each, 80,000 records of about 12
        # entries each over 30 columns: the entries sum to 6,000 at most.
        rng = np.random.default_rng(0)
        dense = rng.integers(1, 3, size=(50, 30)) * (rng.random((50, 30)) < 0.4)
        m = DocTermMatrix(from_dense(dense), Weighting.COUNT, np.ones(50, dtype=np.int64))
        rows = rng.integers(0, 50, 80_000)
        units = rng.integers(0, 200, len(rows)).astype(np.int32)
        entries = int(np.diff(m.matrix.indptr)[rows].sum())
        assert entries > 500_000

        chunk = 4096
        with mock.patch.object(vectorize, "_CHUNK", chunk):
            got, peak = peak_of(lambda: m.sum_rows(rows, units, 200))
        _, one_shot_peak = peak_of(lambda: _reference_sum_rows(m, rows, units, 200))
        matrix = got.matrix
        output = (matrix.indptr.nbytes + matrix.indices.nbytes + matrix.data.nbytes
                  + got.doc_token_totals.nbytes)
        # Per record: the sort order, the sorted rows and units, the entry
        # offsets and the gathered totals.  Per chunk: the positions, the
        # gathered entries and their offsets, and the count bins.
        bound = output + 5 * 8 * len(rows) + 3 * 6 * 8 * chunk
        assert peak < bound
        assert one_shot_peak > bound


def test_line_units_map_to_their_messages_without_a_per_line_array():
    # 500,000 lines over 40 distinct messages, as the test side's count
    # build sees them: each line's index among the distinct messages.
    n_lines, rng = 500_000, np.random.default_rng(0)
    docs = [TokenSeq.of([f"t{j}" for j in rng.integers(0, 30, 5)]) for _ in range(40)]
    ids = rng.integers(0, len(docs), n_lines).astype(np.int32)
    rs = RecordSet(Granularity.LINE, [f"m{i}" for i in range(len(docs))], ids,
                   np.zeros(n_lines, dtype=np.int8), np.full(n_lines, -1, dtype=np.int32), [],
                   np.arange(n_lines))
    term_to_col = {f"t{j}": j for j in range(25)}
    got, peak = peak_of(lambda: _unit_counts(term_to_col, docs, ids, rs.unit_ids, rs.n_units))
    assert got.doc_rows is ids
    assert got.n_docs == n_lines and got.n_rows == len(docs)
    want = count_transform(fit_vocabulary([TokenSeq.of(term_to_col)]), [docs[i] for i in ids])
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
    vocab = fit_vocabulary([TokenSeq.of(_TERMS)])
    seqs = [TokenSeq.of(terms) for terms in docs]
    cols = [vocab.term_to_col[t] for terms in docs for t in terms if t != "oov"]
    lengths = [sum(t != "oov" for t in terms) for terms in docs]
    positions = np.array(cols, dtype=np.int64) + np.repeat(
        np.arange(len(docs), dtype=np.int64) * len(_TERMS), lengths)
    want = _reference_from_positions(positions, (len(docs), len(_TERMS)))
    with mock.patch.object(vectorize, "_CHUNK", chunk):
        got = count_transform(vocab, seqs)
    _assert_same_build(got.matrix, want)
    _assert_same(got.doc_token_totals, np.array([len(t) for t in docs], dtype=np.int64))
