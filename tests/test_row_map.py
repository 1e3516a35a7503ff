"""Row-mapped document-term matrices: documents that share a stored row.

A line matrix keeps one stored row per distinct message, and its
``doc_rows`` names each document's row; every other matrix maps document d
to row d, through the same array.  Every scorer must return, per
document, the bytes it returns on the expanded matrix, where each document
has its own row, and every fit the model it fits there; a bad row map must
fail when the matrix is built.
"""

import dataclasses
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logad import detect
from logad.detect import (
    iforest_fit,
    iforest_score,
    kmeans_fit,
    kmeans_score,
    oovd_score,
    rm_fit,
    rm_score,
)
from logad.represent import TokenSeq
from logad.vectorize import DocTermMatrix, Vocabulary, Weighting, _unit_counts, tfidf_weighting

from csr import expand, from_dense

N_TREES = 5


def _vocabulary(n_terms, rng):
    term_total = rng.integers(1, 20, n_terms)
    doc_freq = np.minimum(term_total, rng.integers(1, 10, n_terms))
    return Vocabulary({f"t{i}": i for i in range(n_terms)}, doc_freq, term_total, 10,
                      int(term_total.sum()))


@st.composite
def mapped_counts(draw):
    """A count matrix of stored rows, empty ones included, and a row map
    that may repeat rows, list them in any order and leave some unused."""
    n_rows, n_terms = draw(st.integers(2, 8)), draw(st.integers(1, 6))
    cells = st.lists(st.integers(0, 3), min_size=n_terms, max_size=n_terms)
    dense = np.array(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)), dtype=np.float64)
    totals = dense.sum(axis=1).astype(np.int64) + draw(
        st.lists(st.integers(0, 3), min_size=n_rows, max_size=n_rows))
    doc_rows = np.array(draw(st.lists(st.integers(0, n_rows - 1), max_size=20)), dtype=np.int64)
    seed = draw(st.integers(0, 2**16))
    return DocTermMatrix(from_dense(dense), Weighting.COUNT, totals, doc_rows), seed


# Stored rows repeated, out of order and unused (row 2), next to an empty row.
MIXED_MAP = (DocTermMatrix(from_dense([[1, 0, 2], [0, 3, 0], [1, 1, 1], [0, 0, 0]]),
                           Weighting.COUNT, np.array([3, 4, 3, 1]),
                           np.array([3, 0, 1, 0, 3, 1, 1], dtype=np.int32)), 7)


def _assert_same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_same_model(got, want):
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            _assert_same(a, b)
        else:
            assert type(a) is type(b) and a == b, field.name


class TestFitsThroughRowMap:
    """A fit draws documents and gathers their stored rows through the map."""

    @staticmethod
    def _train(counts, seed):
        return tfidf_weighting(_vocabulary(counts.n_terms, np.random.default_rng(seed)), counts)

    @settings(max_examples=150, deadline=None)
    @given(mapped_counts(), st.integers(1, 4))
    @example(MIXED_MAP, 2)
    def test_kmeans_equals_the_fit_on_the_expanded_matrix(self, case, k):
        counts, seed = case
        train = self._train(counts, seed)
        if k > train.n_docs:
            for m in (train, expand(train)):
                with pytest.raises(ValueError, match=r"k must be in \[1, n_docs\]"):
                    kmeans_fit(m, k, seed)
            return
        _assert_same_model(kmeans_fit(train, k, seed), kmeans_fit(expand(train), k, seed))

    @settings(max_examples=150, deadline=None)
    @given(mapped_counts(), st.integers(2, 6))
    @example(MIXED_MAP, 4)
    def test_iforest_equals_the_fit_on_the_expanded_matrix(self, case, subsample):
        counts, seed = case
        train = self._train(counts, seed)
        if train.n_docs < 2:
            for m in (train, expand(train)):
                with pytest.raises(ValueError, match="needs at least 2 documents"):
                    iforest_fit(m, N_TREES, subsample, seed)
            return
        _assert_same_model(iforest_fit(train, N_TREES, subsample, seed),
                           iforest_fit(expand(train), N_TREES, subsample, seed))


class TestScoresThroughRowMap:
    @settings(max_examples=150, deadline=None)
    @given(mapped_counts())
    def test_oovd_rm_kmeans(self, case):
        counts, seed = case
        rng = np.random.default_rng(seed)
        vocab = _vocabulary(counts.n_terms, rng)
        _assert_same(oovd_score(vocab, counts), oovd_score(vocab, expand(counts)))
        tfidf = tfidf_weighting(vocab, counts)
        assert tfidf.doc_rows is counts.doc_rows
        _assert_same(rm_score(rm_fit(vocab), tfidf), rm_score(rm_fit(vocab), expand(tfidf)))
        train = DocTermMatrix(tfidf.matrix, Weighting.TFIDF, tfidf.doc_token_totals)
        model = kmeans_fit(train, k=int(rng.integers(1, 3)), seed=seed)
        _assert_same(kmeans_score(model, tfidf), kmeans_score(model, expand(tfidf)))

    @pytest.mark.parametrize("docs_per_chunk", [1, 7, None])
    @settings(max_examples=60, deadline=None)
    @given(case=mapped_counts())
    def test_iforest(self, docs_per_chunk, case):
        counts, seed = case
        tfidf = tfidf_weighting(_vocabulary(counts.n_terms, np.random.default_rng(seed)), counts)
        train = DocTermMatrix(tfidf.matrix, Weighting.TFIDF, tfidf.doc_token_totals)
        model = iforest_fit(train, n_trees=N_TREES, subsample=4, seed=seed)
        patches = {
            1: mock.patch.object(detect, "_CHUNK_ELEMENTS", tfidf.n_terms),
            7: mock.patch.object(detect, "_WALK_SLOTS", 7 * N_TREES),
            None: nullcontext(),
        }
        with patches[docs_per_chunk]:
            _assert_same(iforest_score(model, tfidf), iforest_score(model, expand(tfidf)))


class TestBadRowMap:
    def _counts(self, doc_rows):
        return DocTermMatrix(from_dense([[1, 0], [0, 2], [0, 0]]), Weighting.COUNT,
                             np.array([1, 2, 0]), doc_rows)

    @pytest.mark.parametrize("doc_rows", [
        [0, 1], np.array([[0, 1]]), np.array([0.0, 1.0]), np.array([True, False]),
    ])
    def test_not_a_1d_integer_array(self, doc_rows):
        with pytest.raises(ValueError, match="doc_rows must be a 1-D integer array"):
            self._counts(doc_rows)

    @pytest.mark.parametrize("doc_rows, message", [
        (np.array([0, 2, 3, -1]), r"doc_rows\[2\] = 3 is outside \[0, 3\)"),
        (np.array([1, -1]), r"doc_rows\[1\] = -1 is outside \[0, 3\)"),
        (np.array([5], dtype=np.uint8), r"doc_rows\[0\] = 5 is outside \[0, 3\)"),
    ])
    def test_entry_outside_the_stored_rows(self, doc_rows, message):
        with pytest.raises(ValueError, match=message):
            self._counts(doc_rows)

    def test_good_map(self):
        m = self._counts(np.array([2, 0, 0, 1], dtype=np.int32))
        assert (m.n_rows, m.n_docs) == (3, 4)


class TestIdentityMap:
    """A matrix built without a row map holds the identity map, so every
    reader gathers through one array."""

    def test_no_map_given_is_the_identity(self):
        m = DocTermMatrix(from_dense([[1, 0], [0, 2], [0, 0]]), Weighting.COUNT,
                          np.array([1, 2, 0]))
        assert m.doc_rows.tolist() == [0, 1, 2] and m.n_docs == 3
        assert m.per_doc(np.array([5.0, 6.0, 7.0])).tolist() == [5.0, 6.0, 7.0]

    def test_sequence_units_are_their_own_rows(self):
        docs = [TokenSeq.of(["a", "b"]), TokenSeq.of(["b"]), TokenSeq.of(["c"])]
        # Five records of three documents in three units; unit 1 is empty.
        ids, unit_ids = np.array([0, 1, 1, 2, 0]), np.array([2, 0, 2, 0, 2])
        m = _unit_counts({"a": 0, "b": 1}, docs, ids, unit_ids, 3)
        assert m.doc_rows.tobytes() == np.arange(3).tobytes()
        assert m.n_docs == m.n_rows == 3
        assert m.per_doc(m.row_sums()).tolist() == [1.0, 0.0, 5.0]
