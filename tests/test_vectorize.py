import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from logad.represent import TokenSeq
from logad.vectorize import Weighting, count_units, fit_units, tfidf_weighting
from csr import to_scipy


def docs(*term_lists):
    return [TokenSeq(list(t)) for t in term_lists]


class TestFitVocabulary:
    def test_hand_counts(self):
        v, _ = fit_units(docs(["a", "b"], ["b", "c"]))
        assert v.n_terms == 3
        assert v.train_doc_count == 2
        assert v.corpus_total == 4
        cols = v.term_to_col
        assert set(cols) == {"a", "b", "c"}
        assert v.doc_freq[cols["a"]] == 1
        assert v.doc_freq[cols["b"]] == 2
        assert v.doc_freq[cols["c"]] == 1
        assert v.term_total[cols["b"]] == 2

    def test_single_doc_repeats(self):
        v, _ = fit_units(docs(["a", "a"]))
        assert v.n_terms == 1
        assert v.term_total[v.term_to_col["a"]] == 2

    def test_first_appearance_column_order(self):
        v1, _ = fit_units(docs(["x", "y"], ["z", "x"]))
        v2, _ = fit_units(docs(["x", "y"], ["z", "x"]))
        assert v1.term_to_col == v2.term_to_col == {"x": 0, "y": 1, "z": 2}

    def test_term_totals_sum_to_corpus_total(self):
        rng = np.random.default_rng(0)
        terms = [[f"t{rng.integers(20)}" for _ in range(rng.integers(1, 10))] for _ in range(30)]
        v, _ = fit_units(docs(*terms))
        assert v.term_total.sum() == v.corpus_total

    def test_empty_inputs_error(self):
        with pytest.raises(ValueError):
            fit_units([])[0]
        with pytest.raises(ValueError):
            fit_units(docs([], []))[0]


class TestCountTransform:
    def test_oov_dropped_total_kept(self):
        v, _ = fit_units(docs(["a"], ["b"]))
        m = count_units(v.term_to_col, docs(["b", "b", "d"]))
        row = m.matrix.toarray()[0]
        assert row[v.term_to_col["b"]] == 2
        assert row.sum() == 2
        assert m.doc_token_totals[0] == 3
        assert m.weighting is Weighting.COUNT

    def test_empty_doc(self):
        v, _ = fit_units(docs(["a"]))
        m = count_units(v.term_to_col, docs([]))
        assert m.matrix.nnz == 0
        assert m.doc_token_totals[0] == 0

    def test_all_oov_doc(self):
        v, _ = fit_units(docs(["a"]))
        m = count_units(v.term_to_col, docs(["x", "y"]))
        assert m.matrix.row_sums()[0] == 0
        assert m.doc_token_totals[0] == 2

    def test_column_indices_sorted_and_values_positive(self):
        rng = np.random.default_rng(1)
        train = [[f"t{rng.integers(30)}" for _ in range(8)] for _ in range(20)]
        v, _ = fit_units(docs(*train))
        m = count_units(v.term_to_col, docs(*train))
        assert (m.matrix.data > 0).all()
        for d in range(m.n_docs):
            cols = m.matrix.indices[m.matrix.indptr[d] : m.matrix.indptr[d + 1]]
            assert (np.diff(cols) > 0).all()

    def test_training_transform_has_no_oov_loss(self):
        rng = np.random.default_rng(2)
        train = [[f"t{rng.integers(15)}" for _ in range(rng.integers(1, 12))] for _ in range(40)]
        v, _ = fit_units(docs(*train))
        m = count_units(v.term_to_col, docs(*train))
        assert np.array_equal(m.matrix.row_sums(), m.doc_token_totals)


class TestTfidfTransform:
    def test_idf_values(self):
        v, _ = fit_units(docs(["a", "b"], ["b", "c"]))
        idf = v.idf()
        assert idf[v.term_to_col["b"]] == pytest.approx(1.0, abs=1e-12)
        assert idf[v.term_to_col["a"]] == pytest.approx(math.log(1.5) + 1.0, abs=1e-12)

    def test_single_train_doc_row(self):
        v, _ = fit_units(docs(["a", "a", "a", "b"]))
        m = tfidf_weighting(v, count_units(v.term_to_col, docs(["a", "b", "c"])))
        row = m.matrix.toarray()[0]
        assert row[v.term_to_col["a"]] == pytest.approx(0.7071, abs=1e-4)
        assert row[v.term_to_col["b"]] == pytest.approx(0.7071, abs=1e-4)
        assert m.doc_token_totals[0] == 3

    def test_empty_doc_zero_row(self):
        v, _ = fit_units(docs(["a"]))
        m = tfidf_weighting(v, count_units(v.term_to_col, docs([], ["a"])))
        assert m.matrix.take_rows([0]).nnz == 0

    def test_unit_norms(self):
        rng = np.random.default_rng(3)
        train = [[f"t{rng.integers(25)}" for _ in range(rng.integers(1, 10))] for _ in range(50)]
        test = [[f"t{rng.integers(40)}" for _ in range(rng.integers(0, 10))] for _ in range(50)]
        v, _ = fit_units(docs(*train))
        m = tfidf_weighting(v, count_units(v.term_to_col, docs(*test)))
        sq = to_scipy(m.matrix)
        norms = np.sqrt(np.asarray(sq.multiply(sq).sum(axis=1))).ravel()
        for d in range(m.n_docs):
            if m.matrix.indptr[d] != m.matrix.indptr[d + 1]:
                assert norms[d] == pytest.approx(1.0, abs=1e-9)
            else:
                assert norms[d] == 0.0

    def test_idf_uses_train_statistics_only(self):
        v, _ = fit_units(docs(["a", "b"], ["b", "c"]))
        idf_before = v.idf().copy()
        tfidf_weighting(v, count_units(v.term_to_col, docs(["a"] * 50, ["b"])))
        assert np.array_equal(v.idf(), idf_before)

    def test_accepts_generator_input(self):
        v, _ = fit_units(docs(["a", "b"]))
        gen = (TokenSeq(["a"]) for _ in range(3))
        m = tfidf_weighting(v, count_units(v.term_to_col, gen))
        assert m.n_docs == 3


# Terms with spaces, tabs and non-ASCII text; the empty string is a term too.
_TRAIN_TERMS = ["a", "b", "a b", "x\ty", "é", "日本語", "", "zz"]
# Never in a train document, so a test document of these is all out of vocabulary.
_OOV_TERMS = ["never", "ünseen term"]
_DOC = st.lists(st.sampled_from(_TRAIN_TERMS), max_size=8)


def _reference_vocabulary(train):
    """First-appearance columns and the statistics, counted per document."""
    term_to_col = {}
    doc_freq, term_total = Counter(), Counter()
    for terms in train:
        for term in terms:
            term_to_col.setdefault(term, len(term_to_col))
        per_doc = Counter(terms)
        doc_freq.update(per_doc.keys())
        term_total.update(per_doc)
    cols = list(term_to_col)
    return (
        term_to_col,
        np.array([doc_freq[t] for t in cols], dtype=np.int64),
        np.array([term_total[t] for t in cols], dtype=np.int64),
    )


def _reference_counts(term_to_col, docs):
    """Each row's known terms counted with a Counter, columns ascending."""
    indptr, indices, data = [0], [], []
    for doc in docs:
        per_doc = Counter(term_to_col[t] for t in doc.terms if t in term_to_col)
        for col in sorted(per_doc):
            indices.append(col)
            data.append(per_doc[col])
        indptr.append(len(indices))
    return sp.csr_matrix(
        (
            np.asarray(data, dtype=np.float64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(indptr, dtype=np.int64),
        ),
        shape=(len(docs), len(term_to_col)),
    )


def _assert_same_array(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()



class TestCountingEquivalence:
    """The vocabulary and the count matrices against per-document Counters."""

    @given(
        train=st.lists(_DOC, max_size=8),
        test=st.lists(
            st.tuples(st.lists(st.sampled_from(_TRAIN_TERMS + _OOV_TERMS), max_size=8),
                      st.integers(0, 3)),
            max_size=8,
        ),
        as_generator=st.booleans(),
    )
    def test_matches_counter_reference(self, train, test, as_generator):
        feed = (lambda docs: (d for d in docs)) if as_generator else list
        train_docs = docs(*train)
        if not any(train):  # no documents, or only empty ones
            with pytest.raises(
                ValueError, match="^cannot fit a vocabulary: all documents are empty$"
            ):
                fit_units(train_docs)
            return
        v, _ = fit_units(train_docs)
        term_to_col, doc_freq, term_total = _reference_vocabulary(train)
        assert list(v.term_to_col.items()) == list(term_to_col.items())
        _assert_same_array(v.doc_freq, doc_freq)
        _assert_same_array(v.term_total, term_total)
        assert v.corpus_total == sum(map(len, train))
        assert type(v.corpus_total) is int
        assert v.train_doc_count == len(train)

        # Extra out-of-vocabulary terms stand for terms dropped before counting.
        test_docs = [TokenSeq(terms + _OOV_TERMS[:1] * extra) for terms, extra in test]
        test_docs.append(TokenSeq(_OOV_TERMS * 2))
        for side in (train_docs, test_docs):
            m = count_units(v.term_to_col, feed(side))
            expected = _reference_counts(term_to_col, side)
            assert m.matrix.shape == expected.shape
            for name in ("indptr", "indices", "data"):
                _assert_same_array(getattr(m.matrix, name), getattr(expected, name))
            assert to_scipy(m.matrix).has_sorted_indices
            _assert_same_array(
                m.doc_token_totals, np.array([len(d.terms) for d in side], dtype=np.int64)
            )
            assert m.weighting is Weighting.COUNT
