import math
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from logad import detect
from logad.detect import (
    IForestModel,
    average_path_length,
    iforest_fit,
    iforest_score,
    kmeans_fit,
    kmeans_score,
    oovd_score,
    rm_fit,
    rm_score,
)
from logad.represent import TokenSeq
from logad.vectorize import (
    DocTermMatrix,
    Vocabulary,
    Weighting,
    count_units,
    fit_units,
    tfidf_weighting,
)
from csr import from_dense, to_scipy
from reference import reference_iforest_score, reference_iforest_trees


def docs(*term_lists):
    return [TokenSeq(list(t)) for t in term_lists]


def dtm(rows, weighting=Weighting.TFIDF, totals=None):
    """Build a DocTermMatrix straight from dense rows (geometry tests)."""
    arr = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if totals is None:
        totals = (arr != 0).sum(axis=1)
    return DocTermMatrix(from_dense(arr), weighting, np.asarray(totals, dtype=np.int64))


# -- independent oracles -----------------------------------------------------

def naive_oov_counts(train_terms, test_terms):
    vocab = {t for doc in train_terms for t in doc}
    return [sum(1 for t in doc if t not in vocab) for doc in test_terms]


def naive_rm_scores(train_terms, test_terms):
    """Dict-based tf-idf and per-term rarity sum, no matrix code involved."""
    n_train = len(train_terms)
    df: Counter = Counter()
    tt: Counter = Counter()
    total = 0
    for doc in train_terms:
        c = Counter(doc)
        for t, k in c.items():
            df[t] += 1
            tt[t] += k
            total += k
    rarity = {t: -math.log(tt[t] / total) for t in tt}
    idf = {t: math.log((1 + n_train) / (1 + df[t])) + 1.0 for t in df}
    scores = []
    for doc in test_terms:
        counts = Counter(t for t in doc if t in idf)
        cells = {t: k * idf[t] for t, k in counts.items()}
        norm = math.sqrt(sum(v * v for v in cells.values()))
        if norm == 0.0 or not doc:
            scores.append(0.0)
            continue
        dot = sum((v / norm) * rarity[t] for t, v in cells.items())
        scores.append(dot / len(doc))
    return scores


def random_corpus(rng, n_train=40, n_test=30, vocab=60, max_len=15):
    universe = [f"t{i}" for i in range(int(vocab * 1.5))]  # tail is OOV material
    train = [
        [universe[rng.integers(vocab)] for _ in range(rng.integers(1, max_len))]
        for _ in range(n_train)
    ]
    test = [
        [universe[rng.integers(len(universe))] for _ in range(rng.integers(0, max_len))]
        for _ in range(n_test)
    ]
    return train, test


# -- OOV detector -------------------------------------------------------------

class TestOovd:
    def test_hand_example(self):
        v, _ = fit_units(docs(["a", "b"]))
        m = count_units(v.term_to_col, docs(["a", "c", "d", "c"]))
        assert oovd_score(v, m).tolist() == [3.0]

    def test_fully_in_vocabulary(self):
        v, _ = fit_units(docs(["a", "b"]))
        m = count_units(v.term_to_col, docs(["a", "b", "a"]))
        assert oovd_score(v, m).tolist() == [0.0]

    def test_everything_oov_with_empty_vocabulary(self):
        from logad.vectorize import Vocabulary

        v = Vocabulary({}, np.zeros(0, np.int64), np.zeros(0, np.int64), 1, 0)
        m = count_units(v.term_to_col, docs(["x", "y", "z"]))
        assert oovd_score(v, m).tolist() == [3.0]

    def test_rejects_tfidf_matrix(self):
        v, _ = fit_units(docs(["a"]))
        m = tfidf_weighting(v, count_units(v.term_to_col, docs(["a"])))
        with pytest.raises(ValueError):
            oovd_score(v, m)

    def test_matches_naive_membership_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            train, test = random_corpus(rng)
            v, _ = fit_units(docs(*train))
            m = count_units(v.term_to_col, docs(*test))
            got = oovd_score(v, m)
            assert got.tolist() == [float(x) for x in naive_oov_counts(train, test)]


# -- rarity model --------------------------------------------------------------

class TestRarityModel:
    def test_rarity_values(self):
        v, _ = fit_units(docs(["a", "a", "a", "b"]))
        m = rm_fit(v)
        assert m.rarity[v.term_to_col["a"]] == pytest.approx(-math.log(0.75), abs=1e-12)
        assert m.rarity[v.term_to_col["b"]] == pytest.approx(-math.log(0.25), abs=1e-12)

    def test_empty_corpus_rejected(self):
        v = Vocabulary({}, np.zeros(0, np.int64), np.zeros(0, np.int64), 0, 0)
        with pytest.raises(ValueError, match="non-empty training corpus"):
            rm_fit(v)

    def test_single_term_corpus_rarity_zero(self):
        v, _ = fit_units(docs(["a", "a"]))
        assert rm_fit(v).rarity.tolist() == [0.0]

    def test_uniform_corpus_symmetry(self):
        v, _ = fit_units(docs(["a", "b"]))
        m = rm_fit(v)
        assert m.rarity == pytest.approx([math.log(2), math.log(2)])

    def test_score_fixture(self):
        train = docs(["a", "a", "a", "b"])
        v, _ = fit_units(train)
        model = rm_fit(v)
        m = tfidf_weighting(v, count_units(v.term_to_col, docs(["a", "b", "c"])))
        expected = (1 / math.sqrt(2)) * (-math.log(0.75) - math.log(0.25)) / 3
        score = rm_score(model, m)[0]
        assert score == pytest.approx(expected, abs=1e-12)
        assert round(score, 4) == 0.3946

    def test_all_oov_scores_zero(self):
        v, _ = fit_units(docs(["a", "b"]))
        model = rm_fit(v)
        m = tfidf_weighting(v, count_units(v.term_to_col, docs(["x", "y"])))
        assert rm_score(model, m).tolist() == [0.0]

    def test_single_term_vocabulary_scores_zero(self):
        v, _ = fit_units(docs(["a", "a"]))
        model = rm_fit(v)
        m = tfidf_weighting(v, count_units(v.term_to_col, docs(["a", "a", "a"])))
        assert rm_score(model, m).tolist() == [0.0]

    def test_empty_doc_scores_zero(self):
        v, _ = fit_units(docs(["a"]))
        model = rm_fit(v)
        m = tfidf_weighting(v, count_units(v.term_to_col, docs([])))
        assert rm_score(model, m).tolist() == [0.0]

    def test_rejects_count_matrix(self):
        v, _ = fit_units(docs(["a"]))
        model = rm_fit(v)
        with pytest.raises(ValueError):
            rm_score(model, count_units(v.term_to_col, docs(["a"])))

    def test_rejects_column_mismatch(self):
        v, _ = fit_units(docs(["a", "b"]))
        other, _ = fit_units(docs(["a"]))
        model = rm_fit(v)
        with pytest.raises(ValueError):
            rm_score(model, tfidf_weighting(other, count_units(other.term_to_col, docs(["a"]))))

    def test_matches_naive_per_token_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            train, test = random_corpus(rng)
            v, _ = fit_units(docs(*train))
            model = rm_fit(v)
            m = tfidf_weighting(v, count_units(v.term_to_col, docs(*test)))
            got = rm_score(model, m)
            want = naive_rm_scores(train, test)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_rarity_scaling_preserves_ranking(self):
        rng = np.random.default_rng(9)
        train, test = random_corpus(rng)
        v, _ = fit_units(docs(*train))
        model = rm_fit(v)
        m = tfidf_weighting(v, count_units(v.term_to_col, docs(*test)))
        base = rm_score(model, m)
        model.rarity = model.rarity * 3.5
        scaled = rm_score(model, m)
        np.testing.assert_allclose(scaled, base * 3.5, rtol=1e-12)
        assert np.array_equal(np.argsort(scaled), np.argsort(base))


# -- kmeans --------------------------------------------------------------------

class TestKMeans:
    def test_k1_mean(self):
        train = dtm([[0.0, 0.0], [2.0, 0.0]])
        model = kmeans_fit(train, k=1, seed=0)
        np.testing.assert_allclose(model.centroids, [[1.0, 0.0]])

    def test_two_clusters_1d(self):
        train = dtm([[0.0], [0.0], [10.0], [10.0]])
        model = kmeans_fit(train, k=2, seed=0)
        assert sorted(model.centroids.ravel().tolist()) == [0.0, 10.0]

    def test_k_equals_n_distinct_points(self):
        rows = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]
        train = dtm(rows)
        model = kmeans_fit(train, k=4, seed=3)
        scores = kmeans_score(model, train)
        np.testing.assert_allclose(scores, 0.0, atol=1e-12)

    def test_score_examples(self):
        model = kmeans_fit(dtm([[1.0, 0.0], [1.0, 0.0]]), k=1, seed=0)
        assert kmeans_score(model, dtm([[1.0, 0.0]]))[0] == pytest.approx(0.0, abs=1e-12)

        model2 = kmeans_fit(dtm([[0.0], [0.0], [10.0], [10.0]]), k=2, seed=0)
        assert kmeans_score(model2, dtm([[4.0]]))[0] == pytest.approx(4.0, abs=1e-9)

    def test_empty_row_against_origin_centroid(self):
        model = kmeans_fit(dtm([[0.0, 0.0], [0.0, 0.0]]), k=1, seed=0)
        assert kmeans_score(model, dtm([[0.0, 0.0]]))[0] == 0.0

    def test_repair_never_empties_a_cluster(self):
        # Three equal points leave clusters empty.  The farthest point from
        # its centroid is the only member of its cluster; moving it would
        # leave a 0/0 centroid, so the repair takes an equal point instead.
        train = dtm([[0, 0, 0], [0, 1, 0], [1, 1, 0], [0, 1, 0], [0, 1, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = kmeans_fit(train, k=5, seed=0)
        assert np.isfinite(model.centroids).all()
        assert sorted(map(tuple, model.centroids.tolist())) == [
            (0, 0, 0), (0, 1, 0), (0, 1, 0), (0, 1, 0), (1, 1, 0)
        ]

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n,k", [(2, 2), (5, 3), (9, 9)])
    def test_init_without_distance_draws_as_before(self, n, k, seed):
        # Every document maps to one stored row, so every distance is 0 and
        # each draw after the first is uniform among the unchosen documents.
        class Recording(DocTermMatrix):
            def take_docs(self, docs):
                taken.extend(np.asarray(docs).tolist())
                return super().take_docs(docs)

        taken = []
        row = [[1.0, 2.0]]
        train = Recording(from_dense(row), Weighting.TFIDF, np.array([3]), np.zeros(n, np.int64))
        centroids = detect._plus_plus_init(train, train.matrix.row_sq_norms(), k,
                                           np.random.default_rng(seed))
        # The draws of the former rng.choice over np.setdiff1d.
        rng = np.random.default_rng(seed)
        chosen = [int(rng.integers(n))]
        for _ in range(1, k):
            chosen.append(int(rng.choice(np.setdiff1d(np.arange(n), chosen))))
        assert taken == chosen
        assert centroids.tobytes() == np.repeat(row, k, axis=0).tobytes()

    def test_k_larger_than_n_errors(self):
        with pytest.raises(ValueError):
            kmeans_fit(dtm([[1.0], [2.0]]), k=3, seed=0)

    def test_dimension_mismatch_errors(self):
        model = kmeans_fit(dtm([[1.0, 0.0], [0.0, 1.0]]), k=1, seed=0)
        with pytest.raises(ValueError):
            kmeans_score(model, dtm([[1.0]]))

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(11)
        rows = rng.random((60, 5))
        a = kmeans_fit(dtm(rows), k=4, seed=5)
        b = kmeans_fit(dtm(rows), k=4, seed=5)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_permuting_docs_permutes_scores(self):
        rng = np.random.default_rng(13)
        rows = rng.random((40, 6))
        model = kmeans_fit(dtm(rows), k=3, seed=1)
        perm = rng.permutation(40)
        base = kmeans_score(model, dtm(rows))
        shuffled = kmeans_score(model, dtm(rows[perm]))
        np.testing.assert_allclose(shuffled, base[perm])


# -- isolation forest ------------------------------------------------------------

class TestIForest:
    def test_average_path_length(self):
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == 1.0
        assert average_path_length(3) == pytest.approx(2 * 1.5 - 4 / 3, abs=1e-12)

    def test_two_point_score_exactly_half(self):
        train = dtm([[0.0], [1.0]])
        model = iforest_fit(train, n_trees=25, subsample=2, seed=0)
        scores = iforest_score(model, train)
        assert scores.tolist() == [0.5, 0.5]

    def test_identical_points_single_leaf_and_equal_scores(self):
        train = dtm([[3.0, 1.0]] * 8)
        model = iforest_fit(train, n_trees=10, subsample=8, seed=1)
        assert (model.feature == -1).all()
        scores = iforest_score(model, train)
        assert np.unique(scores).size == 1

    def test_outlier_scores_highest(self):
        rng = np.random.default_rng(17)
        cluster = rng.normal(0.0, 1.0, size=(500, 2))
        points = np.vstack([cluster, [[10.0, 0.0]]])
        model = iforest_fit(dtm(points), n_trees=100, subsample=256, seed=3)
        scores = iforest_score(model, dtm(points))
        assert scores.argmax() == 500
        assert scores[500] > scores[:500].max()

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(19)
        rows = rng.random((50, 4))
        model = iforest_fit(dtm(rows), n_trees=20, subsample=16, seed=2)
        scores = iforest_score(model, dtm(rows))
        assert ((scores > 0.0) & (scores <= 1.0)).all()

    def test_score_monotone_in_mean_path_length(self):
        rng = np.random.default_rng(23)
        rows = np.vstack([rng.normal(0, 0.1, (40, 3)), rng.normal(5, 3.0, (10, 3))])
        model = iforest_fit(dtm(rows), n_trees=50, subsample=32, seed=4)
        scores = iforest_score(model, dtm(rows))
        mean_h = -np.log2(scores) * model.c_norm
        order_by_score = np.argsort(-scores, kind="stable")
        order_by_path = np.argsort(mean_h, kind="stable")
        np.testing.assert_array_equal(order_by_score, order_by_path)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(29)
        rows = rng.random((100, 3))
        a = iforest_fit(dtm(rows), n_trees=15, subsample=32, seed=9)
        b = iforest_fit(dtm(rows), n_trees=15, subsample=32, seed=9)
        for field in fields(IForestModel):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name

    def test_needs_two_docs(self):
        with pytest.raises(ValueError):
            iforest_fit(dtm([[1.0]]), n_trees=5, subsample=2, seed=0)

    @pytest.mark.parametrize("n_trees", [0, -1])
    def test_no_trees_rejected(self, n_trees):
        with pytest.raises(ValueError, match="n_trees must be >= 1"):
            iforest_fit(dtm([[0.0], [1.0], [2.0]]), n_trees=n_trees, subsample=2, seed=0)

    @pytest.mark.parametrize("subsample", [1, 0, -3])
    def test_subsample_below_two_rejected(self, subsample):
        # c(1) = 0: a one-document subsample would score every document NaN.
        with pytest.raises(ValueError, match="subsample must be >= 2"):
            iforest_fit(dtm([[0.0], [1.0], [2.0]]), n_trees=5, subsample=subsample, seed=0)

    def test_dimension_mismatch_errors(self):
        model = iforest_fit(dtm([[0.0, 1.0], [1.0, 0.0]]), n_trees=5, subsample=2, seed=0)
        with pytest.raises(ValueError):
            iforest_score(model, dtm([[1.0]]))

    def test_permuting_docs_permutes_scores(self):
        rng = np.random.default_rng(31)
        rows = rng.random((60, 4))
        model = iforest_fit(dtm(rows), n_trees=20, subsample=32, seed=5)
        perm = rng.permutation(60)
        base = iforest_score(model, dtm(rows))
        shuffled = iforest_score(model, dtm(rows[perm]))
        np.testing.assert_allclose(shuffled, base[perm])


def _forest_matrix(kind, seed):
    """A tf-idf matrix, dense rows with constant columns, or 4 distinct rows."""
    rng = np.random.default_rng(seed)
    if kind == "tfidf":
        train_terms, _ = random_corpus(rng, n_train=50, vocab=30)
        vocab, counts = fit_units(docs(*train_terms))
        return tfidf_weighting(vocab, counts)
    rows = np.where(rng.random((40, 6)) < 0.4, rng.integers(1, 4, (40, 6)), 0.0)
    if kind == "repeated_rows":
        return dtm(rows[rng.integers(0, 4, 40)])
    rows[:, 1] = 2.0  # constant
    rows[:, 4] = 0.0  # constant and empty
    rows[10:20] = rows[0]  # repeated rows
    return dtm(rows)


def _packed_trees(model):
    """Each tree sliced out of the node table, its child ids relative to its root."""
    ends = [*model.roots[1:], len(model.feature)]
    for root, end in zip(model.roots, ends):
        span = slice(root, end)
        left, right = model.left[span], model.right[span]
        yield (model.feature[span], model.threshold[span],
               np.where(left >= 0, left - root, -1), np.where(right >= 0, right - root, -1),
               model.path[span])


class TestIForestSameTrees:
    """The fit grows the trees the fit before it grew, array for array."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("subsample", [2, 3, 16, 64])
    @pytest.mark.parametrize("matrix", ["tfidf", "constant_columns"])
    def test_trees_equal_reference(self, seed, subsample, matrix):
        train = _forest_matrix(matrix, seed)
        model = iforest_fit(train, n_trees=12, subsample=subsample, seed=seed)
        want = reference_iforest_trees(to_scipy(train.matrix).toarray(), 12, subsample, seed)
        assert model.roots[0] == 0
        got = list(_packed_trees(model))
        assert len(got) == len(want)
        for (*arrays, path), (*ref, depth, adjust) in zip(got, want):
            for a, b in zip(arrays, ref):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
            leaves = ref[0] < 0
            assert path[leaves].tobytes() == (depth + adjust)[leaves].tobytes()
        psi = min(subsample, train.n_docs)
        assert model.c_norm == average_path_length(psi)


class TestIForestScoreWalk:
    """Walking all trees at once scores what the per-tree walk scored."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("matrix", ["tfidf", "constant_columns", "repeated_rows"])
    @pytest.mark.parametrize("docs_per_chunk", [1, 7, None])
    def test_scores_equal_reference(self, monkeypatch, seed, matrix, docs_per_chunk):
        n_trees = 24
        train = _forest_matrix(matrix, seed)
        model = iforest_fit(train, n_trees=n_trees, subsample=16, seed=seed)
        if docs_per_chunk == 1:
            monkeypatch.setattr(detect, "_CHUNK_ELEMENTS", train.n_terms)
        elif docs_per_chunk == 7:
            monkeypatch.setattr(detect, "_WALK_SLOTS", 7 * n_trees)
        else:
            assert detect._WALK_SLOTS // n_trees >= train.n_docs  # one chunk holds all
        dense = to_scipy(train.matrix).toarray()
        trees = reference_iforest_trees(dense, n_trees, 16, seed)
        want = reference_iforest_score(trees, average_path_length(16), dense)
        assert iforest_score(model, train).tobytes() == want.tobytes()


def test_oovd_and_rm_permutation_property():
    rng = np.random.default_rng(37)
    train, test = random_corpus(rng, n_test=20)
    v, _ = fit_units(docs(*train))
    perm = rng.permutation(len(test))
    permuted = [test[i] for i in perm]

    cm = count_units(v.term_to_col, docs(*test))
    cm_p = count_units(v.term_to_col, docs(*permuted))
    np.testing.assert_array_equal(oovd_score(v, cm_p), oovd_score(v, cm)[perm])

    model = rm_fit(v)
    tm = tfidf_weighting(v, count_units(v.term_to_col, docs(*test)))
    tm_p = tfidf_weighting(v, count_units(v.term_to_col, docs(*permuted)))
    np.testing.assert_allclose(rm_score(model, tm_p), rm_score(model, tm)[perm])
