import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import rankdata

from logad.evaluate import (
    GRID_COLUMNS,
    EvalReport,
    score_table,
)
from reference import pairwise_auc, reference_bins


def _labeled(draw, scores):
    """0/1 labels for ``scores`` with both classes present."""
    labels = draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
    labels[0], labels[-1] = 0, 1
    return np.asarray(scores, dtype=np.float64), np.asarray(labels)


@st.composite
def heavy_ties(draw):
    return _labeled(draw, draw(st.lists(
        st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 2.0, np.inf]), min_size=2, max_size=80)))


@st.composite
def no_ties(draw):
    return _labeled(draw, draw(st.lists(
        st.floats(allow_nan=False), unique=True, min_size=2, max_size=80)))


@st.composite
def with_nan(draw):
    scores = draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
    scores.insert(draw(st.integers(0, len(scores))), np.nan)
    return _labeled(draw, scores)


def _rank_sum_auc(scores, labels):
    """The midrank formula, with scipy's ranks as the oracle."""
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    return (rankdata(scores)[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class TestAucRankOracle:
    """``ScoreTable.auc`` gives the bytes of the midrank formula."""

    @given(heavy_ties())
    def test_many_ties_equal_scipy(self, case):
        got, want = score_table(*case).auc(), _rank_sum_auc(*case)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @given(no_ties())
    def test_no_ties_equal_scipy(self, case):
        got, want = score_table(*case).auc(), _rank_sum_auc(*case)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @given(with_nan())
    def test_nan_in_nan_out(self, case):
        assert np.isnan(score_table(*case).auc())
        assert np.isnan(_rank_sum_auc(*case))


class TestAucRoc:
    def test_hand_example(self):
        assert score_table([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]).auc() == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert score_table([1, 2, 3, 9, 10], [0, 0, 0, 1, 1]).auc() == 1.0

    def test_all_ties_half(self):
        assert score_table([5.0] * 6, [0, 1, 0, 1, 0, 1]).auc() == 0.5

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            score_table([0.1, 0.2], [1, 1]).auc()
        with pytest.raises(ValueError):
            score_table([0.1, 0.2], [0, 0]).auc()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            score_table([0.1], [0, 1]).auc()

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # low-resolution scores force plenty of ties
            scores = rng.integers(0, 8, size=n) / 4.0
            assert score_table(scores, labels).auc() == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12
            )

    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_increasing_transforms(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.normal(size=n)
        base = score_table(scores, labels).auc()
        for transform in (lambda s: 3 * s + 7, np.exp, lambda s: s**3):
            assert score_table(transform(scores), labels).auc() == pytest.approx(base, abs=1e-12)


class TestBestF1:
    def test_perfect_ranking(self):
        thr, f1 = score_table([0.1, 0.9], [0, 1]).best_f1()
        assert f1 == 1.0
        assert 0.1 < thr <= 0.9

    def test_inverted_ranking(self):
        thr, f1 = score_table([0.9, 0.1], [0, 1]).best_f1()
        assert f1 == pytest.approx(2 / 3)
        assert thr == pytest.approx(0.1)  # predict everything anomalous

    def test_all_positive_labels(self):
        scores = [0.3, 0.7, 0.5]
        thr, f1 = score_table(scores, [1, 1, 1]).best_f1()
        assert f1 == 1.0
        assert thr <= min(scores)

    def test_no_positive_labels_errors(self):
        with pytest.raises(ValueError):
            score_table([0.1, 0.2], [0, 0]).best_f1()

    def test_equal_infinite_scores_are_one_threshold(self):
        # Both infinite scores are predicted anomalous at threshold inf.
        thr, f1 = score_table([np.inf, np.inf, 0.0], [1, 0, 0]).best_f1()
        assert (thr, f1) == (np.inf, pytest.approx(2 / 3))

    def test_smallest_optimal_threshold_wins(self):
        # thresholds 0.2 and 0.4 both give f1 = 1.0 here
        thr, f1 = score_table([0.1, 0.2, 0.4], [0, 1, 1]).best_f1()
        assert f1 == 1.0
        assert thr == pytest.approx(0.2)

    def test_exact_geq_budgeted_and_budget_infinity_matches(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            n = int(rng.integers(3, 120))
            labels = rng.integers(0, 2, size=n)
            labels[0] = 1
            scores = np.round(rng.random(n), 2)
            _, exact = score_table(scores, labels).best_f1()
            for budget in (1, 3, 5, 20):
                _, capped = score_table(scores, labels).best_f1(budget=budget)
                assert exact >= capped - 1e-12
            _, unbounded = score_table(scores, labels).best_f1(budget=10**9)
            assert unbounded == exact

    def test_budget_twenty_usually_finds_optimum_on_smooth_data(self):
        rng = np.random.default_rng(56)
        scores = np.concatenate([rng.normal(0, 1, 300), rng.normal(4, 1, 40)])
        labels = np.concatenate([np.zeros(300, int), np.ones(40, int)])
        _, exact = score_table(scores, labels).best_f1()
        _, capped = score_table(scores, labels).best_f1(budget=20)
        assert capped >= 0.8 * exact

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            score_table([0.1], [1]).best_f1(budget=0)


class TestScoreHistogram:
    def test_two_bins(self):
        hist = score_table([0.0, 1.0], [0, 1]).histogram(2)
        assert hist.bins == [(0.0, 0.5, 1, 0), (0.5, 1.0, 0, 1)]

    def test_identical_scores_single_bin(self):
        hist = score_table([2.0, 2.0, 2.0], [0, 0, 1]).histogram(10)
        assert hist.bins == [(2.0, 2.0, 2, 1)]

    def test_counts_conserved(self):
        rng = np.random.default_rng(77)
        scores = rng.normal(size=1000)
        labels = rng.integers(0, 2, size=1000)
        hist = score_table(scores, labels).histogram(50)
        assert len(hist.bins) == 50
        assert sum(nc + ac for _, _, nc, ac in hist.bins) == 1000
        assert sum(ac for _, _, _, ac in hist.bins) == labels.sum()

    def test_score_on_a_printed_edge_counts_in_the_bin_it_opens(self):
        # 0..34 in 50 bins: the edge 0 + 25 * 0.68 prints as 17.0, while
        # (17.0 - 0) / 0.68 < 25 would put 17.0 in the bin that edge closes.
        scores = [float(i) for i in range(35)]
        bins = score_table(scores, [0] * 17 + [1] + [0] * 17).histogram(50).bins
        assert bins[24][1] == bins[25][0] == 17.0
        assert bins[24][2:] == (0, 0) and bins[25][2:] == (0, 1)
        assert bins == reference_bins(scores, [0] * 17 + [1] + [0] * 17, 50)

    def test_nan_scores_get_one_trailing_bin(self):
        # The finite scores keep their bins; the NaN is neither dropped nor
        # allowed to turn every edge into NaN.
        table = score_table([1.0, np.nan, 1.0, 0.5], [0, 1, 0, 1], [0, 0, 0, 1])
        bins = table.histogram(4).bins
        assert _repr(bins) == _repr([(0.5, 0.625, 0, 1), (0.625, 0.75, 0, 0),
                                     (0.75, 0.875, 0, 0), (0.875, 1.0, 2, 0),
                                     (np.nan, np.nan, 0, 1)])
        assert bins[:-1] == reference_bins([1.0, 1.0, 0.5], [0, 0, 1], 4)

    def test_nan_scores_only_get_the_nan_bin_alone(self):
        bins = score_table([np.nan, np.nan, np.nan], [0, 1, 1]).histogram(5).bins
        assert _repr(bins) == _repr([(np.nan, np.nan, 1, 2)])

    def test_infinite_scores_get_bins_of_their_own(self):
        # The finite scores keep their bins; an infinite one neither turns an
        # edge into NaN nor lands in a finite bin.
        bins = score_table([0.0, np.inf, 1.0], [0, 1, 0]).histogram(3).bins
        assert bins == [(0.0, 1 / 3, 1, 0), (1 / 3, 2 / 3, 0, 0), (2 / 3, 1.0, 1, 0),
                        (np.inf, np.inf, 0, 1)]
        bins = score_table([-np.inf, 0.0, 1.0, -np.inf], [0, 1, 0, 1]).histogram(2).bins
        assert bins == [(-np.inf, -np.inf, 1, 1), (0.0, 0.5, 0, 1), (0.5, 1.0, 1, 0)]
        table = score_table([np.nan, np.inf, -np.inf, np.inf], [1, 0, 1, 1])
        assert _repr(table.histogram(4).bins) == _repr([
            (-np.inf, -np.inf, 0, 1), (np.inf, np.inf, 1, 1), (np.nan, np.nan, 0, 1)])

    @given(
        st.lists(
            st.tuples(st.sampled_from([np.nan, -np.inf, np.inf, -1.0, 0.0, 0.25])
                      | st.floats(-1e6, 1e6),
                      st.integers(0, 1)),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 12),
    )
    def test_counts_with_nan_are_conserved(self, pairs, n_bins):
        scores, labels = np.array([s for s, _ in pairs]), np.array([y for _, y in pairs])
        bins = score_table(scores, labels).histogram(n_bins).bins
        assert sum(nc + ac for _, _, nc, ac in bins) == len(scores)
        assert sum(ac for _, _, _, ac in bins) == labels.sum()
        # -inf first, then inf and NaN last, each in one bin with its value as both edges.
        for special, at in ((np.nan, -1), (np.inf, -1), (-np.inf, 0)):
            match = np.isnan(scores) if np.isnan(special) else scores == special
            if match.any():
                low, high, nc, ac = bins.pop(at)
                assert _repr([(low, high)]) == _repr([(special, special)])
                assert (nc, ac) == ((labels[match] == 0).sum(), (labels[match] == 1).sum())
        finite = np.isfinite(scores)
        assert bins == (reference_bins(scores[finite], labels[finite], n_bins)
                        if finite.any() else [])

    def test_empty_table_has_no_bins(self):
        assert score_table([], []).histogram(5).bins == []

    def test_csv_emission(self, tmp_path):
        hist = score_table([0.0, 1.0], [0, 1]).histogram(2)
        out = tmp_path / "hist.csv"
        hist.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "bin_low,bin_high,normal_count,anomaly_count"
        assert len(lines) == 3

    def test_bad_bin_count(self):
        with pytest.raises(ValueError):
            score_table([1.0], [1]).histogram(0)

    @given(
        st.lists(
            st.tuples(
                # A grid of 0.25 steps puts scores on the bin edges of small bin counts.
                st.one_of(st.integers(-8, 8).map(lambda i: i / 4), st.floats(-1e6, 1e6)),
                st.integers(0, 1),
            ),
            min_size=1,
            max_size=60,
        ),
        st.integers(1, 12),
    )
    def test_bins_equal_the_per_bin_reference(self, pairs, n_bins):
        scores, labels = [s for s, _ in pairs], [y for _, y in pairs]
        bins = score_table(scores, labels).histogram(n_bins).bins
        assert bins == reference_bins(scores, labels, n_bins)
        assert [tuple(map(type, b)) for b in bins] == [(float, float, int, int)] * len(bins)

    @pytest.mark.parametrize("scores,n_bins", [
        ([1.0, 1.0, 1.0], 5), ([0.0, 0.5, 1.0], 1), ([0.0, 0.25, 0.5, 0.75, 1.0], 4),
    ], ids=["degenerate_range", "one_bin", "ties_on_edges"])
    def test_edge_cases_equal_the_reference(self, scores, n_bins):
        labels = [i % 2 for i in range(len(scores))]
        bins = score_table(scores, labels).histogram(n_bins).bins
        assert bins == reference_bins(scores, labels, n_bins)
        assert [tuple(map(type, b)) for b in bins] == [(float, float, int, int)] * len(bins)


def _repr(values):
    """Floats as their repr, which tells -0.0 from 0.0 and any NaN is 'nan'."""
    return [tuple(repr(v) if isinstance(v, float) else v for v in item) for item in values]


@st.composite
def row_mapped(draw):
    """Per-row scores, a row map whose lines leave some rows unused and use
    some once, and 0/1 labels with both classes present."""
    n_rows = draw(st.integers(1, 10))
    row_scores = draw(st.lists(
        st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf, np.nan]) | st.floats(),
        min_size=n_rows, max_size=n_rows))
    used = draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=n_rows, unique=True))
    doc_rows = np.array(draw(st.lists(st.sampled_from(used), min_size=2, max_size=40)))
    _, labels = _labeled(draw, doc_rows)
    return np.asarray(row_scores, dtype=np.float64), doc_rows, labels


def _stable_sort_table(scores, labels):
    """The per-document table that the shared table replaced: a stable sort
    of every document, one entry per run of equal scores."""
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    last = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    return s[last], np.cumsum(y == 1)[last], np.cumsum(y == 0)[last]


class TestScoreTable:
    """One table over the stored rows evaluates as the per-document table."""

    @given(row_mapped(), st.integers(1, 12), st.integers(1, 8))
    def test_row_table_equals_per_document_evaluation(self, case, budget, n_bins):
        row_scores, doc_rows, labels = case
        scores = row_scores[doc_rows]
        table = score_table(scores, labels, doc_rows)
        if np.isnan(scores).any():
            assert np.isnan(table.auc()) and np.isnan(score_table(scores, labels).auc())
        else:
            assert table.auc() == score_table(scores, labels).auc()
            assert repr(table.auc()) == repr(score_table(scores, labels).auc())
        for cap in (None, budget):
            assert _repr([table.best_f1(cap)]) == _repr([score_table(scores, labels).best_f1(cap)])
        assert (_repr(table.histogram(n_bins).bins)
                == _repr(score_table(scores, labels).histogram(n_bins).bins))

    @given(row_mapped())
    def test_per_document_table_equals_the_stable_sort(self, case):
        # NaNs are one entry now, where the stable sort had one per document.
        row_scores, doc_rows, labels = case
        scores = row_scores[doc_rows]
        no_nan = not np.isnan(scores).any()
        for table in (score_table(scores, labels), score_table(scores, labels, doc_rows)):
            if no_nan:
                thresholds, tps, fps = _stable_sort_table(scores, labels)
                # The zeros are one score; the stable sort kept the last one's sign.
                assert table.thresholds.tolist() == thresholds.tolist()
                assert table.tps.tolist() == tps.tolist() and table.fps.tolist() == fps.tolist()
            else:
                assert np.isnan(table.thresholds[-1])
                assert np.isnan(table.thresholds).sum() == 1
                assert (table.tps[-1], table.fps[-1]) == ((labels == 1).sum(), (labels == 0).sum())

    def test_unused_rows_stay_out_of_the_histogram_range(self):
        # No line uses row 1, so no score of it may stretch the bins to 0.
        scores = np.array([3.0, 1.0, 1.0, 3.0])
        doc_rows = np.array([0, 2, 2, 0])
        labels = np.array([0, 1, 1, 0])
        table = score_table(scores, labels, doc_rows)
        assert table.histogram(2).bins == [(1.0, 2.0, 0, 2), (2.0, 3.0, 2, 0)]
        assert table.thresholds.tolist() == [3.0, 1.0]

    def test_documents_that_disagree_with_their_row_are_evaluated_alone(self):
        # A faulty scorer's NaN for one line of a shared row is not hidden.
        scores = np.array([1.0, np.nan, 1.0, 0.5])
        doc_rows = np.array([0, 0, 0, 1])
        labels = np.array([0, 1, 0, 1])
        table = score_table(scores, labels, doc_rows)
        assert np.isnan(table.auc())
        for got, want in zip(table, score_table(scores, labels)):
            np.testing.assert_array_equal(got, want)
        assert np.isnan(table.histogram(4).bins[-1][0])

    def test_single_document_rows_and_ties_across_rows(self):
        # Rows 0 and 2 hold equal scores: one threshold with both rows' counts.
        row_scores = np.array([0.5, 2.0, 0.5])
        doc_rows = np.array([0, 1, 2, 2])
        labels = np.array([1, 1, 0, 0])
        table = score_table(row_scores[doc_rows], labels, doc_rows)
        assert table.thresholds.tolist() == [2.0, 0.5]
        assert table.tps.tolist() == [1, 2] and table.fps.tolist() == [0, 2]
        assert table.auc() == score_table(row_scores[doc_rows], labels).auc() == 0.75

    @pytest.mark.parametrize("labels", [[1, 0, 2, 1], [1, 0, 0.5, 1], [1, 0, -1, 1]],
                             ids=["two", "half", "minus_one"])
    def test_labels_other_than_0_and_1_are_refused(self, labels):
        # Such a document would count as neither class, and vanish from every metric.
        with pytest.raises(ValueError, match="labels must be 0 .normal. or 1 .anomalous."):
            score_table([0.1, 0.2, 0.3, 0.4], labels)
        with pytest.raises(ValueError, match="labels must be 0"):
            score_table([0.1, 0.2, 0.3, 0.4], labels, np.array([0, 1, 1, 0]))


class TestEvalReport:
    def _report(self):
        return EvalReport(
            auc=0.9,
            best_f1=0.5,
            best_threshold=0.25,
            timings={"load": 0.1, "fit": 0.2, "score": 0.3},
            histogram=score_table([0.0, 1.0], [0, 1]).histogram(2),
            meta={"dataset": "d", "representation": "words", "model": "rm", "scenario": "unfiltered"},
        )

    def test_model_time_additivity(self):
        timings = {"load": 0.1, "fit": 0.2, "score": 0.3}
        report = EvalReport(None, None, None, timings, None)
        assert report.model_time == pytest.approx(timings["fit"] + timings["score"], abs=1e-12)
        # A report built by hand may have no fit stage.
        assert EvalReport(None, None, None, {"score": 0.3}, None).model_time == 0.3

    def test_json_round_trip(self):
        data = json.loads(self._report().to_json())
        assert data["auc"] == 0.9
        assert data["model_time"] == pytest.approx(0.5)
        assert data["meta"]["model"] == "rm"
        assert len(data["histogram"]) == 2

    def test_grid_row_aligns_with_columns(self):
        row = self._report().grid_row()
        assert len(row) == len(GRID_COLUMNS)
        assert row[:4] == ["d", "words", "rm", "unfiltered"]
        assert row[GRID_COLUMNS.index("model_s")] == repr(0.5)
