"""Evaluation: AUC-ROC, best-F1 threshold search, histograms, the report.

AUC-ROC is the probability that a randomly chosen anomalous item is ranked
above a randomly chosen normal one; tied pairs count one half.  It is
threshold-free, which is why it is the primary metric here.  F1 needs a
threshold, and picking one uses the labels, so every report carries an
explicit label-assisted marker for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np


class ScoreTable(NamedTuple):
    """The distinct scores of one evaluation, descending, with the number of
    anomalous (``tps``) and normal (``fps``) documents scoring at or above
    each: every candidate threshold with its cumulative true and false
    positives.  Predicting anomalous means score >= threshold.

    AUC-ROC, both best-F1 modes and the histogram read this one table.  All
    its counts are integers, so a table built from stored rows gives every
    output the bits of the per-document table.
    """

    thresholds: np.ndarray
    tps: np.ndarray
    fps: np.ndarray

    def _totals(self) -> tuple[int, int]:
        """(anomalous, normal) documents."""
        return (int(self.tps[-1]), int(self.fps[-1])) if len(self.tps) else (0, 0)

    def auc(self) -> float:
        """Rank-based AUC-ROC with midranks for ties; NaN if any score is NaN.

        Both classes must be present, otherwise the metric is undefined and
        a ValueError is raised.  The normal documents of a tie run rank
        below the anomalous documents of every higher run and tie with those
        of their own run, so the Mann-Whitney statistic is
        ``2U = sum(d_fp[i] * (tp[i - 1] + tp[i]))``.  2U and 2PN are exact
        integers, so one division gives the bits of the midrank formula.
        """
        n_pos, n_neg = self._totals()
        if n_pos == 0 or n_neg == 0:
            raise ValueError("AUC-ROC is undefined for single-class labels")
        if np.isnan(self.thresholds[-1]):
            return float("nan")
        tps, fps = self.tps, self.fps
        two_u = int(np.diff(fps, prepend=0) @ (np.r_[0, tps[:-1]] + tps))
        return two_u / (2 * n_pos * n_neg)

    def best_f1(self, budget: int | None = None) -> tuple[float, float]:
        """Best F1 over the thresholds, as (threshold, f1); see ``best_f1``."""
        n_pos = self._totals()[0]
        if n_pos == 0:
            raise ValueError("F1 is undefined without positive labels")
        if budget is not None and budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if budget is None or budget >= len(self.thresholds) + 1:
            return _best_f1_exact(self.thresholds, self.tps, self.fps, n_pos)
        return _best_f1_budgeted(self.thresholds, self.tps, self.fps, n_pos, budget)

    def histogram(self, n_bins: int) -> Histogram:
        """The score histogram; see ``score_histogram``."""
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {n_bins}")
        s = self.thresholds
        normal, anomaly = (np.diff(counts, prepend=0) for counts in (self.fps, self.tps))
        # NaN scores are one entry, the last, and are counted in a bin of their own.
        n = len(s) - bool(len(s) and np.isnan(s[-1]))
        nan_bin = [(np.nan, np.nan, int(normal[n]), int(anomaly[n]))] if n < len(s) else []
        if n == 0:
            return Histogram(bins=nan_bin)
        lo, hi = float(s[n - 1]), float(s[0])  # the thresholds descend
        # A degenerate score range is one bin.
        edges = np.r_[lo + np.arange(n_bins) * ((hi - lo) / n_bins), hi] if lo < hi else [lo, hi]
        normal, anomaly = (np.histogram(s[:n], edges, weights=counts[:n])[0].tolist()
                           for counts in (normal, anomaly))
        edges = np.asarray(edges).tolist()
        return Histogram(bins=[*zip(edges[:-1], edges[1:], normal, anomaly), *nan_bin])


def score_table(
    scores: Sequence[float], labels: Sequence[int], doc_rows: np.ndarray | None = None
) -> ScoreTable:
    """The threshold table of per-document ``scores`` and ``labels`` (1 for
    anomalous, 0 for normal).

    The table is built over the rows of ``doc_rows`` (a ``DocTermMatrix`` row
    map; without one, document d is row d) that some document uses, each
    with the count of its anomalous and normal documents, at the cost of the
    rows; it is the per-document table, because the documents of a row carry
    the row's score.  If they do not (a faulty scorer), the table is built
    per document, so that no document's score is hidden.  A score of -0.0 counts as 0.0, and all NaN
    scores are one entry, the last, as equal infinities are one entry.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise ValueError(f"{s.shape[0]} scores but {y.shape[0]} labels")
    rows = np.arange(len(s)) if doc_rows is None else np.asarray(doc_rows)
    n_rows = int(rows.max()) + 1 if len(rows) else 0
    row_scores = np.zeros(n_rows)
    row_scores[rows] = s
    if not np.array_equal(row_scores[rows].view(np.int64), s.view(np.int64)):
        return score_table(s, y)
    docs = np.bincount(rows, minlength=n_rows)
    used = docs > 0
    # Adding 0.0 turns -0.0 into 0.0, so equal scores have equal bits.
    row_scores = row_scores[used] + 0.0
    order = np.argsort(-row_scores)
    s = row_scores[order]
    # A row's normal documents are all but those labelled otherwise, so the
    # per-document gathers cover only the rare labels.
    tps = np.cumsum(np.bincount(rows[y == 1], minlength=n_rows)[used][order])
    fps = np.cumsum((docs - np.bincount(rows[y != 0], minlength=n_rows))[used][order])
    # The last entry of each run of equal scores (NaNs sort last and are one
    # run); the slice leaves none when there are no scores.
    last = np.flatnonzero(np.r_[(s[1:] != s[:-1]) & ~np.isnan(s[:-1]), True][:len(s)])
    return ScoreTable(s[last], tps[last], fps[last])


def auc_roc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-based AUC-ROC with midranks for ties, O(n log n); NaN if any
    score is NaN.

    ``labels`` are 1 for anomalous, 0 for normal; both classes must be
    present, otherwise the metric is undefined and a ValueError is raised.
    See ``ScoreTable.auc``.
    """
    return score_table(scores, labels).auc()


def _f1_counts(tp: int, fp: int, n_pos: int) -> float:
    denom = 2 * tp + fp + (n_pos - tp)
    return 2.0 * tp / denom if denom else 0.0


def best_f1(
    scores: Sequence[float], labels: Sequence[int], budget: int | None = None
) -> tuple[float, float]:
    """Best F1 over thresholds, as (threshold, f1).

    Default is an exact sweep of every unique score plus one value above
    the maximum (the objective is piecewise constant, so this hits the
    global optimum); among equally good thresholds the smallest wins.
    A finite ``budget`` caps the number of threshold evaluations using
    iterative refinement over score quantiles, mirroring a bounded
    optimization loop.  Requires at least one positive label.
    """
    return score_table(scores, labels).best_f1(budget)


def _best_f1_exact(thresholds, tps, fps, n_pos) -> tuple[float, float]:
    # Above-max threshold predicts nothing anomalous: F1 = 0 baseline.
    best_thr = float(thresholds[0]) + 1.0
    best_tp, best_fp = 0, 0
    for i in range(len(thresholds)):
        tp, fp = int(tps[i]), int(fps[i])
        # integer cross-comparison avoids float ties: f1 = 2tp / (tp + fp + P)
        if tp * (best_tp + best_fp + n_pos) >= best_tp * (tp + fp + n_pos):
            best_tp, best_fp, best_thr = tp, fp, float(thresholds[i])
    return best_thr, _f1_counts(best_tp, best_fp, n_pos)


def _best_f1_budgeted(thresholds, tps, fps, n_pos, budget) -> tuple[float, float]:
    # thresholds are descending; work in index space over the unique scores.
    n = len(thresholds)
    evaluated: dict[int, float] = {}

    def f1_at(i: int) -> float:
        if i not in evaluated:
            evaluated[i] = _f1_counts(int(tps[i]), int(fps[i]), n_pos)
        return evaluated[i]

    lo, hi = 0, n - 1
    best_i = 0
    while len(evaluated) < budget:
        room = budget - len(evaluated)
        probes = np.unique(np.linspace(lo, hi, num=min(room, 5) + 2).round().astype(int))
        fresh = [int(i) for i in probes if int(i) not in evaluated][:room]
        if not fresh:
            break
        for i in fresh:
            f1_at(i)
        # recenter on the best index seen so far, preferring lower thresholds
        best_i = max(sorted(evaluated), key=lambda i: (evaluated[i], i))
        known = sorted(evaluated)
        pos = known.index(best_i)
        lo = known[pos - 1] if pos > 0 else max(0, best_i - 1)
        hi = known[pos + 1] if pos + 1 < len(known) else min(n - 1, best_i + 1)
        if hi - lo <= 1:
            break
    return float(thresholds[best_i]), evaluated[best_i]


@dataclass
class Histogram:
    """Equal-width score histogram with per-label counts."""

    bins: list[tuple[float, float, int, int]]  # (low, high, normal, anomaly)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("bin_low,bin_high,normal_count,anomaly_count\n")
            for low, high, nc, ac in self.bins:
                fh.write(f"{low!r},{high!r},{nc},{ac}\n")


def score_histogram(
    scores: Sequence[float], labels: Sequence[int], n_bins: int
) -> Histogram:
    """Bin scores over [min, max] into ``n_bins`` equal-width bins.

    Each bin counts the scores in its printed [low, high), and the last bin
    also those at max.  Counts are split by label and conserved; a
    degenerate score range collapses to a single bin, and NaN scores are
    counted in one trailing (nan, nan) bin.
    """
    return score_table(scores, labels).histogram(n_bins)


# The grid.csv columns, in order: meta fields, metrics (column -> EvalReport
# attribute), then timings in seconds (column "<stage>_s"; "model" is fit
# plus score).
_GRID_META = ("dataset", "representation", "model", "scenario")
_GRID_METRICS = {"auc": "auc", "f1": "best_f1", "threshold": "best_threshold"}
_GRID_TIMINGS = ("fit", "score", "model", "load", "normalize", "represent", "vectorize")
GRID_COLUMNS = [*_GRID_META, *_GRID_METRICS, *(f"{stage}_s" for stage in _GRID_TIMINGS)]


@dataclass
class EvalReport:
    """One run's metrics, timings and histogram, plus identifying metadata."""

    auc: float | None
    best_f1: float | None
    best_threshold: float | None
    timings: dict[str, float]
    histogram: Histogram | None
    meta: dict = field(default_factory=dict)

    @property
    def model_time(self) -> float:
        """Fit plus score time, the per-model figure reported by the run."""
        return self.timings.get("fit", 0.0) + self.timings.get("score", 0.0)

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "best_f1": self.best_f1,
            "best_threshold": self.best_threshold,
            "model_time": self.model_time,
            "timings": self.timings,
            "histogram": None if self.histogram is None else self.histogram.bins,
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def grid_row(self) -> list[str]:
        """The report's grid.csv row, in ``GRID_COLUMNS`` order."""
        timings = {**self.timings, "model": self.model_time}
        values = ([getattr(self, name) for name in _GRID_METRICS.values()]
                  + [timings.get(stage) for stage in _GRID_TIMINGS])
        return ([str(self.meta.get(name, "")) for name in _GRID_META]
                + ["" if x is None else repr(float(x)) for x in values])
