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
from typing import Sequence

import numpy as np


def auc_roc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-based AUC-ROC with midranks for ties, O(n log n); NaN if any
    score is NaN.

    ``labels`` are 1 for anomalous, 0 for normal; both classes must be
    present, otherwise the metric is undefined and a ValueError is raised.
    The Mann-Whitney U comes from the best-F1 threshold table: the normal
    items of a tie run rank below the anomalous items of every higher run
    and tie with those of their own run, so
    ``2U = sum(d_fp[i] * (tp[i - 1] + tp[i]))``.  2U and 2PN are exact
    integers, so one division gives the bits of the midrank formula.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise ValueError(f"{s.shape[0]} scores but {y.shape[0]} labels")
    n_pos = int((y == 1).sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC-ROC is undefined for single-class labels")
    if np.isnan(s).any():
        return float("nan")
    _, tps, fps = _threshold_table(s, y)
    tp_before = np.r_[0, tps[:-1]]
    two_u = int(np.diff(fps, prepend=0) @ (tp_before + tps))
    return two_u / (2 * n_pos * n_neg)


def _f1_counts(tp: int, fp: int, n_pos: int) -> float:
    denom = 2 * tp + fp + (n_pos - tp)
    return 2.0 * tp / denom if denom else 0.0


def _threshold_table(scores: np.ndarray, labels: np.ndarray):
    """Unique candidate thresholds (descending) with cumulative tp/fp.

    Predicting anomalous means score >= threshold, so each unique score is
    one candidate decision boundary.
    """
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    cum_tp = np.cumsum(y == 1)
    cum_fp = np.cumsum(y == 0)
    # The last index of each tie run; equal infinities are one run.
    last = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    return s[last], cum_tp[last], cum_fp[last]


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
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise ValueError(f"{s.shape[0]} scores but {y.shape[0]} labels")
    n_pos = int((y == 1).sum())
    if n_pos == 0:
        raise ValueError("F1 is undefined without positive labels")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")

    thresholds, tps, fps = _threshold_table(s, y)
    if budget is None or budget >= len(thresholds) + 1:
        return _best_f1_exact(thresholds, tps, fps, n_pos)
    return _best_f1_budgeted(thresholds, tps, fps, n_pos, budget)


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

    Counts are split by label and conserved; a degenerate score range
    collapses to a single bin.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.size == 0:
        return Histogram(bins=[])
    lo, hi = float(s.min()), float(s.max())
    if lo == hi:
        nc = int((y == 0).sum())
        ac = int((y == 1).sum())
        return Histogram(bins=[(lo, hi, nc, ac)])
    width = (hi - lo) / n_bins
    idx = np.clip(((s - lo) / width).astype(int), 0, n_bins - 1)
    normal = np.bincount(idx[y == 0], minlength=n_bins).tolist()
    anomaly = np.bincount(idx[y == 1], minlength=n_bins).tolist()
    return Histogram(bins=[
        (lo + b * width, hi if b == n_bins - 1 else lo + (b + 1) * width, normal[b], anomaly[b])
        for b in range(n_bins)
    ])


GRID_COLUMNS = [
    "dataset",
    "representation",
    "model",
    "scenario",
    "auc",
    "f1",
    "threshold",
    "fit_s",
    "score_s",
    "model_s",
    "load_s",
    "normalize_s",
    "represent_s",
    "vectorize_s",
]


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
        def fmt(x) -> str:
            if x is None:
                return ""
            return repr(float(x))

        t = self.timings
        return [
            str(self.meta.get("dataset", "")),
            str(self.meta.get("representation", "")),
            str(self.meta.get("model", "")),
            str(self.meta.get("scenario", "")),
            fmt(self.auc),
            fmt(self.best_f1),
            fmt(self.best_threshold),
            fmt(t.get("fit")),
            fmt(t.get("score")),
            fmt(self.model_time),
            fmt(t.get("load")),
            fmt(t.get("normalize")),
            fmt(t.get("represent")),
            fmt(t.get("vectorize")),
        ]
