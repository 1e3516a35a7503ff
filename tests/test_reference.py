"""Whole runs against the naive reference pipeline (``reference.py``).

``execute``, ``run_grid`` and ``run_repeats`` run on small generated corpora: bgl lines, hdfs
blocks (with lines that name several blocks) and hadoop application logs,
under both scenarios.  Messages include non-ASCII text, empty and one- or
two-character messages, and either repeat heavily or are all distinct.

Each cell's per-document scores are captured by wrapping the score
functions that ``logad.pipeline`` calls.  They must equal the reference's:
bit for bit where both sum in one order, else within the tolerance below.
The reference evaluators, given the captured scores and the reference's
labels, must give the report's AUC, best F1, threshold and histogram
exactly, and the report's document and term counts must be the
reference's.  A draw that the pipeline rejects with ValueError the
reference must reject too.

Tolerance.  Only the k-means scores differ in their last bits.  The library
expands a squared distance as |x|^2 + |c|^2 - 2 x.c, summing |c|^2 with
einsum; the reference sums (x - c)^2.  Tf-idf rows have unit norm and
centroids at most unit norm, so both squared distances are within a few
ulp of 1 (about 1e-15) of the true one, and their square roots within
sqrt(1e-15) < 1e-7 of each other, also at distance 0.
"""

import tempfile
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from logad import pipeline
from logad.pipeline import RunConfig, execute, grid_cells, run_grid, run_repeats
from reference import pairwise_auc, reference_best_f1, reference_bins, reference_run

KMEANS_ATOL = 1e-7
SCORE_NAMES = ("oovd_score", "rm_score", "kmeans_score", "iforest_score")

# Words that Drain can merge, digits that normalize to "0", and non-ASCII
# letters whose lowercase is longer ("İ") or depends on context ("Σ").
WORDS = st.sampled_from(["send", "Recv", "42", "7", "0x1F", "é", "İ0", "Σ", "aΣ", "ok"])
MESSAGES = st.one_of(
    st.lists(WORDS, min_size=1, max_size=5).map(" ".join),
    st.text(alphabet="aé0 İΣ", max_size=2),  # empty and short messages
)
BGL_HEADER = "1117838570 2005.06.03 R02-M1-N0 2005-06-03-15.42.50 R02-M1-N0 RAS KERNEL INFO"


@st.composite
def corpora(draw):
    """(adapter, files): each file's name and text, ``labels.csv`` included."""
    adapter = draw(st.sampled_from(["bgl", "hdfs", "hadoop"]))
    n = draw(st.integers(6, 30))
    if draw(st.booleans()):  # every message distinct
        messages = draw(st.lists(MESSAGES, min_size=n, max_size=n, unique=True))
    else:  # a few messages, repeated
        pool = draw(st.lists(MESSAGES, min_size=1, max_size=3, unique=True))
        messages = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                                    min_size=n, max_size=n))]
    # Every third line or every second unit is anomalous, unless the draw
    # flips it, so that most draws hold both classes on both sides.
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if adapter == "bgl":
        lines = [f"{'KERNDTLB' if (i % 3 == 0) != flip else '-'} {BGL_HEADER} {msg}"
                 for i, (flip, msg) in enumerate(zip(flips, messages))]
        return adapter, {"log": "\n".join(lines) + "\n"}
    # Line i belongs to unit i % n_keys, and perhaps to one more.
    n_keys = draw(st.integers(5, min(n, 10)))
    keys = [[i % n_keys, *draw(st.lists(st.integers(0, n_keys - 1), max_size=1))]
            for i in range(n)]
    # In about one draw of ten the last unit has no label, which no run accepts.
    unlabeled = n_keys - 1 if draw(st.integers(0, 9)) == 5 else None
    labels = "key,label\n" + "".join(
        f"{'blk' if adapter == 'hdfs' else 'app'}_{k},{'Anomaly' if k % 2 != flip else 'Normal'}\n"
        for k, flip in enumerate(flips[:n_keys]) if k != unlabeled)
    if adapter == "hdfs":
        lines = [f"081109 203615 148 INFO dfs.DataNode: {msg} "
                 + " ".join(f"blk_{k}" for k in line_keys)
                 for msg, line_keys in zip(messages, keys)]
        return adapter, {"log": "\n".join(lines) + "\n", "labels.csv": labels}
    files = {"labels.csv": labels}
    for msg, (k, *_) in zip(messages, keys):
        name = f"log/app_{k}.log"
        files[name] = files.get(name, "") + f"2015-10-17 15:37:56,000 INFO [main] {msg}\n"
    return adapter, files


def configs():
    return st.builds(
        RunConfig,
        input=st.just("log"),
        scenario=st.sampled_from(["unfiltered", "normal_only"]),
        sample_fraction=st.sampled_from([1.0, 0.8]),
        train_fraction=st.sampled_from([0.25, 0.4, 0.6]),
        split_mode=st.sampled_from(["random", "chronological"]),
        seed=st.integers(0, 3),
        k=st.integers(1, 3),
        n_trees=st.integers(1, 4),
        subsample=st.sampled_from([2, 3, 256]),
        n_bins=st.integers(1, 8),
    )


def _write(tmp, adapter, files, config):
    for name, text in files.items():
        path = tmp / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return replace(config, input=tmp / "log", adapter=adapter,
                   labels=tmp / "labels.csv" if "labels.csv" in files else None)


def _captured(run, config):
    """``run(config)``, or None where it raises ValueError, and the score
    vector of each cell it ran, in order."""
    scores = []

    def wrap(score):
        def wrapped(*args):
            out = score(*args)
            scores.append(out)
            return out
        return wrapped

    with ExitStack() as stack:
        for name in SCORE_NAMES:
            stack.enter_context(mock.patch.object(pipeline, name, wrap(getattr(pipeline, name))))
        try:
            return run(config), scores
        except ValueError:
            return None, scores


def _reference_or_none(config):
    try:
        return reference_run(config)
    except ValueError:
        return None


def _check_cell(config, report, scores, ref):
    assert scores.dtype == np.float64 and scores.shape == ref.scores.shape
    if config.model == "kmeans":
        assert np.abs(scores - ref.scores).max() <= KMEANS_ATOL
    else:
        assert scores.tobytes() == ref.scores.tobytes(), (scores, ref.scores)
    assert report.auc == pairwise_auc(scores, ref.labels)
    assert (report.best_threshold, report.best_f1) == reference_best_f1(scores, ref.labels)
    assert report.histogram.bins == reference_bins(scores, ref.labels, config.n_bins)
    meta = report.meta
    assert (meta["n_train_docs"], meta["n_test_docs"], meta["n_terms"]) == (
        ref.n_train_docs, ref.n_test_docs, ref.n_terms)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora(), configs(), st.data())
def test_execute_matches_reference(corpus, config, data):
    adapter, files = corpus
    rep, model = data.draw(st.sampled_from(grid_cells(config.scenario)))
    config = replace(config, representation=rep, model=model)
    with tempfile.TemporaryDirectory() as tmp:
        config = _write(Path(tmp), adapter, files, config)
        ref = _reference_or_none(config)
        result, scores = _captured(execute, config)
    event(f"execute {config.adapter} {'ran' if result else 'rejected'}")
    if result is None:
        assert ref is None, "the pipeline rejected a run that the reference accepts"
        return
    assert ref is not None, "the reference rejected a run that the pipeline accepts"
    [cell_scores] = scores
    _check_cell(config, result[0], cell_scores, ref)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora(), configs())
def test_grid_matches_reference(corpus, config):
    adapter, files = corpus
    with tempfile.TemporaryDirectory() as tmp:
        config = _write(Path(tmp), adapter, files, config)
        cells = [replace(config, representation=rep, model=model)
                 for rep, model in grid_cells(config.scenario)]
        refs = [_reference_or_none(cell) for cell in cells]
        reports, scores = _captured(run_grid, config)
    event(f"grid {config.adapter} {'ran' if reports else 'rejected'}")
    if reports is None:
        assert None in refs, "the pipeline rejected a grid whose every cell the reference accepts"
        return
    assert None not in refs, "the reference rejected a cell of a grid that the pipeline ran"
    assert len(reports) == len(scores) == len(cells)
    for cell, report, cell_scores, ref in zip(cells, reports, scores, refs):
        assert (report.meta["representation"], report.meta["model"]) == (
            cell.representation, cell.model)
        _check_cell(cell, report, cell_scores, ref)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora(), configs(), st.data())
def test_repeats_match_reference(corpus, config, data):
    # Each seed's cell is the reference's run of that seed.  The run stops
    # at the first seed that the reference rejects, after the seeds before it.
    adapter, files = corpus
    rep, model = data.draw(st.sampled_from(grid_cells(config.scenario)))
    config = replace(config, representation=rep, model=model)
    with tempfile.TemporaryDirectory() as tmp:
        config = _write(Path(tmp), adapter, files, config)
        seeds = [replace(config, seed=config.seed + i) for i in range(3)]
        refs = [_reference_or_none(seeded) for seeded in seeds]
        result, scores = _captured(lambda c: run_repeats(c, 3), config)
    event(f"repeats {config.adapter} {'ran' if result else 'rejected'}")
    if result is None:
        assert None in refs, "the pipeline rejected repeats whose every seed the reference accepts"
        reports = [None] * refs.index(None)
    else:
        assert None not in refs, "the reference rejected a seed of repeats that the pipeline ran"
        reports = result[0]
    assert len(reports) == len(scores)
    for seeded, report, cell_scores, ref in zip(seeds, reports, scores, refs):
        if report is not None:
            assert report.meta["seed"] == seeded.seed
            _check_cell(seeded, report, cell_scores, ref)


@pytest.mark.parametrize("adapter", ["bgl", "hdfs", "hadoop"])
def test_a_fixed_grid_runs(adapter, tmp_path):
    """A corpus of each adapter that both pipelines run, so that the
    comparisons above are not vacuous: the train side is the first half,
    and each side holds both classes."""
    messages = [f"Send {'abcdefg'[i % 7]}{i} é" if i % 3 else "Σ" for i in range(24)]
    if adapter == "bgl":
        files = {"log": "".join(f"{'KERNDTLB' if i % 4 == 1 else '-'} {BGL_HEADER} {m}\n"
                                for i, m in enumerate(messages))}
    else:
        # Six units, in order; the second and the fifth are anomalous.
        name = "blk" if adapter == "hdfs" else "app"
        files = {"labels.csv": "key,label\n" + "".join(
            f"{name}_{k},{'Anomaly' if k in (1, 4) else 'Normal'}\n" for k in range(6))}
        for i, m in enumerate(messages):
            if adapter == "hdfs":  # each line names two blocks
                files["log"] = files.get("log", "") + (
                    f"081109 203615 148 INFO dfs.DataNode: {m} blk_{i // 4} blk_{i % 2}\n")
            else:
                path = f"log/app_{i // 4}.log"
                files[path] = files.get(path, "") + f"x INFO [main] {m}\n"
    config = _write(tmp_path, adapter, files, RunConfig(
        input="log", adapter=adapter, scenario="normal_only", train_fraction=0.5, split_mode="chronological",
        k=2, n_trees=3))
    reports, scores = _captured(run_grid, config)
    assert len(reports) == len(scores) == 12
    for report, cell_scores in zip(reports, scores):
        cell = replace(config, representation=report.meta["representation"],
                       model=report.meta["model"])
        _check_cell(cell, report, cell_scores, reference_run(cell))
