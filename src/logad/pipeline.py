"""End-to-end experiment pipeline: configuration, one run, grid and repeated runs.

A run executes load (which normalizes each block of lines as it reads
it), sample, split, optional normal-only filtering, representation,
vectorization, model fit and scoring, and evaluation.  Everything fitted
(vocabulary, templates, idf statistics, models) sees training data only;
the template miner in particular is trained on the train side and applied
read-only to the test side.

One chain of stages serves a single run, a grid and repeated seeds alike:
load and normalize run once per input; sample, split and filter once per
seed; representation, the vocabulary and the matrices that its cells read
once per representation and seed; and fit, score and evaluation once per
cell.  Evaluation reads one threshold table per cell, built from the
scores of the stored rows.  Each distinct normalized message is tokenized
once and, on both sides, counted once: a sequence unit's count row is the
exact sum of its messages' rows, and a line maps to its message's row,
which is scored once.
"""

from __future__ import annotations

import csv
import json
import numbers
import os
import time
from dataclasses import asdict, dataclass, replace
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .detect import (
    IForestModel,
    KMeansModel,
    RarityModel,
    iforest_fit,
    iforest_score,
    kmeans_fit,
    kmeans_score,
    oovd_score,
    rm_fit,
    rm_score,
)
from .evaluate import GRID_COLUMNS, EvalReport, score_table
from .ingest import (
    ADAPTERS,
    Label,
    RecordSet,
    SplitMode,
    SplitSpec,
    filter_normal,
    load,
    sample,
    split,
)
from .normalize import normalize_block
from .represent import DrainParser, TokenSeq, tokenize_trigrams, tokenize_words
from .vectorize import (
    DocTermMatrix, Vocabulary, Weighting, count_units, fit_units, tfidf_weighting,
)

REPRESENTATIONS = ("words", "trigrams", "events")
SCENARIOS = ("unfiltered", "normal_only")

class _Model(NamedTuple):
    """All that the pipeline knows of one model; a matrix is named by its ``Weighting``.

    Every model fits and scores through the same two calls.  The lambdas
    look the layer functions up in this module when they run, so a name
    replaced after import (to trace a run, say) is the one called.
    """

    train: Weighting | None  # None: the model reads no train matrix
    test: Weighting
    fit: Callable  # (config, vocab, train_m) -> model
    score: Callable  # (model, test_m) -> scores
    # (config) -> the fewest train units the model fits on, and their name in an error
    min_train: Callable = lambda config: (1, config.model)
    unfiltered_error: str | None = None  # why it cannot train unfiltered, or None


_MODEL_TABLE = {
    "oovd": _Model(
        None, Weighting.COUNT,
        lambda config, vocab, train_m: vocab,  # its model is the train vocabulary
        lambda model, m: oovd_score(model, m),
        unfiltered_error="oovd counts terms missing from the training vocabulary, which is "
        "meaningless when anomalies train the vocabulary; use scenario normal_only",
    ),
    "rm": _Model(
        None, Weighting.TFIDF,
        lambda config, vocab, train_m: rm_fit(vocab),
        lambda model, m: rm_score(model, m),
    ),
    "kmeans": _Model(
        Weighting.TFIDF, Weighting.TFIDF,
        lambda config, vocab, train_m: kmeans_fit(train_m, config.k, config.seed),
        lambda model, m: kmeans_score(model, m),
        lambda config: (config.k, f"k={config.k}"),
    ),
    "iforest": _Model(
        Weighting.TFIDF, Weighting.TFIDF,
        lambda config, vocab, train_m: iforest_fit(
            train_m, config.n_trees, config.subsample, config.seed
        ),
        lambda model, m: iforest_score(model, m),
        lambda config: (2, "iforest's minimum of 2"),
    ),
}
MODELS = tuple(_MODEL_TABLE)


class ConfigError(ValueError):
    """Invalid or contradictory run configuration."""


def _cell_error(model: str, scenario: str) -> str | None:
    """Why ``model`` cannot run under ``scenario``, or None if it can."""
    return _MODEL_TABLE[model].unfiltered_error if scenario == "unfiltered" else None


def _check_count(name: str, value, low: int) -> None:
    """Raise ``ConfigError`` unless ``value`` is an integer, not a bool, >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")


# Each choice parameter's valid values, in a tuple, as a JSON list is unhashable.
_CHOICES = {"adapter": tuple(ADAPTERS), "representation": REPRESENTATIONS, "model": MODELS,
            "scenario": SCENARIOS, "split_mode": tuple(m.value for m in SplitMode)}

# Smallest valid value of each integer run parameter (``f1_budget`` may
# also be None).  A subsample of one document gives the isolation forest a
# zero path-length normalizer.
_LOWER_BOUNDS = {
    "seed": 0, "k": 1, "n_trees": 1, "subsample": 2, "n_bins": 1, "depth": 3, "f1_budget": 1
}


@dataclass
class RunConfig:
    input: str | Path
    adapter: str = "plain"
    labels: str | Path | None = None
    representation: str = "words"
    model: str = "rm"
    scenario: str = "unfiltered"
    sample_fraction: float = 1.0
    train_fraction: float = 0.05
    split_mode: str = "random"
    seed: int = 0
    k: int = 8
    n_trees: int = 100
    subsample: int = 256
    sim_threshold: float = 0.4
    depth: int = 4
    f1_budget: int | None = None
    n_bins: int = 50
    out_dir: str | Path | None = None
    dump_templates: bool = False

    def validate(self) -> None:
        for name in ("input", "labels", "out_dir"):
            value = getattr(self, name)
            if not isinstance(value, (str, os.PathLike)) and (name == "input" or value is not None):
                raise ConfigError(f"{name} must be a path, got {value!r}")
        if self.out_dir is not None:
            out = Path(self.out_dir)
            if not (found := next(p for p in (out, *out.parents) if p.exists())).is_dir():
                raise ConfigError(f"out_dir {out} cannot be made: {found} is not a directory")
        if not isinstance(self.dump_templates, bool):
            raise ConfigError(f"dump_templates must be true or false, got {self.dump_templates!r}")
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}")
        cell_error = _cell_error(self.model, self.scenario)
        if cell_error is not None:
            raise ConfigError(cell_error)
        for name, low in _LOWER_BOUNDS.items():
            value = getattr(self, name)
            if value is not None or name != "f1_budget":
                _check_count(name, value, low)
        for name in ("sample_fraction", "train_fraction", "sim_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError(f"sample_fraction must be in (0, 1], got {self.sample_fraction}")
        if not 0.0 < self.sim_threshold < 1.0:
            raise ConfigError(f"sim_threshold must be in (0, 1), got {self.sim_threshold}")
        try:
            SplitSpec(self.train_fraction)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.adapter == "plain":  # its lines are unlabeled, and every run evaluates them
            raise ConfigError("plain input has no labels to evaluate; use a labeled adapter, one "
                              f"of {tuple(a for a in ADAPTERS if a != 'plain')}, or logad.load")

    def tag(self) -> str:
        return (
            f"{Path(self.input).stem}_{self.representation}_{self.model}"
            f"_{self.scenario}_seed{self.seed}"
        )

    def params_snapshot(self) -> dict:
        snap = asdict(self)
        snap["input"] = str(snap["input"])
        snap["labels"] = None if snap["labels"] is None else str(snap["labels"])
        snap["out_dir"] = None if snap["out_dir"] is None else str(snap["out_dir"])
        return snap


@dataclass
class FittedArtifacts:
    """Everything a run fitted on training data, exposed for inspection."""

    vocabulary: Vocabulary
    drain: DrainParser | None
    model: Vocabulary | RarityModel | KMeansModel | IForestModel  # oovd's is the vocabulary


_TOKENIZERS = {"words": tokenize_words, "trigrams": tokenize_trigrams}


def _timed(timings: dict[str, float], stage: str, fn: Callable, *args):
    """Return ``fn(*args)``; its wall-clock seconds go to ``timings[stage]``."""
    t0 = time.perf_counter()
    result = fn(*args)
    timings[stage] = time.perf_counter() - t0
    return result


def _test_labels(test_rs: RecordSet) -> np.ndarray:
    """0/1 labels of the test units (lines or sequences, in document order).

    Raises unless every unit is labeled and both classes occur, so a run
    that cannot be evaluated stops before representation.
    """
    codes = test_rs.unit_codes()
    if (codes == Label.UNKNOWN).any():
        raise ValueError(
            "evaluation needs Normal/Anomaly labels on every test unit; "
            "got an unknown label (unlabeled input with metrics requested?)"
        )
    y = (codes == Label.ANOMALY).astype(np.int64)
    if y.min() == y.max():
        raise ValueError(
            "evaluation needs both Normal and Anomaly labels on the test side; "
            f"every test unit is labeled {'anomaly' if y[0] else 'normal'}"
        )
    return y


def _represent(config: RunConfig, train_rs: RecordSet, test_rs: RecordSet) -> tuple[
    tuple[list[TokenSeq], np.ndarray], tuple[list[TokenSeq], np.ndarray], DrainParser | None
]:
    """Tokenize each distinct message once; template mining fits on every
    train line and parses the test side read-only.

    Returns each side's distinct documents with the index of each record's
    document among them (train events: the distinct ids the fit gave the
    lines), and the parser.
    """
    drain = None
    test_msgs, test_ids = test_rs.distinct_messages()
    if config.representation == "events":
        drain = DrainParser(depth=config.depth, sim_threshold=config.sim_threshold)
        # Drain's similarity counts exact matches only, so a repeated message
        # can miss a template it helped to wildcard: the fit sees every line.
        events: dict[str, int] = {}
        train_ids = np.array([events.setdefault(drain.fit_line(msg), len(events))
                              for msg in train_rs.messages], dtype=np.int64)
        train_docs = [TokenSeq([event]) for event in events]
        test_docs = [TokenSeq([drain.parse_line(msg)]) for msg in test_msgs]
    else:
        tokenize = _TOKENIZERS[config.representation]
        train_msgs, train_ids = train_rs.distinct_messages()
        train_docs = [tokenize(msg) for msg in train_msgs]
        test_docs = [tokenize(msg) for msg in test_msgs]
    return (train_docs, train_ids), (test_docs, test_ids), drain


def _load_and_split(
    config: RunConfig, train_units: tuple[int, str], repeats: int = 1
) -> Iterator[tuple[RecordSet, RecordSet, np.ndarray, dict[str, float]]]:
    """Load and normalize once; then, for each of ``repeats`` seeds from
    ``config.seed`` on, sample, split and filter, check the split, and yield
    the two sides, the test labels and each stage's seconds.  Label and class
    errors, and fewer train units than ``train_units`` (from a model's
    ``min_train``) asks for, are raised here, before representation.
    """
    timings: dict[str, float] = {"normalize": 0.0}

    def normalizer(lines: list[str]) -> list[str]:
        t0 = time.perf_counter()
        out = normalize_block(lines)
        timings["normalize"] += time.perf_counter() - t0
        return out

    # Lines are normalized as they are read: "normalize" is the seconds
    # spent in the normalizer, and "load" the rest of the load.
    rs = _timed(timings, "load", load, config.input, config.adapter, config.labels, normalizer)
    timings["load"] -= timings["normalize"]
    needed, name = train_units
    for seed in range(config.seed, config.seed + repeats):
        seed_timings = dict(timings)
        drawn = rs
        if config.sample_fraction < 1.0:
            drawn = _timed(seed_timings, "sample", sample, rs, config.sample_fraction, seed)
        spec = SplitSpec(config.train_fraction, seed, SplitMode(config.split_mode))
        train_rs, test_rs = _timed(seed_timings, "split", split, drawn, spec)
        if seed == config.seed + repeats - 1:
            del rs, drawn  # from here on only the sides are held
        y = _test_labels(test_rs)
        if config.scenario == "normal_only":
            train_rs = _timed(seed_timings, "filter", filter_normal, train_rs)
            if not len(train_rs):
                raise ValueError(
                    "normal_only training needs Normal labels on the train side; "
                    "every train unit is labeled anomaly"
                )
        if needed > (n_train := train_rs.n_units):
            raise ValueError(
                f"{name} exceeds the {n_train} train units left by scenario "
                f"{config.scenario}; raise train_fraction"
            )
        yield train_rs, test_rs, y, seed_timings


class _Features:
    """One representation: its train vocabulary and the matrices its cells read.

    ``matrices`` maps (side, ``Weighting``) to a matrix; on either side the
    unit counts are kept, and weighted into a tf-idf, only if a cell reads
    that matrix.  ``timings`` are the shared ``timings`` plus ``represent``
    and ``vectorize``, the vocabulary fit and every matrix built here.
    """

    def __init__(self, cells: list[RunConfig], train_rs: RecordSet, test_rs: RecordSet,
                 timings: dict[str, float]):
        self.timings = t = dict(timings)
        (train_docs, train_ids), (test_docs, test_ids), self.drain = _timed(
            t, "represent", _represent, cells[0], train_rs, test_rs
        )
        t0 = time.perf_counter()
        self.vocab, train_counts = fit_units(train_docs, train_ids, train_rs.unit_ids,
                                             train_rs.n_units)
        test_counts = count_units(self.vocab.term_to_col, test_docs, test_ids,
                                  test_rs.unit_ids, test_rs.n_units)
        entries = [_MODEL_TABLE[cell.model] for cell in cells]
        reads = {("train", e.train) for e in entries} | {("test", e.test) for e in entries}
        self.matrices: dict[tuple[str, Weighting], DocTermMatrix] = {}
        for side, counts in (("train", train_counts), ("test", test_counts)):
            if (side, Weighting.COUNT) in reads:
                self.matrices[side, Weighting.COUNT] = counts
            if (side, Weighting.TFIDF) in reads:
                self.matrices[side, Weighting.TFIDF] = tfidf_weighting(self.vocab, counts)
        t["vectorize"] = time.perf_counter() - t0


def _run_cell(
    config: RunConfig, features: _Features, y: np.ndarray
) -> tuple[EvalReport, FittedArtifacts]:
    """Fit, score and evaluate one cell on its representation's features.

    A shared stage's timing is the duration of its one computation, in every
    cell that used it; ``fit`` and ``score`` are this cell's own.
    """
    entry = _MODEL_TABLE[config.model]
    train_m = features.matrices.get(("train", entry.train))  # None: it reads no train matrix
    test_m = features.matrices["test", entry.test]
    timings = dict(features.timings)
    model = _timed(timings, "fit", entry.fit, config, features.vocab, train_m)
    scores = _timed(timings, "score", entry.score, model, test_m)

    # One threshold table per cell, over the stored rows that some test unit uses.
    table = score_table(scores, y, test_m.doc_rows)
    threshold, f1 = table.best_f1(config.f1_budget)

    report = EvalReport(
        auc=table.auc(),
        best_f1=f1,
        best_threshold=threshold,
        timings=timings,
        histogram=table.histogram(config.n_bins),
        meta={
            "dataset": Path(config.input).stem,
            "representation": config.representation,
            "model": config.model,
            "scenario": config.scenario,
            "seed": config.seed,
            "n_train_docs": features.vocab.train_doc_count,
            "n_test_docs": len(y),
            "n_terms": features.vocab.n_terms,
            "f1_mode": "exact" if config.f1_budget is None else f"budgeted({config.f1_budget})",
            "f1_label_assisted": True,
            "params": config.params_snapshot(),
        },
    )
    return report, FittedArtifacts(vocabulary=features.vocab, drain=features.drain, model=model)


def _run_cells(
    config: RunConfig, cells: list[tuple[str, str]], repeats: int = 1
) -> Iterator[tuple[RunConfig, EvalReport, FittedArtifacts]]:
    """The stage chain: yield each (representation, model) cell as it
    finishes, for each of ``repeats`` seeds from ``config.seed`` on.

    Every cell config is validated before the input is opened, which is
    loaded once.  ``cells`` must list each representation's cells together.
    """
    configs = [replace(config, representation=rep, model=model) for rep, model in cells]
    for cell in configs:
        cell.validate()
    needed = max(_MODEL_TABLE[c.model].min_train(c) for c in configs)
    sides = _load_and_split(config, needed, repeats)
    for seed, (train_rs, test_rs, y, timings) in enumerate(sides, config.seed):
        for _, group in groupby(configs, key=lambda c: c.representation):
            group = [replace(cell, seed=seed) for cell in group]
            features = _Features(group, train_rs, test_rs, timings)
            for cell in group:
                yield (cell, *_run_cell(cell, features, y))
            # Release this representation's matrices before the next one is built.
            del features


def execute(config: RunConfig) -> tuple[EvalReport, FittedArtifacts]:
    """Run the full pipeline and return the report plus fitted artifacts.

    This is the one-cell case of the stage chain that ``run_grid`` runs.
    """
    [(_, report, artifacts)] = _run_cells(config, [(config.representation, config.model)])
    return report, artifacts


def _write_outputs(
    config: RunConfig, report: EvalReport, artifacts: FittedArtifacts, report_name: str
) -> None:
    """Write the report, its histogram and its grid.csv row, if out_dir is set."""
    if config.out_dir is None:
        return
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / report_name).write_text(report.to_json() + "\n")
    report.histogram.write_csv(out_dir / f"hist_{config.tag()}.csv")
    grid_path = out_dir / "grid.csv"
    new = not grid_path.exists()
    with open(grid_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(GRID_COLUMNS)
        writer.writerow(report.grid_row())
    if config.dump_templates and artifacts.drain is not None:
        artifacts.drain.dump_templates(out_dir / f"templates_{config.tag()}.csv")


def run(config: RunConfig) -> EvalReport:
    """Execute one configuration; write report/grid/histogram if out_dir set."""
    report, artifacts = execute(config)
    _write_outputs(config, report, artifacts, "report.json")
    return report


def grid_cells(scenario: str) -> list[tuple[str, str]]:
    """All (representation, model) cells valid under the given scenario."""
    return [
        (rep, model)
        for rep in REPRESENTATIONS
        for model in MODELS
        if _cell_error(model, scenario) is None
    ]


def run_grid(config: RunConfig) -> list[EvalReport]:
    """Run every representation x model cell for the configured scenario.

    Cells invalid under the scenario (oovd with unfiltered training) are
    skipped.  Load to filter run once, and representation and vectorization
    once per representation.  Each cell writes its own report file as soon
    as it finishes; all rows land in one grid.csv.
    """
    reports = []
    for cell, report, artifacts in _run_cells(config, grid_cells(config.scenario)):
        _write_outputs(cell, report, artifacts, f"report_{cell.tag()}.json")
        reports.append(report)
    return reports


def run_repeats(config: RunConfig, repeats: int) -> tuple[list[EvalReport], dict]:
    """Run ``repeats`` seeds from ``config.seed`` on, loading the input once;
    summarize mean/min/max per metric.

    With ``out_dir`` set, each seed writes its own ``report_{tag}.json``.
    """
    _check_count("repeats", repeats, 1)
    reports = []
    cells = [(config.representation, config.model)]
    for cell, report, artifacts in _run_cells(config, cells, repeats):
        _write_outputs(cell, report, artifacts, f"report_{cell.tag()}.json")
        reports.append(report)
    summary = {}
    for name, attr in (("auc", "auc"), ("f1", "best_f1"), ("model_time", "model_time")):
        values = [getattr(r, attr) for r in reports]
        summary[name] = {"mean": float(np.mean(values)), "min": float(np.min(values)),
                         "max": float(np.max(values))}
    if config.out_dir is not None:  # the first report made it
        (Path(config.out_dir) / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return reports, summary
