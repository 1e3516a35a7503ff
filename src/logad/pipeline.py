"""End-to-end experiment pipeline: configuration, one run, grid runs.

A run executes load, sample, normalize, split, optional normal-only
filtering, representation, vectorization, model fit and scoring, and
evaluation.  Everything fitted (vocabulary, templates, idf statistics,
models) sees training data only; the template miner in particular is
trained on the train side and applied read-only to the test side.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

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
from .evaluate import (
    GRID_COLUMNS,
    EvalReport,
    TimingLog,
    auc_roc,
    best_f1,
    score_histogram,
)
from .ingest import (
    Granularity,
    Label,
    RecordSet,
    SplitMode,
    SplitSpec,
    filter_normal,
    load,
    sample,
    sequence_labels,
    split,
)
from .normalize import normalize_records
from .represent import (
    DrainParser,
    TokenSeq,
    flatten_sequences,
    tokenize_trigrams,
    tokenize_words,
)
from .vectorize import Vocabulary, count_transform, fit_vocabulary, tfidf_transform

REPRESENTATIONS = ("words", "trigrams", "events")
SCENARIOS = ("unfiltered", "normal_only")

# Model -> (matrices it reads, fit, score).  ``fit(config, vocab, train_m)``
# is None for oovd, which fits nothing; ``score(vocab, model, test_m)``.
# The lambdas look the layer functions up in this module when they run, so
# a name replaced after import (to trace a run, say) is the one called.
_MODEL_TABLE = {
    "oovd": ("test counts", None, lambda vocab, model, m: oovd_score(vocab, m)),
    "rm": (
        "test tfidf",
        lambda config, vocab, train_m: rm_fit(vocab),
        lambda vocab, model, m: rm_score(model, m),
    ),
    "kmeans": (
        "train and test tfidf",
        lambda config, vocab, train_m: kmeans_fit(train_m, config.k, config.seed),
        lambda vocab, model, m: kmeans_score(model, m),
    ),
    "iforest": (
        "train and test tfidf",
        lambda config, vocab, train_m: iforest_fit(
            train_m, config.n_trees, config.subsample, config.seed
        ),
        lambda vocab, model, m: iforest_score(model, m),
    ),
}
MODELS = tuple(_MODEL_TABLE)


class ConfigError(ValueError):
    """Invalid or contradictory run configuration."""


def _cell_error(model: str, scenario: str) -> str | None:
    """Why ``model`` cannot run under ``scenario``, or None if it can."""
    if model == "oovd" and scenario == "unfiltered":
        return (
            "oovd counts terms missing from the training vocabulary, which is "
            "meaningless when anomalies train the vocabulary; use scenario "
            "normal_only"
        )
    return None


@dataclass
class RunConfig:
    input: Path
    adapter: str = "plain"
    labels: Path | None = None
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
    out_dir: Path | None = None
    dump_templates: bool = False

    def validate(self) -> None:
        if self.representation not in REPRESENTATIONS:
            raise ConfigError(f"representation must be one of {REPRESENTATIONS}")
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}")
        if self.split_mode not in [m.value for m in SplitMode]:
            raise ConfigError("split_mode must be 'random' or 'chronological'")
        cell_error = _cell_error(self.model, self.scenario)
        if cell_error is not None:
            raise ConfigError(cell_error)
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError(f"sample_fraction must be in (0, 1], got {self.sample_fraction}")
        try:
            SplitSpec(self.train_fraction)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

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
    model_name: str
    model: RarityModel | KMeansModel | IForestModel | None


_TOKENIZERS = {"words": tokenize_words, "trigrams": tokenize_trigrams}


def _test_labels(test_rs: RecordSet) -> np.ndarray:
    """0/1 labels of the test units (lines or sequences, in document order).

    Raises unless every unit is labeled and both classes occur, so a run
    that cannot be evaluated stops before representation.
    """
    if test_rs.granularity is Granularity.SEQUENCE:
        labels = list(sequence_labels(test_rs).values())
    else:
        labels = test_rs.labels()
    out = np.empty(len(labels), dtype=np.int64)
    for i, lbl in enumerate(labels):
        if lbl is Label.UNKNOWN:
            raise ValueError(
                "evaluation needs Normal/Anomaly labels on every test unit; "
                "got an unknown label (unlabeled input with metrics requested?)"
            )
        out[i] = 1 if lbl is Label.ANOMALY else 0
    if out.min() == out.max():
        raise ValueError(
            "evaluation needs both Normal and Anomaly labels on the test side; "
            f"every test unit is labeled {labels[0].value}"
        )
    return out


def _represent(
    config: RunConfig, train_rs: RecordSet, test_rs: RecordSet
) -> tuple[list[TokenSeq], list[TokenSeq], DrainParser | None]:
    """Tokenize both sides; template mining fits on the train side only."""
    drain = None
    if config.representation == "events":
        drain = DrainParser(depth=config.depth, sim_threshold=config.sim_threshold)
        train_docs = [TokenSeq.of([drain.fit_line(r.normalized)]) for r in train_rs]
        test_docs = [TokenSeq.of([drain.parse_line(r.normalized)]) for r in test_rs]
    else:
        tokenize = _TOKENIZERS[config.representation]
        train_docs = [tokenize(r.normalized) for r in train_rs]
        test_docs = [tokenize(r.normalized) for r in test_rs]
    if train_rs.granularity is Granularity.SEQUENCE:
        _, train_docs, _ = flatten_sequences(train_rs, train_docs)
        _, test_docs, _ = flatten_sequences(test_rs, test_docs)
    return train_docs, test_docs, drain


def _vectorize(reads: str, train_docs: list[TokenSeq], test_docs: list[TokenSeq]):
    """Fit the vocabulary on train docs and build the matrices a model reads."""
    vocab = fit_vocabulary(train_docs)
    train_m = tfidf_transform(vocab, train_docs) if reads == "train and test tfidf" else None
    transform = count_transform if reads == "test counts" else tfidf_transform
    return vocab, train_m, transform(vocab, test_docs)


def execute(config: RunConfig) -> tuple[EvalReport, FittedArtifacts]:
    """Run the full pipeline and return the report plus fitted artifacts."""
    config.validate()
    tl = TimingLog()

    rs, _ = tl.timed("load", load, config.input, config.adapter, config.labels)
    if config.sample_fraction < 1.0:
        rs, _ = tl.timed("sample", sample, rs, config.sample_fraction, config.seed)
    rs, _ = tl.timed("normalize", normalize_records, rs)
    spec = SplitSpec(config.train_fraction, config.seed, SplitMode(config.split_mode))
    (train_rs, test_rs), _ = tl.timed("split", split, rs, spec)
    y = _test_labels(test_rs)
    if config.scenario == "normal_only":
        train_rs, _ = tl.timed("filter", filter_normal, train_rs)
        if not train_rs.records:
            raise ValueError(
                "normal_only training needs Normal labels on the train side; "
                "every train unit is labeled anomaly"
            )

    (train_docs, test_docs, drain), _ = tl.timed(
        "represent", _represent, config, train_rs, test_rs
    )
    reads, fit, score = _MODEL_TABLE[config.model]
    (vocab, train_m, test_m), _ = tl.timed(
        "vectorize", _vectorize, reads, train_docs, test_docs
    )
    model = None
    if fit is not None:
        model, _ = tl.timed("fit", fit, config, vocab, train_m)
    scores, _ = tl.timed("score", score, vocab, model, test_m)

    auc = auc_roc(scores, y)
    threshold, f1 = best_f1(scores, y, budget=config.f1_budget)
    hist = score_histogram(scores, y, config.n_bins)

    report = EvalReport(
        auc=auc,
        best_f1=f1,
        best_threshold=threshold,
        timings=dict(tl.stages),
        histogram=hist,
        meta={
            "dataset": Path(config.input).stem,
            "representation": config.representation,
            "model": config.model,
            "scenario": config.scenario,
            "seed": config.seed,
            "n_train_docs": len(train_docs),
            "n_test_docs": len(test_docs),
            "n_terms": vocab.n_terms,
            "f1_mode": "exact" if config.f1_budget is None else f"budgeted({config.f1_budget})",
            "f1_label_assisted": True,
            "params": config.params_snapshot(),
        },
    )
    artifacts = FittedArtifacts(
        vocabulary=vocab, drain=drain, model_name=config.model, model=model
    )
    return report, artifacts


def _append_grid_row(out_dir: Path, report: EvalReport) -> None:
    grid_path = out_dir / "grid.csv"
    new = not grid_path.exists()
    with open(grid_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(GRID_COLUMNS)
        writer.writerow(report.grid_row())


def _write_outputs(
    config: RunConfig, report: EvalReport, artifacts: FittedArtifacts, report_name: str
) -> None:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / report_name).write_text(report.to_json() + "\n")
    report.histogram.write_csv(out_dir / f"hist_{config.tag()}.csv")
    _append_grid_row(out_dir, report)
    if config.dump_templates and artifacts.drain is not None:
        artifacts.drain.dump_templates(out_dir / f"templates_{config.tag()}.csv")


def run(config: RunConfig) -> EvalReport:
    """Execute one configuration; write report/grid/histogram if out_dir set."""
    report, artifacts = execute(config)
    if config.out_dir is not None:
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
    skipped.  Each cell writes its own report file; all rows land in one
    grid.csv.
    """
    reports = []
    for rep, model in grid_cells(config.scenario):
        cell = replace(config, representation=rep, model=model)
        report, artifacts = execute(cell)
        if cell.out_dir is not None:
            _write_outputs(cell, report, artifacts, f"report_{cell.tag()}.json")
        reports.append(report)
    return reports


def run_repeats(config: RunConfig, repeats: int) -> tuple[list[EvalReport], dict]:
    """Re-run with derived seeds; summarize mean/min/max per metric."""
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    reports = []
    for i in range(repeats):
        reports.append(run(replace(config, seed=config.seed + i)))
    summary = {}
    for name, getter in (
        ("auc", lambda r: r.auc),
        ("f1", lambda r: r.best_f1),
        ("model_time", lambda r: r.model_time),
    ):
        values = [getter(r) for r in reports]
        summary[name] = {
            "mean": float(np.mean(values)),
            "min": float(np.min(values)),
            "max": float(np.max(values)),
        }
    if config.out_dir is not None:
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return reports, summary
