"""Fast unsupervised anomaly detection for software logs.

Pipeline: load labeled log files, normalize messages, represent them as
words, character trigrams or mined event ids, vectorize against a
train-fitted vocabulary, score with one of four unsupervised detectors,
and evaluate with AUC-ROC, best-F1 and per-stage timings.
"""

from .detect import (
    IForestModel,
    KMeansModel,
    RarityModel,
    average_path_length,
    iforest_fit,
    iforest_score,
    kmeans_fit,
    kmeans_score,
    oovd_score,
    rm_fit,
    rm_score,
)
from .evaluate import (
    EvalReport,
    Histogram,
    score_table,
)
from .ingest import (
    Granularity,
    Label,
    LoadError,
    LogRecord,
    RecordSet,
    SplitMode,
    SplitSpec,
    filter_normal,
    load,
    sample,
    split,
)
from .normalize import normalize_block, normalize_message
from .pipeline import (
    ConfigError,
    FittedArtifacts,
    RunConfig,
    execute,
    run,
    run_grid,
    run_repeats,
)
from .represent import (
    UNSEEN_EVENT,
    WILDCARD,
    DrainParser,
    TokenSeq,
    tokenize_trigrams,
    tokenize_words,
)
from .synth import gen_synthetic
from .vectorize import (
    CSRMatrix,
    DocTermMatrix,
    Vocabulary,
    Weighting,
    count_units,
    fit_units,
    tfidf_weighting,
)

__version__ = "0.1.0"

__all__ = [
    "CSRMatrix",
    "ConfigError",
    "DocTermMatrix",
    "DrainParser",
    "EvalReport",
    "FittedArtifacts",
    "Granularity",
    "Histogram",
    "IForestModel",
    "KMeansModel",
    "Label",
    "LoadError",
    "LogRecord",
    "RarityModel",
    "RecordSet",
    "RunConfig",
    "SplitMode",
    "SplitSpec",
    "TokenSeq",
    "UNSEEN_EVENT",
    "Vocabulary",
    "WILDCARD",
    "Weighting",
    "average_path_length",
    "count_units",
    "execute",
    "filter_normal",
    "fit_units",
    "gen_synthetic",
    "iforest_fit",
    "iforest_score",
    "kmeans_fit",
    "kmeans_score",
    "load",
    "normalize_block",
    "normalize_message",
    "oovd_score",
    "rm_fit",
    "rm_score",
    "run",
    "run_grid",
    "run_repeats",
    "sample",
    "score_table",
    "split",
    "tfidf_weighting",
    "tokenize_trigrams",
    "tokenize_words",
]
