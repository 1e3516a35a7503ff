"""Span recorder for the traced benchmark run.

The benchmark does not edit the program.  Instead it replaces, for the
duration of one run, the names through which ``logad.pipeline`` calls into
each layer module (``load``, ``normalize_records``, ``fit_vocabulary``,
``iforest_score``, ...) with wrappers that record a span per call:
``[name, start, end, parent, cell]``.  Spans stay in memory and are written
out after the run.  Per-line calls (tokenizers, ``DrainParser.fit_line`` and
``parse_line``) are too many for one span each; they are aggregated into a
call count and a busy total.

Score vectors returned by the detectors are captured in both traced and
untraced runs (one list append per scoring call), so the output checks and
the score digest can see them.

A name the pipeline no longer has is skipped and listed in ``missing``: the
metrics fed by it then read 0 instead of the run failing.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("ingest", "normalize", "represent", "vectorize", "detect", "evaluate", "pipeline")

FIT_FUNCTIONS = ("rm_fit", "kmeans_fit", "iforest_fit")
SCORE_FUNCTIONS = ("oovd_score", "rm_score", "kmeans_score", "iforest_score")
EVALUATE_FUNCTIONS = ("auc_roc", "best_f1", "score_histogram")


def maxrss_mb() -> float:
    """High-water resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _units(rs) -> int:
    """Split units of a RecordSet: lines, or distinct sequence keys."""
    if rs.granularity.value == "line":
        return len(rs)
    return len({r.seq_key for r in rs})


class Tracer:
    """In-memory spans plus counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, cell]
        self._open: list[int] = []
        self.cell: int | None = None
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.first_end_rss_mb: dict[str, float] = {}
        self.train_lines_left = 0
        self.train_docs_id: int | None = None
        self.parsers: list = []
        self.missing: list[str] = []  # pipeline names that could not be wrapped

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        span = [name, time.perf_counter(), None, parent, self.cell]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
            layer = _layer(name)
            outermost = parent is None or _layer(self.spans[parent][0]) != layer
            if outermost and layer not in self.first_end_rss_mb:
                self.first_end_rss_mb[layer] = maxrss_mb()

    def busy(self, prefix: str) -> float:
        """Summed duration of spans named ``prefix`` or ``prefix.*``."""
        return sum(
            s[2] - s[1] for s in self.spans if s[0] == prefix or s[0].startswith(prefix + ".")
        )

    def n_spans(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, layer: str) -> float:
        """Time in ``layer`` spans not covered by spans of other layers.

        Spans nest strictly (one thread), so the covered part of a span is
        the sum of its direct children of another layer.
        """
        total = 0.0
        for s in self.spans:
            if _layer(s[0]) != layer:
                continue
            parent = s[3]
            if parent is None or _layer(self.spans[parent][0]) != layer:
                total += s[2] - s[1]
        for s in self.spans:
            parent = s[3]
            if parent is not None and _layer(s[0]) != layer and _layer(self.spans[parent][0]) == layer:
                total -= s[2] - s[1]
        return total

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": a, "end": b, "parent": p, "cell": c}
            for n, a, b, p, c in self.spans
        ]


class _Patcher:
    def __init__(self, missing: list[str]):
        self._saved: list[tuple[object, str, object]] = []
        self.missing = missing

    def set(self, owner, name: str, wrap) -> None:
        """Replace attribute ``name`` of ``owner`` by ``wrap(old value)``."""
        if not hasattr(owner, name):
            self.missing.append(name)
            return
        old = getattr(owner, name)
        self._saved.append((owner, name, old))
        setattr(owner, name, wrap(old))

    def restore(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


@contextmanager
def capture_scores(logad, scores: list, missing: list[str]):
    """Append every detector score vector ``logad.pipeline`` computes to ``scores``."""
    patch = _Patcher(missing)

    def wrap(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            scores.append(out)
            return out
        return wrapped

    for name in SCORE_FUNCTIONS:
        patch.set(logad.pipeline, name, wrap)
    try:
        yield
    finally:
        patch.restore()


@contextmanager
def traced(logad, tracer: Tracer, scores: list):
    """Record spans and counters for every layer call ``logad.pipeline`` makes."""
    pipeline = logad.pipeline
    patch = _Patcher(tracer.missing)
    counts = tracer.counts
    clock = time.perf_counter

    def span(name, after=None):
        def wrap(fn):
            def wrapped(*args, **kwargs):
                out = tracer.call(name, fn, *args, **kwargs)
                if after is not None:
                    after(out, *args)
                return out
            return wrapped
        return wrap

    # -- ingest -----------------------------------------------------------
    def after_load(rs, *_):
        counts["ingest.load_calls"] += 1
        counts["ingest.records"] += len(rs)

    def after_split(sides, *_):
        counts["ingest.train_units"] += _units(sides[0])
        counts["ingest.test_units"] += _units(sides[1])

    def after_filter(rs, *_):
        counts["ingest.filtered_units"] += _units(rs)

    patch.set(pipeline, "load", span("ingest.load", after_load))
    patch.set(pipeline, "sample", span("ingest.sample"))
    patch.set(pipeline, "split", span("ingest.split", after_split))
    patch.set(pipeline, "filter_normal", span("ingest.filter", after_filter))

    # -- normalize --------------------------------------------------------
    def after_normalize(_, rs):
        counts["normalize.calls"] += 1
        counts["normalize.records"] += len(rs)

    patch.set(pipeline, "normalize_records", span("normalize", after_normalize))

    # -- represent --------------------------------------------------------
    def traced_represent(represent):
        def wrapped(config, train_rs, test_rs):
            counts["represent.calls"] += 1
            tracer.train_lines_left = len(train_rs)
            return tracer.call("represent", represent, config, train_rs, test_rs)
        return wrapped

    patch.set(pipeline, "_represent", traced_represent)
    patch.set(pipeline, "flatten_sequences", span("represent.flatten"))

    def per_line(tokenize):
        # The pipeline tokenizes every train record before any test record.
        def wrapped(msg):
            t0 = clock()
            out = tokenize(msg)
            dt = clock() - t0
            if tracer.train_lines_left > 0:
                tracer.train_lines_left -= 1
                counts["represent.train_s"] += dt
            else:
                counts["represent.test_s"] += dt
            counts["represent.terms"] += len(out.terms)
            return out
        return wrapped

    patch.set(pipeline, "_TOKENIZERS",
              lambda tokenizers: {rep: per_line(fn) for rep, fn in tokenizers.items()})

    unseen = logad.UNSEEN_EVENT

    def traced_drain(parser_class):
        class TracedDrainParser(parser_class):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.parsers.append(self)

            def fit_line(self, msg):
                t0 = clock()
                out = super().fit_line(msg)
                counts["represent.train_s"] += clock() - t0
                counts["represent.terms"] += 1
                return out

            def parse_line(self, msg):
                t0 = clock()
                out = super().parse_line(msg)
                counts["represent.test_s"] += clock() - t0
                counts["represent.terms"] += 1
                counts["represent.parsed_lines"] += 1
                if out == unseen:
                    counts["represent.unseen_lines"] += 1
                return out
        return TracedDrainParser

    patch.set(pipeline, "DrainParser", traced_drain)

    # -- vectorize --------------------------------------------------------
    def traced_fit_vocabulary(fit_vocabulary):
        def wrapped(docs):
            vocab = tracer.call("vectorize.vocab_fit", fit_vocabulary, docs)
            tracer.train_docs_id = id(docs)
            counts["vectorize.vocab_terms"] += vocab.n_terms
            return vocab
        return wrapped

    def transform(fn):
        def wrapped(vocab, docs):
            side = "train" if id(docs) == tracer.train_docs_id else "test"
            out = tracer.call(f"vectorize.transform_{side}", fn, vocab, docs)
            counts["vectorize.transform_calls"] += 1
            if side == "test":
                counts["vectorize.test_nnz"] += out.matrix.nnz
                known = vocab.term_to_col
                counts["vectorize.test_tokens"] += sum(len(d.terms) for d in docs)
                counts["vectorize.test_oov_tokens"] += sum(
                    1 for d in docs for t in d.terms if t not in known
                )
            return out
        return wrapped

    patch.set(pipeline, "fit_vocabulary", traced_fit_vocabulary)
    patch.set(pipeline, "count_transform", transform)
    patch.set(pipeline, "tfidf_transform", transform)

    # -- detect -----------------------------------------------------------
    def after_score(out, *_):
        scores.append(out)
        counts["detect.docs_scored"] += len(out)

    for name in FIT_FUNCTIONS:
        patch.set(pipeline, name, span("detect.fit"))
    for name in SCORE_FUNCTIONS:
        patch.set(pipeline, name, span("detect.score", after_score))

    # -- evaluate ---------------------------------------------------------
    def after_best_f1(_, s, *__):
        # Exact sweep: every unique score plus one threshold above the max.
        counts["evaluate.f1_thresholds"] += np.unique(np.asarray(s)).size + 1

    for name in EVALUATE_FUNCTIONS:
        after = after_best_f1 if name == "best_f1" else None
        patch.set(pipeline, name, span(f"evaluate.{name}", after))

    # -- pipeline ---------------------------------------------------------
    def traced_execute(execute):
        def wrapped(config):
            tracer.cell = int(counts["pipeline.cells"])
            counts["pipeline.cells"] += 1
            try:
                return tracer.call("pipeline.execute", execute, config)
            finally:
                tracer.cell = None
                tracer.train_docs_id = None
        return wrapped

    patch.set(pipeline, "execute", traced_execute)
    try:
        yield
    finally:
        patch.restore()


# Per-layer metrics, with unit and direction.  The order is the report order.
PER_LAYER = [
    ("ingest.load_s", "s", "lower"),
    ("ingest.load_calls", "count", "lower"),
    ("ingest.records", "count", "lower"),
    ("ingest.split_s", "s", "lower"),
    ("ingest.filter_s", "s", "lower"),
    ("ingest.train_units", "count", "lower"),
    ("ingest.test_units", "count", "lower"),
    ("ingest.filtered_units", "count", "lower"),
    ("ingest.rss_mb", "MB", "lower"),
    ("normalize.s", "s", "lower"),
    ("normalize.calls", "count", "lower"),
    ("normalize.records", "count", "lower"),
    ("normalize.rss_mb", "MB", "lower"),
    ("represent.train_s", "s", "lower"),
    ("represent.test_s", "s", "lower"),
    ("represent.flatten_s", "s", "lower"),
    ("represent.calls", "count", "lower"),
    ("represent.terms", "count", "lower"),
    ("represent.templates", "count", "higher"),
    ("represent.unseen_event_rate", "ratio", "lower"),
    ("represent.rss_mb", "MB", "lower"),
    ("vectorize.vocab_fit_s", "s", "lower"),
    ("vectorize.transform_train_s", "s", "lower"),
    ("vectorize.transform_test_s", "s", "lower"),
    ("vectorize.transform_calls", "count", "lower"),
    ("vectorize.vocab_terms", "count", "lower"),
    ("vectorize.test_nnz", "count", "lower"),
    ("vectorize.test_oov_token_rate", "ratio", "lower"),
    ("vectorize.rss_mb", "MB", "lower"),
    ("detect.fit_s", "s", "lower"),
    ("detect.score_s", "s", "lower"),
    ("detect.model_s", "s", "lower"),
    ("detect.docs_scored", "count", "lower"),
    ("detect.rss_mb", "MB", "lower"),
    ("evaluate.s", "s", "lower"),
    ("evaluate.f1_thresholds", "count", "lower"),
    ("evaluate.rss_mb", "MB", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.cells", "count", "lower"),
    ("pipeline.rss_mb", "MB", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values of a finished traced run, plus the names that
    do not apply to it (reported as 0)."""
    c = tracer.counts
    fit_s, score_s = tracer.busy("detect.fit"), tracer.busy("detect.score")
    values = {
        "ingest.load_s": tracer.busy("ingest.load"),
        "ingest.load_calls": c["ingest.load_calls"],
        "ingest.records": c["ingest.records"],
        "ingest.split_s": tracer.busy("ingest.split"),
        "ingest.filter_s": tracer.busy("ingest.filter"),
        "ingest.train_units": c["ingest.train_units"],
        "ingest.test_units": c["ingest.test_units"],
        "ingest.filtered_units": c["ingest.filtered_units"],
        "normalize.s": tracer.busy("normalize"),
        "normalize.calls": c["normalize.calls"],
        "normalize.records": c["normalize.records"],
        "represent.train_s": c["represent.train_s"],
        "represent.test_s": c["represent.test_s"],
        "represent.flatten_s": tracer.busy("represent.flatten"),
        "represent.calls": c["represent.calls"],
        "represent.terms": c["represent.terms"],
        "represent.templates": float(sum(len(p.groups()) for p in tracer.parsers)),
        "represent.unseen_event_rate": (
            c["represent.unseen_lines"] / c["represent.parsed_lines"]
            if c["represent.parsed_lines"] else 0.0
        ),
        "vectorize.vocab_fit_s": tracer.busy("vectorize.vocab_fit"),
        "vectorize.transform_train_s": tracer.busy("vectorize.transform_train"),
        "vectorize.transform_test_s": tracer.busy("vectorize.transform_test"),
        "vectorize.transform_calls": c["vectorize.transform_calls"],
        "vectorize.vocab_terms": c["vectorize.vocab_terms"],
        "vectorize.test_nnz": c["vectorize.test_nnz"],
        "vectorize.test_oov_token_rate": (
            c["vectorize.test_oov_tokens"] / c["vectorize.test_tokens"]
            if c["vectorize.test_tokens"] else 0.0
        ),
        "detect.fit_s": fit_s,
        "detect.score_s": score_s,
        "detect.model_s": fit_s + score_s,
        "detect.docs_scored": c["detect.docs_scored"],
        "evaluate.s": tracer.busy("evaluate"),
        "evaluate.f1_thresholds": c["evaluate.f1_thresholds"],
        "pipeline.self_s": tracer.self_time("pipeline"),
        "pipeline.cells": c["pipeline.cells"],
    }
    for layer in LAYERS:
        values[f"{layer}.rss_mb"] = tracer.first_end_rss_mb.get(layer, 0.0)

    not_applicable = []
    if not tracer.n_spans("ingest.filter"):
        not_applicable += ["ingest.filter_s", "ingest.filtered_units"]
    if not tracer.n_spans("represent.flatten"):
        not_applicable.append("represent.flatten_s")
    if not tracer.parsers:
        not_applicable += ["represent.templates", "represent.unseen_event_rate"]
    if not tracer.n_spans("vectorize.transform_train"):
        not_applicable.append("vectorize.transform_train_s")
    if not tracer.n_spans("detect.fit"):
        not_applicable.append("detect.fit_s")
    return values, not_applicable
