"""Each distinct normalized message is represented and counted once.

``pipeline._represent`` tokenizes (or parses) every distinct message once,
and ``pipeline._Features`` sums the distinct count rows into sequence units,
or maps each line to its message's row, on both sides.  These tests build
the per-unit documents the long way, from the public tokenizers,
``DrainParser`` and a per-sequence merge, and require the vocabulary to equal
``fit_units`` of those documents and the unit matrices, expanded to one row
per unit, to be bit-identical to counting them.  A line test matrix
stores one row per distinct message.
"""

from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logad import pipeline
from logad.ingest import Granularity, Label, LogRecord
from logad.pipeline import RunConfig, _Features, execute
from logad.represent import DrainParser
from logad.synth import gen_synthetic
from logad.vectorize import Weighting, count_units, fit_units, tfidf_weighting
from csr import expand
from reference import reference_docs
from rows import record_set

# Empty messages, messages shorter than three characters, non-ASCII text and
# messages containing "\n", next to word messages that Drain can merge.
MESSAGES = st.one_of(
    st.text(alphabet=st.sampled_from(list("ab0 \néİ")), max_size=6),
    st.lists(st.sampled_from(["unit", "state", "0", "up", "é", "x\ny"]), max_size=5).map(" ".join),
)
# Every train side holds this message, so the vocabulary is never empty.
ANCHOR = "unit state 0 up"


@st.composite
def corpora(draw, granularity, all_distinct=False):
    """(train, test) record sets drawn from one small message pool, so that
    messages repeat heavily, or with every message of a side distinct."""
    n_train, n_test = draw(st.integers(1, 30)), draw(st.integers(1, 60))
    if all_distinct:
        pool = draw(st.lists(MESSAGES, min_size=n_train + n_test, max_size=n_train + n_test,
                             unique=True))
        picks = list(range(n_train + n_test))
    else:
        pool = draw(st.lists(MESSAGES, min_size=1, max_size=6, unique=True))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_train + n_test,
                              max_size=n_train + n_test))
    messages = [ANCHOR] + [pool[i] for i in picks]
    n_train += 1
    if granularity is Granularity.SEQUENCE:
        keys = [f"blk_{k}" for k in draw(st.lists(st.integers(0, 4), min_size=len(messages),
                                                  max_size=len(messages)))]
    else:
        keys = [None] * len(messages)
    records = [LogRecord(msg, i, Label.NORMAL, key)
               for i, (key, msg) in enumerate(zip(keys, messages))]
    return (record_set(records[:n_train], granularity),
            record_set(records[n_train:], granularity))


def _assert_identical(got, want):
    """``got``, expanded to one row per document, holds ``want``'s bytes."""
    assert want.doc_rows.tobytes() == np.arange(want.n_rows).tobytes()
    got = expand(got)
    assert got.weighting is want.weighting
    assert got.matrix.shape == want.matrix.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.matrix, name), getattr(want.matrix, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.doc_token_totals.dtype == want.doc_token_totals.dtype
    assert got.doc_token_totals.tobytes() == want.doc_token_totals.tobytes()


def _check_features(representation, train_rs, test_rs):
    config = RunConfig(input=Path("unused.log"), representation=representation)
    (_, train_ids), (test_docs, message_ids), _ = pipeline._represent(config, train_rs, test_rs)
    assert len(test_docs) == len(set(test_rs.messages))
    assert len(message_ids) == len(test_rs)
    # Cells that read every matrix, so the test counts are kept.
    cells = [replace(config, model="kmeans"), replace(config, model="oovd")]
    features = _Features(cells, train_rs, test_rs, {"load": 1.0})
    assert list(features.timings) == ["load", "represent", "vectorize"]
    assert features.timings["load"] == 1.0
    ref_train, ref_test = reference_docs(config, train_rs, test_rs, train_rs.granularity)
    vocab, train_counts = fit_units(ref_train)
    assert features.vocab.term_to_col == vocab.term_to_col
    for name in ("doc_freq", "term_total"):
        got, want = getattr(features.vocab, name), getattr(vocab, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    for name in ("train_doc_count", "corpus_total"):
        got, want = getattr(features.vocab, name), getattr(vocab, name)
        assert type(got) is type(want) and got == want, name
    assert features.vocab.train_doc_count == len(ref_train) == train_rs.n_units
    assert test_rs.n_units == len(ref_test)
    matrices = features.matrices
    for weighting in Weighting:
        test_m = matrices["test", weighting]
        assert test_m.n_docs == test_rs.n_units
        if test_rs.granularity is Granularity.LINE:
            assert test_m.n_rows == len(set(test_rs.messages))
            assert test_m.doc_rows.tobytes() == message_ids.tobytes()
    # The fits read the train tf-idf through its counts' row map.
    train_rows = matrices["train", Weighting.TFIDF].doc_rows
    if train_rs.granularity is Granularity.LINE:
        assert train_rows.tobytes() == train_ids.tobytes()
    else:
        assert train_rows.tobytes() == np.arange(train_rs.n_units).tobytes()
    test_counts = count_units(vocab.term_to_col, ref_test)
    _assert_identical(matrices["test", Weighting.TFIDF], tfidf_weighting(vocab, test_counts))
    _assert_identical(matrices["test", Weighting.COUNT], test_counts)
    _assert_identical(matrices["train", Weighting.TFIDF], tfidf_weighting(vocab, train_counts))


@pytest.mark.parametrize("representation", pipeline.REPRESENTATIONS)
@pytest.mark.parametrize("granularity", list(Granularity))
class TestDistinctMessages:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_repeated_messages(self, representation, granularity, data):
        _check_features(representation, *data.draw(corpora(granularity)))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_all_distinct(self, representation, granularity, data):
        _check_features(representation, *data.draw(corpora(granularity, all_distinct=True)))


class TestDrainCalls:
    def test_parse_once_per_distinct_message_and_fit_every_line(self, tmp_path, monkeypatch):
        corpus = gen_synthetic(tmp_path / "d.log", n_normal=600, n_anomalies=30, n_templates=10,
                               anomaly_kind="unseen_token", seed=5)
        calls = Counter()
        sides = []

        class CountingParser(DrainParser):
            def fit_line(self, msg):
                calls["fit_line"] += 1
                return super().fit_line(msg)

            def parse_line(self, msg):
                calls["parse_line"] += 1
                return super().parse_line(msg)

        def represent(config, train_rs, test_rs, _represent=pipeline._represent):
            sides.append((train_rs, test_rs))
            return _represent(config, train_rs, test_rs)

        monkeypatch.setattr(pipeline, "DrainParser", CountingParser)
        monkeypatch.setattr(pipeline, "_represent", represent)
        config = RunConfig(input=corpus, adapter="bgl", representation="events", model="oovd",
                           scenario="normal_only", train_fraction=0.2, seed=1)
        _, artifacts = execute(config)
        [(train_rs, test_rs)] = sides
        n_distinct = len(set(test_rs.messages))
        assert n_distinct < len(test_rs)  # the corpus repeats its messages
        assert calls == {"fit_line": len(train_rs), "parse_line": n_distinct}

        # Drain's similarity counts exact matches only, so fitting the
        # distinct messages would mine other groups: the fit sees every line.
        line_by_line = DrainParser(depth=config.depth, sim_threshold=config.sim_threshold)
        for msg in train_rs.messages:
            line_by_line.fit_line(msg)
        assert [(g.event_id, g.template, g.count) for g in artifacts.drain.groups()] == [
            (g.event_id, g.template, g.count) for g in line_by_line.groups()
        ]
