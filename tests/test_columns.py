"""The column operations of RecordSet against per-record references.

The references (``reference.py``) apply the sampling, split, label and
filter rules one ``LogRecord`` at a time, as a list of rows; the column
operations must give the same records in the same order, and number
sequence keys in their first appearance among the records they keep.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from logad.ingest import (
    LABEL_CODE,
    Granularity,
    Label,
    LogRecord,
    SplitMode,
    SplitSpec,
    filter_normal,
    sample,
    split,
)
from logad.represent import TokenSeq
from logad.vectorize import _unit_counts
from reference import (
    flatten_sequences,
    ref_filter_normal,
    ref_sample,
    ref_sequence_labels,
    ref_split,
)
from rows import record_set

KEYS = [f"s{i}" for i in range(6)]


def _sequence_labels(rs):
    label_of = {code: label for label, code in LABEL_CODE.items()}
    return dict(zip(rs.seq_keys, (label_of[c] for c in rs.unit_codes().tolist())))


def _keys_in_order(records):
    return list(dict.fromkeys(r.seq_key for r in records if r.seq_key is not None))


@st.composite
def record_lists(draw, granularity=None):
    """(rows, granularity): labels include unknown; line-granularity rows may
    carry a key or not."""
    if granularity is None:
        granularity = draw(st.sampled_from(Granularity))
    n = draw(st.integers(1, 30))
    key = st.sampled_from(KEYS)
    if granularity is Granularity.LINE:
        key = st.none() | key
    records = []
    line_no = 0
    for i in range(n):
        line_no += draw(st.integers(0, 2))
        records.append(LogRecord(
            message=f"m{i}",
            line_no=line_no,
            label=draw(st.sampled_from(Label)),
            seq_key=draw(key),
        ))
    return records, granularity


def _assert_rows(rs, rows):
    assert list(rs) == rows
    assert rs.seq_keys == _keys_in_order(rows)


@given(record_lists())
def test_rows_round_trip(case):
    records, granularity = case
    rs = record_set(records, granularity)
    assert len(rs) == len(records)
    assert rs.granularity is granularity
    _assert_rows(rs, records)


@given(record_lists(), st.floats(0.01, 1.0), st.integers(0, 2**16))
def test_sample_matches_reference(case, fraction, seed):
    records, granularity = case
    out = sample(record_set(records, granularity), fraction, seed)
    _assert_rows(out, ref_sample(records, fraction, seed))


@given(record_lists(), st.floats(0.01, 0.99), st.integers(0, 2**16),
       st.sampled_from(SplitMode), st.floats(0.3, 1.0))
def test_split_matches_reference(case, train_fraction, seed, mode, sample_fraction):
    # Splitting a sample also checks that the sample numbered its keys in
    # their first appearance: the random split permutes keys in that order.
    records, granularity = case
    rs = sample(record_set(records, granularity), sample_fraction, seed)
    rows = ref_sample(records, sample_fraction, seed)
    spec = SplitSpec(train_fraction, seed, mode)
    expected = ref_split(rows, granularity, spec)
    if expected is None:
        with pytest.raises(ValueError, match="empty"):
            split(rs, spec)
        return
    train, test = split(rs, spec)
    _assert_rows(train, expected[0])
    _assert_rows(test, expected[1])
    assert train.n_units + test.n_units == rs.n_units


@given(record_lists())
def test_filter_normal_matches_reference(case):
    records, granularity = case
    rs = record_set(records, granularity)
    expected = ref_filter_normal(records, granularity)
    if expected is None:
        with pytest.raises(ValueError, match="unknown label"):
            filter_normal(rs)
    else:
        _assert_rows(filter_normal(rs), expected)


@given(record_lists(Granularity.SEQUENCE), st.floats(0.3, 1.0), st.integers(0, 2**16))
def test_sequence_labels_match_reference(case, fraction, seed):
    records, _ = case
    rs = sample(record_set(records, Granularity.SEQUENCE), fraction, seed)
    rows = ref_sample(records, fraction, seed)
    assert list(_sequence_labels(rs).items()) == list(ref_sequence_labels(rows).items())


@given(record_lists(Granularity.SEQUENCE), st.data())
def test_flatten_matches_reference(case, data):
    records, _ = case
    token_seqs = [
        TokenSeq.of(data.draw(st.lists(st.sampled_from("abc"), max_size=4)))
        for _ in records
    ]
    rs = record_set(records, Granularity.SEQUENCE)
    # The pipeline sums each record's counts into its sequence's row.
    term_to_col = {"a": 0, "b": 1, "c": 2}
    units = _unit_counts(term_to_col, token_seqs, np.arange(len(records)), rs.unit_ids,
                         rs.n_units)
    ref = _unit_counts(term_to_col, flatten_sequences(records, token_seqs), None, None, None)
    ref_labels = ref_sequence_labels(records)
    assert rs.seq_keys == list(ref_labels)
    assert (units.matrix.toarray() == ref.matrix.toarray()).all()
    assert units.doc_token_totals.tolist() == ref.doc_token_totals.tolist()
    assert list(_sequence_labels(rs).values()) == list(ref_labels.values())


def test_sample_without_a_sequences_first_record_reorders_keys():
    # s0 appears first in the input, but once its first record is dropped
    # s1 appears first in the sample, and so takes id 0.
    spec = ["s0", "s1", "s0", "s1", "s2", "s0"]
    records = [
        LogRecord(message=f"m{i}", line_no=i, label=Label.NORMAL, seq_key=key)
        for i, key in enumerate(spec)
    ]
    rs = record_set(records, Granularity.SEQUENCE)
    seed = next(
        s for s in range(1000)
        if [r.line_no for r in ref_sample(records, 0.5, s)][:2] == [1, 2]
    )
    out = sample(rs, 0.5, seed)
    assert out.seq_keys[:2] == ["s1", "s0"]
    assert out.seq_ids.tolist()[:2] == [0, 1]
    _assert_rows(out, ref_sample(records, 0.5, seed))
