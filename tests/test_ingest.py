import io
import re
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from logad import ingest
from logad.ingest import (
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
from logad.normalize import normalize_block
from reference import reference_normalize
from rows import record_set

BGL_NORMAL = (
    "- 1117838570 2005.06.03 R02-M1-N0-C:J12-U11 2005-06-03-15.42.50.363779 "
    "R02-M1-N0-C:J12-U11 RAS KERNEL INFO instruction cache parity error corrected"
)
BGL_ANOMALY = (
    "KERNDTLB 1117838978 2005.06.03 R16-M1-N2-C:J17-U01 2005-06-03-15.49.38.026704 "
    "R16-M1-N2-C:J17-U01 RAS KERNEL FATAL data TLB error interrupt"
)


# The formats labeled per key from a label file; the others label their lines.
KEYED = ("hdfs", "hadoop")


def _one_key_input(tmp_path, adapter):
    """A keyed input whose one record has the key blk_1: an hdfs log naming
    the block, or a hadoop directory holding only blk_1.log."""
    if adapter == "hdfs":
        path = tmp_path / "hdfs.log"
        path.write_text("081109 203615 148 INFO dfs.DataNode: Receiving block blk_1 src dst\n")
    else:
        path = tmp_path / "apps"
        path.mkdir()
        (path / "blk_1.log").write_text("first line\n")
    return path


def _lines(records):
    return [r.message for r in records]


class TestAdapters:
    def test_bgl_labels(self, tmp_path):
        p = tmp_path / "bgl.log"
        p.write_text(BGL_NORMAL + "\n" + BGL_ANOMALY + "\n")
        rs = load(p, "bgl")
        assert rs.granularity is Granularity.LINE
        assert [r.label for r in rs] == [Label.NORMAL, Label.ANOMALY]
        assert rs.messages == ["instruction cache parity error corrected", "data TLB error interrupt"]

    def test_thunderbird_labels(self, tmp_path):
        p = tmp_path / "tb.log"
        p.write_text(
            "- 1131566461 2005.11.09 dn228 Nov 9 12:01:01 dn228/dn228 "
            "crond(pam_unix)[2915]: session closed for user root\n"
        )
        rs = load(p, "thunderbird")
        [record] = rs
        assert record.label is Label.NORMAL
        assert record.message == "session closed for user root"

    def test_plain_three_lines_unknown(self, tmp_path):
        p = tmp_path / "x.log"
        p.write_text("a\nb\nc\n")
        rs = load(p, "plain")
        assert len(rs) == 3
        assert all(r.label is Label.UNKNOWN for r in rs)

    def test_hdfs_block_join(self, tmp_path):
        log = tmp_path / "hdfs.log"
        log.write_text(
            "081109 203615 148 INFO dfs.DataNode: Receiving block blk_1 src dst\n"
            "081109 203616 149 INFO dfs.FSNamesystem: blockMap updated blk_2 blk_-3\n"
            "081109 203617 150 INFO dfs.DataNode: no block reference here\n"
        )
        labels = tmp_path / "labels.csv"
        labels.write_text("BlockId,Label\nblk_1,Normal\nblk_2,Anomaly\nblk_-3,normal\n")
        rs = load(log, "hdfs", labels=labels)
        assert rs.granularity is Granularity.SEQUENCE
        # line 2 references two blocks and is attributed to both
        assert [(r.seq_key, r.label) for r in rs] == [
            ("blk_1", Label.NORMAL),
            ("blk_2", Label.ANOMALY),
            ("blk_-3", Label.NORMAL),
        ]
        assert rs.line_nos[1] == rs.line_nos[2] == 1

    def test_hdfs_requires_label_file(self, tmp_path):
        log = tmp_path / "hdfs.log"
        log.write_text("081109 203615 148 INFO dfs.DataNode: blk_1 here\n")
        with pytest.raises(LoadError):
            load(log, "hdfs")

    def test_hdfs_bad_label_value(self, tmp_path):
        log = tmp_path / "hdfs.log"
        log.write_text("081109 203615 148 INFO dfs.DataNode: blk_1 here\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("BlockId,Label\nblk_1,Weird\n")
        with pytest.raises(LoadError):
            load(log, "hdfs", labels=labels)

    def test_hadoop_directory(self, tmp_path):
        apps = tmp_path / "apps"
        apps.mkdir()
        (apps / "app_1.log").write_text("first line\nsecond line\n")
        (apps / "app_2.log").write_text("other app\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("app_1,Normal\napp_2,Anomaly\n")
        rs = load(apps, "hadoop", labels=labels)
        assert rs.granularity is Granularity.SEQUENCE
        assert [(r.seq_key, r.label.value) for r in rs] == [
            ("app_1", "normal"),
            ("app_1", "normal"),
            ("app_2", "anomaly"),
        ]
        assert [r.line_no for r in rs] == [0, 1, 2]  # numbered across the files

    # Spreadsheet exports often begin with a UTF-8 byte-order mark, which
    # must not become part of the first key.
    @pytest.mark.parametrize("header", ["", "BlockId,Label\n"], ids=["no_header", "header"])
    def test_hdfs_label_file_with_a_byte_order_mark(self, tmp_path, header):
        log = tmp_path / "hdfs.log"
        log.write_text(
            "081109 203615 148 INFO dfs.DataNode: Receiving block blk_1 src dst\n"
            "081109 203616 149 INFO dfs.DataNode: Receiving block blk_2 src dst\n"
        )
        labels = tmp_path / "labels.csv"
        labels.write_text(header + "blk_1,Normal\nblk_2,Anomaly\n", encoding="utf-8-sig")
        rs = load(log, "hdfs", labels=labels)
        assert [(r.seq_key, r.label) for r in rs] == [
            ("blk_1", Label.NORMAL),
            ("blk_2", Label.ANOMALY),
        ]

    @pytest.mark.parametrize("header", ["", "application,label\n"], ids=["no_header", "header"])
    def test_hadoop_label_file_with_a_byte_order_mark(self, tmp_path, header):
        apps = tmp_path / "apps"
        apps.mkdir()
        (apps / "app_1.log").write_text("first line\n")
        (apps / "app_2.log").write_text("other app\n")
        labels = tmp_path / "labels.csv"
        labels.write_text(header + "app_1,Normal\napp_2,Anomaly\n", encoding="utf-8-sig")
        rs = load(apps, "hadoop", labels=labels)
        assert [(r.seq_key, r.label) for r in rs] == [
            ("app_1", Label.NORMAL),
            ("app_2", Label.ANOMALY),
        ]

    @pytest.mark.parametrize("adapter", KEYED)
    @pytest.mark.parametrize("first, second", [("Anomaly", "Normal"), ("normal", "ANOMALY")])
    def test_key_labeled_two_ways_is_an_error(self, tmp_path, adapter, first, second):
        # Keeping either label would train or evaluate the unit as the other.
        labels = tmp_path / "labels.csv"
        labels.write_text(f"BlockId,Label\nblk_1,{first}\nblk_2,Normal\nblk_1,{second}\n")
        with pytest.raises(LoadError, match=r"key 'blk_1' is \w+ in row 2 but \w+ in row 4"):
            load(_one_key_input(tmp_path, adapter), adapter, labels)

    @pytest.mark.parametrize("adapter", KEYED)
    def test_key_labeled_twice_alike_is_accepted(self, tmp_path, adapter):
        labels = tmp_path / "labels.csv"
        labels.write_text("blk_1,Anomaly\nblk_1,anomaly \n")
        rs = load(_one_key_input(tmp_path, adapter), adapter, labels)
        assert [(r.seq_key, r.label) for r in rs] == [("blk_1", Label.ANOMALY)]

    # Neither check may wait for the log: the path below does not exist, so
    # opening it would raise "cannot read" instead.
    @pytest.mark.parametrize("adapter", ["bgl", "thunderbird", "plain"])
    def test_line_format_given_a_label_file_fails_before_the_log(self, tmp_path, adapter):
        labels = tmp_path / "labels.csv"
        labels.write_text("blk_1,Normal\n")
        with pytest.raises(LoadError, match=f"^{adapter} adapter takes no label file"):
            load(tmp_path / "missing.log", adapter, labels)

    @pytest.mark.parametrize("adapter", KEYED)
    def test_keyed_format_without_a_label_file_fails_before_the_log(self, tmp_path, adapter):
        with pytest.raises(LoadError, match=f"^{adapter} adapter requires a label file"):
            load(tmp_path / "missing", adapter)

    def test_unknown_adapter(self, tmp_path):
        p = tmp_path / "x.log"
        p.write_text("a\n")
        with pytest.raises(LoadError):
            load(p, "nope")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(LoadError):
            load(tmp_path / "missing.log", "plain")

    @pytest.mark.parametrize("adapter", KEYED)
    def test_unreadable_label_file(self, tmp_path, adapter):
        labels = tmp_path / "labels.csv"
        with pytest.raises(LoadError, match=f"^cannot read label file {re.escape(str(labels))}"):
            load(_one_key_input(tmp_path, adapter), adapter, labels)

    @pytest.mark.parametrize("adapter", KEYED)
    def test_label_row_with_one_column(self, tmp_path, adapter):
        labels = tmp_path / "labels.csv"
        labels.write_text("BlockId,Label\nblk_1,Normal\nblk_2\n")
        with pytest.raises(LoadError, match="row 3 has fewer than 2 columns"):
            load(_one_key_input(tmp_path, adapter), adapter, labels)

    @pytest.mark.parametrize("adapter", KEYED)
    def test_blank_label_rows_are_skipped(self, tmp_path, adapter):
        labels = tmp_path / "labels.csv"
        labels.write_text("BlockId,Label\n\nblk_1,Anomaly\n\n")
        rs = load(_one_key_input(tmp_path, adapter), adapter, labels)
        assert [(r.seq_key, r.label) for r in rs] == [("blk_1", Label.ANOMALY)]

    @pytest.mark.parametrize("adapter", KEYED)
    def test_header_after_blank_rows_is_skipped(self, tmp_path, adapter):
        labels = tmp_path / "labels.csv"
        labels.write_text("\nBlockId,Label\n\nblk_1,Anomaly\n")
        rs = load(_one_key_input(tmp_path, adapter), adapter, labels)
        assert [(r.seq_key, r.label) for r in rs] == [("blk_1", Label.ANOMALY)]

    @pytest.mark.parametrize("adapter", KEYED)
    def test_only_the_first_filled_row_may_be_a_header(self, tmp_path, adapter):
        # Row numbers count the blank rows, so they are the file's lines.
        labels = tmp_path / "labels.csv"
        labels.write_text("\n\nBlockId,Label\n\nblk_1,Label\n")
        with pytest.raises(LoadError, match="row 5 has label 'Label'"):
            load(_one_key_input(tmp_path, adapter), adapter, labels)

    def test_hadoop_input_that_is_a_file(self, tmp_path):
        log = tmp_path / "app.log"
        log.write_text("first line\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("app,Normal\n")
        with pytest.raises(LoadError, match="hadoop adapter expects a directory"):
            load(log, "hadoop", labels)


def _line_set(n, labels=None):
    labels = labels or [Label.NORMAL] * n
    return record_set(LogRecord(message=f"m{i}", line_no=i, label=labels[i]) for i in range(n))


class TestSample:
    def test_identity_at_full_fraction(self):
        rs = _line_set(10)
        out = sample(rs, 1.0, seed=5)
        assert list(out) == list(rs)

    def test_exact_count(self):
        rs = _line_set(1000)
        assert len(sample(rs, 0.1, seed=7)) == 100

    def test_deterministic_and_order_preserving(self):
        rs = _line_set(200)
        a = sample(rs, 0.1, seed=7)
        b = sample(rs, 0.1, seed=7)
        assert _lines(a) == _lines(b)
        nos = [r.line_no for r in a]
        assert nos == sorted(nos)

    def test_fraction_out_of_range(self):
        rs = _line_set(10)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                sample(rs, bad, seed=0)


class TestSplit:
    def test_five_percent_of_100(self):
        train, test = split(_line_set(100), SplitSpec(0.05, seed=0))
        assert len(train) == 5 and len(test) == 95

    def test_round_half_up(self):
        train, test = split(_line_set(10), SplitSpec(0.25, seed=0))
        assert len(train) == 3  # 2.5 rounds up

    def test_chronological_prefix(self):
        train, test = split(
            _line_set(10), SplitSpec(0.5, seed=0, mode=SplitMode.CHRONOLOGICAL)
        )
        assert [r.line_no for r in train] == list(range(5))
        assert [r.line_no for r in test] == list(range(5, 10))

    def test_multiset_identity(self):
        rs = _line_set(57)
        train, test = split(rs, SplitSpec(0.3, seed=9))
        assert Counter(_lines(train)) + Counter(_lines(test)) == Counter(_lines(rs))

    def test_deterministic(self):
        rs = _line_set(50)
        a = split(rs, SplitSpec(0.2, seed=4))
        b = split(rs, SplitSpec(0.2, seed=4))
        assert _lines(a[0]) == _lines(b[0])

    def test_sequence_units_stay_whole(self):
        records = []
        for i in range(30):
            records.append(
                LogRecord(message=f"m{i}", line_no=i, label=Label.NORMAL, seq_key=f"s{i % 6}")
            )
        rs = record_set(records, Granularity.SEQUENCE)
        train, test = split(rs, SplitSpec(0.5, seed=2))
        train_keys = {r.seq_key for r in train}
        test_keys = {r.seq_key for r in test}
        assert not (train_keys & test_keys)
        assert len(train_keys) == 3
        # every sequence kept its 5 member lines on one side
        assert all(sum(1 for r in train if r.seq_key == k) == 5 for k in train_keys)

    def test_empty_side_errors(self):
        with pytest.raises(ValueError):
            split(_line_set(10), SplitSpec(0.01, seed=0))  # rounds to 0 train
        with pytest.raises(ValueError):
            split(_line_set(10), SplitSpec(0.99, seed=0))  # rounds to empty test


class TestFilterNormal:
    def test_drops_anomalies(self):
        labels = [Label.NORMAL] * 8 + [Label.ANOMALY] * 2
        out = filter_normal(_line_set(10, labels))
        assert len(out) == 8
        assert all(r.label is Label.NORMAL for r in out)

    def test_identity_on_all_normal(self):
        rs = _line_set(5)
        assert list(filter_normal(rs)) == list(rs)

    def test_idempotent(self):
        labels = [Label.NORMAL, Label.ANOMALY, Label.NORMAL]
        once = filter_normal(_line_set(3, labels))
        assert list(filter_normal(once)) == list(once)

    def test_unknown_label_errors(self):
        with pytest.raises(ValueError):
            filter_normal(_line_set(3, [Label.NORMAL, Label.UNKNOWN, Label.NORMAL]))

    def test_sequence_level(self):
        records = [
            LogRecord(message="a", line_no=0, label=Label.NORMAL, seq_key="s1"),
            LogRecord(message="b", line_no=1, label=Label.NORMAL, seq_key="s1"),
            LogRecord(message="c", line_no=2, label=Label.ANOMALY, seq_key="s2"),
            LogRecord(message="d", line_no=3, label=Label.NORMAL, seq_key="s2"),
        ]
        rs = record_set(records, Granularity.SEQUENCE)
        out = filter_normal(rs)
        assert [r.seq_key for r in out] == ["s1", "s1"]


def test_sequence_recordset_requires_keys():
    with pytest.raises(ValueError):
        record_set([LogRecord(message="a", line_no=0)], Granularity.SEQUENCE)


def _columns(n_messages=2, n_codes=2, n_ids=2, n_line_nos=2, seq_ids=None,
             granularity=Granularity.LINE):
    return RecordSet(
        granularity,
        ["m0", "m1"],
        np.arange(n_messages, dtype=np.int32) % 2,
        np.zeros(n_codes, dtype=np.int8),
        np.array(seq_ids if seq_ids is not None else [-1] * n_ids, dtype=np.int32),
        ["s0"],
        np.arange(10, 10 + n_line_nos, dtype=np.int64),
    )


class TestColumnChecks:
    @pytest.mark.parametrize("lengths", [
        dict(n_messages=3), dict(n_codes=1), dict(n_ids=3), dict(n_line_nos=0),
    ])
    def test_unequal_columns_rejected(self, lengths):
        with pytest.raises(ValueError, match="column lengths differ"):
            _columns(**lengths)

    def test_replaced_messages_length_checked(self):
        replaced = replace(_columns(), message_ids=np.array([1, 1], dtype=np.int32))
        assert replaced.messages == ["m1", "m1"]
        with pytest.raises(ValueError, match="2 message ids, 1 label codes"):
            replace(_columns(n_codes=1, n_ids=1, n_line_nos=1),
                    message_ids=np.array([0, 1], dtype=np.int32))
        with pytest.raises(ValueError, match="1 message ids, 2 label codes"):
            replace(_columns(), message_ids=np.array([0], dtype=np.int32))

    def test_keyless_sequence_record_named_by_line(self):
        assert len(_columns(seq_ids=[0, 0], granularity=Granularity.SEQUENCE)) == 2
        with pytest.raises(ValueError, match="at line 11 has no seq_key"):
            _columns(seq_ids=[0, -1], granularity=Granularity.SEQUENCE)

    @pytest.mark.parametrize("column,values,match", [
        ("label_codes", np.array([0, 7], dtype=np.int8), "line 11 has label code 7"),
        ("label_codes", np.array([-1, 2], dtype=np.int8), "line 10 has label code -1"),
        ("seq_ids", np.array([0, 5], dtype=np.int32), "line 11 has seq id 5"),
        ("seq_ids", np.array([-2, 0], dtype=np.int32), "line 10 has seq id -2"),
        ("message_ids", np.array([0, 2], dtype=np.int32), "line 11 has message id 2"),
        ("message_ids", np.array([-1, 1], dtype=np.int32), "line 10 has message id -1"),
    ])
    def test_out_of_range_code_or_seq_id_named_by_line(self, column, values, match):
        # A code of 7 would be scored as normal but dropped by filter_normal;
        # a seq id past the keys would fail later in unit_codes, and a
        # message id of -1 would read the last text.
        with pytest.raises(ValueError, match=match):
            replace(_columns(seq_ids=[0, 0]), **{column: values})


def test_split_memory_follows_ids_not_messages(tmp_path):
    # Both sides gather their int32 message ids with numpy, so a
    # 100,000-line split peaks under 40 bytes per record.
    n = 100_000
    path = tmp_path / "x.log"
    path.write_text("".join(f"message {i % 1000} of the log\n" for i in range(n)))
    rs = load(path, "plain")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sides = split(rs, SplitSpec(0.05, seed=1))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sum(map(len, sides)) == n
    assert peak / n < 40


BGL_SHORT = "- 1117838570 2005.06.03 R02-M1-N0-C:J12-U11 RAS KERNEL INFO"


class TestLoaderLines:
    """What a loader makes of line ends, blank lines and bytes that are not UTF-8."""

    def test_crlf_lone_cr_and_unterminated_last_line(self, tmp_path):
        p = tmp_path / "x.log"
        p.write_bytes(b"a b\r\nc\rd\n\re")
        rs = load(p, "plain")
        assert rs.messages == ["a b", "c", "d", "", "e"]
        assert rs.line_nos.tolist() == [0, 1, 2, 3, 4]

    def test_crlf_tagged(self, tmp_path):
        p = tmp_path / "bgl.log"
        p.write_bytes((BGL_NORMAL + "\r\n" + BGL_ANOMALY + "\r" + BGL_NORMAL).encode())
        rs = load(p, "bgl")
        assert rs.messages == ["instruction cache parity error corrected",
                               "data TLB error interrupt",
                               "instruction cache parity error corrected"]
        assert rs.label_codes.tolist() == [0, 2, 0]

    def test_tagged_skips_blank_lines_but_counts_them(self, tmp_path):
        p = tmp_path / "bgl.log"
        p.write_text("\n" + BGL_NORMAL + "\n \t \n\n" + BGL_ANOMALY + "\n   \n")
        rs = load(p, "bgl")
        assert len(rs) == 2
        assert rs.line_nos.tolist() == [1, 4]

    def test_plain_keeps_blank_lines(self, tmp_path):
        p = tmp_path / "x.log"
        p.write_text("a\n\n \t \nb\n")
        rs = load(p, "plain")
        assert rs.messages == ["a", "", " \t ", "b"]
        assert rs.line_nos.tolist() == [0, 1, 2, 3]

    def test_tagged_line_without_a_body_has_an_empty_message(self, tmp_path):
        p = tmp_path / "bgl.log"
        p.write_text(BGL_SHORT + "\nKERNDTLB\n" + BGL_NORMAL + "\n")
        rs = load(p, "bgl")
        assert rs.messages == ["", "", "instruction cache parity error corrected"]
        assert rs.label_codes.tolist() == [0, 2, 0]

    def test_invalid_utf8_becomes_replacement_character(self, tmp_path):
        p = tmp_path / "x.log"
        p.write_bytes(b"ok \xff bad\ncaf\xc3\xa9\n")
        rs = load(p, "plain")
        assert rs.messages == ["ok � bad", "café"]

    def test_hadoop_empty_app_file_has_no_key(self, tmp_path):
        apps = tmp_path / "apps"
        apps.mkdir()
        (apps / "app_1.log").write_text("first\nsecond\n")
        (apps / "app_2.log").write_text("")
        (apps / "app_3.log").write_text("third")
        labels = tmp_path / "labels.csv"
        labels.write_text("app_1,Normal\napp_2,Anomaly\napp_3,Anomaly\n")
        rs = load(apps, "hadoop", labels=labels)
        assert rs.seq_keys == ["app_1", "app_3"]
        assert rs.seq_ids.tolist() == [0, 0, 1]
        assert rs.line_nos.tolist() == [0, 1, 2]
        assert rs.messages == ["first", "second", "third"]

    @pytest.mark.parametrize("adapter", ["bgl", "hdfs", "hadoop", "plain"])
    def test_column_dtypes(self, tmp_path, adapter):
        labels = None
        if adapter in KEYED:
            labels = tmp_path / "labels.csv"
            labels.write_text("blk_1,Normal\nlog,Anomaly\n")
        if adapter == "hadoop":
            path = tmp_path / "apps"
            path.mkdir()
            (path / "log.txt").write_text("a\nb\n")
        else:
            path = tmp_path / "log"
            path.write_text(BGL_NORMAL + " blk_1\n" + BGL_ANOMALY + " blk_2\n")
        rs = load(path, adapter, labels=labels)
        assert len(rs) == 2
        assert rs.label_codes.dtype == np.int8
        assert rs.seq_ids.dtype == np.int32
        assert rs.line_nos.dtype == np.int64


# Field text: characters whose lowercase changes length or depends on
# context (final sigma, with case-ignorable marks), ASCII and non-ASCII
# digits, and the "blk_" of an hdfs block id.
_FIELD = st.lists(st.sampled_from(["İ", "Σ", "σ", "A", "b", "'", "\u0301", "-", ":", "0", "0",
                                   "7", "9", "٣", "blk_", "BLK_", "é"]),
                  min_size=1, max_size=6).map("".join)
_BLOCK_IDS = st.builds(lambda n, tail: f"blk_{n}{tail}", st.integers(-30, 30),
                       st.sampled_from(["", "", ",", "x", "Σ"]))
# Whitespace that str.split() splits on; only "\n" and "\r" end a line.
_SPACE = st.sampled_from([" ", " ", "  ", "\t", "\x0b", "\x1c", "\x85", "\u2028", "\u3000"])


@st.composite
def _log_lines(draw):
    """Up to 13 whitespace-separated fields, some of them hdfs block ids, or
    a tag field first, with leading and trailing whitespace at times."""
    fields = draw(st.lists(_FIELD | _BLOCK_IDS, max_size=13))
    if fields and draw(st.booleans()):
        fields[0] = draw(st.sampled_from(["-", "-", "KERNDTLB", "Σ0"]))
    text = "".join(field + draw(_SPACE) for field in fields)
    return draw(st.sampled_from(["", " "])) + (text if draw(st.booleans()) else text.rstrip())


# Bytes that are not UTF-8, each read as U+FFFD.
_BAD_BYTES = st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80 0"])


@st.composite
def _file_bytes(draw):
    """A file of lines drawn from a small pool, so lines repeat in runs, each
    ended by "\n", "\r\n" or a lone "\r", the last one at times by nothing."""
    pool = draw(st.lists(_log_lines(), min_size=1, max_size=6))
    out = []
    for line in draw(st.lists(st.sampled_from(pool), max_size=25)):
        data = line.encode("utf-8")
        if draw(st.integers(0, 9)) == 0:
            cut = draw(st.integers(0, len(data)))
            data = data[:cut] + draw(_BAD_BYTES) + data[cut:]
        out.append(data + draw(st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"])))
    if out and draw(st.booleans()):
        out[-1] = out[-1].rstrip(b"\r\n")
    return out


def _write_corpus(tmp, lines, adapter, n_files):
    """The input path and label file of ``lines`` for ``adapter``: one log
    file, or ``n_files`` application logs dealt the lines in turn.  Only a
    keyed format gets a label file; the others get None."""
    labels = None
    if adapter in KEYED:
        labels = tmp / "labels.csv"
        labels.write_text("BlockId,Label\nblk_1,Normal\nblk_2,Anomaly\nblk_-3,Normal\n"
                          "blk_0,Anomaly\napp_0,Normal\napp_1,Anomaly\n")
    path = tmp / "log"
    if adapter == "hadoop":
        path.mkdir()
        for i in range(n_files):
            (path / f"app_{i}.log").write_bytes(b"".join(lines[i::n_files]))
    else:
        path.write_bytes(b"".join(lines))
    return path, labels


class TestFusedLoad:
    """Normalizing each block as it is read gives the raw load's rows with
    each message normalized alone by the reference normalizer."""

    @given(_file_bytes(), st.sampled_from(["bgl", "hdfs", "hadoop", "plain"]), st.integers(1, 4),
           st.integers(1, 3))
    @example([b"a b\r\n", b"c\rd\n", b"\re"], "plain", 2, 1)
    @example([b"- 1 2 3 4 5 6 7 8 \xce\xa3 \xc4\xb00\n", b"\n", b" \t \n",
              b"KERNDTLB 1 2 3\n"], "bgl", 1, 1)
    @example([b"- 1 2 3 4 5 6 7 8 Send 42\n"] * 3 + [b"KERNDTLB 1 2 3 4 5 6 7 8 Send 42\n"],
             "bgl", 2, 1)
    @example([b"0 00 blk_1 x Id Blk_2 blk_1 blk_-3\n"] * 3 + [b"081109 1 2 a: no block\n"],
             "hdfs", 2, 1)
    @example([b"00 A\n", b"00 A\n", b"\xff\n", b"00 A"], "hadoop", 3, 2)
    def test_fused_load_equals_the_reference(self, lines, adapter, block, n_files):
        with tempfile.TemporaryDirectory() as tmp:
            path, labels = _write_corpus(Path(tmp), lines, adapter, n_files)
            with mock.patch.object(ingest, "BLOCK_LINES", block):
                raw = load(path, adapter, labels)
                fused = load(path, adapter, labels, normalize_block)
        assert fused.granularity is raw.granularity
        assert list(fused) == [replace(r, message=reference_normalize(r.message)) for r in raw]
        # The table holds each normalized message once, in first appearance.
        assert fused.texts == list(dict.fromkeys(fused.messages))


class TestMessageTable:
    """Each load holds one table of its distinct messages, which every set
    derived from it shares."""

    @given(_file_bytes(), st.sampled_from(["bgl", "hdfs", "hadoop", "plain"]), st.integers(1, 4),
           st.integers(1, 3), st.booleans())
    @example([b"- 1 2 3 4 5 6 7 8 Send 42\n", b"- 1 2 3 4 5 6 7 8 Send 7\n",
              b"KERNDTLB 1 2 3 4 5 6 7 8 Send 42\n", b"- 9 Send 42\n"], "bgl", 1, 1, True)
    @example([b"0 00 blk_1 x Id Blk_2 blk_1 blk_-3\n"] * 3 + [b"081109 1 2 3 4 x blk_2\n"],
             "hdfs", 2, 1, False)
    @example([b"a\n", b"b\n", b"a\n", b"c\n"], "hadoop", 1, 3, False)
    def test_one_table_per_load(self, lines, adapter, block, n_files, normalized):
        with tempfile.TemporaryDirectory() as tmp:
            path, labels = _write_corpus(Path(tmp), lines, adapter, n_files)
            with mock.patch.object(ingest, "BLOCK_LINES", block):
                rs = load(path, adapter, labels, normalize_block if normalized else None)
        messages = rs.messages
        # The table holds each message once, in first-appearance order...
        assert rs.texts == list(dict.fromkeys(messages))
        # ...so two records have equal ids exactly when their messages are equal.
        ids = rs.message_ids.tolist()
        assert all((ids[i] == ids[j]) == (messages[i] == messages[j])
                   for i in range(len(ids)) for j in range(i))
        derived = [sample(rs, 0.5, seed=3)]
        if rs.n_units >= 2:
            derived += split(rs, SplitSpec(0.5, seed=3))
        if len(rs) and not (rs.label_codes == ingest.LABEL_CODE[Label.UNKNOWN]).any():
            derived.append(filter_normal(rs))
        assert all(part.texts is rs.texts for part in derived)


_SPELLINGS = {Label.NORMAL: ["normal", "Normal", "NORMAL", "nOrMaL ", " normal"],
              Label.ANOMALY: ["anomaly", "Anomaly", "ANOMALY", "aNoMaLy ", " anomaly"]}


@st.composite
def _label_files(draw, keys):
    """The bytes of a label CSV over some of ``keys``, and the label it
    gives each key it names: keys in any order and at times twice with the
    same label, labels in mixed case, at times a header row and a
    byte-order mark."""
    truth = draw(st.dictionaries(st.sampled_from(keys),
                                 st.sampled_from([Label.NORMAL, Label.ANOMALY])))
    rows = [f"{draw(st.sampled_from(['', ' ']))}{key},{draw(st.sampled_from(_SPELLINGS[label]))}\n"
            for key, label in truth.items() for _ in range(draw(st.integers(1, 2)))]
    text = draw(st.sampled_from(["", "BlockId,Label\n", "application , label\n"]))
    text += "".join(draw(st.permutations(rows)))
    return ("\ufeff" if draw(st.booleans()) else "").encode() + text.encode(), truth


def _text_lines(data):
    """The lines of ``data`` read as text with universal newlines."""
    return list(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="replace"))


class TestKeyedLabels:
    """A keyed format's record takes its key's label in the label file, and
    unknown for a key the file lacks."""

    @given(_file_bytes(), st.sampled_from(KEYED), st.integers(1, 4), st.integers(1, 3),
           st.booleans(), st.data())
    def test_each_record_takes_its_keys_label(self, lines, adapter, block, n_files, normalized,
                                              data):
        # The key of each record, read from the raw text: the distinct block
        # ids of each hdfs line, in order; the file stem of each hadoop line.
        if adapter == "hdfs":
            keys = [key for line in _text_lines(b"".join(lines))
                    for key in dict.fromkeys(re.findall(r"blk_-?\d+", line))]
        else:
            keys = [f"app_{i}" for i in range(n_files)
                    for _ in _text_lines(b"".join(lines[i::n_files]))]
        # The file may name any of the corpus's keys, and keys the corpus lacks.
        csv_bytes, truth = data.draw(_label_files(sorted(set(keys)) + ["blk_99", "app_9"]))
        with tempfile.TemporaryDirectory() as tmp:
            path, labels = _write_corpus(Path(tmp), lines, adapter, n_files)
            labels.write_bytes(csv_bytes)
            with mock.patch.object(ingest, "BLOCK_LINES", block):
                rs = load(path, adapter, labels, normalize_block if normalized else None)
        assert [(r.seq_key, r.label) for r in rs] == [
            (key, truth.get(key, Label.UNKNOWN)) for key in keys]
        assert rs.label_codes.dtype == np.int8
