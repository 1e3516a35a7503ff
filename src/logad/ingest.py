"""Loading raw log files, attaching labels, sampling and train/test splits.

Adapters know the line layout of the supported benchmark formats:

* ``bgl`` / ``thunderbird``: line-labeled supercomputer logs.  The first
  whitespace-separated field is an alert tag, ``-`` meaning normal; the
  message body starts after nine header fields.
* ``hdfs``: sequence-labeled.  Block ids (``blk_...``) are pulled out of the
  message body and key the label CSV that ``load`` reads; a line naming
  several blocks is attributed to every one of them.
* ``hadoop``: a directory with one log file per application, with a label
  CSV keyed by file stem.
* ``plain``: one record per line, labels unknown.

Files are read in blocks of ``BLOCK_LINES`` lines, with universal newlines
("\r\n" and a lone "\r" end a line, as "\n" does) and a lossy UTF-8
fallback: the public corpora contain invalid bytes, which become U+FFFD.
Given a normalizer (``normalize_block``), ``load`` normalizes each block as
it reads it, so one block of raw lines is alive at a time.  hdfs reads
block ids from the raw line, because normalization turns their digits
into "0".

A load keeps one table of its distinct messages and its records hold int32
ids into it, so ingest alone decides which messages are equal.  Each block
parses its distinct lines once; no column holds a Python object per
record, and the sets that sample, split and filter derive share the table.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
# Loaded with the package, not on first use inside a run's timed work.
import numpy.random  # noqa: F401


class Label(IntEnum):
    """A label, whose value is its int8 code in a RecordSet's label column.
    The codes order the labels for the sequence-label rule: a sequence takes
    the highest among its records, so anomaly beats unknown beats normal."""

    NORMAL = 0
    UNKNOWN = 1
    ANOMALY = 2


_CSV_LABELS = {"normal": Label.NORMAL, "anomaly": Label.ANOMALY}


class Granularity(Enum):
    LINE = "line"
    SEQUENCE = "sequence"


class SplitMode(Enum):
    RANDOM = "random"
    CHRONOLOGICAL = "chronological"


class LoadError(ValueError):
    """Unreadable input, unknown adapter, or a missing, invalid or unread label file."""


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One record as a row; ``RecordSet`` stores records by column."""

    message: str
    line_no: int
    label: Label = Label.UNKNOWN
    seq_key: str | None = None


@dataclass(frozen=True, eq=False)
class RecordSet:
    """Ordered log records flowing through the pipeline, stored by column.

    ``texts`` lists the load's distinct messages in first-appearance order
    (raw, or normalized by ``load``'s normalizer), and the
    ``int32`` ``message_ids`` index it.  ``label_codes`` is ``int8`` (each
    a ``Label``); ``seq_ids`` is ``int32`` into ``seq_keys``, the keys in
    first-appearance order (-1 for none); ``line_nos`` is ``int64``.  Sets
    share columns and ``texts``, and never modify them in place.
    Iterating yields the records as ``LogRecord`` rows, built on every pass.
    """

    granularity: Granularity
    texts: list[str]
    message_ids: np.ndarray
    label_codes: np.ndarray
    seq_ids: np.ndarray
    seq_keys: list[str]
    line_nos: np.ndarray

    def __post_init__(self):
        n = len(self.message_ids)
        if not len(self.label_codes) == len(self.seq_ids) == len(self.line_nos) == n:
            raise ValueError(
                f"column lengths differ: {n} message ids, {len(self.label_codes)} label codes, "
                f"{len(self.seq_ids)} seq ids, {len(self.line_nos)} line numbers"
            )
        if self.granularity is Granularity.SEQUENCE and (keyless := self.seq_ids < 0).any():
            line_no = self.line_nos[np.argmax(keyless)]
            raise ValueError(f"sequence-granularity record at line {line_no} has no seq_key")
        for name, column, low, high in (("message id", self.message_ids, 0, len(self.texts) - 1),
                                        ("label code", self.label_codes, 0, Label.ANOMALY),
                                        ("seq id", self.seq_ids, -1, len(self.seq_keys) - 1)):
            if (bad := (column < low) | (column > high)).any():
                i = np.argmax(bad)
                raise ValueError(f"record at line {self.line_nos[i]} has {name} {column[i]}, "
                                 f"outside {low}..{high}")

    def __len__(self) -> int:
        return len(self.message_ids)

    @property
    def messages(self) -> list[str]:
        """Each record's message, as a list built on every call."""
        return list(map(self.texts.__getitem__, self.message_ids.tolist()))

    def __iter__(self) -> Iterator[LogRecord]:
        keys = self.seq_keys
        for message, line_no, code, sid in zip(self.messages, self.line_nos.tolist(),
                self.label_codes.tolist(), self.seq_ids.tolist()):
            yield LogRecord(message, line_no, Label(code), None if sid < 0 else keys[sid])

    @property
    def n_units(self) -> int:
        """Split units: lines, or distinct sequence keys."""
        return len(self) if self.granularity is Granularity.LINE else len(self.seq_keys)

    @property
    def unit_ids(self) -> np.ndarray | None:
        """The unit of each record: its sequence id, or None in a line set,
        where each record is its own unit."""
        return None if self.granularity is Granularity.LINE else self.seq_ids

    def unit_codes(self) -> np.ndarray:
        """The ``Label`` code of each unit: the largest among its records."""
        if self.unit_ids is None:
            return self.label_codes.copy()
        codes = np.zeros(self.n_units, dtype=np.int8)
        np.maximum.at(codes, self.unit_ids, self.label_codes)
        return codes

    def distinct_messages(self) -> tuple[list[str], np.ndarray]:
        """The distinct messages in first appearance, and each record's index among them."""
        order, index = _first_seen(self.message_ids, len(self.texts))
        return [self.texts[i] for i in order.tolist()], index

    def _take_units(self, unit_mask: np.ndarray) -> RecordSet:
        """The records of the units where ``unit_mask`` is true."""
        ids = self.unit_ids
        return self._take(np.flatnonzero(unit_mask if ids is None else unit_mask[ids]))

    def _take(self, index: np.ndarray) -> RecordSet:
        """The records at the ascending positions ``index``; the keys left
        are renumbered in their first appearance among them."""
        seq_ids, seq_keys = self.seq_ids[index], self.seq_keys
        if seq_keys:
            kept, seq_ids = _first_seen(seq_ids, len(seq_keys))
            seq_keys = [seq_keys[k] for k in kept.tolist()]
        return RecordSet(self.granularity, self.texts, self.message_ids[index],
                         self.label_codes[index], seq_ids, seq_keys, self.line_nos[index])


def _first_seen(ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The values in ``0..n-1`` of ``ids`` in first-appearance order, and the
    int32 index of each id's value among them (an id of -1 stays -1)."""
    first = np.full(n + 1, len(ids), dtype=np.int64)  # slot n takes the -1s
    np.minimum.at(first, ids, np.arange(len(ids)))
    order = np.argsort(first[:n])[:np.count_nonzero(first[:n] < len(ids))]
    new_id = np.full(n + 1, -1, dtype=np.int32)
    new_id[order] = np.arange(len(order))
    return order, new_id[ids]


@dataclass(frozen=True)
class SplitSpec:
    """Train/test split parameters; ``train_fraction`` is exclusive (0, 1)."""

    train_fraction: float
    seed: int = 0
    mode: SplitMode = SplitMode.RANDOM

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# Lines that load reads per block.  It bounds one block's transient strings
# and byte arrays: with 8,192-line blocks a 100,000-line BGL run peaked
# 4 MB higher.
BLOCK_LINES = 1024
# A block normalizer: a list of lines to the list of their normalized forms.
Normalizer = Callable[[list[str]], list[str]]


def _line_blocks(
    path: Path, normalizer: Normalizer | None
) -> Iterator[tuple[list[str], list[str]]]:
    """The lines of ``path`` in blocks of ``BLOCK_LINES``: each block's
    raw lines, and the same lines normalized by ``normalizer`` (the raw
    lines again without one)."""
    try:
        fh = open(path, encoding="utf-8", errors="replace")
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    with fh:
        while raw := [line.rstrip("\n") for line in islice(fh, BLOCK_LINES)]:
            yield raw, raw if normalizer is None else normalizer(raw)


def _read_label_csv(path: Path) -> dict[str, Label]:
    """Two-column CSV of (seq_key, label) to labels; label values are
    case-insensitive, and a key may repeat only with the same label."""
    rows: dict[str, tuple[Label, int]] = {}  # key -> (label, row number)
    try:
        # utf-8-sig drops a leading byte-order mark, which would join the first key.
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise LoadError(f"cannot read label file {path}: {exc}") from exc
    with fh:
        # Row numbers count blank rows too, so that they are file lines.
        filled = ((row_no, row) for row_no, row in enumerate(csv.reader(fh), 1) if row)
        for i, (row_no, row) in enumerate(filled):
            if len(row) < 2:
                raise LoadError(f"{path}: row {row_no} has fewer than 2 columns")
            label = _CSV_LABELS.get(row[1].strip().lower())
            if label is None:
                if i == 0:
                    continue  # header row: the first that is not blank
                raise LoadError(f"{path}: row {row_no} has label {row[1]!r}")
            key = row[0].strip()
            first, first_row = rows.setdefault(key, (label, row_no))
            if first is not label:
                # str() of an IntEnum member is its number on Python 3.11.
                raise LoadError(f"{path}: key {key!r} is {first.name.lower()} in "
                                f"row {first_row} but {label.name.lower()} in row {row_no}")
    return {key: label for key, (label, _) in rows.items()}


# Alert-tagged formats carry nine header fields before the message body.
_TAG_HEADER_FIELDS = 9
_BLOCK_ID = re.compile(r"blk_-?\d+")
_HDFS_HEADER_FIELDS = 5


def _load_tagged(path: Path, normalizer: Normalizer | None, texts: dict[str, int]) -> tuple:
    message_ids, codes, blank_lines = array("i"), bytearray(), array("q")
    add_id, add_code = message_ids.append, codes.append
    normal, anomaly = Label.NORMAL, Label.ANOMALY  # reading a member off Label is a call
    n_lines = 0
    for _, lines in _line_blocks(path, normalizer):
        parsed: dict[str, tuple[int, Label]] = {}  # each distinct line of the block split once
        for i, line in enumerate(lines, n_lines):
            row = parsed.get(line)
            if row is None:
                parts = line.split(maxsplit=_TAG_HEADER_FIELDS)
                if not parts:
                    blank_lines.append(i)
                    continue
                body = parts[_TAG_HEADER_FIELDS] if len(parts) > _TAG_HEADER_FIELDS else ""
                row = parsed[line] = (texts.setdefault(body, len(texts)),
                                      normal if parts[0] == "-" else anomaly)
            add_id(row[0])
            add_code(row[1])
        n_lines += len(lines)
    line_nos = np.delete(np.arange(n_lines), blank_lines)
    return Granularity.LINE, message_ids, codes, np.full(len(message_ids), -1), {}, line_nos


def _load_hdfs(path: Path, normalizer: Normalizer | None, texts: dict[str, int]) -> tuple:
    keys: dict[str, int] = {}
    message_ids, seq_ids, line_nos = array("i"), array("i"), array("q")
    add_id, add_seq_id, add_line_no = message_ids.append, seq_ids.append, line_nos.append
    n_lines = 0
    for raw, lines in _line_blocks(path, normalizer):
        parsed: dict[str, int] = {}  # each distinct line of the block split once
        for i, (raw_line, line) in enumerate(zip(raw, lines), n_lines):
            block_ids = _BLOCK_ID.findall(raw_line)
            if not block_ids:
                continue  # no block reference, nothing to attribute the line to
            msg_id = parsed.get(line)
            if msg_id is None:
                parts = line.split(maxsplit=_HDFS_HEADER_FIELDS)
                msg = parts[_HDFS_HEADER_FIELDS] if len(parts) > _HDFS_HEADER_FIELDS else line
                msg_id = parsed[line] = texts.setdefault(msg, len(texts))
            for bid in dict.fromkeys(block_ids):
                add_id(msg_id)
                add_seq_id(keys.setdefault(bid, len(keys)))
                add_line_no(i)
        n_lines += len(raw)
    return Granularity.SEQUENCE, message_ids, None, seq_ids, keys, line_nos


def _whole_lines(path: Path, normalizer: Normalizer | None, texts: dict[str, int]) -> array:
    """The message id in ``texts`` of every line of ``path``, each line a message."""
    ids = array("i")
    for _, lines in _line_blocks(path, normalizer):
        ids.extend([texts.setdefault(line, len(texts)) for line in lines])
    return ids


def _load_hadoop(path: Path, normalizer: Normalizer | None, texts: dict[str, int]) -> tuple:
    if not path.is_dir():
        raise LoadError(f"hadoop adapter expects a directory of per-application logs: {path}")
    message_ids, file_ids, file_lines = array("i"), array("i"), array("q")
    keys: dict[str, int] = {}
    # Line numbers run on across the files, in file-name order; a file
    # without lines gets no key.
    for app_file in sorted(p for p in path.iterdir() if p.is_file()):
        ids = _whole_lines(app_file, normalizer, texts)
        message_ids += ids
        if n := len(ids):
            file_ids.append(keys.setdefault(app_file.stem, len(keys)))
            file_lines.append(n)
    return (Granularity.SEQUENCE, message_ids, None, np.repeat(file_ids, file_lines), keys,
            np.arange(len(message_ids)))


def _load_plain(path: Path, normalizer: Normalizer | None, texts: dict[str, int]) -> tuple:
    message_ids = _whole_lines(path, normalizer, texts)
    n = len(message_ids)
    return (Granularity.LINE, message_ids, np.full(n, Label.UNKNOWN), np.full(n, -1), {},
            np.arange(n))


# An adapter returns the granularity and the columns of its records: message
# ids, label codes (None for a keyed format), seq ids, the key -> id dict and
# line numbers.  A message's id is its entry in ``texts``, the load's one
# table, which gains new ones.
ADAPTERS = {
    "bgl": _load_tagged,
    "thunderbird": _load_tagged,
    "hdfs": _load_hdfs,
    "hadoop": _load_hadoop,
    "plain": _load_plain,
}
# The keyed formats: their labels come per key from a label file, which
# only they read.
_KEYED = ("hdfs", "hadoop")


def load(path: str | Path, adapter: str, labels: str | Path | None = None,
         normalizer: Normalizer | None = None) -> RecordSet:
    """Load a log file (or directory, for hadoop) into a RecordSet.

    Every line is kept; ``sample`` draws a subset afterwards.  With
    ``normalizer`` (``normalize_block``) each block is normalized as it is
    read, and messages that normalize alike share one id.  A keyed format
    requires ``labels``, a (seq_key, label) CSV read before the log: each
    record takes its key's code, unknown for a key the file lacks.
    """
    if adapter not in ADAPTERS:
        raise LoadError(f"unknown adapter {adapter!r}; expected one of {sorted(ADAPTERS)}")
    if labels is None and adapter in _KEYED:
        raise LoadError(f"{adapter} adapter requires a label file (seq_key,label CSV)")
    if labels is not None and adapter not in _KEYED:
        raise LoadError(f"{adapter} adapter takes no label file; only {' and '.join(_KEYED)} do")
    key_labels = None if labels is None else _read_label_csv(Path(labels))
    texts: dict[str, int] = {}  # message -> id, in first-appearance order
    granularity, message_ids, codes, seq_ids, keys, line_nos = ADAPTERS[adapter](
        Path(path), normalizer, texts)
    seq_ids = np.asarray(seq_ids, dtype=np.int32)
    if key_labels is not None:
        codes = np.array([key_labels.get(key, Label.UNKNOWN) for key in keys], np.int8)[seq_ids]
    return RecordSet(granularity, list(texts), np.asarray(message_ids, dtype=np.int32),
                     np.asarray(codes, dtype=np.int8), seq_ids, list(keys),
                     np.asarray(line_nos, dtype=np.int64))


def sample(rs: RecordSet, fraction: float, seed: int) -> RecordSet:
    """Keep a uniform random sample of records, preserving original order.

    Exactly round-half-up(fraction * n) records are kept, without
    replacement, deterministically for a fixed seed.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n = len(rs)
    count = _round_half_up(fraction * n)
    if count >= n:
        return rs
    rng = np.random.default_rng(seed)
    return rs._take(np.sort(rng.choice(n, size=count, replace=False)))


def split(rs: RecordSet, spec: SplitSpec) -> tuple[RecordSet, RecordSet]:
    """Partition into train/test along whole units (lines or sequences).

    Units are numbered in order of first appearance; a random split draws a
    seeded permutation of them, a chronological one takes a prefix.
    """
    if not len(rs):
        raise ValueError("cannot split an empty RecordSet")
    n_units = rs.n_units
    train_count = _round_half_up(spec.train_fraction * n_units)
    if train_count == 0 or train_count == n_units:
        raise ValueError(
            f"train_fraction {spec.train_fraction} leaves an empty side "
            f"({train_count} of {n_units} units in train)"
        )
    in_train = np.zeros(n_units, dtype=bool)
    if spec.mode is SplitMode.RANDOM:
        in_train[np.random.default_rng(spec.seed).permutation(n_units)[:train_count]] = True
    else:
        in_train[:train_count] = True
    return rs._take_units(in_train), rs._take_units(~in_train)


def filter_normal(train: RecordSet) -> RecordSet:
    """Drop anomalous units, producing the normal-only training variant.

    Requires every label to be known: the normal-only scenario models
    curated data, so unknown labels are an error rather than a guess.
    """
    unknown = train.label_codes == Label.UNKNOWN
    if unknown.any():
        line_no = train.line_nos[np.argmax(unknown)]
        raise ValueError(f"record at line {line_no} has an unknown label")
    return train._take_units(train.unit_codes() == Label.NORMAL)
