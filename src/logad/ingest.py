"""Loading raw log files, attaching labels, sampling and train/test splits.

Adapters know the line layout of the supported benchmark formats:

* ``bgl`` / ``thunderbird``: line-labeled supercomputer logs.  The first
  whitespace-separated field is an alert tag, ``-`` meaning normal; the
  message body starts after nine header fields.
* ``hdfs``: sequence-labeled.  Block ids (``blk_...``) are pulled out of the
  message body and joined against a label CSV; a line naming several blocks
  is attributed to every one of them.
* ``hadoop``: a directory with one log file per application plus a label CSV
  keyed by file stem.
* ``plain``: one record per line, labels unknown.

Files are read line by line with a lossy UTF-8 fallback (the public corpora
contain invalid bytes).
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator

import numpy as np


class Label(Enum):
    NORMAL = "normal"
    ANOMALY = "anomaly"
    UNKNOWN = "unknown"


class Granularity(Enum):
    LINE = "line"
    SEQUENCE = "sequence"


class SplitMode(Enum):
    RANDOM = "random"
    CHRONOLOGICAL = "chronological"


class LoadError(ValueError):
    """Unreadable input, unknown adapter, or a missing/invalid label file."""


@dataclass(frozen=True, slots=True)
class LogRecord:
    raw: str
    line_no: int
    label: Label = Label.UNKNOWN
    seq_key: str | None = None
    normalized: str | None = None


@dataclass
class RecordSet:
    """Ordered collection of log records flowing through the pipeline."""

    records: list[LogRecord]
    granularity: Granularity = Granularity.LINE

    def __post_init__(self):
        if self.granularity is Granularity.SEQUENCE:
            for r in self.records:
                if r.seq_key is None:
                    raise ValueError(
                        f"sequence-granularity record at line {r.line_no} has no seq_key"
                    )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records)

    def labels(self) -> list[Label]:
        return [r.label for r in self.records]


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


def _iter_lines(path: Path) -> Iterator[str]:
    try:
        fh = open(path, encoding="utf-8", errors="replace")
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    with fh:
        for line in fh:
            yield line.rstrip("\n").rstrip("\r")


def _read_label_csv(path: Path) -> dict[str, Label]:
    """Two-column CSV of (seq_key, label); label values are case-insensitive."""
    mapping: dict[str, Label] = {}
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise LoadError(f"cannot read label file {path}: {exc}") from exc
    with fh:
        for row_no, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            if len(row) < 2:
                raise LoadError(f"{path}: row {row_no + 1} has fewer than 2 columns")
            key, value = row[0].strip(), row[1].strip().lower()
            if value == "normal":
                mapping[key] = Label.NORMAL
            elif value == "anomaly":
                mapping[key] = Label.ANOMALY
            elif row_no == 0:
                continue  # header row
            else:
                raise LoadError(f"{path}: row {row_no + 1} has label {row[1]!r}")
    return mapping


# Alert-tagged formats carry nine header fields before the message body.
_TAG_HEADER_FIELDS = 9
_BLOCK_ID = re.compile(r"blk_-?\d+")
_HDFS_HEADER_FIELDS = 5


def _load_tagged(path: Path, labels: Path | None) -> RecordSet:
    records = []
    for i, line in enumerate(_iter_lines(path)):
        if not line.strip():
            continue
        parts = line.split(maxsplit=_TAG_HEADER_FIELDS)
        label = Label.NORMAL if parts[0] == "-" else Label.ANOMALY
        msg = parts[_TAG_HEADER_FIELDS] if len(parts) > _TAG_HEADER_FIELDS else ""
        records.append(LogRecord(raw=msg, line_no=i, label=label))
    return RecordSet(records, Granularity.LINE)


def _load_hdfs(path: Path, labels: Path | None) -> RecordSet:
    if labels is None:
        raise LoadError("hdfs adapter requires a label file (seq_key,label CSV)")
    seq_labels = _read_label_csv(labels)
    records = []
    for i, line in enumerate(_iter_lines(path)):
        if not line.strip():
            continue
        block_ids = _BLOCK_ID.findall(line)
        if not block_ids:
            continue  # no block reference, nothing to attribute the line to
        parts = line.split(maxsplit=_HDFS_HEADER_FIELDS)
        msg = parts[_HDFS_HEADER_FIELDS] if len(parts) > _HDFS_HEADER_FIELDS else line
        for bid in dict.fromkeys(block_ids):
            records.append(
                LogRecord(
                    raw=msg,
                    line_no=i,
                    label=seq_labels.get(bid, Label.UNKNOWN),
                    seq_key=bid,
                )
            )
    return RecordSet(records, Granularity.SEQUENCE)


def _load_hadoop(path: Path, labels: Path | None) -> RecordSet:
    if labels is None:
        raise LoadError("hadoop adapter requires a label file (seq_key,label CSV)")
    if not path.is_dir():
        raise LoadError(f"hadoop adapter expects a directory of per-application logs: {path}")
    seq_labels = _read_label_csv(labels)
    app_files = sorted(p for p in path.iterdir() if p.is_file())
    # Line numbers run on across the files, in file-name order.
    lines = ((f.stem, line) for f in app_files for line in _iter_lines(f))
    records = [
        LogRecord(raw=line, line_no=i, label=seq_labels.get(app, Label.UNKNOWN), seq_key=app)
        for i, (app, line) in enumerate(lines)
    ]
    return RecordSet(records, Granularity.SEQUENCE)


def _load_plain(path: Path, labels: Path | None) -> RecordSet:
    records = [LogRecord(raw=line, line_no=i) for i, line in enumerate(_iter_lines(path))]
    return RecordSet(records, Granularity.LINE)


ADAPTERS = {
    "bgl": _load_tagged,
    "thunderbird": _load_tagged,
    "hdfs": _load_hdfs,
    "hadoop": _load_hadoop,
    "plain": _load_plain,
}


def load(path: str | Path, adapter: str, labels: str | Path | None = None) -> RecordSet:
    """Load a log file (or directory, for hadoop) into a RecordSet.

    Every line is kept; ``sample`` draws a subset afterwards.
    """
    if adapter not in ADAPTERS:
        raise LoadError(f"unknown adapter {adapter!r}; expected one of {sorted(ADAPTERS)}")
    return ADAPTERS[adapter](Path(path), None if labels is None else Path(labels))


def sample(rs: RecordSet, fraction: float, seed: int) -> RecordSet:
    """Keep a uniform random sample of records, preserving original order.

    Exactly round-half-up(fraction * n) records are kept, without
    replacement, deterministically for a fixed seed.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n = len(rs.records)
    count = _round_half_up(fraction * n)
    if count >= n:
        return RecordSet(list(rs.records), rs.granularity)
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(n, size=count, replace=False))
    return RecordSet([rs.records[i] for i in keep], rs.granularity)


def _units(rs: RecordSet) -> list:
    """Split units: record indices at line granularity, seq keys otherwise."""
    if rs.granularity is Granularity.LINE:
        return list(range(len(rs.records)))
    return list(dict.fromkeys(r.seq_key for r in rs.records))


def split(rs: RecordSet, spec: SplitSpec) -> tuple[RecordSet, RecordSet]:
    """Partition into train/test along whole units (lines or sequences)."""
    if not rs.records:
        raise ValueError("cannot split an empty RecordSet")
    units = _units(rs)
    n_units = len(units)
    train_count = _round_half_up(spec.train_fraction * n_units)
    if train_count == 0 or train_count == n_units:
        raise ValueError(
            f"train_fraction {spec.train_fraction} leaves an empty side "
            f"({train_count} of {n_units} units in train)"
        )
    if spec.mode is SplitMode.RANDOM:
        order = np.random.default_rng(spec.seed).permutation(n_units)
        chosen = {units[i] for i in order[:train_count]}
    else:
        chosen = set(units[:train_count])

    if rs.granularity is Granularity.LINE:
        in_train = [i in chosen for i in range(len(rs.records))]
    else:
        in_train = [r.seq_key in chosen for r in rs.records]
    train = [r for r, t in zip(rs.records, in_train) if t]
    test = [r for r, t in zip(rs.records, in_train) if not t]
    return RecordSet(train, rs.granularity), RecordSet(test, rs.granularity)


def sequence_labels(rs: RecordSet) -> dict[str, Label]:
    """Label of each sequence, keyed in first-appearance order of the keys.

    Anomaly beats unknown and unknown beats normal: a sequence is anomalous
    if any member record is, else unknown if any member is.
    """
    if rs.granularity is not Granularity.SEQUENCE:
        raise ValueError("sequence labels require sequence granularity")
    labels: dict[str, Label] = {}
    for r in rs.records:
        current = labels.setdefault(r.seq_key, r.label)
        if current is not Label.ANOMALY and r.label is not Label.NORMAL:
            labels[r.seq_key] = r.label
    return labels


def filter_normal(train: RecordSet) -> RecordSet:
    """Drop anomalous units, producing the normal-only training variant.

    Requires every label to be known: the normal-only scenario models
    curated data, so unknown labels are an error rather than a guess.
    """
    for r in train.records:
        if r.label is Label.UNKNOWN:
            raise ValueError(f"record at line {r.line_no} has an unknown label")
    if train.granularity is Granularity.LINE:
        kept = [r for r in train.records if r.label is Label.NORMAL]
    else:
        labels = sequence_labels(train)
        kept = [r for r in train.records if labels[r.seq_key] is Label.NORMAL]
    return RecordSet(kept, train.granularity)
