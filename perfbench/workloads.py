"""Benchmark workloads and their seeded input corpora.

Every input is generated from the benchmark seed with ``logad.gen_synthetic``
(defaults untouched: 20 templates, ``unseen_token`` anomalies) and cached on
disk per (workload, seed, scale), so generation never falls inside timed or
traced work.  The program under test only ever sees the generated files.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRAIN_FRACTION = 0.05
BGL_ANOMALY_SHARE = 0.01
HDFS_LINES_PER_BLOCK = 20
HDFS_ANOMALOUS_BLOCK_SHARE = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "run" or "run_grid"
    corpus: str  # "bgl" or "hdfs"
    lines: int  # input lines at scale 1
    scenario: str
    representation: str = "words"
    model: str = "rm"
    min_auc: float = 0.0  # quality floor the run must reach


WORKLOADS = {
    w.name: w
    for w in (
        # Ingest and normalize dominate; detect is negligible.
        Workload("line_words_rm", "run", "bgl", 100_000, "normal_only",
                 "words", "rm", min_auc=0.99),
        # run_grid repeats the front end in all 12 cells; the only workload on
        # the sequence paths (hdfs adapter, sequence split/filter, flatten).
        Workload("grid_hdfs", "run_grid", "hdfs", 12_500, "normal_only"),
    )
}


def pipeline_seed(seed: int) -> int:
    """Seed handed to the pipeline; derived from, but not equal to, the corpus seed."""
    return (seed * 7919 + 1) % 2**31


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _bgl_messages(path: Path) -> tuple[list[str], np.ndarray]:
    """Message bodies and anomaly flags of a generated BGL-style file."""
    messages, anomalous = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split(maxsplit=9)
            messages.append(parts[9])
            anomalous.append(parts[0] != "-")
    return messages, np.asarray(anomalous, dtype=bool)


def _gen_bgl(logad, path: Path, n_lines: int, seed: int) -> dict:
    n_anomalies = round_half_up(BGL_ANOMALY_SHARE * n_lines)
    logad.gen_synthetic(path, n_lines - n_anomalies, n_anomalies, seed=seed)
    return {"lines": n_lines, "units": n_lines, "anomalous_units": n_anomalies}


def _gen_hdfs(logad, directory: Path, n_lines: int, seed: int) -> dict:
    """HDFS-format corpus: generated lines spread, interleaved, over block ids.

    Every block gets the same number of lines, shuffled across the file, and
    the block id sits in the message as in real HDFS logs.  A block is
    anomalous iff any of its lines is; the label CSV says so.
    """
    n_blocks = max(2, n_lines // HDFS_LINES_PER_BLOCK)
    n_anomalies = max(1, round_half_up(HDFS_ANOMALOUS_BLOCK_SHARE * n_blocks))
    source = directory / "source.log"
    logad.gen_synthetic(source, n_lines - n_anomalies, n_anomalies, seed=seed)
    messages, anomalous = _bgl_messages(source)
    source.unlink()

    rng = np.random.default_rng([seed, 1])
    block_of_line = rng.permutation(np.arange(n_lines) % n_blocks)
    block_ids = rng.choice([-1, 1], size=n_blocks) * rng.integers(1, 2**62, size=n_blocks)
    block_anomalous = np.zeros(n_blocks, dtype=bool)
    block_anomalous[block_of_line[anomalous]] = True

    with open(directory / "hdfs.log", "w", encoding="utf-8") as fh:
        for i, msg in enumerate(messages):
            fh.write(
                f"081109 {203615 + i % 3600:06d} {143 + i % 97} INFO "
                f"dfs.DataNode$PacketResponder: {msg} for block "
                f"blk_{block_ids[block_of_line[i]]}\n"
            )
    with open(directory / "labels.csv", "w", encoding="utf-8") as fh:
        fh.write("BlockId,Label\n")
        for bid, bad in zip(block_ids, block_anomalous):
            fh.write(f"blk_{bid},{'Anomaly' if bad else 'Normal'}\n")
    return {
        "lines": n_lines,
        "units": n_blocks,
        "anomalous_units": int(block_anomalous.sum()),
    }


def corpus(logad, work_dir: Path, workload: Workload, seed: int, scale: float) -> dict:
    """Return the cached corpus description for (workload, seed, scale).

    Generates it on first use.  Corpora of the same workload for other
    seeds or sizes are evicted, so the cache holds one corpus per workload.
    """
    # Small enough for a self-test, large enough for k-means on the train side.
    n_lines = max(8000, round_half_up(workload.lines * scale))
    root = work_dir / "corpus"
    directory = root / f"{workload.name}-s{seed}-n{n_lines}"
    meta_path = directory / "meta.json"
    if meta_path.exists():
        return json.loads(meta_path.read_text())

    if root.exists():
        for old in root.glob(f"{workload.name}-*"):
            shutil.rmtree(old)
    directory.mkdir(parents=True)
    if workload.corpus == "bgl":
        meta = _gen_bgl(logad, directory / "bgl.log", n_lines, seed)
        meta.update(input=str(directory / "bgl.log"), adapter="bgl", labels=None)
    else:
        meta = _gen_hdfs(logad, directory, n_lines, seed)
        meta.update(
            input=str(directory / "hdfs.log"),
            adapter="hdfs",
            labels=str(directory / "labels.csv"),
        )
    # meta.json is written last: its presence marks a complete corpus.
    tmp = directory / "meta.json.tmp"
    tmp.write_text(json.dumps(meta))
    tmp.rename(meta_path)
    return meta


def expected_split(meta: dict) -> tuple[int, int]:
    """(train units, test units) that a split at TRAIN_FRACTION must produce."""
    train = round_half_up(TRAIN_FRACTION * meta["units"])
    return train, meta["units"] - train
