"""Output checks and digests for one benchmark repetition.

The checks read the files a CLI user gets (``report*.json``, ``hist_*.csv``,
``grid.csv``) plus the score vectors the detectors returned, and compare
them with the generator's ground truth.  Every failed check is returned as
a message; a repetition with any message counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from workloads import expected_split

# Report fields that hold timings and so differ between repetitions.
_TIMING_KEYS = ("timings", "model_time")


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def read_reports(out_dir: Path) -> list[dict]:
    """Report files of one run, in the order of the rows of ``grid.csv``,
    which is the order the pipeline ran its cells in."""
    grid = out_dir / "grid.csv"
    if not grid.exists():
        return []
    with open(grid, newline="") as fh:
        order = [(row[1], row[2]) for row in list(csv.reader(fh))[1:]]
    reports = [json.loads(p.read_text()) for p in out_dir.glob("report*.json")]

    def position(rep):
        cell = (rep["meta"]["representation"], rep["meta"]["model"])
        return order.index(cell) if cell in order else len(order)

    return sorted(reports, key=position)


def report_digest(out_dir: Path) -> str:
    """sha256 over every output file, with timing fields and columns removed."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        text = path.read_text()
        if path.suffix == ".json":
            doc = json.loads(text)
            for key in _TIMING_KEYS:
                doc.pop(key, None)
            text = json.dumps(doc, sort_keys=True)
        elif path.name == "grid.csv":
            rows = list(csv.reader(io.StringIO(text)))
            keep = [i for i, col in enumerate(rows[0]) if not col.endswith("_s")]
            text = "\n".join(",".join(row[i] for i in keep) for row in rows)
        h.update(text.encode() + b"\0")
    return h.hexdigest()


def score_digest(scores: list[np.ndarray]) -> str:
    if not scores:
        return "not captured"
    h = hashlib.sha256()
    for s in scores:
        h.update(np.ascontiguousarray(s, dtype=np.float64).tobytes() + b"\0")
    return h.hexdigest()


def check_run(workload, meta: dict, reports: list[dict], scores: list[np.ndarray]) -> list[str]:
    """Check one run's reports and score vectors against the ground truth.

    ``scores`` is empty when the pipeline no longer calls the detectors
    through the names the benchmark wraps; the report checks still run.
    """
    errors = []
    cells = 12 if workload.entry == "run_grid" else 1
    if len(reports) != cells:
        errors.append(f"expected {cells} report files, found {len(reports)}")
    if scores and len(scores) != len(reports):
        errors.append(f"{len(scores)} score vectors for {len(reports)} reports")

    n_train, n_test = expected_split(meta)
    n_anomalous = meta["anomalous_units"]
    for i, rep in enumerate(reports):
        m = rep.get("meta", {})
        cell = f"{m.get('representation')}x{m.get('model')}"
        auc = rep.get("auc")
        if not (_finite(auc) and 0.0 <= auc <= 1.0):
            errors.append(f"{cell}: AUC {auc!r} not in [0, 1]")
        elif auc < workload.min_auc:
            errors.append(f"{cell}: AUC {auc:.4f} below the floor {workload.min_auc}")
        for key in ("best_f1", "best_threshold"):
            if not _finite(rep.get(key)):
                errors.append(f"{cell}: {key} {rep.get(key)!r} is not finite")

        if m.get("n_test_docs") != n_test:
            errors.append(f"{cell}: {m.get('n_test_docs')} test docs, ground truth {n_test}")
        bins = rep.get("histogram") or []
        # The histogram spans [min score, max score]: finite edges mean every
        # score is finite.
        if not all(_finite(b[0]) and _finite(b[1]) for b in bins):
            errors.append(f"{cell}: histogram range is not finite")
        test_normal = sum(b[2] for b in bins)
        test_anomalous = sum(b[3] for b in bins)
        if test_normal + test_anomalous != n_test:
            errors.append(
                f"{cell}: histogram holds {test_normal + test_anomalous} docs, expected {n_test}"
            )
        train_anomalous = n_anomalous - test_anomalous
        if not 0 <= train_anomalous <= n_train:
            errors.append(
                f"{cell}: {test_anomalous} anomalous test units, but the corpus has "
                f"{n_anomalous} and the train side {n_train}"
            )
        expected_train = n_train - train_anomalous if m.get("scenario") == "normal_only" else n_train
        if m.get("n_train_docs") != expected_train:
            errors.append(
                f"{cell}: {m.get('n_train_docs')} train docs, ground truth {expected_train}"
            )
        if i < len(scores):
            s = np.asarray(scores[i], dtype=np.float64)
            if s.shape != (n_test,):
                errors.append(f"{cell}: score vector shape {s.shape}, expected ({n_test},)")
            elif not np.isfinite(s).all():
                errors.append(f"{cell}: {int((~np.isfinite(s)).sum())} non-finite scores")
    return errors
