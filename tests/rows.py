"""Build a ``RecordSet`` from ``LogRecord`` rows, for tests that state their
records one row at a time.

Messages and sequence keys are numbered in their first appearance.
"""

import numpy as np

from logad.ingest import Granularity, RecordSet


def record_set(rows, granularity=Granularity.LINE):
    rows = list(rows)
    texts = list(dict.fromkeys(r.message for r in rows))
    text_id = {text: i for i, text in enumerate(texts)}
    keys = list(dict.fromkeys(r.seq_key for r in rows if r.seq_key is not None))
    key_id = {key: i for i, key in enumerate(keys)}
    return RecordSet(
        granularity,
        texts,
        np.array([text_id[r.message] for r in rows], dtype=np.int32),
        np.array([r.label for r in rows], dtype=np.int8),
        np.array([key_id.get(r.seq_key, -1) for r in rows], dtype=np.int32),
        keys,
        np.array([r.line_no for r in rows], dtype=np.int64),
    )

