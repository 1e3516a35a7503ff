"""Build a ``RecordSet`` from ``LogRecord`` rows, for tests that state their
records one row at a time, and merge a sequence set's token sequences into
one reference document per sequence.

Messages and sequence keys are numbered in their first appearance.
"""

import numpy as np

from logad.ingest import LABEL_CODE, Granularity, RecordSet
from logad.represent import TokenSeq


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
        np.array([LABEL_CODE[r.label] for r in rows], dtype=np.int8),
        np.array([key_id.get(r.seq_key, -1) for r in rows], dtype=np.int32),
        keys,
        np.array([r.line_no for r in rows], dtype=np.int64),
    )


def flatten_sequences(rs, token_seqs):
    """The reference documents of a sequence set: per-record token sequences
    merged into one document per sequence key, in line order, so the total
    token count is kept.  The documents are in the order of ``rs.seq_keys``."""
    if rs.granularity is not Granularity.SEQUENCE:
        raise ValueError("flattening requires sequence granularity")
    if len(rs) != len(token_seqs):
        raise ValueError(f"{len(rs)} records but {len(token_seqs)} token sequences")
    merged = [[] for _ in rs.seq_keys]
    for seq_id, ts in zip(rs.seq_ids.tolist(), token_seqs):
        merged[seq_id].extend(ts.terms)
    return [TokenSeq.of(terms) for terms in merged]
