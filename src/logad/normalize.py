"""Log message normalization.

Parameters (timestamps, counters, addresses) dominate the variable parts of
log messages.  Instead of per-pattern masking regexes, three cheap string
operations are applied, in this order:

1. lowercase every letter,
2. replace each ASCII digit with '0',
3. collapse every run of consecutive zeros to a single '0'.

"Time 12:34:56" becomes "time 0:0:0".

Step 3 runs in numpy over the UTF-8 bytes of the text: byte 0x30 only ever
encodes "0" in UTF-8 (every byte of a multi-byte character is 0x80 or
above), so dropping each 0x30 byte that follows another one collapses the
zero runs and leaves every other character whole.  Lone surrogates, which
Python strings may hold, round-trip through the ``surrogatepass`` handler.
"""

from dataclasses import replace
from itertools import islice

import numpy as np

from .ingest import RecordSet

_DIGITS_TO_ZERO = str.maketrans("123456789", "000000000")
_ZERO = ord("0")
# Messages normalized per call in normalize_records; it bounds the size of
# the transient byte arrays.
_BLOCK = 8192


def normalize_message(raw: str) -> str:
    """Return the normalized form of a raw log message.

    Idempotent; only ASCII digits are rewritten (Unicode digits pass
    through untouched), and non-alphanumeric characters are preserved.
    Every call goes through numpy for the zero-run step.
    """
    data = np.frombuffer(
        raw.lower().translate(_DIGITS_TO_ZERO).encode("utf-8", "surrogatepass"), dtype=np.uint8
    )
    zero = data == _ZERO
    keep = np.ones(len(data), dtype=bool)
    np.logical_not(zero[1:] & zero[:-1], out=keep[1:])
    return data[keep].tobytes().decode("utf-8", "surrogatepass")


def normalize_records(rs: RecordSet) -> RecordSet:
    r"""The set with every message normalized; ``rs`` keeps its own.

    The messages are normalized in blocks of ``_BLOCK``, each block as one
    string joined with "\n".  That equals normalizing each message: no step
    rewrites "\n", a zero run cannot span it, and the one context-dependent
    case mapping, a final sigma, does not look past it.  A message that
    contains "\n" itself comes back in as many pieces, which are joined
    again.  Within a block, equal normalized messages are one string object:
    logs repeat their messages, so the set holds about one string per
    distinct message and block, and a dict of at most one block's strings.
    """
    messages = rs.messages
    normalized: list[str] = []
    for start in range(0, len(messages), _BLOCK):
        block = messages[start:start + _BLOCK]
        pieces = normalize_message("\n".join(block)).split("\n")
        if len(pieces) != len(block):
            rest = iter(pieces)
            pieces = ["\n".join(islice(rest, msg.count("\n") + 1)) for msg in block]
        first: dict[str, str] = {}
        normalized += map(first.setdefault, pieces, pieces)
    return replace(rs, messages=normalized)
