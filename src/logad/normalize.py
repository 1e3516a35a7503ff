"""Log message normalization.

Parameters (timestamps, counters, addresses) dominate the variable parts of
log messages.  Instead of per-pattern masking regexes, three cheap string
operations are applied, in this order:

1. lowercase every letter,
2. replace each ASCII digit with '0',
3. collapse every run of consecutive zeros to a single '0'.

"Time 12:34:56" becomes "time 0:0:0".
"""

import re
from dataclasses import replace
from itertools import islice

from .ingest import RecordSet

_DIGITS_TO_ZERO = str.maketrans("123456789", "000000000")
_ZERO_RUN = re.compile("0{2,}")


def normalize_message(raw: str) -> str:
    """Return the normalized form of a raw log message.

    Idempotent; only ASCII digits are rewritten (Unicode digits pass
    through untouched), and non-alphanumeric characters are preserved.
    """
    return _ZERO_RUN.sub("0", raw.lower().translate(_DIGITS_TO_ZERO))


def normalize_records(rs: RecordSet) -> RecordSet:
    r"""The set with every message normalized; ``rs`` keeps its own.

    The messages are normalized as one string, joined with "\n".  That
    equals normalizing each one: no step rewrites "\n", a zero run cannot
    span it, and the one context-dependent case mapping, a final sigma,
    does not look past it.  A message that contains "\n" itself comes back
    in as many pieces, which are joined again.
    """
    normalized = normalize_message("\n".join(rs.messages)).split("\n")
    if len(normalized) != len(rs):
        pieces = iter(normalized)
        normalized = ["\n".join(islice(pieces, msg.count("\n") + 1)) for msg in rs.messages]
    return replace(rs, messages=normalized)
