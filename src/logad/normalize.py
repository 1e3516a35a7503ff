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

Messages are normalized a block at a time (``normalize_block``), each block
as one "\\n"-joined text.  ``load`` normalizes each block of lines as it
reads it, when given ``normalize_block``.
"""

from itertools import islice

import numpy as np

_DIGITS_TO_ZERO = str.maketrans("123456789", "000000000")
_ZERO = ord("0")


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


def normalize_block(messages: list[str]) -> list[str]:
    r"""Each message normalized, in one pass over the block joined with "\n".

    That equals normalizing each message: no step rewrites "\n", a zero run
    cannot span it, and the one context-dependent case mapping, a final
    sigma, does not look past it.  A message that contains "\n" itself
    comes back in as many pieces, which are joined again.
    """
    pieces = normalize_message("\n".join(messages)).split("\n")
    if len(pieces) != len(messages):
        rest = iter(pieces)
        pieces = ["\n".join(islice(rest, msg.count("\n") + 1)) for msg in messages]
    return pieces

