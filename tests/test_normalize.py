import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from logad import ingest
from logad.ingest import load, sample
from logad.normalize import normalize_block, normalize_message
from reference import reference_normalize


# Characters whose lowercase changes length or depends on context (final
# sigma, with case-ignorable marks around it), ASCII and non-ASCII digits,
# lone surrogates (which the default text strategy leaves out), and the
# "\n" the batched pass joins messages with.
_TRICKY = st.sampled_from(["İ", "Σ", "σ", "ς", "A", "b", "'", "\u0301", "ﬁ", "0", "0", "7", "9",
                           "٣", "\ud800", "\udfff", "\udc80", " ", "\n"])
_ANY_TEXT = (st.text(alphabet=_TRICKY, max_size=12)
             | st.text(alphabet=st.characters(exclude_categories=()), max_size=12))


def test_time_example():
    assert normalize_message("Time 12:34:56") == "time 0:0:0"


def test_ddr_example():
    raw = "4 ddr error(s) detected and corrected on rank 0, symbol 11 over 20609 seconds"
    expected = "0 ddr error(s) detected and corrected on rank 0, symbol 0 over 0 seconds"
    assert normalize_message(raw) == expected


def test_empty():
    assert normalize_message("") == ""


def test_digit_run_inside_word():
    assert normalize_message("v100 A") == "v0 a"


def test_unicode_digits_untouched():
    # only ASCII digits are rewritten
    assert normalize_message("x٣") == "x٣"


@given(_ANY_TEXT | st.text())
def test_idempotent(s):
    once = normalize_message(s)
    assert normalize_message(once) == once


@given(_ANY_TEXT | st.text())
def test_output_invariants(s):
    out = normalize_message(s)
    assert not re.search("[1-9]", out)
    assert "00" not in out
    # no uppercase survives
    assert out == out.lower()


@given(st.text(alphabet=" \t.,:;()[]{}!?/-_=#@", max_size=40))
def test_non_alphanumerics_preserved(s):
    assert normalize_message(s) == s


def _load_lines(lines, normalized):
    """The plain load of a file of ``lines``, raw or normalized while read."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8",
                        errors="surrogatepass")
        return load(path, "plain", normalizer=normalize_block if normalized else None)


def test_normalized_load_keeps_order_and_fields():
    out = _load_lines(["Send 42", "OK"], normalized=True)
    assert out.messages == ["send 0", "ok"]
    assert out.line_nos.tolist() == [0, 1]


@given(_ANY_TEXT)
@example("00ab00")
@example("0")
@example("99999 x 12")
@example("٣00٣ 0٣0")
@example("İΣ AΣ ΣΣ")
@example("\ud800 00 \udfff0")
@example("0\ud80000\udc80")
def test_normalize_message_matches_reference(s):
    assert normalize_message(s) == reference_normalize(s)


@given(st.lists(_ANY_TEXT | st.text(max_size=8), max_size=10), st.integers(1, 4))
@example(["AΣ", "B"], 1)
@example(["Σ", "aΣ'", "'Σb"], 2)
@example(["12", "34", "0"], 2)
@example(["", "", ""], 2)
@example(["a\nΣ", "İ\n", "\n"], 1)
@example(["00", "0\n0", "\n00\n", "0"], 2)
@example([], 1)
def test_batched_normalize_equals_per_message(messages, block):
    # Blocks of ``block`` messages, each normalized as one "\n"-joined text.
    out = [m for start in range(0, len(messages), block)
           for m in normalize_block(messages[start:start + block])]
    assert out == [normalize_message(m) for m in messages]
    assert out == [reference_normalize(m) for m in messages]


def test_records_longer_than_one_block():
    n = 2 * ingest.BLOCK_LINES + 3
    lines = [f"Line {i:07d} at 0x00{i}" for i in range(n)]
    # Non-ASCII lines on both sides of the first block boundary and last.
    for i in (ingest.BLOCK_LINES - 1, ingest.BLOCK_LINES, n - 1):
        lines[i] = f"Σ 00{i} İ0{i}Σ"
    assert _load_lines(lines, normalized=True).messages == [reference_normalize(m) for m in lines]


# Lines of tricky text; a "\n" or a lone surrogate in one is written as it
# is, so the file holds more lines or an invalid byte, which both loads read.
@given(st.lists(st.text(alphabet=_TRICKY, max_size=8), min_size=1, max_size=20),
       st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
def test_normalizing_a_sample_normalizes_its_records(lines, fraction, seed):
    sampled = sample(_load_lines(lines, normalized=False), fraction, seed)
    out = sample(_load_lines(lines, normalized=True), fraction, seed)
    assert out.messages == [normalize_message(m) for m in sampled.messages]
    assert out.line_nos.tolist() == sampled.line_nos.tolist()


# Raw lines that normalize alike.
_REPEATS = st.sampled_from(["Send 42", "send 7", "OK", "ok", "B 1", "b 22", "", "Σ 0", "σ 00"])


@given(st.lists(_REPEATS, max_size=14), st.integers(1, 4))
@example(["B 1", "b 22", "B 1", "ok", "OK"], 4)
def test_messages_that_normalize_alike_share_one_id(lines, block):
    with mock.patch.object(ingest, "BLOCK_LINES", block):
        out = _load_lines(lines, normalized=True)
    assert out.messages == [normalize_message(m) for m in lines]
    # One table entry per distinct normalized message, in first appearance.
    assert out.texts == list(dict.fromkeys(out.messages))
    assert out.message_ids.dtype == np.int32
