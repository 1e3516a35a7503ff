import re

from hypothesis import example, given
from hypothesis import strategies as st

from logad.ingest import LogRecord, sample
from logad.normalize import normalize_message, normalize_records
from rows import record_set


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


@given(st.text())
def test_idempotent(s):
    once = normalize_message(s)
    assert normalize_message(once) == once


@given(st.text())
def test_output_invariants(s):
    out = normalize_message(s)
    assert not re.search("[1-9]", out)
    assert "00" not in out
    # no uppercase survives
    assert out == out.lower()


@given(st.text(alphabet=" \t.,:;()[]{}!?/-_=#@", max_size=40))
def test_non_alphanumerics_preserved(s):
    assert normalize_message(s) == s


def test_normalize_records_keeps_order_and_fields():
    rs = record_set([LogRecord(message="Send 42", line_no=0), LogRecord(message="OK", line_no=1)])
    out = normalize_records(rs)
    assert [r.message for r in out] == ["send 0", "ok"]
    assert [r.line_no for r in out] == [0, 1]
    assert rs.messages == ["Send 42", "OK"]


# Characters whose lowercase changes length or depends on context (final
# sigma, with case-ignorable marks around it), digits, and the "\n" the
# batched pass joins messages with.
_TRICKY = st.sampled_from(["İ", "Σ", "σ", "ς", "A", "b", "'", "\u0301", "ﬁ", "0", "7", "9",
                           " ", "\n"])


@given(st.lists(st.text(alphabet=_TRICKY, max_size=8) | st.text(max_size=8), max_size=10))
@example(["AΣ", "B"])
@example(["Σ", "aΣ'", "'Σb"])
@example(["12", "34", "0"])
@example(["", "", ""])
@example(["a\nΣ", "İ\n", "\n"])
@example([])
def test_batched_normalize_equals_per_message(messages):
    rs = record_set(LogRecord(message=m, line_no=i) for i, m in enumerate(messages))
    out = normalize_records(rs)
    assert out.messages == [normalize_message(m) for m in messages]
    assert rs.messages == messages


@given(st.lists(st.text(alphabet=_TRICKY, max_size=8), min_size=1, max_size=20),
       st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
def test_normalizing_a_sample_normalizes_its_records(messages, fraction, seed):
    rs = record_set(LogRecord(message=m, line_no=i) for i, m in enumerate(messages))
    sampled = sample(rs, fraction, seed)
    out = normalize_records(sampled)
    assert out.messages == [normalize_message(r.message) for r in sampled]
    assert out.messages == sample(normalize_records(rs), fraction, seed).messages
