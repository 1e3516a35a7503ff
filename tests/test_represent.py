import pytest
from hypothesis import given
from hypothesis import strategies as st

from logad.ingest import Granularity, Label, LogRecord, filter_normal
from logad.represent import (
    UNSEEN_EVENT,
    WILDCARD,
    DrainParser,
    TokenSeq,
    tokenize_trigrams,
    tokenize_words,
)
from reference import flatten_sequences
from rows import record_set


class TestWords:
    def test_example(self):
        assert tokenize_words("0 ddr error(s) detected").terms == [
            "0",
            "ddr",
            "error(s)",
            "detected",
        ]

    def test_empty(self):
        ts = tokenize_words("")
        assert ts.terms == []

    def test_whitespace_runs(self):
        assert tokenize_words("a  b").terms == ["a", "b"]
        assert tokenize_words(" a\tb ").terms == ["a", "b"]

    @given(st.text())
    def test_no_empty_terms(self, s):
        assert all(t for t in tokenize_words(s).terms)


class TestTrigrams:
    def test_stopping_prefix(self):
        assert tokenize_trigrams("Stopping...").terms[:3] == ["Sto", "top", "opp"]

    def test_short_message_fallback(self):
        assert tokenize_trigrams("ab").terms == ["ab"]
        assert tokenize_trigrams("").terms == [""]

    def test_window_definition(self):
        assert tokenize_trigrams("abcd").terms == ["abc", "bcd"]

    @given(st.text(min_size=3))
    def test_length_law(self, s):
        ts = tokenize_trigrams(s)
        assert len(ts.terms) == len(s) - 2

    @given(st.text(max_size=2))
    def test_short_single_term(self, s):
        assert tokenize_trigrams(s).terms == [s]


class TestDrain:
    def test_identical_messages_share_group(self):
        p = DrainParser()
        e1 = p.fit_line("send a")
        e2 = p.fit_line("send a")
        assert e1 == e2
        assert p.groups()[0].template == ["send", "a"]

    def test_merge_at_similarity_half(self):
        p = DrainParser(sim_threshold=0.4)
        e1 = p.fit_line("send a")
        e2 = p.fit_line("send b")  # seqSim = 1/2 >= 0.4
        assert e1 == e2
        assert p.groups()[0].template == ["send", WILDCARD]

    def test_token_count_routes_apart(self):
        p = DrainParser()
        e1 = p.fit_line("send a")
        e2 = p.fit_line("send a b")
        assert e1 != e2

    def test_below_threshold_makes_new_group(self):
        p = DrainParser(sim_threshold=0.6)
        e1 = p.fit_line("send a")
        e2 = p.fit_line("send b")  # 0.5 < 0.6
        assert e1 != e2

    def test_event_id_shape(self):
        p = DrainParser()
        assert p.fit_line("alpha beta") == "e1"
        assert p.fit_line("gamma delta epsilon") == "e2"

    def test_parse_is_lookup_only(self):
        p = DrainParser()
        p.fit_line("send a")
        before = [g.template for g in p.groups()]
        assert p.parse_line("send a") == "e1"
        assert p.parse_line("totally different msg") == UNSEEN_EVENT
        assert p.parse_line("send a b c d") == UNSEEN_EVENT
        assert [g.template for g in p.groups()] == before

    def test_numeric_tokens_route_to_wildcard(self):
        p = DrainParser()
        e1 = p.fit_line("took 10 ms")  # '10' normalizes would contain 0; raw here has 0 too
        e2 = p.fit_line("took 20 ms")
        assert e1 == e2

    def test_replay_determinism(self):
        lines = [f"op {chr(97 + i % 5)} done" for i in range(50)] + ["other thing"] * 3
        a = DrainParser()
        b = DrainParser()
        ids_a = [a.fit_line(l) for l in lines]
        ids_b = [b.fit_line(l) for l in lines]
        assert ids_a == ids_b

    def test_wildcards_never_revert(self):
        p = DrainParser(sim_threshold=0.4)
        p.fit_line("send a x")
        p.fit_line("send b x")
        assert p.groups()[0].template == ["send", WILDCARD, "x"]
        p.fit_line("send b x")  # matching again must not restore 'b'
        assert p.groups()[0].template == ["send", WILDCARD, "x"]

    def test_group_counts(self):
        p = DrainParser()
        p.fit_line("send a")
        p.fit_line("send a")
        p.fit_line("recv c")
        counts = {g.event_id: g.count for g in p.groups()}
        assert counts == {"e1": 2, "e2": 1}

    def test_template_dump(self, tmp_path):
        p = DrainParser()
        p.fit_line("send a")
        p.fit_line("send b")
        out = tmp_path / "templates.csv"
        p.dump_templates(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "event_id,template,count"
        assert lines[1] == f"e1,send {WILDCARD},2"

    def test_empty_message(self):
        p = DrainParser()
        e1 = p.fit_line("")
        e2 = p.fit_line("")
        assert e1 == e2
        assert p.parse_line("") == e1

    def test_full_node_routes_new_tokens_to_its_wildcard(self):
        # Depth 4 routes by token count, then by the first token.  Tokens
        # without a "0" each get a child until the node holds 99; the next
        # one opens the wildcard child, which takes every later newcomer.
        p = DrainParser(depth=4)
        first = [f"w{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(120)]
        events = [p.fit_line(f"{tok} disk full") for tok in first]
        node = p._length_roots[3]
        assert len(node.children) == 100 and WILDCARD in node.children
        assert len(set(events[:99])) == 99
        assert len(set(events[99:])) == 1 and events[99] not in events[:99]
        assert p.parse_line("wnew disk full") == events[99] == "e100"
        assert p.parse_line(f"{first[5]} disk full") == events[5]

    def test_bad_params(self):
        with pytest.raises(ValueError):
            DrainParser(depth=2)
        with pytest.raises(ValueError):
            DrainParser(sim_threshold=1.0)


def _seq_records(spec):
    # spec: list of (seq_key, label) per line
    return record_set(
        [
            LogRecord(message="", line_no=i, label=label, seq_key=key)
            for i, (key, label) in enumerate(spec)
        ],
        Granularity.SEQUENCE,
    )


def _sequence_labels(rs):
    """The label of each sequence, in the order of ``rs.seq_keys``."""
    return list(map(Label, rs.unit_codes().tolist()))


class TestFlatten:
    """The per-sequence merge that the oracles of the unit counts use as reference."""

    def test_concatenation_in_line_order(self):
        rs = _seq_records([("s1", Label.NORMAL), ("s1", Label.NORMAL)])
        docs = flatten_sequences(rs, [TokenSeq(["a", "b"]), TokenSeq(["c"])])
        assert rs.seq_keys == ["s1"]
        assert [d.terms for d in docs] == [["a", "b", "c"]]
        assert _sequence_labels(rs) == [Label.NORMAL]

    def test_event_id_sequences(self):
        rs = _seq_records([("s1", Label.NORMAL)] * 3)
        docs = flatten_sequences(
            rs, [TokenSeq(["e1"]), TokenSeq(["e7"]), TokenSeq(["e1"])]
        )
        assert docs[0].terms == ["e1", "e7", "e1"]

    def test_empty_sequence_keeps_label(self):
        rs = _seq_records([("s1", Label.ANOMALY)])
        docs = flatten_sequences(rs, [TokenSeq([])])
        assert docs[0].terms == []
        assert _sequence_labels(rs) == [Label.ANOMALY]

    def test_anomalous_member_marks_sequence(self):
        rs = _seq_records(
            [("s1", Label.NORMAL), ("s1", Label.ANOMALY), ("s2", Label.NORMAL)]
        )
        assert len(flatten_sequences(rs, [TokenSeq(["x"])] * 3)) == 2
        assert _sequence_labels(rs) == [Label.ANOMALY, Label.NORMAL]

    @pytest.mark.parametrize("members,expected", [
        ((Label.NORMAL, Label.NORMAL), Label.NORMAL),
        ((Label.NORMAL, Label.UNKNOWN), Label.UNKNOWN),
        ((Label.UNKNOWN, Label.NORMAL), Label.UNKNOWN),
        ((Label.UNKNOWN, Label.ANOMALY), Label.ANOMALY),
        ((Label.ANOMALY, Label.NORMAL), Label.ANOMALY),
    ], ids=lambda v: f"Label.{v.name}" if isinstance(v, Label) else None)  # str() is "0" on 3.11
    def test_one_label_rule_for_flatten_and_filter(self, members, expected):
        # Anomaly beats unknown, unknown beats normal; filter_normal keeps
        # the keys whose documents flatten_sequences builds and that
        # unit_codes labels normal.
        spec = [("s1", members[0]), ("s2", Label.NORMAL), ("s1", members[1]),
                ("s3", Label.ANOMALY)]
        rs = _seq_records(spec)
        assert len(flatten_sequences(rs, [TokenSeq(["x"])] * len(spec))) == 3
        keys, labels = rs.seq_keys, _sequence_labels(rs)
        assert keys == ["s1", "s2", "s3"]
        assert labels == [expected, Label.NORMAL, Label.ANOMALY]
        if Label.UNKNOWN in members:
            with pytest.raises(ValueError, match="unknown label"):
                filter_normal(rs)
        else:
            kept = {r.seq_key for r in filter_normal(rs)}
            assert kept == {k for k, lbl in zip(keys, labels) if lbl is Label.NORMAL}

    def test_token_count_conserved(self):
        spec = [("s1", Label.NORMAL), ("s2", Label.NORMAL), ("s1", Label.NORMAL)]
        rs = _seq_records(spec)
        seqs = [TokenSeq(["a"] * 3), TokenSeq(["b"] * 5), TokenSeq(["c"] * 2)]
        docs = flatten_sequences(rs, seqs)
        assert sum(len(d.terms) for d in docs) == sum(len(s.terms) for s in seqs)

    def test_length_mismatch_errors(self):
        rs = _seq_records([("s1", Label.NORMAL)])
        with pytest.raises(ValueError):
            flatten_sequences(rs, [])

    def test_line_granularity_rejected(self):
        rs = record_set([LogRecord(message="a", line_no=0)], Granularity.LINE)
        with pytest.raises(ValueError):
            flatten_sequences(rs, [TokenSeq(["a"])])
