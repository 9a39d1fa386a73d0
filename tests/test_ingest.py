"""Normalization, grouping and windowing tests."""

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loggad import ingest
from loggad.ingest import (
    NUM_SENTINEL,
    IngestError,
    LogSequence,
    NormalizationError,
    RawLogRecord,
    group_by_key,
    normalize_line,
    window,
)


class TestNormalizeLine:
    def test_digit_run_sentinel(self):
        assert normalize_line("error 123456 at port 8080") == [
            "error",
            NUM_SENTINEL,
            "at",
            "port",
            "8080",
        ]

    def test_single_token_lowercase(self):
        assert normalize_line("FAILED") == ["failed"]

    def test_golden_ciod_line(self):
        # Golden pin of the full tokenizer output on a BGL-style line.
        tokens = normalize_line("ciod: LOGIN chdir(...) failed: Permission denied")
        assert tokens == ["ciod", "login", "chdir", "failed", "permission", "denied"]

    def test_compound_tokens_survive(self):
        assert normalize_line("obj_host_amd64_custom1_rhel4 up") == [
            "obj_host_amd64_custom1_rhel4",
            "up",
        ]
        assert normalize_line("infinihost0 ready") == ["infinihost0", "ready"]
        assert normalize_line("path /usr/lib/mod.so loaded")[1] == "usr/lib/mod.so"

    def test_short_digit_runs_kept(self):
        assert normalize_line("1234 12345") == ["1234", NUM_SENTINEL]

    def test_punctuation_only_line_rejected(self):
        with pytest.raises(NormalizationError):
            normalize_line("!!! ---")

    def test_empty_line_rejected(self):
        with pytest.raises(NormalizationError):
            normalize_line("   ")

    @given(st.text(min_size=1, max_size=120))
    def test_sentinel_safety(self, text):
        # No surviving token contains a digit run longer than 4.
        try:
            tokens = normalize_line(text)
        except NormalizationError:
            return
        assert tokens
        for tok in tokens:
            if tok != NUM_SENTINEL:
                assert re.search(r"\d{5,}", tok) is None

    @given(st.text(min_size=1, max_size=120))
    def test_deterministic(self, text):
        try:
            first = normalize_line(text)
        except NormalizationError:
            first = None
        try:
            second = normalize_line(text)
        except NormalizationError:
            second = None
        assert first == second


class TestRecordsAndSequences:
    def test_negative_line_no_rejected(self):
        with pytest.raises(IngestError):
            RawLogRecord(line_no=-1, text="x")

    def test_empty_text_rejected(self):
        with pytest.raises(IngestError):
            RawLogRecord(line_no=0, text="  ")

    def test_empty_sequence_rejected(self):
        with pytest.raises(IngestError):
            LogSequence(id="s", tokens=[])


class TestGroupByKey:
    def make(self, texts_labels):
        return [
            RawLogRecord(line_no=i, text=t, gold_label=l)
            for i, (t, l) in enumerate(texts_labels)
        ]

    def test_partition_by_key(self):
        records = self.make(
            [
                ("blk_1 open", 0),
                ("blk_2 open", 0),
                ("blk_1 write", 0),
                ("blk_2 close", 0),
                ("blk_1 close", 0),
            ]
        )
        sequences, rejects = group_by_key(records, r"blk_\d+")
        assert len(rejects) == 0
        by_id = {s.id: s for s in sequences}
        assert set(by_id) == {"blk_1", "blk_2"}
        assert by_id["blk_1"].tokens == ["blk_1", "open", "blk_1", "write", "blk_1", "close"]
        assert by_id["blk_2"].tokens == ["blk_2", "open", "blk_2", "close"]

    def test_any_anomaly_rule(self):
        records = self.make([("blk_1 a", 0), ("blk_1 b", 1), ("blk_2 c", 0)])
        sequences, _ = group_by_key(records, r"blk_\d+")
        by_id = {s.id: s.gold_label for s in sequences}
        assert by_id == {"blk_1": 1, "blk_2": 0}

    def test_rejects_collected_not_dropped(self):
        records = self.make([("blk_1 a", 0), ("no key here", 0)])
        sequences, rejects = group_by_key(records, r"blk_\d+")
        assert len(sequences) == 1
        assert len(rejects) == 1
        assert rejects[0].text == "no key here"

    def test_no_match_is_error(self):
        records = self.make([("nothing", 0)])
        with pytest.raises(IngestError):
            group_by_key(records, r"blk_\d+")

    def test_line_order_preserved_regardless_of_input_order(self):
        records = self.make([("blk_1 first", 0), ("blk_1 second", 0)])
        sequences, _ = group_by_key(list(reversed(records)), r"blk_\d+")
        assert sequences[0].tokens == ["blk_1", "first", "blk_1", "second"]


class TestWindow:
    def make(self, n, anomalies=()):
        return [
            RawLogRecord(line_no=i, text=f"msg {i}", gold_label=1 if i in anomalies else 0)
            for i in range(n)
        ]

    def test_45_records_size_20(self):
        sequences = window(self.make(45), 20)
        assert len(sequences) == 3
        # 2 tokens per line ("msg", number)
        assert [len(s.tokens) for s in sequences] == [40, 40, 10]

    def test_exact_fit(self):
        assert len(window(self.make(20), 20)) == 1

    def test_any_anomaly_window_label(self):
        sequences = window(self.make(45, anomalies={25}), 20)
        assert [s.gold_label for s in sequences] == [0, 1, 0]

    def test_partition_covers_every_line(self):
        n = 53
        sequences = window(self.make(n), 10)
        total = sum(len(s.tokens) for s in sequences)
        assert total == 2 * n  # every line contributes its 2 tokens exactly once

    def test_bad_size_rejected(self):
        with pytest.raises(IngestError):
            window(self.make(3), 0)

    def test_a_window_of_blank_lines_is_skipped_and_ids_are_kept(self):
        records = self.make(5)
        records[2] = RawLogRecord(line_no=2, text="!! --")
        sequences = window(records, 1)
        assert [s.id for s in sequences] == ["win_000000", "win_000001", "win_000003", "win_000004"]
        with pytest.raises(IngestError, match="no window contains normalizable tokens"):
            window([RawLogRecord(line_no=0, text="!!")], 1)

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=25))
    def test_window_count_formula(self, n, size):
        sequences = window(self.make(n), size)
        assert len(sequences) == -(-n // size)
        assert [s.id for s in sequences] == [f"win_{i:06d}" for i in range(len(sequences))]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        sequences = [
            LogSequence(id="a", tokens=["x", "y"], gold_label=1),
            LogSequence(id="b", tokens=["z"], gold_label=None),
        ]
        path = tmp_path / "seqs.jsonl"
        ingest.write_jsonl(sequences, path)
        back = ingest.read_jsonl(path)
        assert [(s.id, s.tokens, s.gold_label) for s in back] == [
            ("a", ["x", "y"], 1),
            ("b", ["z"], None),
        ]

    def test_byte_identical_output(self, tmp_path):
        sequences = [LogSequence(id="a", tokens=["x"], gold_label=0)]
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        ingest.write_jsonl(sequences, p1)
        ingest.write_jsonl(sequences, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lines_are_the_bytes_json_dumps_gives(self, tmp_path):
        awkward = ['quo"te', "back\\slash", "tab\tnl\ncr\r\x00\x1f\x7f", "naïve ünï", "日本",
                   "astral \U0001f600", "/slash", "\u2028\u2029"]
        sequences = [
            LogSequence(id=awkward[i % len(awkward)] + str(i), tokens=awkward[i:] + ["x"],
                        gold_label=(None, 0, 1)[i % 3])
            for i in range(len(awkward))
        ]
        path = tmp_path / "seqs.jsonl"
        ingest.write_jsonl(sequences, path)
        expected = "".join(
            json.dumps({"id": s.id, "tokens": s.tokens, "gold_label": s.gold_label},
                       ensure_ascii=False) + "\n"
            for s in sequences
        )
        assert path.read_bytes() == expected.encode("utf-8")
        back = ingest.read_jsonl(path)
        assert [(s.id, s.tokens, s.gold_label) for s in back] == [
            (s.id, s.tokens, s.gold_label) for s in sequences
        ]
        with pytest.raises(IngestError, match="gold_label must be 0, 1 or None, got 2"):
            ingest.write_jsonl([LogSequence(id="a", tokens=["x"], gold_label=2)], path)

    def test_iter_is_lazy_and_read_is_its_list(self, tmp_path):
        path = tmp_path / "seqs.jsonl"
        ingest.write_jsonl([LogSequence(id=f"s{i}", tokens=["x"]) for i in range(3)], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n{not json\n")
        sequences = ingest.iter_jsonl(path)
        assert [next(sequences).id for _ in range(3)] == ["s0", "s1", "s2"]
        with pytest.raises(IngestError, match="line 5"):
            next(sequences)
        with pytest.raises(IngestError, match="line 5"):
            ingest.read_jsonl(path)

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ('{"id": "b", "tokens": ["x"] "gold_label": 0}', "invalid JSON"),
            ('{"id": "b", "tokens": ["x"]} trailing', "invalid JSON"),
            ('["b", ["x"]]', "JSON object"),
            ('{"id": "b"}', "'tokens' is missing"),
            ('{"tokens": ["x"]}', "'id' is missing"),
            ('{"id": 7, "tokens": ["x"]}', "'id' is missing or not a str"),
            ('{"id": "b", "tokens": "x"}', "'tokens' is missing or not a list"),
            ('{"id": "b", "tokens": []}', "has no tokens"),
            ('{"id": "b", "tokens": ["x", 7]}', "non-string token"),
            ('{"id": "b", "tokens": ["x", null]}', "non-string token"),
            ('{"id": "b", "tokens": [["x"]]}', "non-string token"),
            ('{"id": "b", "tokens": ["x"], "gold_label": "yes"}', "'gold_label' must be"),
            ('{"id": "b", "tokens": ["x"], "gold_label": 2}', "'gold_label' must be"),
            ('{"id": "b", "tokens": ["x"], "gold_label": true}', "'gold_label' must be"),
            ('{"id": "b", "tokens": ["x"], "gold_label": 1.0}', "'gold_label' must be"),
        ],
    )
    def test_bad_line_names_its_file_line(self, tmp_path, bad, reason):
        path = tmp_path / "seqs.jsonl"
        path.write_text('{"id": "a", "tokens": ["x"]}\n\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match="line 3") as info:
            ingest.read_jsonl(path)
        assert reason in str(info.value)
        assert "line 1 " not in str(info.value)

