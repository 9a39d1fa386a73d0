"""Normalization, grouping, windowing and line-numbered file reading tests."""

import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loggad import evaluation as ev
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
from loggad.keywords import KeywordError, load_stopwords


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

    def test_raw_blocks_are_lazy_and_numbered_and_parse_block_names_the_line(self, tmp_path):
        path = tmp_path / "seqs.jsonl"
        ingest.write_jsonl([LogSequence(id=f"s{i}", tokens=["x"]) for i in range(3)], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n{not json\n")
        blocks = ingest.raw_blocks(path, 2)
        parsed = [
            ingest.parse_block(path, *next(blocks), ingest.sequence_from_json, IngestError)
            for _ in range(2)
        ]
        assert [(n, seq.id) for block in parsed for n, seq in block] == [
            (1, "s0"), (2, "s1"), (3, "s2")
        ]
        first, lines = next(blocks)
        assert (first, lines) == (5, [b"{not json\n"])
        with pytest.raises(IngestError, match=f"^{re.escape(str(path))}, line 5: invalid JSON"):
            ingest.parse_block(path, first, lines, ingest.sequence_from_json, IngestError)
        assert next(blocks, None) is None
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



@pytest.mark.parametrize(
    "text, where",
    [('{"id": "a",}', "at column 12"), ('{\n  "id": "a",\n}', "at line 3, column 1"),
     ('{"id":\n"a"', "at line 2, column 4")],
)
def test_json_object_names_the_line_of_an_error_past_the_first(text, where):
    with pytest.raises(ValueError) as info:
        ingest.json_object(text)
    assert str(info.value).startswith("invalid JSON: ")
    assert str(info.value).endswith(where)


def _read_block_labels(path):
    """The labels that the records of a 64-block HDFS log took from ``path``."""
    log = path.with_name("hdfs.log")
    log.write_text("".join(f"081109 INFO block blk_{i} src\n" for i in range(64)))
    records = ev.load_loghub_sample(log, "hdfs", label_path=path)
    return [r.gold_label for r in records if r.gold_label is not None]


def _read_line_labels(path):
    """The labels that the records of a 64-line plain log took from ``path``."""
    log = path.with_name("raw.log")
    log.write_text("".join(f"line {i}\n" for i in range(64)))
    records = ev.load_loghub_sample(log, "plain", label_path=path)
    return [r.gold_label for r in records if r.gold_label is not None]


# file kind: (valid line i, a malformed line or None, reader, its error, the
# name of line i's key as a repeated-key message gives it, or None if unkeyed)
FILE_KINDS = {
    "sequences": (
        lambda i: json.dumps({"id": f"s{i}", "tokens": ["x", f"t{i}"], "gold_label": i % 2}),
        '{"id": "b", "tokens": ["x"], "gold_label": 2}',
        ingest.read_jsonl, IngestError, lambda i: f"sequence id 's{i}'",
    ),
    "predictions": (
        lambda i: json.dumps({"id": f"s{i}", "label": i % 2, "confidence": 0.5}),
        '{"id": "b", "label": true}',
        ev.read_predictions, ev.EvalError, lambda i: f"sequence id 's{i}'",
    ),
    "block labels": (
        lambda i: f"blk_{i},{('Normal', 'Anomaly')[i % 2]}",
        "blk_9,maybe",
        _read_block_labels, ev.EvalError, lambda i: f"block 'blk_{i}'",
    ),
    "line labels": (
        lambda i: f"{i},{i % 2}",
        "first,1",
        _read_line_labels, ev.EvalError, lambda i: f"log line {i}",
    ),
    "stopwords": (lambda i: f"Word{i}", None, load_stopwords, KeywordError, None),
}
BLANKS = [b"", b"   ", b"\t", b"\r", b" \r"]
FAULT_CASES = [
    (kind, fault)
    for kind, (_, malformed, _, _, key_name) in FILE_KINDS.items()
    for fault in ("malformed", "not utf-8", "repeated")
    if (fault != "malformed" or malformed) and (fault != "repeated" or key_name)
]


def numbered_file(rng, kind, fault):
    """The lines of one file of ``kind``: valid lines among blank ones, plus
    one ``fault`` ("malformed", "not utf-8" or "repeated") at a random place.
    Returns the lines as bytes, the 1-based line of the fault and, for a
    repeated key, that key's index and first line."""
    valid, malformed = FILE_KINDS[kind][:2]
    lines = [valid(i).encode() for i in range(int(rng.integers(1, 12)))]
    for _ in range(int(rng.integers(0, 8))):
        lines.insert(int(rng.integers(len(lines) + 1)), BLANKS[rng.integers(len(BLANKS))])
    valid_at = [n for n, line in enumerate(lines) if line.strip()]
    first = None
    if fault == "repeated":
        first = int(rng.choice(valid_at))
        at = int(rng.integers(first + 1, len(lines) + 1))
        bad = lines[first]
    elif fault == "malformed":
        at = int(rng.integers(len(lines) + 1))
        bad = malformed.encode()
    else:
        at = int(rng.integers(len(lines) + 1))
        bad = valid(99).encode()
        cut = int(rng.integers(len(bad) + 1))
        bad = bad[:cut] + b"\xff" + bad[cut:]
    lines.insert(at, bad)
    key = valid_at.index(first) if first is not None else None
    return lines, at + 1, key, None if first is None else first + 1


class TestNumberedLines:
    """Every line-numbered input file goes through ``ingest.numbered_lines``,
    so each kind reports a bad line the same way."""

    @pytest.mark.parametrize("kind, fault", FAULT_CASES)
    def test_a_fault_names_the_file_and_its_line(self, tmp_path, kind, fault):
        _, _, reader, error, key_name = FILE_KINDS[kind]
        path = tmp_path / "input.txt"
        for seed in range(25):
            rng = np.random.default_rng(seed)
            lines, line_no, key, first = numbered_file(rng, kind, fault)
            end = b"\n" if rng.random() < 0.5 else b""
            path.write_bytes(b"\n".join(lines) + end)
            with pytest.raises(error) as info:
                reader(path)
            message = str(info.value)
            assert message.startswith(f"{path}, line {line_no}: "), (seed, message)
            if fault == "repeated":
                assert message.endswith(f"{key_name(key)} is repeated, first on line {first}")
            elif fault == "not utf-8":
                assert "can't decode byte 0xff" in message

    @pytest.mark.parametrize("kind", sorted(FILE_KINDS))
    def test_a_clean_file_reads_every_line(self, tmp_path, kind):
        valid, _, reader, _, _ = FILE_KINDS[kind]
        path = tmp_path / "input.txt"
        path.write_bytes(b"\n\n".join(valid(i).encode() for i in range(5)) + b"\n  \n")
        assert len(reader(path)) == 5

    def test_parse_block_accepts_a_repeated_id(self, tmp_path):
        path = tmp_path / "input.txt"
        for seed in range(25):
            rng = np.random.default_rng(seed)
            lines, line_no, _, _ = numbered_file(rng, "sequences", "repeated")
            path.write_bytes(b"\n".join(lines))
            ids = [
                seq.id
                for block in ingest.raw_blocks(path, int(rng.integers(1, 4)))
                for _, seq in ingest.parse_block(
                    path, *block, ingest.sequence_from_json, IngestError
                )
            ]
            assert len(ids) == len(set(ids)) + 1
            with pytest.raises(IngestError, match=f"line {line_no}: "):
                ingest.read_jsonl(path)

    def test_a_key_repeated_in_a_later_block_names_both_lines(self, tmp_path):
        path = tmp_path / "seqs.jsonl"
        n = ingest.BLOCK_LINES + 5
        lines = [json.dumps({"id": f"s{i}", "tokens": ["x"]}) for i in range(n)]
        lines[ingest.BLOCK_LINES - 1] = ""
        lines[n - 1] = lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError) as info:
            ingest.read_jsonl(path)
        assert str(info.value) == (
            f"{path}, line {n}: sequence id 's2' is repeated, first on line 3"
        )
