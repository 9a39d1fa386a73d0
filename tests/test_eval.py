"""Metrics, synthetic corpus generator and dataset loaders."""

import hashlib
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loggad import evaluation as ev
from loggad.evaluation import (
    EvalError,
    SyntheticSpec,
    generate_synthetic,
    load_loghub_sample,
    score,
    sequences_from_records,
    split_chronological,
)
from loggad.ingest import LogSequence

from synthetic_oracle import generate_synthetic_scalar


class TestScore:
    def test_golden_counts(self):
        # TP=3 FP=1 FN=2 TN=4 -> P=0.75, R=0.6, F1=2*0.45/1.35
        gold = {f"s{i}": g for i, g in enumerate([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])}
        preds = {f"s{i}": p for i, p in enumerate([1, 1, 1, 0, 0, 1, 0, 0, 0, 0])}
        m = score(preds, gold)
        assert (m.tp, m.fp, m.fn, m.tn) == (3, 1, 2, 4)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.6)
        assert m.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)
        assert m.flags == []

    def test_no_positive_predictions_flagged(self):
        m = score({"a": 0}, {"a": 1})
        assert m.precision == 0.0
        assert "no_positive_predictions" in m.flags

    def test_no_positive_gold_flagged(self):
        m = score({"a": 0, "b": 1}, {"a": 0, "b": 0})
        assert m.recall == 0.0
        assert "no_positive_gold" in m.flags

    def test_zero_f1_flagged(self):
        m = score({"a": 0}, {"a": 0})
        assert m.f1 == 0.0
        assert "zero_f1_denominator" in m.flags

    def test_perfect_predictions(self):
        gold = {"a": 1, "b": 0}
        assert score(gold, gold).f1 == 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40))
    def test_f1_is_harmonic_mean(self, pairs):
        gold = {f"s{i}": g for i, (g, _) in enumerate(pairs)}
        preds = {f"s{i}": p for i, (_, p) in enumerate(pairs)}
        m = score(preds, gold)
        assert 0.0 <= m.f1 <= 1.0
        if m.precision + m.recall > 0:
            assert m.f1 == pytest.approx(
                2 * m.precision * m.recall / (m.precision + m.recall)
            )


class TestSyntheticGenerator:
    def small_spec(self, **kw):
        defaults = dict(n_sequences=200, anomaly_rate=0.1, seed=3)
        defaults.update(kw)
        return SyntheticSpec(**defaults)

    def test_deterministic(self):
        a = generate_synthetic(self.small_spec())
        b = generate_synthetic(self.small_spec())
        assert [(s.id, s.tokens, s.gold_label) for s in a] == [
            (s.id, s.tokens, s.gold_label) for s in b
        ]

    def test_seed_changes_corpus(self):
        a = generate_synthetic(self.small_spec(seed=1))
        b = generate_synthetic(self.small_spec(seed=2))
        assert [s.tokens for s in a] != [s.tokens for s in b]

    def test_exact_anomaly_count(self):
        corpus = generate_synthetic(self.small_spec(n_sequences=250, anomaly_rate=0.1))
        assert sum(s.gold_label for s in corpus) == 25

    def test_lengths_in_range(self):
        spec = self.small_spec(length_range=(5, 9))
        corpus = generate_synthetic(spec)
        assert all(5 <= len(s.tokens) <= 9 for s in corpus)

    def test_fault_tokens_only_in_anomalies_without_noise(self):
        spec = self.small_spec(noise_rate=0.0)
        fault = set(spec.anomaly_vocab)
        for s in generate_synthetic(spec):
            if s.gold_label == 0:
                assert not fault & set(s.tokens)

    def test_every_anomaly_template_is_detectable(self):
        # even at a tiny anomaly_token_rate every anomaly sequence's
        # template keeps at least one fault word in its bag
        spec = self.small_spec(
            n_sequences=400, anomaly_token_rate=(0.01, 0.05), noise_rate=0.0, seed=5
        )
        fault = set(spec.anomaly_vocab)
        corpus = generate_synthetic(spec)
        templates_seen = set()
        for s in corpus:
            if s.gold_label == 1:
                templates_seen.add(frozenset(s.tokens) & frozenset(fault))
        # no anomaly template bag is fault-free (empty intersections can
        # still occur per sequence by sampling, but not for every sequence)
        anomalies = [s for s in corpus if s.gold_label == 1]
        with_fault = [s for s in anomalies if fault & set(s.tokens)]
        assert len(with_fault) >= 0.5 * len(anomalies)

    def test_vote_perfect_on_noiseless_separable_corpus(self):
        # with dense fault templates, no filler and no noise, keyword
        # voting with the true vocabularies is perfect
        from loggad.annotator import vote_annotate
        from loggad.keywords import KeywordSet

        spec = self.small_spec(
            noise_rate=0.0, shared_rate=0.0, anomaly_token_rate=1.0, seed=7
        )
        corpus = generate_synthetic(spec)
        ks = KeywordSet(
            normal=[(w, 1.0) for w in spec.normal_vocab],
            anomaly=[(w, 1.0) for w in spec.anomaly_vocab],
        )
        labels = vote_annotate(corpus, ks)
        gold = {s.id: s.gold_label for s in corpus}
        m = score({p.sequence_id: p.label for p in labels}, gold)
        assert m.f1 == 1.0

    def test_bad_rate_rejected(self):
        with pytest.raises(EvalError):
            generate_synthetic(self.small_spec(anomaly_rate=0.0))

    def test_vocab_overlap_rejected(self):
        spec = self.small_spec()
        spec.anomaly_vocab = [spec.normal_vocab[0]]
        with pytest.raises(EvalError):
            generate_synthetic(spec)

    def test_ids_are_ordered_and_unique(self):
        corpus = generate_synthetic(self.small_spec())
        assert [s.id for s in corpus] == [f"seq_{i:06d}" for i in range(len(corpus))]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_sequences", -1),
            ("length_range", (30, 20)),
            ("length_range", (0, 0)),
            ("length_range", (0, 5)),
            ("template_size", (0, 0)),
            ("template_size", (4, 3)),
            ("anomaly_token_rate", (0.7, 0.2)),
            ("anomaly_token_rate", (-0.1, 0.5)),
            ("anomaly_token_rate", (0.2, 1.5)),
            ("anomaly_token_rate", 1.5),
            ("anomaly_token_rate", float("nan")),
            ("shared_rate", -0.5),
            ("shared_rate", 1.5),
            ("noise_rate", -0.1),
            ("noise_rate", float("nan")),
            ("noise_token_rate", 1.1),
            ("zipf_exponent", float("nan")),
            ("shared_zipf", float("nan")),
            ("anomaly_zipf", float("nan")),
            ("normal_vocab", []),
            ("anomaly_vocab", []),
            ("shared_vocab", []),
        ],
    )
    def test_unusable_spec_rejected_naming_the_field(self, field, value):
        with pytest.raises(EvalError, match=field):
            generate_synthetic(self.small_spec(**{field: value}))

    @pytest.mark.parametrize(
        "field, value",
        [("n_sequences", 0), ("length_range", (1, 1)), ("template_size", (1, 1)),
         ("anomaly_token_rate", (0.0, 1.0)), ("shared_rate", 1.0), ("noise_rate", 1.0),
         ("noise_token_rate", 0.0)],
    )
    def test_bounds_of_each_field_accepted(self, field, value):
        spec = self.small_spec(**{field: value})
        assert len(generate_synthetic(spec)) == spec.n_sequences


# Bounded draws over the sizes Lemire's method treats differently: n = 1
# draws nothing, at 2**31 + 1 about half the draws are rejected, and
# 2**32 - 1 is the largest size drawn from a 32-bit half.
DRAW_SIZES = (1, 2, 3, 7, 30, 2**31 + 1, 2**32 - 1)


def zipf_p(n_words, exponent):
    weights = np.arange(1, n_words + 1, dtype=float) ** -exponent
    return weights / weights.sum()


class TestReplay:
    """``_Replay`` makes the draws a numpy Generator makes from the same state."""

    def test_a_permutation_can_leave_a_carried_half(self):
        # the precondition that makes perm_n=2 below test the carried half
        rng = np.random.default_rng(0)
        rng.permutation(2)
        assert rng.bit_generator.state["has_uint32"] == 1

    @pytest.mark.parametrize("perm_n", [0, 2, 3, 200])
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_interleaved_draws_match_the_generator(self, seed, perm_n):
        ref = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        ref.permutation(perm_n)
        rng.permutation(perm_n)
        draw = ev._Replay(rng.bit_generator)
        p = zipf_p(40, 1.3)
        cdf = ev._zipf_cdf(40, 1.3, "zipf_exponent")
        schedule = random.Random(seed * 1000 + perm_n)
        for _ in range(4000):
            op = schedule.randrange(6)
            if op == 0:
                assert draw.random() == ref.random()
            elif op == 1:
                assert draw.uniform(0.2, 0.7) == ref.uniform(0.2, 0.7)
            elif op == 2:
                assert draw.choice(cdf) == ref.choice(40, p=p)
            else:  # half the draws are bounded, often back to back
                n = schedule.choice(DRAW_SIZES)
                assert draw.integers(n) == ref.integers(n), n

    def test_long_runs_cross_word_fetches(self):
        ref = np.random.default_rng(9)
        draw = ev._Replay(np.random.default_rng(9).bit_generator)
        n_draws = ev._WORDS_PER_FETCH + 1000
        got = [draw.integers(2**31 + 1) for _ in range(n_draws)]
        assert got == [int(ref.integers(2**31 + 1)) for _ in range(n_draws)]

    def test_a_draw_equal_to_a_cdf_entry_takes_the_next_index(self):
        # numpy searches the cdf with side="right"; every double in
        # [0.5, 1) is a possible random(), so ties are real
        u = np.random.default_rng(1).random()
        assert 0.5 <= u < 1
        p = np.array([u, 1 - u])
        cdf = p.cumsum()
        assert cdf.tolist() == [u, 1.0]
        assert np.random.default_rng(1).choice(2, p=p) == 1
        assert ev._Replay(np.random.default_rng(1).bit_generator).choice(cdf.tolist()) == 1

    @pytest.mark.parametrize("n_words, exponent", [(40, 0.0), (40, 1.0), (30, 2.0), (17, 0.7)])
    def test_zipf_cdf_is_normalised_as_choice_normalises_it(self, n_words, exponent):
        cumsum = zipf_p(n_words, exponent).cumsum()
        cdf = ev._zipf_cdf(n_words, exponent, "zipf_exponent")
        assert cdf == (cumsum / cumsum[-1]).tolist()
        assert cdf[-1] == 1.0

    def test_some_zipf_cumsum_misses_one(self):
        # the precondition that makes the test above check the division
        assert any(
            zipf_p(n, e).cumsum()[-1] != 1.0
            for n, e in [(40, 0.0), (40, 1.0), (30, 2.0), (17, 0.7)]
        )


def corpus_rows(corpus):
    return [(s.id, s.tokens, s.gold_label) for s in corpus]


ORACLE_SPECS = [
    dict(),
    dict(noise_rate=0.1),
    dict(seed=0),
    dict(seed=123456789, noise_rate=0.3),
    dict(n_sequences=0),
    dict(n_sequences=1),
    dict(n_sequences=7, anomaly_rate=0.5),
    dict(anomaly_rate=0.9, seed=4),
    dict(template_size=(1, 3), seed=5),
    dict(template_size=(1, 1), n_communities=1, seed=6),
    dict(n_anomaly_templates=1, seed=7),
    dict(n_normal_templates=1, n_anomaly_templates=1, seed=8),
    dict(length_range=(5, 5), seed=9),
    dict(length_range=(1, 60), seed=10),
    dict(shared_zipf=1.5, shared_rate=0.4, seed=11),
    dict(zipf_exponent=0.0, anomaly_zipf=0.0, seed=12),
    dict(anomaly_zipf=5.0, zipf_exponent=2.5, seed=13),
    dict(anomaly_token_rate=0.3, seed=14),
    dict(anomaly_token_rate=1.0, shared_rate=0.0, seed=15),
    dict(anomaly_token_rate=(0.0, 0.05), seed=16),
    dict(noise_rate=1.0, noise_token_rate=1.0, seed=17),
    dict(noise_rate=0.5, noise_token_rate=0.0, shared_rate=1.0, seed=18),
    dict(n_communities=200, seed=19),
    dict(n_communities=3, template_size=(12, 20), seed=20),
    dict(normal_vocab=[f"ok{i}" for i in range(7)], anomaly_vocab=["bad"],
         shared_vocab=["x", "y"], n_communities=2, seed=21),
]


class TestGeneratorOracle:
    """The replayed generator equals the scalar-call one, sequence for sequence."""

    @pytest.mark.parametrize("overrides", ORACLE_SPECS, ids=[str(s) for s in ORACLE_SPECS])
    def test_matches_the_scalar_call_generator(self, overrides):
        spec = dict(n_sequences=300, seed=3)
        spec.update(overrides)
        assert corpus_rows(generate_synthetic(SyntheticSpec(**spec))) == corpus_rows(
            generate_synthetic_scalar(SyntheticSpec(**spec))
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_sequences=st.integers(0, 60),
        lengths=st.tuples(st.integers(1, 12), st.integers(0, 12)),
        sizes=st.tuples(st.integers(1, 8), st.integers(0, 8)),
        rates=st.tuples(*[st.floats(0, 1) for _ in range(5)]),
        zipfs=st.tuples(*[st.floats(0, 4) for _ in range(3)]),
        communities=st.integers(1, 20),
    )
    def test_matches_on_drawn_specs(self, seed, n_sequences, lengths, sizes, rates, zipfs,
                                    communities):
        atr_lo, atr_hi, shared_rate, noise_rate, noise_token_rate = rates
        spec = dict(
            seed=seed,
            n_sequences=n_sequences,
            length_range=(lengths[0], lengths[0] + lengths[1]),
            template_size=(sizes[0], sizes[0] + sizes[1]),
            anomaly_token_rate=(min(atr_lo, atr_hi), max(atr_lo, atr_hi)),
            shared_rate=shared_rate,
            noise_rate=noise_rate,
            noise_token_rate=noise_token_rate,
            zipf_exponent=zipfs[0],
            shared_zipf=zipfs[1],
            anomaly_zipf=zipfs[2],
            n_communities=communities,
        )
        assert corpus_rows(generate_synthetic(SyntheticSpec(**spec))) == corpus_rows(
            generate_synthetic_scalar(SyntheticSpec(**spec))
        )

    def test_acceptance_corpus_golden_digest(self):
        # recorded from the scalar-call generator; a change in numpy's
        # PCG64 stream or draw algorithms breaks it too
        digest = hashlib.sha256()
        for s in generate_synthetic(SyntheticSpec(noise_rate=0.1)):
            digest.update(json.dumps([s.id, s.gold_label, s.tokens]).encode() + b"\n")
        assert digest.hexdigest() == (
            "3e9cafb5bfdb9c5d4b5e8316ecf93dfe5536d84a327cbb1a035fe391529ed5e9"
        )


class TestLoaders:
    def test_bgl_inline_tags(self, tmp_path):
        path = tmp_path / "bgl.log"
        path.write_text(
            "- 1117838570 2005.06.03 R02-M1 ciod generating core\n"
            "KERNDTLB 1117838573 2005.06.03 R02-M1 data TLB error interrupt\n"
        )
        records = load_loghub_sample(path, "bgl")
        assert [r.gold_label for r in records] == [0, 1]
        # the alert tag is stripped from the text
        assert records[0].text.startswith("1117838570")
        assert records[1].text.startswith("1117838573")

    def test_bgl_untagged_line_rejected(self, tmp_path):
        path = tmp_path / "bgl.log"
        path.write_text("onlyonefield\n")
        with pytest.raises(EvalError):
            load_loghub_sample(path, "bgl")

    def test_hdfs_block_labels(self, tmp_path):
        log = tmp_path / "hdfs.log"
        log.write_text(
            "081109 INFO dfs.DataNode: Receiving block blk_1 src\n"
            "081109 INFO dfs.DataNode: Receiving block blk_2 src\n"
        )
        labels = tmp_path / "labels.csv"
        labels.write_text("BlockId,Label\nblk_1,Anomaly\nblk_2,Normal\n")
        records = load_loghub_sample(log, "hdfs", label_path=labels)
        assert [r.gold_label for r in records] == [1, 0]

    def test_label_files_accepted_tags(self, tmp_path):
        log = tmp_path / "hdfs.log"
        log.write_text("".join(f"081109 INFO block blk_{i} src\n" for i in range(4)))
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("BlockId,Label\nblk_0,ANOMALY\nblk_1, normal\nblk_2,1\nblk_3,0\n")
        records = load_loghub_sample(log, "hdfs", label_path=blocks)
        assert [r.gold_label for r in records] == [1, 0, 1, 0]
        log = tmp_path / "hadoop.log"
        log.write_text("a\nb\nc\n")
        lines = tmp_path / "lines.csv"
        lines.write_text("0,1\n\n2, 0\n")
        records = load_loghub_sample(log, "hadoop", label_path=lines)
        assert [r.gold_label for r in records] == [1, None, 0]

    @pytest.mark.parametrize("bad", ["1,2", "1,garbage", "1,", "1", "x,1", "-1,1", "1,anomaly"])
    def test_bad_line_label_rejected_naming_the_line(self, tmp_path, bad):
        log = tmp_path / "hadoop.log"
        log.write_text("a\nb\n")
        labels = tmp_path / "lines.csv"
        labels.write_text("0,0\n\n" + bad + "\n")
        with pytest.raises(EvalError, match=re.escape(f"{labels}, line 3: ")):
            load_loghub_sample(log, "hadoop", label_path=labels)

    @pytest.mark.parametrize(
        "log_text, label_text, message",
        [
            # a 1-based label file: its last label names a line past the end
            ("a\nb\nc\n", "1,0\n2,0\n3,1\n",
             "line 3: labelled log line 3 is past the end of {log}, which has 3 lines"),
            ("a\n\nc\n", "0,0\n\n1,1\n", "line 3: labelled log line 1 is blank in {log}"),
        ],
    )
    def test_label_naming_no_record_rejected(self, tmp_path, log_text, label_text, message):
        log = tmp_path / "raw.log"
        log.write_text(log_text)
        labels = tmp_path / "lines.csv"
        labels.write_text(label_text)
        expected = f"{labels}, " + message.format(log=log)
        with pytest.raises(EvalError, match=re.escape(expected)):
            load_loghub_sample(log, "plain", label_path=labels)

    @pytest.mark.parametrize("bad", ["blk_2,Anomly", "blk_2,", "blk_2", "blk_2,2", "blk_2,yes"])
    def test_bad_block_label_rejected_naming_the_line(self, tmp_path, bad):
        log = tmp_path / "hdfs.log"
        log.write_text("081109 INFO block blk_1 src\n081109 INFO block blk_2 src\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("BlockId,Label\nblk_1,Normal\n" + bad + "\n")
        with pytest.raises(EvalError, match=re.escape(f"{labels}, line 3: ")):
            load_loghub_sample(log, "hdfs", label_path=labels)

    def test_line_labelled_twice_rejected_naming_both_lines(self, tmp_path):
        log = tmp_path / "raw.log"
        log.write_text("a\nb\nc\n")
        labels = tmp_path / "lines.csv"
        labels.write_text("0,0\n2,1\n\n2,0\n")
        expected = f"{labels}, line 4: log line 2 is repeated, first on line 2"
        with pytest.raises(EvalError, match=re.escape(expected)):
            load_loghub_sample(log, "plain", label_path=labels)

    def test_block_labelled_twice_rejected_naming_both_lines(self, tmp_path):
        log = tmp_path / "hdfs.log"
        log.write_text("081109 INFO block blk_1 src\n081109 INFO block blk_2 src\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("BlockId,Label\nblk_1,Normal\nblk_2,Normal\nblk_1,Anomaly\n")
        expected = f"{labels}, line 4: block 'blk_1' is repeated, first on line 2"
        with pytest.raises(EvalError, match=re.escape(expected)):
            load_loghub_sample(log, "hdfs", label_path=labels)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "x.log"
        path.write_text("hello\n")
        with pytest.raises(EvalError):
            load_loghub_sample(path, "syslog")

    @pytest.mark.parametrize("kind", ["bgl", "thunderbird"])
    def test_inline_tag_kind_rejects_a_label_file(self, tmp_path, kind):
        log = tmp_path / "bgl.log"
        log.write_text("- ts ok message\n- ts ok again\n")
        labels = tmp_path / "lines.csv"
        labels.write_text("0,1\n")
        with pytest.raises(EvalError, match=f"{kind} takes no label file"):
            load_loghub_sample(log, kind, label_path=labels)

    def test_plain_numbers_lines_from_zero_and_skips_blank(self, tmp_path):
        path = tmp_path / "raw.log"
        path.write_bytes(b"alpha beta\n\n   \ngamma \xff delta\n")
        records = load_loghub_sample(path, "plain")
        assert [(r.line_no, r.text) for r in records] == [
            (0, "alpha beta"),
            (3, "gamma � delta"),
        ]

    def test_lines_end_at_newline_only(self, tmp_path):
        # a lone "\r" is part of its line, so a label names the line `wc -l` counts
        log = tmp_path / "raw.log"
        log.write_bytes(b"first line\rstill first\nsecond line\nthird line\n")
        labels = tmp_path / "lines.csv"
        labels.write_text("1,1\n")
        records = load_loghub_sample(log, "plain", label_path=labels)
        assert [(r.line_no, r.text, r.gold_label) for r in records] == [
            (0, "first line\rstill first", None),
            (1, "second line", 1),
            (2, "third line", None),
        ]

    def test_crlf_files_give_the_records_of_their_lf_copies(self, tmp_path):
        paths = {}
        for name, newline in (("lf", b"\n"), ("crlf", b"\r\n")):
            log, labels = tmp_path / f"{name}.log", tmp_path / f"{name}.csv"
            log.write_bytes(newline.join([b"alpha beta", b"", b"gamma delta", b"epsilon", b""]))
            labels.write_bytes(newline.join([b"0,0", b"2,1", b""]))
            paths[name] = (log, labels)
        records = load_loghub_sample(paths["crlf"][0], "plain", label_path=paths["crlf"][1])
        assert records == load_loghub_sample(paths["lf"][0], "plain", label_path=paths["lf"][1])
        assert [(r.line_no, r.text, r.gold_label) for r in records] == [
            (0, "alpha beta", 0), (2, "gamma delta", 1), (3, "epsilon", None)
        ]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "x.log"
        path.write_text("\n\n")
        with pytest.raises(EvalError):
            load_loghub_sample(path, "hadoop")

    def test_blank_lines_skipped_line_numbers_kept(self, tmp_path):
        path = tmp_path / "x.log"
        path.write_text("first line\n\nthird line\n")
        records = load_loghub_sample(path, "hadoop")
        assert [r.line_no for r in records] == [0, 2]

    def test_sequences_from_records_hdfs_groups(self, tmp_path):
        log = tmp_path / "hdfs.log"
        log.write_text(
            "log blk_1 open\nlog blk_2 open\nlog blk_1 close\n"
        )
        records = load_loghub_sample(log, "hdfs")
        sequences = sequences_from_records(records, "hdfs")
        assert sorted(s.id for s in sequences) == ["blk_1", "blk_2"]

    def test_sequences_from_records_bgl_windows(self, tmp_path):
        log = tmp_path / "bgl.log"
        log.write_text("".join(f"- ts{i} node message {i}\n" for i in range(45)))
        records = load_loghub_sample(log, "bgl")
        sequences = sequences_from_records(records, "bgl", window_size=20)
        assert len(sequences) == 3


class TestSplit:
    def test_80_20_split(self):
        sequences = [LogSequence(id=f"s{i}", tokens=["x"]) for i in range(10)]
        train, test = split_chronological(sequences)
        assert [s.id for s in train] == [f"s{i}" for i in range(8)]
        assert [s.id for s in test] == ["s8", "s9"]

    def test_order_preserved_no_shuffle(self):
        sequences = [LogSequence(id=f"s{i}", tokens=["x"]) for i in range(5)]
        train, test = split_chronological(sequences, 0.6)
        assert train + test == sequences

    def test_bad_fraction_rejected(self):
        with pytest.raises(EvalError):
            split_chronological([LogSequence(id="a", tokens=["x"])], 1.0)
