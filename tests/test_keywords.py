"""Keyword scoring, selection and drift, checked against a brute-force oracle."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loggad.ingest import NUM_SENTINEL, LogSequence
from loggad.keywords import (
    ANOMALY,
    NORMAL,
    DEFAULT_STOPWORDS,
    KeywordError,
    KeywordSet,
    drift,
    extract_top,
    load_stopwords,
    score,
)


def seq(sid, tokens, label):
    return (LogSequence(id=sid, tokens=list(tokens)), label)


def oracle_score(word, class_t, corpus, m):
    """Straight-line reimplementation of the TF-IDF^M score."""
    tf = 0
    for s, lbl in corpus:
        if lbl == class_t:
            tf += sum(1 for t in s.tokens if t == word)
    if tf == 0:
        return 0.0
    df = sum(1 for s, _ in corpus if word in s.tokens)
    idf = math.log((len(corpus) + 1) / (df + 1)) + 1.0
    return tf * idf**m


def oracle_top(corpus, z, m, stop=frozenset()):
    """Brute-force top-Z selection with the pinned tie-break."""
    out = {}
    for class_t in (NORMAL, ANOMALY):
        rows = []
        vocab = sorted({t for s, lbl in corpus if lbl == class_t for t in s.tokens})
        for word in vocab:
            if word == NUM_SENTINEL or word in stop:
                continue
            s_val = oracle_score(word, class_t, corpus, m)
            tf = sum(
                sum(1 for t in s.tokens if t == word)
                for s, lbl in corpus
                if lbl == class_t
            )
            rows.append((word, s_val, tf))
        rows.sort(key=lambda r: (-r[1], -r[2], r[0]))
        out[class_t] = [(w, s_val) for w, s_val, _ in rows[:z]]
    return out


TOY = [
    seq("s0", ["open", "read", "close", "read"], NORMAL),
    seq("s1", ["open", "write", "close"], NORMAL),
    seq("s2", ["open", "read", "flush"], NORMAL),
    seq("s3", ["panic", "trap", "open"], ANOMALY),
    seq("s4", ["panic", "abort", "abort"], ANOMALY),
    seq("s5", ["trap", "panic", "panic"], ANOMALY),
]


def score_of(word, class_t, corpus, m):
    return score(corpus, m)[class_t].get(word, (0.0, 0))[0]


class TestScore:
    def test_absent_word_scores_zero(self):
        assert "missing" not in score(TOY, 4)[NORMAL]
        assert score_of("missing", NORMAL, TOY, 4) == 0.0

    def test_everywhere_word_idf_one(self):
        corpus = [seq(f"s{i}", ["same", "x%d" % i], NORMAL) for i in range(4)]
        corpus.append(seq("s4", ["same"], ANOMALY))
        # df = N so IDF = ln(1) + 1 = 1 and the score is the raw TF.
        assert score_of("same", NORMAL, corpus, 4) == pytest.approx(4.0)

    def test_matches_oracle_on_toy_corpus(self):
        for word in {"open", "read", "panic", "trap", "abort", "flush"}:
            for class_t in (NORMAL, ANOMALY):
                assert score_of(word, class_t, TOY, 4) == pytest.approx(
                    oracle_score(word, class_t, TOY, 4)
                )

    def test_m_zero_rejected(self):
        with pytest.raises(KeywordError):
            score(TOY, 0)

    def test_empty_class_rejected(self):
        corpus = [seq("s0", ["a"], NORMAL)]
        with pytest.raises(KeywordError):
            score(corpus, 4)


class TestExtractTop:
    def test_unique_anomaly_token_ranks_first(self):
        # Every class-1 sequence contains "panic", which never occurs in
        # class 0; the other class-1 words are corpus-wide common.
        corpus = [
            seq("s0", ["open", "read"], NORMAL),
            seq("s1", ["open", "write"], NORMAL),
            seq("s2", ["read", "close"], NORMAL),
            seq("s3", ["panic", "open", "read"], ANOMALY),
            seq("s4", ["panic", "open", "write"], ANOMALY),
            seq("s5", ["panic", "read", "close"], ANOMALY),
        ]
        ks = extract_top(corpus, Z=3, M=4)
        assert ks.anomaly[0][0] == "panic"

    def test_matches_oracle_exactly(self):
        ks = extract_top(TOY, Z=10, M=4, stopwords=frozenset())
        expected = oracle_top(TOY, 10, 4)
        assert [(w, pytest.approx(s)) for w, s in expected[NORMAL]] == ks.normal
        assert [(w, pytest.approx(s)) for w, s in expected[ANOMALY]] == ks.anomaly

    def test_z_caps_list_length(self):
        ks = extract_top(TOY, Z=2, M=4)
        assert len(ks.normal) == 2 and len(ks.anomaly) == 2

    def test_single_word_corpus_both_classes(self):
        corpus = [seq("s0", ["boom"], NORMAL), seq("s1", ["boom"], ANOMALY)]
        ks = extract_top(corpus, Z=1, M=4)
        assert ks.normal == ks.anomaly
        assert ks.normal[0][0] == "boom"

    def test_short_class_warns(self):
        ks = extract_top(TOY, Z=50, M=4)
        assert any("candidate keywords" in w for w in ks.warnings)

    def test_sentinel_and_stopwords_excluded(self):
        corpus = [
            seq("s0", [NUM_SENTINEL, "the", "boot"], NORMAL),
            seq("s1", ["halt"], ANOMALY),
        ]
        ks = extract_top(corpus, Z=10, M=4)
        words = ks.all_words()
        assert NUM_SENTINEL not in words and "the" not in words
        assert "boot" in words

    def test_scores_non_increasing(self):
        ks = extract_top(TOY, Z=10, M=4)
        for lst in (ks.normal, ks.anomaly):
            assert all(a[1] >= b[1] for a, b in zip(lst, lst[1:]))

    def test_duplication_preserves_ranking_order(self):
        # Duplicating every sequence uniformly rescales TF and N but must
        # not reorder keywords whose scores are well separated. (Near-ties
        # may legitimately flip because the smoothed IDF is not exactly
        # scale-free.)
        corpus = [
            seq("s0", ["open", "open", "open", "read"], NORMAL),
            seq("s1", ["open", "open", "write"], NORMAL),
            seq("s2", ["panic", "panic", "panic", "open"], ANOMALY),
            seq("s3", ["panic", "trap"], ANOMALY),
        ]
        doubled = corpus + [
            (LogSequence(id=s.id + "_copy", tokens=list(s.tokens)), lbl)
            for s, lbl in corpus
        ]
        base = extract_top(corpus, Z=10, M=4)
        scaled = extract_top(doubled, Z=10, M=4)
        assert [w for w, _ in base.normal] == [w for w, _ in scaled.normal]
        assert [w for w, _ in base.anomaly] == [w for w, _ in scaled.anomaly]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_oracle_equivalence_random_corpora(self, data):
        vocab = [f"w{i}" for i in range(12)]
        n = data.draw(st.integers(min_value=2, max_value=10))
        corpus = []
        has = {NORMAL: False, ANOMALY: False}
        for i in range(n):
            tokens = data.draw(
                st.lists(st.sampled_from(vocab), min_size=1, max_size=8)
            )
            label = data.draw(st.sampled_from([NORMAL, ANOMALY]))
            has[label] = True
            corpus.append(seq(f"s{i}", tokens, label))
        if not (has[NORMAL] and has[ANOMALY]):
            return
        z = data.draw(st.integers(min_value=1, max_value=12))
        ks = extract_top(corpus, Z=z, M=4, stopwords=frozenset())
        expected = oracle_top(corpus, z, 4)
        assert [w for w, _ in ks.normal] == [w for w, _ in expected[NORMAL]]
        assert [w for w, _ in ks.anomaly] == [w for w, _ in expected[ANOMALY]]


def kwset(normal, anomaly):
    return KeywordSet(normal=[(w, 1.0) for w in normal], anomaly=[(w, 1.0) for w in anomaly])


class TestDrift:
    def test_identical_sets_zero(self):
        a = kwset(["x", "y"], ["z"])
        assert drift(a, a) == 0.0

    def test_disjoint_sets_one(self):
        assert drift(kwset(["a"], ["b"]), kwset(["c"], ["d"])) == 1.0

    def test_half_overlap(self):
        cur = kwset([f"n{i}" for i in range(50)], [f"a{i}" for i in range(50)])
        prev = kwset([f"n{i}" for i in range(50)], [f"x{i}" for i in range(50)])
        assert drift(cur, prev) == pytest.approx(0.5)

    def test_class_migration_counts_as_drift(self):
        # keywords are class-labeled (word, class) pairs: a word swapping
        # lists is churn, not stability
        cur = kwset(["moved"], ["other"])
        prev = kwset(["other"], ["moved"])
        assert drift(cur, prev) == 1.0
        half = kwset(["stay"], ["moved"])
        prev2 = kwset(["stay", "moved"], [])
        assert drift(half, prev2) == pytest.approx(0.5)

    def test_asymmetric(self):
        small = kwset(["a"], ["b"])
        big = kwset(["a", "c"], ["b", "d"])
        assert drift(small, big) == 0.0
        assert drift(big, small) == pytest.approx(0.5)

    def test_empty_current_rejected(self):
        with pytest.raises(KeywordError):
            drift(KeywordSet(normal=[], anomaly=[]), kwset(["a"], ["b"]))


class TestSerialization:
    def test_json_round_trip(self):
        ks = extract_top(TOY, Z=5, M=4)
        back = json.loads(ks.to_json(3))
        assert [tuple(pair) for pair in back["normal"]] == ks.normal
        assert [tuple(pair) for pair in back["anomaly"]] == ks.anomaly
        assert back["iteration"] == 3

    def test_json_shape(self):
        obj = json.loads(kwset(["n"], ["a"]).to_json(0))
        assert set(obj) == {"iteration", "normal", "anomaly"}


class TestStopwords:
    def test_default_list_contains_function_words(self):
        assert {"the", "and", "of"} <= set(DEFAULT_STOPWORDS)

    def test_load_stopwords_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nfoo\n\nBAR\n")
        assert load_stopwords(path) == frozenset({"foo", "bar"})
