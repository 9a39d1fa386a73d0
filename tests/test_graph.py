"""Event graph construction, transition probabilities and subgraph induction."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loggad.graph import (
    EventGraph,
    GraphError,
    build,
    induce_sequence_subgraph,
    transition_probabilities,
)
from graph_literals import edge_literal, frequency_matrix, step_probabilities
from loggad.ingest import LogSequence
from loggad.keywords import ANOMALY, NORMAL, KeywordSet


def kwset(normal, anomaly):
    return KeywordSet(normal=[(w, 1.0) for w in normal], anomaly=[(w, 1.0) for w in anomaly])


def seqs(*token_lists):
    return [LogSequence(id=f"s{i}", tokens=list(t)) for i, t in enumerate(token_lists)]


def oracle_adjacency(keywords, corpus, window):
    """O(n^2) pairwise-window counter over token positions."""
    all_kw = set(keywords.class_words(NORMAL)) | set(keywords.class_words(ANOMALY))
    counts = {}
    for s in corpus:
        positions = [(p, t) for p, t in enumerate(s.tokens) if t in all_kw]
        for i in range(len(positions)):
            for j in range(i + 1, len(positions)):
                pa, wa = positions[i]
                pb, wb = positions[j]
                if pb - pa <= window and wa != wb:
                    key = tuple(sorted((wa, wb)))
                    counts[key] = counts.get(key, 0) + 1
    return counts


class TestBuild:
    def test_single_edge(self):
        g = build(kwset(["failed"], ["denied"]), seqs(["failed", "denied", "ok"]), 5)
        assert g.words == ["denied", "failed"]
        assert edge_literal(g) == {(0, 1): 1}

    def test_isolated_vertex(self):
        corpus = seqs(["lonely"] + ["pad"] * 15 + ["failed", "denied"])
        g = build(kwset(["failed", "lonely"], ["denied"]), corpus, 5)
        i = g.index["lonely"]
        assert all(i not in edge for edge in edge_literal(g))

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(3)
        vocab = [f"w{i}" for i in range(12)]
        corpus = [
            LogSequence(id=f"s{i}", tokens=list(rng.choice(vocab, size=rng.integers(3, 15))))
            for i in range(20)
        ]
        ks = kwset(vocab[:5], vocab[4:9])
        g = build(ks, corpus, 4)
        expected = oracle_adjacency(ks, corpus, 4)
        got = {
            (g.words[i], g.words[j]): f for (i, j), f in edge_literal(g).items()
        }
        got = {tuple(sorted(k)): v for k, v in got.items()}
        assert got == expected

    def test_absent_keywords_dropped_from_vertices(self):
        g = build(kwset(["present"], ["ghost"]), seqs(["present", "present"]), 5)
        assert g.words == ["present"]

    def test_no_occurring_keyword_is_hard_error(self):
        with pytest.raises(GraphError, match="no keyword occurs in the corpus"):
            build(kwset(["ghost"], ["phantom"]), seqs(["real", "tokens"]), 5)

    def test_empty_keywords_rejected(self):
        with pytest.raises(GraphError):
            build(KeywordSet(normal=[], anomaly=[]), seqs(["a"]), 5)

    def test_window_bound_respected(self):
        corpus = seqs(["failed"] + ["pad"] * 10 + ["denied"])
        assert edge_literal(build(kwset(["failed"], ["denied"]), corpus, 11)) != {}
        # Both words still occur, so the graph builds, just with zero edges.
        g = build(kwset(["failed"], ["denied"]), corpus, 10)
        assert edge_literal(g) == {}

    def test_deterministic_rebuild(self):
        rng = np.random.default_rng(0)
        vocab = [f"w{i}" for i in range(8)]
        corpus = [
            LogSequence(id=f"s{i}", tokens=list(rng.choice(vocab, size=10)))
            for i in range(10)
        ]
        ks = kwset(vocab[:4], vocab[3:])
        g1 = build(ks, corpus, 5)
        g2 = build(ks, corpus, 5)
        assert g1.to_json() == g2.to_json()

    def test_dual_class_membership(self):
        g = build(kwset(["both"], ["both", "other"]), seqs(["both", "other"]), 5)
        i = g.index["both"]
        assert g.class_flags[i].tolist() == [1.0, 1.0]

    def test_features_shape_and_content(self):
        g = build(kwset(["failed"], ["denied"]), seqs(["failed", "denied"]), 5)
        feats = g.features
        assert feats.shape == (2, 2 + 2)
        for i in range(2):
            assert feats[i, :2].tolist() == g.class_flags[i].tolist()
            onehot = feats[i, 2:]
            assert onehot[i] == 1.0 and onehot.sum() == 1.0

    def test_json_export_shape(self):
        g = build(kwset(["failed"], ["denied"]), seqs(["failed", "denied"]), 5)
        obj = json.loads(g.to_json())
        assert set(obj) == {"vertices", "edges"}
        assert obj["edges"] == [[0, 1, 1]]


def oracle_frequency(words, corpus, window):
    """Dense counts from every position pair of every sequence, one at a time."""
    index = {w: i for i, w in enumerate(words)}
    freq = np.zeros((len(words), len(words)), dtype=np.int64)
    for s in corpus:
        for p, ta in enumerate(s.tokens):
            for tb in s.tokens[p + 1 : p + 1 + window]:
                if ta in index and tb in index and ta != tb:
                    freq[index[ta], index[tb]] += 1
                    freq[index[tb], index[ta]] += 1
    return freq


class TestDenseCounting:
    @pytest.mark.parametrize("window", [1, 2, 3, 6, 20])
    def test_matches_pair_oracle(self, window):
        # sequences of 1-14 tokens, so window 20 spans every sequence
        rng = np.random.default_rng(10 * window)
        vocab = [f"w{i}" for i in range(10)]
        ks = kwset(vocab[:4], vocab[3:7])
        for _ in range(10):
            corpus = [
                LogSequence(
                    id=f"s{i}", tokens=["w0"] + list(rng.choice(vocab, size=rng.integers(0, 14)))
                )
                for i in range(rng.integers(1, 12))
            ]
            g = build(ks, corpus, window)
            occurring = {t for s in corpus for t in s.tokens} & ks.all_words()
            assert g.words == sorted(occurring)
            expected = oracle_frequency(g.words, corpus, window)
            assert g.frequency.dtype == np.int64
            assert np.array_equal(g.frequency, expected)

    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_no_count_across_sequences(self, window):
        # "a" ends the first sequence and "b" starts the second: adjacent if
        # the sequences ran together. Only the third sequence's pair counts.
        corpus = seqs(["x", "x", "a"], ["b", "x", "x"], ["a", "b"])
        g = build(kwset(["a"], ["b"]), corpus, window)
        assert edge_literal(g) == {(0, 1): 1}


class TestInvariants:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            EventGraph(
                words=["a"], class_flags=np.ones((1, 2)), frequency=frequency_matrix(1, {(0, 0): 1})
            )

    def test_asymmetric_frequency_rejected(self):
        freq = np.array([[0, 1], [0, 0]], dtype=np.int64)
        with pytest.raises(GraphError):
            EventGraph(words=["a", "b"], class_flags=np.ones((2, 2)), frequency=freq)

    def test_negative_count_rejected(self):
        freq = frequency_matrix(2, {(0, 1): -1})
        with pytest.raises(GraphError):
            EventGraph(words=["a", "b"], class_flags=np.ones((2, 2)), frequency=freq)

    def test_wrong_shape_or_dtype_rejected(self):
        for freq in (np.zeros((2, 3), dtype=np.int64), np.zeros((2, 2))):
            with pytest.raises(GraphError):
                EventGraph(words=["a", "b"], class_flags=np.ones((2, 2)), frequency=freq)

    def test_classless_vertex_rejected(self):
        with pytest.raises(GraphError):
            EventGraph(words=["a"], class_flags=np.zeros((1, 2)), frequency=frequency_matrix(1, {}))


class TestTransitionProbabilities:
    def test_eq6_normalization(self):
        g = EventGraph(
            words=["a", "b", "c"],
            class_flags=np.ones((3, 2)),
            frequency=frequency_matrix(3, {(0, 1): 3, (0, 2): 1}),
        )
        policy = transition_probabilities(g)
        ia = g.index["a"]
        assert step_probabilities(g, policy, ia).tolist() == [0.75, 0.25]

    def test_single_neighbor_probability_one(self):
        g = EventGraph(
            words=["a", "b"],
            class_flags=np.ones((2, 2)),
            frequency=frequency_matrix(2, {(0, 1): 7}),
        )
        policy = transition_probabilities(g)
        assert step_probabilities(g, policy, 0).tolist() == [1.0]
        assert step_probabilities(g, policy, 1).tolist() == [1.0]

    def test_dead_end_rows(self):
        g = EventGraph(
            words=["a", "b", "c"],
            class_flags=np.ones((3, 2)),
            frequency=frequency_matrix(3, {(0, 1): 1}),
        )
        policy = transition_probabilities(g)
        assert not policy[2].any()  # all-zero row: dead end
        assert policy[0].any()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_rows_sum_to_one_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        edges = {}
        for _ in range(rng.integers(1, 80)):
            i, j = sorted(rng.choice(n, size=2, replace=False))
            edges[(int(i), int(j))] = int(rng.integers(1, 9))
        g = EventGraph(
            words=[f"w{i}" for i in range(n)], class_flags=np.ones((n, 2)),
            frequency=frequency_matrix(n, edges),
        )
        policy = transition_probabilities(g)
        for row in (step_probabilities(g, policy, v) for v in range(n)):
            if row.size:
                assert abs(row.sum() - 1.0) <= 1e-12


    def test_rows_reach_one_from_the_last_neighbor_on(self):
        # ten equal neighbours sum to 0.9999999999999999; a draw of
        # nextafter(1, 0) must still land on the last neighbour
        g = EventGraph(
            words=[f"w{i}" for i in range(11)], class_flags=np.ones((11, 2)),
            frequency=frequency_matrix(11, {(0, j): 1 for j in range(1, 11)}),
        )
        assert np.cumsum(np.full(10, 0.1))[-1] < 1.0
        row = transition_probabilities(g)[0]
        assert row[-1] == 1.0
        assert np.searchsorted(row, np.nextafter(1.0, 0.0), side="right") == 10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_rows_are_the_running_sum_raised_to_one_at_the_tail(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        edges = {}
        for _ in range(rng.integers(0, 80)):
            i, j = sorted(rng.choice(n, size=2, replace=False))
            edges[(int(i), int(j))] = int(rng.integers(1, 9))
        g = EventGraph(
            words=[f"w{i}" for i in range(n)], class_flags=np.ones((n, 2)),
            frequency=frequency_matrix(n, edges),
        )
        policy = transition_probabilities(g)
        freq = g.frequency
        running = np.cumsum(freq / np.maximum(freq.sum(axis=1, keepdims=True), 1), axis=1)
        for v in range(n):
            cols = np.flatnonzero(freq[v])
            if cols.size == 0:
                assert not policy[v].any()
                continue
            last = cols[-1]
            assert policy[v, :last].tobytes() == running[v, :last].tobytes()
            assert (policy[v, last:] == np.maximum(running[v, last:], 1.0)).all()
            assert (np.diff(policy[v]) >= 0).all()


class TestInducedSubgraph:
    def build_toy(self):
        corpus = seqs(
            ["alpha", "beta", "gamma"],
            ["beta", "gamma", "delta"],
            ["alpha", "delta"],
        )
        return build(kwset(["alpha", "beta"], ["gamma", "delta"]), corpus, 5), corpus

    def test_no_keywords_empty_subgraph(self):
        g, _ = self.build_toy()
        sg = induce_sequence_subgraph(g, LogSequence(id="x", tokens=["unrelated"]))
        assert sg.is_empty and sg.n_vertices == 0

    def test_single_keyword_single_vertex(self):
        g, _ = self.build_toy()
        sg = induce_sequence_subgraph(g, LogSequence(id="x", tokens=["alpha", "noise"]))
        assert sg.n_vertices == 1
        assert g.words[sg.vertex_ids[0]] == "alpha"

    def test_matches_edge_filter_oracle(self):
        g, corpus = self.build_toy()
        for s in corpus:
            sg = induce_sequence_subgraph(g, s)
            members = set(sg.vertex_ids.tolist())
            expected = {
                tuple(sorted((i, j)))
                for (i, j) in edge_literal(g)
                if i in members and j in members
            }
            adj = sg.adjacency
            got = set()
            pos = {int(v): k for k, v in enumerate(sg.vertex_ids)}
            for (i, j) in expected:
                assert adj[pos[i], pos[j]] == 1.0 and adj[pos[j], pos[i]] == 1.0
                got.add((i, j))
            # no extra edges beyond the filtered set
            assert int(adj.sum()) == 2 * len(expected)
            assert got == expected

    def test_closure_endpoints_in_sequence(self):
        g, corpus = self.build_toy()
        for s in corpus:
            sg = induce_sequence_subgraph(g, s)
            for v in sg.vertex_ids:
                assert g.words[int(v)] in s.tokens
