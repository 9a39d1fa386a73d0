"""Walk-length statistics and random-walk sampling."""

import numpy as np
import pytest

from graph_literals import edge_literal, frequency_matrix
from loggad.graph import EventGraph, build, transition_probabilities
from loggad.ingest import LogSequence
from loggad.keywords import KeywordSet
from loggad.walks import (
    WalkError,
    WalkLengthModel,
    WalkSampler,
    fit_length_model,
    keyword_count,
    sample_walk,
)


def kwset(normal, anomaly):
    return KeywordSet(normal=[(w, 1.0) for w in normal], anomaly=[(w, 1.0) for w in anomaly])


def seqs(*token_lists):
    return [LogSequence(id=f"s{i}", tokens=list(t)) for i, t in enumerate(token_lists)]


class TestKeywordCount:
    def test_counts_with_multiplicity(self):
        s = LogSequence(id="x", tokens=["a", "a", "b", "c"])
        assert keyword_count(s, {"a", "c"}) == 3

    def test_zero_when_none_present(self):
        s = LogSequence(id="x", tokens=["z"])
        assert keyword_count(s, {"a"}) == 0


class TestFitLengthModel:
    def test_two_counts(self):
        # keyword counts [2, 4] -> mu = 3, unbiased variance = 2
        corpus = seqs(["k", "k", "x"], ["k", "k", "k", "k"])
        model = fit_length_model(corpus, kwset(["k"], []))
        assert model.mu == pytest.approx(3.0)
        assert model.sigma2 == pytest.approx(2.0)

    def test_constant_counts_zero_variance(self):
        corpus = seqs(["k", "x"], ["k", "y"], ["z", "k"])
        model = fit_length_model(corpus, kwset(["k"], []))
        assert model.mu == pytest.approx(1.0)
        assert model.sigma2 == 0.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(10)]
        corpus = [
            LogSequence(id=f"s{i}", tokens=list(rng.choice(vocab, size=rng.integers(2, 20))))
            for i in range(100)
        ]
        ks = kwset(vocab[:3], vocab[3:6])
        model = fit_length_model(corpus, ks)
        words = ks.all_words()
        counts = [sum(1 for t in s.tokens if t in words) for s in corpus]
        mu = sum(counts) / len(counts)
        sigma2 = sum((c - mu) ** 2 for c in counts) / (len(counts) - 1)
        assert model.mu == pytest.approx(mu)
        assert model.sigma2 == pytest.approx(sigma2)

    def test_single_sequence_rejected(self):
        with pytest.raises(WalkError):
            fit_length_model(seqs(["k"]), kwset(["k"], []))


class TestLengthSampling:
    def test_clamped_into_bounds(self):
        model = WalkLengthModel(mu=0.0, sigma2=100.0, l_max=8)
        rng = np.random.default_rng(0)
        lengths = [model.sample_length(rng) for _ in range(500)]
        assert all(1 <= l <= 8 for l in lengths)
        assert {1, 8} <= set(lengths)  # both clamps exercised

    def test_zero_variance_is_rounded_mean(self):
        model = WalkLengthModel(mu=3.4, sigma2=0.0)
        rng = np.random.default_rng(0)
        assert model.sample_length(rng) == 3


def two_class_graph():
    """a,b in class 0; c,d in class 1; chain a-b-c-d."""
    flags = np.zeros((4, 2))
    flags[0, 0] = flags[1, 0] = 1.0
    flags[2, 1] = flags[3, 1] = 1.0
    return EventGraph(
        words=["a", "b", "c", "d"],
        class_flags=flags,
        frequency=frequency_matrix(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1}),
    )


class TestSampleWalk:
    def test_single_vertex_graph_dead_end(self):
        flags = np.ones((1, 2))
        g = EventGraph(words=["only"], class_flags=flags, frequency=frequency_matrix(1, {}))
        policy = transition_probabilities(g)
        model = WalkLengthModel(mu=10.0, sigma2=0.0)
        sample = sample_walk(g, policy, model, np.random.default_rng(0))
        assert sample.subgraph.n_vertices == 1
        assert sample.start_word == "only"

    def test_two_vertex_chain_visits_both(self):
        flags = np.ones((2, 2))
        g = EventGraph(
            words=["x", "y"], class_flags=flags, frequency=frequency_matrix(2, {(0, 1): 1})
        )
        policy = transition_probabilities(g)
        model = WalkLengthModel(mu=3.0, sigma2=0.0)
        sample = sample_walk(g, policy, model, np.random.default_rng(0))
        assert sample.subgraph.n_vertices == 2

    def test_start_word_in_start_class(self):
        g = two_class_graph()
        policy = transition_probabilities(g)
        model = WalkLengthModel(mu=2.0, sigma2=1.0)
        rng = np.random.default_rng(1)
        for _ in range(200):
            s = sample_walk(g, policy, model, rng)
            assert g.class_flags[g.index[s.start_word], s.start_class] == 1.0
            assert g.index[s.start_word] in s.subgraph.vertex_ids

    def test_subgraph_closure(self):
        g = two_class_graph()
        policy = transition_probabilities(g)
        model = WalkLengthModel(mu=3.0, sigma2=2.0)
        rng = np.random.default_rng(2)
        for _ in range(100):
            sg = sample_walk(g, policy, model, rng).subgraph
            members = set(sg.vertex_ids.tolist())
            pos = {int(v): k for k, v in enumerate(sg.vertex_ids)}
            for (i, j) in edge_literal(g):
                if i in members and j in members:
                    assert sg.adjacency[pos[i], pos[j]] == 1.0

    def test_seed_determinism(self):
        g = two_class_graph()
        policy = transition_probabilities(g)
        model = WalkLengthModel(mu=3.0, sigma2=2.0)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            runs.append(
                [
                    (s.start_class, s.start_word, s.subgraph.vertex_ids.tolist())
                    for s in (sample_walk(g, policy, model, rng) for _ in range(50))
                ]
            )
        assert runs[0] == runs[1]

    def test_missing_class_rejected(self):
        flags = np.zeros((2, 2))
        flags[:, 0] = 1.0  # class 1 empty
        g = EventGraph(
            words=["x", "y"], class_flags=flags, frequency=frequency_matrix(2, {(0, 1): 1})
        )
        policy = transition_probabilities(g)
        model = WalkLengthModel(mu=1.0, sigma2=0.0)
        with pytest.raises(WalkError):
            WalkSampler(g, policy, model, np.random.default_rng(0))


class TestMonteCarlo:
    def test_star_graph_transition_frequencies(self):
        # center 0 with leaves b (F=3) and c (F=1): one-step visit ratio
        # must approach 0.75 / 0.25 within +-0.01 at 1e5 walks.
        flags = np.ones((3, 2))
        g = EventGraph(
            words=["center", "b", "c"],
            class_flags=flags,
            frequency=frequency_matrix(3, {(0, 1): 3, (0, 2): 1}),
        )
        policy = transition_probabilities(g)
        rng = np.random.default_rng(123)
        n = 100_000
        hits = {1: 0, 2: 0}
        cum = policy[0]
        neighbors = np.arange(g.n_vertices)  # a row's columns are vertex ids
        for _ in range(n):
            nxt = int(neighbors[np.searchsorted(cum, rng.random(), side="right")])
            hits[nxt] += 1
        assert hits[1] / n == pytest.approx(0.75, abs=0.01)
        assert hits[2] / n == pytest.approx(0.25, abs=0.01)

    def test_start_class_uniformity(self):
        g = two_class_graph()
        policy = transition_probabilities(g)
        model = WalkLengthModel(mu=2.0, sigma2=0.0)
        sampler = WalkSampler(g, policy, model, np.random.default_rng(7))
        n = 20_000
        ones = sum(sampler.sample().start_class for _ in range(n))
        sigma = np.sqrt(n * 0.25)
        assert abs(ones - n / 2) <= 3 * sigma


class TestSamplerIntegration:
    def test_end_to_end_over_built_graph(self):
        corpus = seqs(
            ["up", "ok", "up", "ok"],
            ["fail", "trap", "fail"],
            ["up", "fail", "ok", "trap"],
        )
        ks = kwset(["up", "ok"], ["fail", "trap"])
        g = build(ks, corpus, 5)
        model = fit_length_model(corpus, ks)
        sampler = WalkSampler(g, transition_probabilities(g), model, np.random.default_rng(0))
        batch = sampler.sample_batch(32)
        assert len(batch) == 32
        assert all(not s.subgraph.is_empty for s in batch)
