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


class StubRng:
    """Class 0, its first candidate, the mean length, and every uniform
    draw at nextafter(1, 0), the largest double below 1."""

    def integers(self, n):
        return 0

    def normal(self, mu, sigma):
        return mu

    def random(self, size=None):
        u = np.nextafter(1.0, 0.0)
        return u if size is None else np.full(size, u)


class TestRowEnd:
    def test_top_draw_from_a_ten_neighbor_star_stays_in_the_graph(self):
        # center 0 (class 0) with ten equal leaves: its running sum ends at
        # 0.9999999999999999, below the draw; the walk must take leaf 10
        flags = np.zeros((11, 2))
        flags[0, 0] = 1.0
        flags[1:, 1] = 1.0
        g = EventGraph(
            words=[f"w{i:02d}" for i in range(11)], class_flags=flags,
            frequency=frequency_matrix(11, {(0, j): 1 for j in range(1, 11)}),
        )
        policy = transition_probabilities(g)
        model = WalkLengthModel(mu=3.0, sigma2=0.0)
        for sample in (
            sample_walk(g, policy, model, StubRng()),
            WalkSampler(g, policy, model, StubRng()).sample(),
        ):
            assert sample.start_word == "w00"
            assert sample.subgraph.vertex_ids.tolist() == [0, 10]


def searchsorted_walk(g, transitions, model, rng):
    """The per-step ``np.searchsorted`` walker that bisecting replaced: the
    reference for the walks and the draws of ``sample_walk``."""
    start_class = int(rng.integers(2))
    candidates = g.class_vertices(start_class)
    start = int(candidates[rng.integers(candidates.size)])
    raw = rng.normal(model.mu, np.sqrt(model.sigma2))
    length = int(np.clip(round(raw), model.l_min, model.l_max))
    visited = {start}
    current = start
    for _ in range(length):
        cum = transitions[current]
        if cum[-1] == 0.0:
            break
        current = int(np.searchsorted(cum, rng.random(), side="right"))
        visited.add(current)
    return start_class, g.words[start], sorted(visited)


def random_graph(rng):
    """2-30 vertices, both classes present, and a few isolated vertices."""
    n = int(rng.integers(2, 31))
    flags = np.zeros((n, 2))
    flags[np.arange(n), rng.integers(2, size=n)] = 1.0
    flags[rng.random(n) < 0.3] = 1.0
    flags[0] = [1.0, 0.0]
    flags[1] = [0.0, 1.0]
    connected = np.flatnonzero(rng.random(n) > 0.2)
    edges = {}
    if connected.size >= 2:
        for _ in range(rng.integers(1, 4 * n)):
            i, j = sorted(rng.choice(connected, size=2, replace=False))
            edges[(int(i), int(j))] = int(rng.integers(1, 12))
    return EventGraph(
        words=[f"w{i:02d}" for i in range(n)], class_flags=flags,
        frequency=frequency_matrix(n, edges),
    )


class TestBisectWalker:
    def test_matches_the_searchsorted_walker_and_its_draws(self):
        dead_starts = long_walks = 0
        for seed in range(200):
            graph_rng = np.random.default_rng(seed)
            g = random_graph(graph_rng)
            policy = transition_probabilities(g)
            model = WalkLengthModel(
                mu=float(graph_rng.uniform(0, 12)),
                sigma2=float(graph_rng.uniform(0, 30)),
                l_min=int(graph_rng.integers(0, 2)),
                l_max=int(graph_rng.integers(1, 40)),
            )
            rng, ref_rng, direct_rng = (np.random.default_rng(1000 + seed) for _ in range(3))
            sampler = WalkSampler(g, policy, model, rng)
            for _ in range(10):
                expected = searchsorted_walk(g, policy, model, ref_rng)
                for s, r in (
                    (sampler.sample(), rng),
                    (sample_walk(g, policy, model, direct_rng), direct_rng),
                ):
                    got = (s.start_class, s.start_word, s.subgraph.vertex_ids.tolist())
                    assert got == expected, seed
                    assert r.bit_generator.state == ref_rng.bit_generator.state, seed
                start = g.index[expected[1]]
                dead_starts += not policy[start].any()
                long_walks += len(expected[2]) > 2
        assert dead_starts > 50 and long_walks > 500


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
