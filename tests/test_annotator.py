"""Annotator model: gradients, invariances, voting and training behavior."""

from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from graph_literals import frequency_matrix
from loggad import annotator as ann
from loggad import nn, walks
from loggad.annotator import (
    AnnotatorError,
    AnnotatorModel,
    forward,
    loss_and_grads,
    node_representations,
    vote_annotate,
)
from loggad.graph import (
    EventGraph,
    Subgraph,
    build,
    induce_sequence_subgraph,
    transition_probabilities,
)
from loggad.ingest import LogSequence
from loggad.keywords import ANOMALY, NORMAL, KeywordSet
from loggad.pipeline import PipelineConfig
from loggad.walks import WalkLengthModel, WalkSampler


def kwset(normal, anomaly):
    return KeywordSet(normal=[(w, 1.0) for w in normal], anomaly=[(w, 1.0) for w in anomaly])


def seqs(*token_lists):
    return [LogSequence(id=f"s{i}", tokens=list(t)) for i, t in enumerate(token_lists)]


def vote(seq, keywords):
    return ann.vote_counts([seq], keywords)[0]


def random_graph(rng, n=6, p_edge=0.5):
    flags = np.zeros((n, 2))
    for i in range(n):
        cls = rng.integers(0, 3)
        if cls == 2:
            flags[i] = 1.0
        else:
            flags[i, cls] = 1.0
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                edges[(i, j)] = int(rng.integers(1, 5))
    return EventGraph(
        words=[f"w{i}" for i in range(n)], class_flags=flags, frequency=frequency_matrix(n, edges)
    )


def random_subgraph(rng, g):
    k = int(rng.integers(1, g.n_vertices + 1))
    ids = rng.choice(g.n_vertices, size=k, replace=False)
    return Subgraph(graph=g, vertex_ids=ids)


class TestGradients:
    def numeric_grads(self, model, sgs, targets, h=1e-6):
        out = {}
        for name, arr in model.params.items():
            num = np.zeros_like(arr)
            flat = arr.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up, _ = loss_and_grads(model, sgs, targets)
                flat[idx] = orig - h
                down, _ = loss_and_grads(model, sgs, targets)
                flat[idx] = orig
                num.ravel()[idx] = (up - down) / (2 * h)
            out[name] = num
        return out

    def test_analytic_matches_central_differences(self):
        # 20 random (graph, subgraph, target) instances; relative error of
        # every parameter tensor under 1e-4.
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            g = random_graph(rng, n=int(rng.integers(2, 6)))
            sg = random_subgraph(rng, g)
            model = AnnotatorModel.create(
                g.features.shape[1], rng, n_layers=2, hidden=5, vocab_hash=g.vocab_hash
            )
            # move off the zero init so eps/bias gradients are generic
            for k, v in model.params.items():
                v += rng.normal(0, 0.05, size=v.shape)
            target = int(rng.integers(0, 2))
            _, analytic = loss_and_grads(model, [sg], [target])
            numeric = self.numeric_grads(model, [sg], [target])
            for name in model.params:
                a, n = analytic[name], numeric[name]
                rel = np.linalg.norm(a - n) / (np.linalg.norm(a) + np.linalg.norm(n) + 1e-12)
                assert rel < 1e-4, f"{name}: rel err {rel}"
            checked += 1

    def test_loss_is_cross_entropy_of_forward(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng)
        sg = Subgraph(graph=g, vertex_ids=np.arange(g.n_vertices))
        model = AnnotatorModel.create(g.features.shape[1], rng, 2, 8, g.vocab_hash)
        logits = forward(model, [sg])
        for target in (0, 1):
            loss, _ = loss_and_grads(model, [sg], [target])
            expected, _ = nn.cross_entropy(logits, np.array([target]))
            assert loss == pytest.approx(expected)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a) + np.linalg.norm(b), 1e-300)


def perturbed_model(rng, g):
    model = AnnotatorModel.create(
        g.features.shape[1], rng, n_layers=3, hidden=6, vocab_hash=g.vocab_hash
    )
    # move off the zero init so eps/bias gradients are generic
    for v in model.params.values():
        v += rng.normal(0, 0.05, size=v.shape)
    return model


def mixed_size_batch(rng, g):
    """Subgraphs of different sizes, one of them a single vertex."""
    sizes = [1, g.n_vertices, 3, 2, g.n_vertices - 1]
    return [
        Subgraph(graph=g, vertex_ids=rng.choice(g.n_vertices, size=k, replace=False))
        for k in sizes
    ]


class TestBatchedKernel:
    def test_batch_is_mean_of_single_examples(self):
        rng = np.random.default_rng(21)
        g = random_graph(rng, n=7, p_edge=0.6)
        sgs = mixed_size_batch(rng, g)
        targets = [0, 1, 1, 0, 1]
        model = perturbed_model(rng, g)
        loss, grads = loss_and_grads(model, sgs, targets)
        singles = [loss_and_grads(model, [sg], [t]) for sg, t in zip(sgs, targets)]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=1e-12)
        assert list(grads) == list(model.params)
        for name in model.params:
            mean = sum(gr[name] for _, gr in singles) / len(sgs)
            assert rel_err(grads[name], mean) <= 1e-12, name

    def test_batch_of_three_matches_central_differences(self):
        rng = np.random.default_rng(22)
        g = random_graph(rng, n=5, p_edge=0.7)
        sgs = mixed_size_batch(rng, g)[:3]
        targets = [1, 0, 1]
        model = perturbed_model(rng, g)
        _, analytic = loss_and_grads(model, sgs, targets)
        numeric = TestGradients().numeric_grads(model, sgs, targets)
        for name in model.params:
            assert rel_err(analytic[name], numeric[name]) < 1e-4, name

    def test_batched_forward_rows_are_single_forwards(self):
        rng = np.random.default_rng(23)
        g = random_graph(rng, n=7, p_edge=0.6)
        sgs = mixed_size_batch(rng, g)
        model = perturbed_model(rng, g)
        batched = forward(model, sgs)
        assert batched.shape == (len(sgs), 2)
        for row, sg in zip(batched, sgs):
            assert np.allclose(row, forward(model, [sg])[0], rtol=0, atol=1e-12)

    def test_target_count_must_match_batch(self):
        rng = np.random.default_rng(24)
        g = random_graph(rng, n=5)
        model = perturbed_model(rng, g)
        with pytest.raises(AnnotatorError):
            loss_and_grads(model, mixed_size_batch(rng, g)[:3], [0, 1])
        with pytest.raises(AnnotatorError):
            loss_and_grads(model, [], [])
        with pytest.raises(AnnotatorError):
            forward(model, [])


@dataclass
class PermutedView:
    """Duck-typed subgraph presenting vertices in an arbitrary row order."""

    features: np.ndarray
    adjacency: np.ndarray
    is_empty: bool = False


class TestPermutationInvariance:
    def test_logits_invariant_to_vertex_order(self):
        # 100 random subgraphs; row-permuted presentation must give the
        # same logits to within 1e-9 (sum readout is order-free).
        rng = np.random.default_rng(17)
        for _ in range(100):
            g = random_graph(rng, n=int(rng.integers(2, 8)))
            sg = random_subgraph(rng, g)
            model = AnnotatorModel.create(g.features.shape[1], rng, 3, 8, g.vocab_hash)
            base = forward(model, [sg])
            perm = rng.permutation(sg.n_vertices)
            view = PermutedView(
                features=sg.features[perm],
                adjacency=sg.adjacency[np.ix_(perm, perm)],
            )
            assert np.max(np.abs(forward(model, [view]) - base)) <= 1e-9


class TestLayerOracles:
    def test_isolated_node_reduction(self):
        # an edgeless subgraph passes no messages: every layer's row of a
        # node equals that node run alone and the MLP of its own
        # (1 + eps)-scaled row, and the logits are the head applied to the
        # concatenated per-layer sums
        rng = np.random.default_rng(5)
        g = EventGraph(
            words=["a", "b"], class_flags=np.ones((2, 2)), frequency=frequency_matrix(2, {})
        )
        sg = Subgraph(graph=g, vertex_ids=np.array([0, 1]))
        model = AnnotatorModel.create(
            g.features.shape[1], rng, n_layers=3, hidden=8, vocab_hash=g.vocab_hash
        )
        p = model.params
        for v in p.values():
            v += rng.normal(0, 0.05, size=v.shape)
        reps = node_representations(model, [sg])
        for k in range(1, 4):
            Z = (1.0 + p[f"eps{k}"][0]) * reps[k - 1] @ p[f"W1_{k}"] + p[f"b1_{k}"]
            mlp = np.tanh(Z) @ p[f"W2_{k}"] + p[f"b2_{k}"]
            assert np.allclose(reps[k], mlp, rtol=0, atol=1e-12)
        for v in range(2):
            alone = node_representations(model, [Subgraph(graph=g, vertex_ids=np.array([v]))])
            for R, R_alone in zip(reps, alone):
                assert np.allclose(R[v], R_alone[0], rtol=0, atol=1e-12)
        readout = np.concatenate([R.sum(axis=0) for R in reps])
        expected = readout @ p["head_W"] + p["head_b"]
        assert np.allclose(forward(model, [sg])[0], expected, atol=1e-12)

    def test_layer_recompute_with_edges(self):
        # layer k equals tanh((A + (1+eps_k) I) R^(k-1) W1_k + b1_k) W2_k + b2_k
        rng = np.random.default_rng(6)
        g = random_graph(rng, n=5, p_edge=0.7)
        sg = Subgraph(graph=g, vertex_ids=np.arange(5))
        model = AnnotatorModel.create(g.features.shape[1], rng, 2, 4, g.vocab_hash)
        p = model.params
        for v in p.values():
            v += rng.normal(0, 0.05, size=v.shape)
        p["eps1"][0] = 0.3
        p["eps2"][0] = -0.2
        reps = node_representations(model, [sg])
        R = sg.features
        for k, eps in ((1, 0.3), (2, -0.2)):
            M = sg.adjacency + (1.0 + eps) * np.eye(5)
            R = np.tanh(M @ R @ p[f"W1_{k}"] + p[f"b1_{k}"]) @ p[f"W2_{k}"] + p[f"b2_{k}"]
            assert np.allclose(reps[k], R, atol=1e-12)


class TestForwardOracle:
    def test_dense_loop_recompute(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, n=5)
        sg = random_subgraph(rng, g)
        model = AnnotatorModel.create(g.features.shape[1], rng, 2, 6, g.vocab_hash)
        p = model.params
        # straight-line recompute with explicit per-node loops
        reps = [sg.features.copy()]
        A = sg.adjacency
        n = sg.n_vertices
        for k in (1, 2):
            prev = reps[-1]
            Z = np.zeros_like(prev) if prev.shape[1] == prev.shape[1] else None
            Z = np.zeros((n, prev.shape[1]))
            for i in range(n):
                acc = (1.0 + p[f"eps{k}"][0]) * prev[i]
                for j in range(n):
                    if A[i, j]:
                        acc = acc + prev[j]
                Z[i] = acc
            T = np.tanh(Z @ p[f"W1_{k}"] + p[f"b1_{k}"])
            reps.append(T @ p[f"W2_{k}"] + p[f"b2_{k}"])
        readout = np.concatenate([R.sum(axis=0) for R in reps])
        expected = readout @ p["head_W"] + p["head_b"]
        assert np.allclose(forward(model, [sg])[0], expected, atol=1e-10)

    def test_empty_subgraph_rejected(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng)
        model = AnnotatorModel.create(g.features.shape[1], rng, 2, 4, g.vocab_hash)
        with pytest.raises(AnnotatorError):
            forward(model, [Subgraph(graph=g, vertex_ids=np.array([], dtype=np.int64))])

    def test_feature_width_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, n=4)
        model = AnnotatorModel.create(99, rng, 2, 4)
        with pytest.raises(AnnotatorError):
            forward(model, [Subgraph(graph=g, vertex_ids=np.array([0]))])


class TestVote:
    KS = kwset(["ok", "up"], ["fail", "trap"])

    def test_anomaly_majority(self):
        s = LogSequence(id="x", tokens=["fail", "fail", "ok"])
        assert vote(s, self.KS).label == ANOMALY

    def test_normal_majority(self):
        s = LogSequence(id="x", tokens=["ok", "up", "fail"])
        assert vote(s, self.KS).label == NORMAL

    def test_tie_breaks_normal(self):
        s = LogSequence(id="x", tokens=["ok", "fail"])
        assert vote(s, self.KS).label == NORMAL

    def test_multiplicity_counts(self):
        # one distinct anomaly word repeated outvotes two distinct normals
        s = LogSequence(id="x", tokens=["trap", "trap", "trap", "ok", "up"])
        assert vote(s, self.KS).label == ANOMALY

    def test_no_keywords_abstains(self):
        assert vote(LogSequence(id="x", tokens=["zzz"]), self.KS).label is None

    def test_margin_oracle_values(self):
        # margin = |A - N| / (A + N) over keyword token counts
        cases = [
            (["fail", "fail", "ok"], (2 - 1) / 3),
            (["ok", "fail"], 0.0),
            (["trap"] * 4, 1.0),
            (["ok", "up", "up", "fail"], (3 - 1) / 4),
        ]
        for tokens, expected in cases:
            s = LogSequence(id="x", tokens=tokens)
            assert vote(s, self.KS).margin == pytest.approx(expected)

    def test_margin_zero_on_abstain(self):
        assert vote(LogSequence(id="x", tokens=["zzz"]), self.KS).margin == 0.0

    def test_counts_match_a_counter_oracle(self):
        # words on both lists count for both classes; repeats count each time
        ks = kwset(["ok", "up", "node", "link"], ["fail", "node", "link", "trap"])
        rng = np.random.default_rng(5)
        words = ["ok", "up", "node", "link", "fail", "trap", "zzz", "other"]
        corpus = seqs(*([words[i] for i in rng.integers(0, len(words), size=n)]
                        for n in rng.integers(1, 15, size=50)))
        expected = []
        for seq in corpus:
            counts = Counter(seq.tokens)
            expected.append((
                sum(counts[w] for w in ks.class_words(NORMAL)),
                sum(counts[w] for w in ks.class_words(ANOMALY)),
            ))
        assert ann.vote_counts(corpus, ks) == expected
        assert ann.vote_counts(seqs(["node", "node", "ok"]), ks) == [(3, 2)]

    def test_vote_annotate_confidence_and_flag(self):
        corpus = seqs(["fail", "fail", "ok"], ["zzz"])
        labels = vote_annotate(corpus, self.KS)
        assert labels[0].label == ANOMALY
        assert labels[0].confidence == pytest.approx(2 / 3)
        assert not labels[0].flagged
        assert labels[1].label == NORMAL and labels[1].flagged


def trainable_setup(seed=0):
    """Two clean keyword clusters; votes are perfectly consistent."""
    corpus = seqs(
        *(["ok", "up", "ok"] for _ in range(10)),
        *(["fail", "trap", "fail"] for _ in range(10)),
    )
    corpus = [LogSequence(id=f"s{i}", tokens=s.tokens) for i, s in enumerate(corpus)]
    ks = kwset(["ok", "up"], ["fail", "trap"])
    g = build(ks, corpus, 10)
    rng = np.random.default_rng(seed)
    model = AnnotatorModel.create(g.features.shape[1], rng, 2, 8, g.vocab_hash)
    return corpus, ks, g, model


class TestTraining:
    def test_finetune_reaches_vote_labels(self):
        corpus, ks, g, model = trainable_setup()
        trace = ann.finetune(model, corpus, g, ks, epochs=60, lr=1e-2,
                             rng=np.random.default_rng(1))
        assert trace[-1] < trace[0]
        labels = ann.annotate(model, corpus, g)
        votes = {s.id: vote(s, ks).label for s in corpus}
        assert all(pl.label == votes[pl.sequence_id] for pl in labels)

    def test_finetune_zero_epochs_is_noop(self):
        corpus, ks, g, model = trainable_setup()
        before = {k: v.copy() for k, v in model.params.items()}
        trace = ann.finetune(model, corpus, g, ks, epochs=0)
        assert trace == []
        assert all(np.array_equal(before[k], model.params[k]) for k in before)

    def test_finetune_all_abstaining_rejected(self):
        corpus, ks, g, model = trainable_setup()
        off_corpus = seqs(["unrelated", "words"])
        with pytest.raises(AnnotatorError):
            ann.finetune(model, off_corpus, g, ks, epochs=1)

    def test_finetune_margin_gates_out_ambiguous_votes(self):
        # a sequence with a bare-majority vote is skipped as a target: a
        # model fine-tuned hard on the decisive cluster labels the
        # ambiguous sequence by generalization, not by its noisy vote
        corpus, ks, g, _ = trainable_setup()
        ambiguous = LogSequence(id="amb", tokens=["fail", "ok", "up", "trap", "up"])
        assert vote(ambiguous, ks).label == NORMAL  # 2 vs 3, margin 0.2
        assert vote(ambiguous, ks).margin == pytest.approx(0.2)
        model = AnnotatorModel.create(
            g.features.shape[1], np.random.default_rng(0), 2, 8, g.vocab_hash
        )
        ann.finetune(model, corpus + [ambiguous], g, ks, epochs=60, lr=1e-2,
                     rng=np.random.default_rng(1), margin=0.5)
        labels = {pl.sequence_id: pl.label
                  for pl in ann.annotate(model, corpus, g)}
        votes = {s.id: vote(s, ks).label for s in corpus}
        assert labels == votes  # decisive cluster is fitted as before

    def test_three_to_two_vote_passes_the_default_gate(self):
        # |3 - 2| / 5 is exactly 0.2, while 2 * (3 / 5) - 1 falls just below
        corpus, ks, g, model = trainable_setup()
        three_two = LogSequence(id="32", tokens=["fail", "ok", "trap", "up", "fail"])
        v = vote(three_two, ks)
        assert (v.n, v.a) == (2, 3)
        assert v.margin == 0.2
        trace = ann.finetune(model, [three_two], g, ks, epochs=1,
                             margin=PipelineConfig().finetune_margin)
        assert len(trace) == 1

    def test_finetune_prior_labels_indecisive_votes(self):
        # an indecisive vote is never the target, but a prior label is: the
        # ambiguous sequence votes Normal by a bare majority and is trained
        # toward the Anomaly label it is given, while the gate still keeps
        # its vote out
        corpus, ks, g, _ = trainable_setup()
        ambiguous = LogSequence(id="amb", tokens=["fail", "ok", "up", "trap", "up"])
        assert vote(ambiguous, ks).label == NORMAL
        assert vote(ambiguous, ks).margin < 0.5

        def fitted(prior):
            model = AnnotatorModel.create(
                g.features.shape[1], np.random.default_rng(0), 2, 8, g.vocab_hash
            )
            ann.finetune(model, corpus + [ambiguous], g, ks, epochs=60, lr=1e-2,
                         rng=np.random.default_rng(1), margin=0.5, prior=prior)
            return model

        amb_sg = induce_sequence_subgraph(g, ambiguous)
        without = nn.softmax(forward(fitted(None), [amb_sg]))[0, ANOMALY]
        with_prior = fitted({"amb": ANOMALY})
        assert nn.softmax(forward(with_prior, [amb_sg]))[0, ANOMALY] > max(without, 0.5)
        labels = {pl.sequence_id: pl.label
                  for pl in ann.annotate(with_prior, corpus + [ambiguous], g)}
        assert labels["amb"] == ANOMALY
        votes = {s.id: vote(s, ks).label for s in corpus}
        assert {k: v for k, v in labels.items() if k != "amb"} == votes

    def test_finetune_prior_does_not_override_decisive_votes(self):
        # a prior only fills in indecisive votes: decisive ones keep their
        # vote as the target, and a prior without indecisive sequences
        # leaves training exactly as it was
        corpus, ks, g, _ = trainable_setup()
        flipped = {s.id: 1 - vote(s, ks).label for s in corpus}
        params = []
        for prior in (None, flipped):
            model = AnnotatorModel.create(
                g.features.shape[1], np.random.default_rng(0), 2, 8, g.vocab_hash
            )
            ann.finetune(model, corpus, g, ks, epochs=5, lr=1e-2,
                         rng=np.random.default_rng(1), margin=0.5, prior=prior)
            params.append(model.params)
        assert all(np.array_equal(params[0][k], params[1][k]) for k in params[0])

    def test_finetune_prior_rescues_too_strict_margin(self):
        # every vote here has margin 1/3: a 0.5 gate alone leaves nothing,
        # but prior labels for those sequences are targets
        _, ks, _, _ = trainable_setup()
        corpus = seqs(["ok", "up", "fail"], ["trap", "fail", "ok"])
        g = build(ks, corpus, 10)
        model = AnnotatorModel.create(
            g.features.shape[1], np.random.default_rng(0), 2, 8, g.vocab_hash
        )
        trace = ann.finetune(model, corpus, g, ks, epochs=1, margin=0.5,
                             prior={"s0": NORMAL, "s1": ANOMALY})
        assert len(trace) == 1
        with pytest.raises(AnnotatorError):
            ann.finetune(model, corpus, g, ks, epochs=1, margin=0.5, prior={"other": NORMAL})

    def test_finetune_margin_too_strict_rejected(self):
        # every vote here has margin 1/3, so a 0.5 gate leaves nothing
        _, ks, _, _ = trainable_setup()
        corpus = seqs(["ok", "up", "fail"], ["trap", "fail", "ok"])
        g = build(ks, corpus, 10)
        model = AnnotatorModel.create(
            g.features.shape[1], np.random.default_rng(0), 2, 8, g.vocab_hash
        )
        with pytest.raises(AnnotatorError):
            ann.finetune(model, corpus, g, ks, epochs=1, margin=0.5)

    def test_finetune_invalid_margin_rejected(self):
        corpus, ks, g, model = trainable_setup()
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(AnnotatorError):
                ann.finetune(model, corpus, g, ks, epochs=1, margin=bad)

    def test_pretrain_loss_decreases(self):
        corpus, ks, g, model = trainable_setup()
        policy = transition_probabilities(g)
        lm = WalkLengthModel(mu=3.0, sigma2=1.0)
        sampler = WalkSampler(g, policy, lm, np.random.default_rng(2))
        trace = ann.pretrain(model, sampler, steps=150, batch_size=10, lr=1e-2)
        assert len(trace) == 150
        assert np.mean(trace[-10:]) < np.mean(trace[:10])

    def test_pretrain_samples_each_walk_through_sample_walk(self, monkeypatch):
        # the benchmark's walks.* metrics count and measure sample_walk calls
        calls = []
        sample_walk = walks.sample_walk

        def counted(*args):
            calls.append(sample_walk(*args))
            return calls[-1]

        monkeypatch.setattr(walks, "sample_walk", counted)
        corpus, ks, g, model = trainable_setup()
        sampler = WalkSampler(
            g, transition_probabilities(g), WalkLengthModel(3.0, 1.0), np.random.default_rng(2)
        )
        assert len(ann.pretrain(model, sampler, steps=7, batch_size=6)) == 7
        assert len(calls) == 42

    def test_pretrain_zero_steps_is_noop(self):
        corpus, ks, g, model = trainable_setup()
        policy = transition_probabilities(g)
        sampler = WalkSampler(g, policy, WalkLengthModel(2.0, 0.0), np.random.default_rng(0))
        before = {k: v.copy() for k, v in model.params.items()}
        assert ann.pretrain(model, sampler, steps=0) == []
        assert all(np.array_equal(before[k], model.params[k]) for k in before)

    def test_divergence_raises(self):
        corpus, ks, g, model = trainable_setup()
        model.params["head_W"][:] = np.nan
        with pytest.raises(nn.TrainingDiverged):
            ann.finetune(model, corpus, g, ks, epochs=1)


class TestAnnotate:
    def test_empty_subgraph_labelled_normal_and_flagged(self):
        corpus, ks, g, model = trainable_setup()
        odd = [LogSequence(id="odd", tokens=["nothing", "here"])]
        labels = ann.annotate(model, odd, g)
        assert labels[0].label == NORMAL and labels[0].flagged
        assert labels[0].confidence == 0.5

    def test_empty_subgraph_iff_vote_abstains(self):
        # the graph's vertices are the keywords occurring in the corpus it is
        # built from, so on that corpus a sequence's subgraph is empty exactly
        # when its vote abstains: annotate needs no vote fallback
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(10)]

        def draw(low, high):
            return [str(w) for w in rng.choice(words, size=rng.integers(low, high))]

        checked = shared = 0
        for _ in range(200):
            ks = kwset(sorted(set(draw(1, 5))), sorted(set(draw(1, 5))))
            corpus = seqs(*(draw(1, 6) for _ in range(rng.integers(1, 12))))
            if not ks.all_words().intersection(t for s in corpus for t in s.tokens):
                continue  # no graph to build
            g = build(ks, corpus, 3)
            for seq, v in zip(corpus, ann.vote_counts(corpus, ks)):
                assert induce_sequence_subgraph(g, seq).is_empty == (v.label is None)
            checked += 1
            shared += bool(set(ks.class_words(NORMAL)) & set(ks.class_words(ANOMALY)))
        assert checked > 100 and shared > 50

    def test_vocab_hash_mismatch_rejected(self):
        corpus, ks, g, model = trainable_setup()
        other = build(kwset(["ok"], ["fail"]), corpus, 10)
        assert other.vocab_hash != g.vocab_hash
        with pytest.raises(AnnotatorError):
            ann.annotate(model, corpus, other)

    def test_labels_cover_corpus_in_order(self):
        corpus, ks, g, model = trainable_setup()
        labels = ann.annotate(model, corpus, g)
        assert [pl.sequence_id for pl in labels] == [s.id for s in corpus]
        assert all(pl.label in (0, 1) and 0.0 < pl.confidence <= 1.0 for pl in labels)

    def test_labels_are_argmax_of_single_forward(self):
        # more sequences than one annotate block, with keyword-free ones
        # (flagged, Normal at 0.5) interleaved so blocks mix both paths
        corpus, ks, g, model = trainable_setup()
        rng = np.random.default_rng(4)
        for v in model.params.values():
            v += rng.normal(0, 0.5, size=v.shape)
        words = ["ok", "up", "fail", "trap", "zzz"]
        many = [
            LogSequence(
                id=f"m{i}",
                tokens=["zzz"] if i % 7 == 3 else [words[j] for j in rng.integers(0, 5, size=4)],
            )
            for i in range(3 * ann.ANNOTATE_BLOCK + 5)
        ]
        labels = ann.annotate(model, many, g)
        assert [pl.sequence_id for pl in labels] == [s.id for s in many]
        scored = 0
        for seq, pl in zip(many, labels):
            sg = induce_sequence_subgraph(g, seq)
            if sg.is_empty:
                assert pl.flagged and pl.confidence == 0.5
                continue
            probs = nn.softmax(forward(model, [sg])[0])
            assert not pl.flagged
            assert pl.label == int(np.argmax(probs))
            assert pl.confidence == pytest.approx(probs.max(), abs=1e-12)
            scored += 1
        assert 0 < scored < len(many)
        assert len({pl.label for pl in labels if not pl.flagged}) == 2


class TestCheckpoint:
    def test_round_trip_preserves_forward(self, tmp_path):
        corpus, ks, g, model = trainable_setup()
        ann.finetune(model, corpus, g, ks, epochs=2, lr=1e-3,
                     rng=np.random.default_rng(0))
        path = tmp_path / "annotator.npz"
        model.save(path)
        back = AnnotatorModel.load(path)
        assert back.vocab_hash == model.vocab_hash
        from loggad.graph import induce_sequence_subgraph

        sg = induce_sequence_subgraph(g, corpus[0])
        assert np.array_equal(forward(back, [sg]), forward(model, [sg]))

    def test_checkpoint_with_identity_mode_key_loads(self, tmp_path):
        # annotator checkpoints once carried an "identity_mode": false
        # metadata key; such a file still loads and scores the same
        corpus, ks, g, model = trainable_setup()
        path = tmp_path / "annotator.npz"
        nn.save_checkpoint(path, model.params, {
            "kind": "annotator", "n_layers": model.n_layers, "hidden": model.hidden,
            "in_dim": model.in_dim, "vocab_hash": model.vocab_hash, "identity_mode": False,
        })
        back = AnnotatorModel.load(path)
        sgs = [induce_sequence_subgraph(g, seq) for seq in corpus]
        assert np.array_equal(forward(back, sgs), forward(model, sgs))

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        nn.save_checkpoint(path, {"w": np.ones(2)}, {"kind": "classifier"})
        with pytest.raises(AnnotatorError):
            AnnotatorModel.load(path)
