"""Annotator model: gradients, invariances, voting and training behavior."""

from dataclasses import dataclass

import numpy as np
import pytest

from loggad import annotator as ann
from loggad import nn
from loggad.annotator import (
    AnnotatorError,
    AnnotatorModel,
    forward,
    loss_and_grads,
    node_representations,
    vote_annotate,
    vote_label,
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
from loggad.walks import WalkLengthModel, WalkSampler


def kwset(normal, anomaly):
    return KeywordSet(normal=[(w, 1.0) for w in normal], anomaly=[(w, 1.0) for w in anomaly])


def seqs(*token_lists):
    return [LogSequence(id=f"s{i}", tokens=list(t)) for i, t in enumerate(token_lists)]


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
    return EventGraph(words=[f"w{i}" for i in range(n)], class_flags=flags, edges=edges)


def random_subgraph(rng, g):
    k = int(rng.integers(1, g.n_vertices + 1))
    ids = rng.choice(g.n_vertices, size=k, replace=False)
    return Subgraph(graph=g, vertex_ids=ids)


class TestGradients:
    def numeric_grads(self, model, sg, target, h=1e-6):
        out = {}
        for name, arr in model.params.items():
            num = np.zeros_like(arr)
            flat = arr.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up, _ = loss_and_grads(model, sg, target)
                flat[idx] = orig - h
                down, _ = loss_and_grads(model, sg, target)
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
            _, analytic = loss_and_grads(model, sg, target)
            numeric = self.numeric_grads(model, sg, target)
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
        logits = forward(model, sg)
        for target in (0, 1):
            loss, _ = loss_and_grads(model, sg, target)
            expected, _ = nn.cross_entropy(logits, target)
            assert loss == pytest.approx(expected)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a) + np.linalg.norm(b), 1e-300)


def perturbed_model(rng, g, identity_mode=False):
    model = AnnotatorModel.create(
        g.features.shape[1], rng, n_layers=3, hidden=6,
        vocab_hash=g.vocab_hash, identity_mode=identity_mode,
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
    @pytest.mark.parametrize("identity_mode", [False, True])
    def test_batch_is_mean_of_single_examples(self, identity_mode):
        rng = np.random.default_rng(21)
        g = random_graph(rng, n=7, p_edge=0.6)
        sgs = mixed_size_batch(rng, g)
        targets = [0, 1, 1, 0, 1]
        model = perturbed_model(rng, g, identity_mode)
        loss, grads = loss_and_grads(model, sgs, targets)
        singles = [loss_and_grads(model, sg, t) for sg, t in zip(sgs, targets)]
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
            assert np.allclose(row, forward(model, sg), rtol=0, atol=1e-12)

    def test_target_count_must_match_batch(self):
        rng = np.random.default_rng(24)
        g = random_graph(rng, n=5)
        model = perturbed_model(rng, g)
        with pytest.raises(AnnotatorError):
            loss_and_grads(model, mixed_size_batch(rng, g)[:3], [0, 1])
        with pytest.raises(AnnotatorError):
            loss_and_grads(model, [], [])


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
            base = forward(model, sg)
            perm = rng.permutation(sg.n_vertices)
            view = PermutedView(
                features=sg.features[perm],
                adjacency=sg.adjacency[np.ix_(perm, perm)],
            )
            assert np.max(np.abs(forward(model, view) - base)) <= 1e-9


class TestIdentityMode:
    def test_isolated_node_reduction(self):
        # identity layers with zero eps on an edgeless subgraph reduce to
        # the head applied to K+1 stacked copies of the feature sum.
        rng = np.random.default_rng(5)
        g = EventGraph(words=["a", "b"], class_flags=np.ones((2, 2)), edges={})
        sg = Subgraph(graph=g, vertex_ids=np.array([0, 1]))
        model = AnnotatorModel.create(
            g.features.shape[1], rng, n_layers=3, hidden=8,
            vocab_hash=g.vocab_hash, identity_mode=True,
        )
        reps = node_representations(model, sg)
        for R in reps:
            assert np.array_equal(R, sg.features)
        readout = np.tile(sg.features.sum(axis=0), 4)
        expected = readout @ model.params["head_W"] + model.params["head_b"]
        assert np.allclose(forward(model, sg), expected, atol=1e-12)

    def test_matrix_power_oracle_with_edges(self):
        # with identity layers, layer k equals (A + (1+eps)I)^k X exactly.
        rng = np.random.default_rng(6)
        g = random_graph(rng, n=5, p_edge=0.7)
        sg = Subgraph(graph=g, vertex_ids=np.arange(5))
        model = AnnotatorModel.create(
            g.features.shape[1], rng, 2, 4, g.vocab_hash, identity_mode=True
        )
        model.params["eps1"][0] = 0.3
        model.params["eps2"][0] = -0.2
        reps = node_representations(model, sg)
        M1 = sg.adjacency + 1.3 * np.eye(5)
        M2 = sg.adjacency + 0.8 * np.eye(5)
        assert np.allclose(reps[1], M1 @ sg.features, atol=1e-12)
        assert np.allclose(reps[2], M2 @ M1 @ sg.features, atol=1e-12)


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
        assert np.allclose(forward(model, sg), expected, atol=1e-10)

    def test_empty_subgraph_rejected(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng)
        model = AnnotatorModel.create(g.features.shape[1], rng, 2, 4, g.vocab_hash)
        with pytest.raises(AnnotatorError):
            forward(model, Subgraph(graph=g, vertex_ids=np.array([], dtype=np.int64)))

    def test_feature_width_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, n=4)
        model = AnnotatorModel.create(99, rng, 2, 4)
        with pytest.raises(AnnotatorError):
            forward(model, Subgraph(graph=g, vertex_ids=np.array([0])))


class TestVote:
    KS = kwset(["ok", "up"], ["fail", "trap"])

    def test_anomaly_majority(self):
        s = LogSequence(id="x", tokens=["fail", "fail", "ok"])
        assert vote_label(s, self.KS) == ANOMALY

    def test_normal_majority(self):
        s = LogSequence(id="x", tokens=["ok", "up", "fail"])
        assert vote_label(s, self.KS) == NORMAL

    def test_tie_breaks_normal(self):
        s = LogSequence(id="x", tokens=["ok", "fail"])
        assert vote_label(s, self.KS) == NORMAL

    def test_multiplicity_counts(self):
        # one distinct anomaly word repeated outvotes two distinct normals
        s = LogSequence(id="x", tokens=["trap", "trap", "trap", "ok", "up"])
        assert vote_label(s, self.KS) == ANOMALY

    def test_no_keywords_abstains(self):
        assert vote_label(LogSequence(id="x", tokens=["zzz"]), self.KS) is None

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
            assert ann.vote_margin(s, self.KS) == pytest.approx(expected)

    def test_margin_zero_on_abstain(self):
        assert ann.vote_margin(LogSequence(id="x", tokens=["zzz"]), self.KS) == 0.0

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
        labels = ann.annotate(model, corpus, g, ks)
        votes = {s.id: vote_label(s, ks) for s in corpus}
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
        assert vote_label(ambiguous, ks) == NORMAL  # 2 vs 3, margin 0.2
        assert ann.vote_margin(ambiguous, ks) == pytest.approx(0.2)
        model = AnnotatorModel.create(
            g.features.shape[1], np.random.default_rng(0), 2, 8, g.vocab_hash
        )
        ann.finetune(model, corpus + [ambiguous], g, ks, epochs=60, lr=1e-2,
                     rng=np.random.default_rng(1), margin=0.5)
        labels = {pl.sequence_id: pl.label
                  for pl in ann.annotate(model, corpus, g, ks)}
        votes = {s.id: vote_label(s, ks) for s in corpus}
        assert labels == votes  # decisive cluster is fitted as before

    def test_finetune_prior_labels_indecisive_votes(self):
        # an indecisive vote is never the target, but a prior label is: the
        # ambiguous sequence votes Normal by a bare majority and is trained
        # toward the Anomaly label it is given, while the gate still keeps
        # its vote out
        corpus, ks, g, _ = trainable_setup()
        ambiguous = LogSequence(id="amb", tokens=["fail", "ok", "up", "trap", "up"])
        assert vote_label(ambiguous, ks) == NORMAL
        assert ann.vote_margin(ambiguous, ks) < 0.5

        def fitted(prior):
            model = AnnotatorModel.create(
                g.features.shape[1], np.random.default_rng(0), 2, 8, g.vocab_hash
            )
            ann.finetune(model, corpus + [ambiguous], g, ks, epochs=60, lr=1e-2,
                         rng=np.random.default_rng(1), margin=0.5, prior=prior)
            return model

        amb_sg = induce_sequence_subgraph(g, ambiguous)
        without = nn.softmax(forward(fitted(None), amb_sg))[ANOMALY]
        with_prior = fitted({"amb": ANOMALY})
        assert nn.softmax(forward(with_prior, amb_sg))[ANOMALY] > max(without, 0.5)
        labels = {pl.sequence_id: pl.label
                  for pl in ann.annotate(with_prior, corpus + [ambiguous], g, ks)}
        assert labels["amb"] == ANOMALY
        votes = {s.id: vote_label(s, ks) for s in corpus}
        assert {k: v for k, v in labels.items() if k != "amb"} == votes

    def test_finetune_prior_does_not_override_decisive_votes(self):
        # a prior only fills in indecisive votes: decisive ones keep their
        # vote as the target, and a prior without indecisive sequences
        # leaves training exactly as it was
        corpus, ks, g, _ = trainable_setup()
        flipped = {s.id: 1 - vote_label(s, ks) for s in corpus}
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
    def test_empty_subgraph_falls_back_to_vote(self):
        corpus, ks, g, model = trainable_setup()
        # token "trap" is a keyword but absent from graph? build a sequence
        # with no keyword at all instead: falls through vote to Normal.
        odd = [LogSequence(id="odd", tokens=["nothing", "here"])]
        labels = ann.annotate(model, odd, g, ks)
        assert labels[0].label == NORMAL and labels[0].flagged
        assert labels[0].confidence == 0.5

    def test_vocab_hash_mismatch_rejected(self):
        corpus, ks, g, model = trainable_setup()
        other = build(kwset(["ok"], ["fail"]), corpus, 10)
        assert other.vocab_hash != g.vocab_hash
        with pytest.raises(AnnotatorError):
            ann.annotate(model, corpus, other, ks)

    def test_labels_cover_corpus_in_order(self):
        corpus, ks, g, model = trainable_setup()
        labels = ann.annotate(model, corpus, g, ks)
        assert [pl.sequence_id for pl in labels] == [s.id for s in corpus]
        assert all(pl.label in (0, 1) and 0.0 < pl.confidence <= 1.0 for pl in labels)

    def test_labels_are_argmax_of_single_forward(self):
        # more sequences than one annotate block, with keyword-free ones
        # (flagged vote fallbacks) interleaved so blocks mix both paths
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
        labels = ann.annotate(model, many, g, ks)
        assert [pl.sequence_id for pl in labels] == [s.id for s in many]
        scored = 0
        for seq, pl in zip(many, labels):
            sg = induce_sequence_subgraph(g, seq)
            if sg.is_empty:
                assert pl.flagged and pl.confidence == 0.5
                continue
            probs = nn.softmax(forward(model, sg))
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
        assert np.array_equal(forward(back, sg), forward(model, sg))

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        nn.save_checkpoint(path, {"w": np.ones(2)}, {"kind": "classifier"})
        with pytest.raises(AnnotatorError):
            AnnotatorModel.load(path)
