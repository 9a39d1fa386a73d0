"""Pseudo-label classifier: gradients, training behavior and persistence."""

import math
from functools import partial

import numpy as np
import pytest

from loggad import classifier as clf
from loggad import evaluation as ev
from loggad import nn
from loggad.annotator import PseudoLabel
from loggad.classifier import ClassifierError, ClassifierModel
from loggad.ingest import LogSequence


def seqs(*token_lists):
    return [LogSequence(id=f"s{i}", tokens=list(t)) for i, t in enumerate(token_lists)]


def labels_for(corpus, fn):
    return [PseudoLabel(s.id, fn(s), 1.0) for s in corpus]


def separable_corpus(n=40, seed=0):
    rng = np.random.default_rng(seed)
    corpus, gold = [], {}
    for i in range(n):
        label = i % 2
        vocab = ["ok", "up", "ready"] if label == 0 else ["fail", "trap", "abort"]
        tokens = [vocab[int(rng.integers(3))] for _ in range(6)]
        corpus.append(LogSequence(id=f"s{i}", tokens=tokens))
        gold[f"s{i}"] = label
    return corpus, gold


class TestGradients:
    def numeric_grads(self, model, batch, targets, h=1e-6):
        out = {}
        for name, arr in model.params.items():
            num = np.zeros_like(arr)
            flat = arr.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up, _ = clf.loss_and_grads(model, batch, targets)
                flat[idx] = orig - h
                down, _ = clf.loss_and_grads(model, batch, targets)
                flat[idx] = orig
                num.ravel()[idx] = (up - down) / (2 * h)
            out[name] = num
        return out

    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(4)
        vocab = [f"w{i}" for i in range(6)]
        for trial in range(20):
            tokens = [vocab[int(rng.integers(6))] for _ in range(int(rng.integers(1, 8)))]
            corpus = [LogSequence(id="s", tokens=vocab)]
            model = ClassifierModel.create(corpus, rng, embed_dim=4, hidden=3)
            batch, targets = [model.token_ids(tokens)], [int(rng.integers(0, 2))]
            _, analytic = clf.loss_and_grads(model, batch, targets)
            numeric = self.numeric_grads(model, batch, targets)
            for name in model.params:
                a, n = analytic[name], numeric[name]
                rel = np.linalg.norm(a - n) / (np.linalg.norm(a) + np.linalg.norm(n) + 1e-12)
                assert rel < 1e-4, f"trial {trial} {name}: rel err {rel}"

    def test_repeated_token_gradient_accumulates(self):
        # "a a" must give the same embedding gradient as "a" (mean pooling
        # over identical rows), checked against the finite difference.
        rng = np.random.default_rng(1)
        corpus = [LogSequence(id="s", tokens=["a", "b"])]
        model = ClassifierModel.create(corpus, rng, embed_dim=3, hidden=2)
        _, g_single = clf.loss_and_grads(model, [model.token_ids(["a"])], [1])
        _, g_double = clf.loss_and_grads(model, [model.token_ids(["a", "a"])], [1])
        assert np.allclose(g_single["emb"], g_double["emb"], atol=1e-12)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a) + np.linalg.norm(b), 1e-300)


def encode(model, token_lists):
    return [model.token_ids(tokens) for tokens in token_lists]


def perturbed_model(rng, vocab, embed_dim=4, hidden=3):
    model = ClassifierModel.create([LogSequence(id="v", tokens=vocab)], rng, embed_dim, hidden)
    for v in model.params.values():
        v += rng.normal(0, 0.3, size=v.shape)
    return model


class TestBatchedKernel:
    VOCAB = [f"w{i}" for i in range(6)]
    # different lengths, a one-token sequence, repeats and an unknown token
    BATCH = [["w0"], ["w1", "w2", "w1", "w5"], ["w3", "never_seen", "w3"], ["w4"] * 7, ["w2", "w0"]]
    TARGETS = [1, 0, 1, 1, 0]

    def test_batch_is_mean_of_single_examples(self):
        model = perturbed_model(np.random.default_rng(31), self.VOCAB)
        batch = encode(model, self.BATCH)
        loss, grads = clf.loss_and_grads(model, batch, self.TARGETS)
        singles = [clf.loss_and_grads(model, [ids], [y]) for ids, y in zip(batch, self.TARGETS)]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=1e-12)
        assert list(grads) == list(model.params)
        for name in model.params:
            mean = sum(g[name] for _, g in singles) / len(self.BATCH)
            assert rel_err(grads[name], mean) <= 1e-12, name

    def test_batch_of_three_matches_central_differences(self):
        model = perturbed_model(np.random.default_rng(32), self.VOCAB)
        batch, targets = encode(model, self.BATCH[1:4]), self.TARGETS[1:4]
        _, analytic = clf.loss_and_grads(model, batch, targets)
        numeric = TestGradients().numeric_grads(model, batch, targets)
        for name in model.params:
            assert rel_err(analytic[name], numeric[name]) < 1e-4, name

    def test_embedding_gradient_equals_the_add_at_scatter(self):
        # the reference scatters each token's row of dx with np.add.at, in
        # token order; the kernel's one bincount must give the same bytes
        model = perturbed_model(np.random.default_rng(34), self.VOCAB)
        rng = np.random.default_rng(35)
        for _ in range(20):
            batch = encode(model, [
                [self.VOCAB[i] for i in rng.integers(0, 3, size=rng.integers(1, 12))]
                for _ in range(rng.integers(1, 8))
            ])
            targets = rng.integers(0, 2, size=len(batch)).tolist()
            _, grads = clf.loss_and_grads(model, batch, targets)
            p = model.params
            fp = clf._forward_pass(model, np.concatenate(batch), np.array([len(b) for b in batch]))
            _, dlogits = nn.cross_entropy(fp.logits, np.array(targets))
            du = (dlogits @ p["W2"].T) * (1.0 - fp.t * fp.t)
            dx = (du @ p["W1"].T) / fp.lengths[:, None]
            reference = np.zeros_like(p["emb"])
            np.add.at(reference, fp.ids, np.repeat(dx, fp.lengths, axis=0))
            assert grads["emb"].tobytes() == reference.tobytes()

    def test_target_count_and_empty_sequences_rejected(self):
        model = perturbed_model(np.random.default_rng(33), self.VOCAB)
        with pytest.raises(ClassifierError):
            clf.loss_and_grads(model, encode(model, self.BATCH), [0, 1])
        with pytest.raises(ClassifierError):
            clf.forward(model, encode(model, [["w0"], []]))
        # an empty batch is the model's error, not numpy's from np.concatenate([])
        with pytest.raises(ClassifierError):
            clf.forward(model, [])
        with pytest.raises(ClassifierError):
            clf.loss_and_grads(model, [], [])


class TestForward:
    def test_initial_loss_is_ln2_scale(self):
        # zero biases and small xavier weights put both logits near zero
        corpus, gold = separable_corpus()
        model = ClassifierModel.create(corpus, np.random.default_rng(0))
        losses = [
            clf.loss_and_grads(model, [model.token_ids(s.tokens)], [gold[s.id]])[0]
            for s in corpus
        ]
        assert np.mean(losses) == pytest.approx(math.log(2), abs=0.05)

    def test_token_order_invariance(self):
        corpus = seqs(["a", "b", "c", "a"])
        model = ClassifierModel.create(corpus, np.random.default_rng(0))
        base = clf.forward(model, encode(model, [["a", "b", "c", "a"]]))
        assert np.allclose(
            clf.forward(model, encode(model, [["a", "a", "c", "b"]])), base, atol=1e-12
        )

    def test_unknown_tokens_map_to_unk_row(self):
        corpus = seqs(["a"])
        model = ClassifierModel.create(corpus, np.random.default_rng(0))
        assert model.token_ids(["never_seen", "a"]).tolist() == [clf.UNK, 1]


class TestTokenIds:
    def test_int64_unk_and_empty(self):
        model = ClassifierModel.create(seqs(["a", "b"]), np.random.default_rng(0))
        ids = model.token_ids(iter(["b", "never_seen", "a", "b"]))  # any iterable, read once
        assert ids.dtype == np.int64
        assert ids.tolist() == [2, clf.UNK, 1, 2]
        for empty in ([], iter(()), (t for t in "")):
            out = model.token_ids(empty)
            assert out.shape == (0,) and out.dtype == np.int64

    def test_matches_a_per_token_dict_lookup_on_a_synthetic_corpus(self):
        spec = ev.SyntheticSpec(n_sequences=300, noise_rate=0.2, seed=7)
        corpus = ev.generate_synthetic(spec)
        model = ClassifierModel.create(corpus[:100], np.random.default_rng(0))
        unseen = 0
        for seq in corpus:
            expected = np.array([model.vocab.get(t, clf.UNK) for t in seq.tokens], dtype=np.int64)
            np.testing.assert_array_equal(model.token_ids(seq.tokens), expected)
            unseen += int((expected == clf.UNK).sum())
        assert unseen > 0  # the held-out sequences hold words the first 100 do not


class TestTrain:
    def test_separable_corpus_learned(self):
        corpus, gold = separable_corpus()
        model = ClassifierModel.create(corpus, np.random.default_rng(2))
        pseudo = labels_for(corpus, lambda s: gold[s.id])
        trace = clf.train(model, corpus, pseudo, epochs=40, lr=1e-2,
                          rng=np.random.default_rng(3))
        assert trace[-1] < trace[0]
        preds = {sid: lab for sid, lab, _ in clf.predict(model, corpus)}
        acc = np.mean([preds[sid] == gold[sid] for sid in gold])
        assert acc >= 0.99

    def test_zero_epochs_unchanged(self):
        corpus, gold = separable_corpus()
        model = ClassifierModel.create(corpus, np.random.default_rng(0))
        before = {k: v.copy() for k, v in model.params.items()}
        trace = clf.train(model, corpus, labels_for(corpus, lambda s: 0), epochs=0)
        assert trace == []
        assert all(np.array_equal(before[k], model.params[k]) for k in before)

    def test_label_mismatch_rejected(self):
        corpus, _ = separable_corpus(n=4)
        model = ClassifierModel.create(corpus, np.random.default_rng(0))
        with pytest.raises(ClassifierError):
            clf.train(model, corpus, labels_for(corpus[:-1], lambda s: 0), epochs=1)

    def test_all_unk_corpus_rejected(self):
        vocab_corpus = seqs(["known"])
        model = ClassifierModel.create(vocab_corpus, np.random.default_rng(0))
        alien = [LogSequence(id="s0", tokens=["alien", "tokens"])]
        with pytest.raises(ClassifierError):
            clf.train(model, alien, labels_for(alien, lambda s: 0), epochs=1)

    def test_divergence_raises(self):
        corpus, _ = separable_corpus(n=4)
        model = ClassifierModel.create(corpus, np.random.default_rng(0))
        model.params["W2"][:] = np.nan
        with pytest.raises(nn.TrainingDiverged):
            clf.train(model, corpus, labels_for(corpus, lambda s: 0), epochs=1)

    def test_training_matches_a_plain_fit_loop(self):
        # reference: every in-vocabulary sequence's ids batched through
        # nn.fit with the same rng; the all-UNK sequence is left out
        corpus, gold = separable_corpus()
        corpus.append(LogSequence(id="unk", tokens=["never", "seen"]))  # filtered out
        gold["unk"] = 1
        pseudo = labels_for(corpus, lambda s: gold[s.id])
        model = ClassifierModel.create(corpus[:-1], np.random.default_rng(7))
        reference = ClassifierModel.create(corpus[:-1], np.random.default_rng(7))
        trace = clf.train(model, corpus, pseudo, epochs=3, rng=np.random.default_rng(8))
        examples = [(reference.token_ids(s.tokens), gold[s.id]) for s in corpus[:-1]]
        batches = nn.minibatches(examples, 3, 5, np.random.default_rng(8))
        ref_trace = nn.fit(
            reference.params, partial(clf.loss_and_grads, reference), batches, 1e-3, "reference"
        )
        assert trace == ref_trace and len(trace) == 24
        for k in model.params:
            assert model.params[k].tobytes() == reference.params[k].tobytes(), k

    def test_training_is_seed_deterministic(self):
        corpus, gold = separable_corpus()
        pseudo = labels_for(corpus, lambda s: gold[s.id])
        runs = []
        for _ in range(2):
            model = ClassifierModel.create(corpus, np.random.default_rng(5))
            clf.train(model, corpus, pseudo, epochs=3, rng=np.random.default_rng(6))
            runs.append(clf.predict(model, corpus))
        assert runs[0] == runs[1]


class TestPredict:
    def test_output_shape_and_confidence(self):
        corpus, _ = separable_corpus(n=6)
        model = ClassifierModel.create(corpus, np.random.default_rng(0))
        out = clf.predict(model, corpus)
        assert [sid for sid, _, _ in out] == [s.id for s in corpus]
        for _, label, conf in out:
            assert label in (0, 1) and 0.5 <= conf <= 1.0


    def test_prediction_does_not_depend_on_the_call(self):
        # 1,200 sequences span many predict blocks; the whole corpus, 50-
        # sequence chunks and single sequences must give the same bits
        rng = np.random.default_rng(34)
        vocab = [f"t{i}" for i in range(60)]
        corpus = [
            LogSequence(
                id=f"s{i}",
                tokens=[vocab[j] for j in rng.integers(0, 60, size=int(rng.integers(1, 40)))],
            )
            for i in range(1_200)
        ]
        model = ClassifierModel.create(corpus[:300], np.random.default_rng(35))
        for v in model.params.values():
            v += rng.normal(0, 0.3, size=v.shape)
        whole = clf.predict(model, corpus)
        chunks = [r for i in range(0, len(corpus), 50) for r in clf.predict(model, corpus[i : i + 50])]
        singles = [r for seq in corpus for r in clf.predict(model, [seq])]
        assert len({label for _, label, _ in whole}) == 2
        assert repr(chunks) == repr(whole)
        assert repr(singles) == repr(whole)

    def test_matches_single_sequence_forward(self):
        corpus, _ = separable_corpus(n=70)
        model = ClassifierModel.create(corpus, np.random.default_rng(36))
        for (sid, label, conf), seq in zip(clf.predict(model, corpus), corpus):
            probs = nn.softmax(clf.forward(model, [model.token_ids(seq.tokens)])[0])
            assert sid == seq.id and label == int(np.argmax(probs))
            assert conf == pytest.approx(probs.max(), abs=1e-12)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        corpus, gold = separable_corpus(n=10)
        model = ClassifierModel.create(corpus, np.random.default_rng(1))
        clf.train(model, corpus, labels_for(corpus, lambda s: gold[s.id]), epochs=2)
        path = tmp_path / "clf.npz"
        model.save(path)
        back = ClassifierModel.load(path)
        assert back.vocab == model.vocab
        assert clf.predict(back, corpus) == clf.predict(model, corpus)

    def test_tampered_vocab_hash_rejected(self, tmp_path):
        corpus, _ = separable_corpus(n=4)
        model = ClassifierModel.create(corpus, np.random.default_rng(0))
        path = tmp_path / "clf.npz"
        nn.save_checkpoint(
            path,
            model.params,
            {
                "kind": "classifier",
                "embed_dim": model.params["W1"].shape[0],
                "hidden": model.params["W1"].shape[1],
                "vocab": sorted(model.vocab),
                "vocab_hash": "not-the-real-hash",
            },
        )
        with pytest.raises(ClassifierError):
            ClassifierModel.load(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "ann.npz"
        nn.save_checkpoint(path, {"w": np.ones(1)}, {"kind": "annotator"})
        with pytest.raises(ClassifierError):
            ClassifierModel.load(path)
