"""Micro-benchmarks of the two trainable models' batched kernels.

Run from the root of a checkout:

    python -m pytest microbench --benchmark-only

They are kept out of the tier-1 suite (``testpaths = ["tests"]``). The
inputs mirror the default synthetic run's second iteration: a graph over
both 100-word keyword lists, minibatches of 20 subgraphs for the annotator
and of 5 sequences for the classifier.
"""

import numpy as np
import pytest

from loggad import annotator as ann
from loggad import classifier as clf
from loggad import evaluation as ev
from loggad import graph as eg
from loggad import nn, walks
from loggad.keywords import extract_top
from loggad.pipeline import strip_gold

SEED_KEYWORDS = {"fault0_trap", "fault1_trap"}


@pytest.fixture(scope="module")
def corpus():
    return strip_gold(ev.generate_synthetic(ev.SyntheticSpec(n_sequences=1_400, noise_rate=0.1, seed=3)))


@pytest.fixture(scope="module")
def graph_setup(corpus):
    train = corpus[:400]
    classified = [(seq, int(bool(SEED_KEYWORDS.intersection(seq.tokens)))) for seq in train]
    keywords = extract_top(classified, 100, 4)
    g = eg.build(keywords, train)
    sampler = walks.WalkSampler(
        g,
        eg.transition_probabilities(g),
        walks.fit_length_model(train, keywords),
        np.random.default_rng(0),
    )
    model = ann.AnnotatorModel.create(g.feature_dim, np.random.default_rng(1), vocab_hash=g.vocab_hash)
    return train, g, sampler, model


def test_annotator_walk_batch_loss_and_grads(benchmark, graph_setup):
    _, _, sampler, model = graph_setup
    batch = sampler.sample_batch(20)
    sgs = [s.subgraph for s in batch]
    targets = [s.start_class for s in batch]
    loss, _ = benchmark(ann.loss_and_grads, model, sgs, targets)
    assert np.isfinite(loss)


def test_annotator_sequence_batch_loss_and_grads(benchmark, graph_setup):
    train, g, _, model = graph_setup
    sgs = [sg for sg in (eg.induce_sequence_subgraph(g, seq) for seq in train) if not sg.is_empty]
    loss, _ = benchmark(ann.loss_and_grads, model, sgs[:20], [i % 2 for i in range(20)])
    assert np.isfinite(loss)


def test_classifier_step(benchmark, corpus):
    model = clf.ClassifierModel.create(corpus[:400], np.random.default_rng(2))
    adam = nn.Adam(model.params, lr=1e-3)
    tokens = [seq.tokens for seq in corpus[:5]]

    def step():
        loss, grads = clf.loss_and_grads(model, tokens, [0, 1, 0, 1, 0])
        adam.step(grads)
        return loss

    assert np.isfinite(benchmark(step))


def test_classifier_predict_1000(benchmark, corpus):
    model = clf.ClassifierModel.create(corpus[:400], np.random.default_rng(3))
    out = benchmark(clf.predict, model, corpus[400:])
    assert len(out) == 1_000
