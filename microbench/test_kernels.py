"""Micro-benchmarks of the two trainable models' batched kernels, one
classifier training epoch (the per-step cost of ``nn.fit``), one Adam step
at each model's size, walk sampling, the event graph and keyword kernels, the seed-word bootstrap,
the synthetic generator, and the JSONL read and ``loggad detect`` paths.

Run from the root of a checkout:

    python -m pytest microbench --benchmark-only

They are kept out of the tier-1 suite (``testpaths = ["tests"]``). The
inputs mirror the default synthetic run's second iteration: a graph over
both 100-word keyword lists, minibatches of 20 subgraphs for the annotator
and of 5 sequences for the classifier. The generator and file benchmarks
make, read and score 5,000 sequences.
"""

import io
from contextlib import redirect_stdout

import numpy as np
import pytest

from loggad import annotator as ann
from loggad import classifier as clf
from loggad import cli
from loggad import evaluation as ev
from loggad import graph as eg
from loggad import ingest, nn, walks
from loggad.keywords import ANOMALY, extract_top
from loggad.pipeline import PipelineConfig, bootstrap, strip_gold

SEED_KEYWORDS = {"fault0_trap", "fault1_trap"}


@pytest.fixture(scope="module")
def corpus():
    return strip_gold(ev.generate_synthetic(ev.SyntheticSpec(n_sequences=1_400, noise_rate=0.1, seed=3)))


@pytest.fixture(scope="module")
def classified(corpus):
    return [(seq, int(bool(SEED_KEYWORDS.intersection(seq.tokens)))) for seq in corpus[:400]]


@pytest.fixture(scope="module")
def graph_setup(corpus, classified):
    train = corpus[:400]
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


def test_walks_sample_batch(benchmark, graph_setup):
    # after the sampler's other users, so its draws leave their inputs as they were
    _, _, sampler, _ = graph_setup
    assert len(benchmark(sampler.sample_batch, 20)) == 20


def test_classifier_step(benchmark, corpus):
    model = clf.ClassifierModel.create(corpus[:400], np.random.default_rng(2))
    adam = nn.Adam(model.params, lr=1e-3)
    batch = [model.token_ids(seq.tokens) for seq in corpus[:5]]

    def step():
        loss, grads = clf.loss_and_grads(model, batch, [0, 1, 0, 1, 0])
        adam.step(grads)
        return loss

    assert np.isfinite(benchmark(step))


@pytest.mark.parametrize("norm", [1.0, 50.0], ids=["unclipped", "clipped"])
@pytest.mark.parametrize("size", ["annotator", "classifier"])
def test_adam_step(benchmark, size, norm, graph_setup, corpus):
    # one Adam step on a minibatch's real gradient, rescaled to a global norm
    # below or above nn.CLIP_NORM, at each model's size
    if size == "annotator":
        _, _, sampler, model = graph_setup
        batch = sampler.sample_batch(20)
        params = {k: v.copy() for k, v in model.params.items()}
        _, grads = ann.loss_and_grads(model, [s.subgraph for s in batch],
                                      [s.start_class for s in batch])
    else:
        model = clf.ClassifierModel.create(corpus[:400], np.random.default_rng(2))
        params = model.params
        batch = [model.token_ids(seq.tokens) for seq in corpus[:5]]
        _, grads = clf.loss_and_grads(model, batch, [0, 1, 0, 1, 0])
    scale = norm / np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    adam = nn.Adam(params, lr=1e-3)

    def fresh_grads():  # a step clips its gradient in place
        return ({k: g * scale for k, g in grads.items()},), {}

    benchmark.pedantic(adam.step, setup=fresh_grads, rounds=300, warmup_rounds=10)
    assert adam.t >= 1 and all(np.isfinite(p).all() for p in params.values())


def test_classifier_train_epoch(benchmark, corpus):
    # one pass of 80 minibatches of 5: the per-step cost of classifier training
    train = corpus[:400]
    model = clf.ClassifierModel.create(train, np.random.default_rng(2))
    labels = [ann.PseudoLabel(seq.id, i % 2, 1.0) for i, seq in enumerate(train)]
    trace = benchmark(clf.train, model, train, labels, epochs=1, rng=np.random.default_rng(4))
    assert len(trace) == 80 and np.isfinite(trace).all()


def test_classifier_predict_1000(benchmark, corpus):
    model = clf.ClassifierModel.create(corpus[:400], np.random.default_rng(3))
    out = benchmark(clf.predict, model, corpus[400:])
    assert len(out) == 1_000


def test_keywords_extract_top(benchmark, classified):
    keywords = benchmark(extract_top, classified, 100, 4)
    assert keywords.anomaly and keywords.normal


def test_bootstrap(benchmark, corpus):
    config = PipelineConfig(seed_keywords=sorted(SEED_KEYWORDS))
    keywords, _ = benchmark(bootstrap, corpus[:400], config)
    assert sorted(keywords.class_words(ANOMALY)) == sorted(SEED_KEYWORDS)


def test_graph_build(benchmark, classified):
    keywords = extract_top(classified, 100, 4)
    g = benchmark(eg.build, keywords, [seq for seq, _ in classified])
    assert g.feature_dim > 2


def test_generate_synthetic(benchmark):
    spec = ev.SyntheticSpec(n_sequences=5_000, noise_rate=0.1, seed=4)
    assert len(benchmark(ev.generate_synthetic, spec)) == 5_000


@pytest.fixture(scope="module")
def sequence_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("detect") / "sequences.jsonl"
    spec = ev.SyntheticSpec(n_sequences=5_000, noise_rate=0.1, seed=4)
    ingest.write_jsonl(strip_gold(ev.generate_synthetic(spec)), path)
    return path


def test_ingest_read_jsonl_5000(benchmark, sequence_file):
    assert len(benchmark(ingest.read_jsonl, sequence_file)) == 5_000


def test_cli_detect_5000(benchmark, corpus, sequence_file):
    model_dir = sequence_file.parent / "model"
    model_dir.mkdir(exist_ok=True)
    model = clf.ClassifierModel.create(corpus[:400], np.random.default_rng(5))
    model.save(model_dir / "classifier.npz")
    out = sequence_file.parent / "predictions.jsonl"
    argv = ["detect", "--model-dir", str(model_dir), "--sequences", str(sequence_file),
            "--out", str(out)]

    def detect():
        with redirect_stdout(io.StringIO()):  # the CLI reports the file it writes
            return cli.main(argv)

    assert benchmark(detect) == cli.EXIT_OK
    assert out.read_text().count("\n") == 5_000
