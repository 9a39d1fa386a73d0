"""Micro-benchmarks of the two trainable models' batched kernels, one
classifier training epoch (the per-step cost of ``nn.fit``), classifier
prediction on 1,000 sequences and on one 50-sequence batch, one Adam step
at each model's size, walk sampling, the event graph and keyword kernels, the seed-word bootstrap,
the synthetic generator, the JSONL read paths, and ``loggad detect`` on
each side of its pool-or-inline choice.

Run from the root of a checkout:

    python -m pytest microbench --benchmark-only

They are kept out of the tier-1 suite (``testpaths = ["tests"]``). The
inputs mirror the default synthetic run's second iteration: a graph over
both 100-word keyword lists, minibatches of 20 subgraphs for the annotator
and of 5 sequences for the classifier. The generator and file benchmarks
make, read and score 5,000 sequences; the inline detect scores 100.
"""

import io
from contextlib import redirect_stdout
from itertools import islice

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
    model = ann.AnnotatorModel.create(g.feature_dim, np.random.default_rng(1))
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
    flat = np.concatenate([g.ravel() for g in grads.values()])
    scale = norm / np.sqrt(flat @ flat)
    adam = nn.Adam(params, lr=1e-3)
    scaled = {k: g * scale for k, g in grads.items()}  # a step leaves its gradient as passed
    benchmark.pedantic(adam.step, args=(scaled,), rounds=300, warmup_rounds=10)
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


def test_classifier_predict_50(benchmark, corpus):
    # one batch of perfbench's detect_batch_ms_p50: 50 sequences, one predict call
    model = clf.ClassifierModel.create(corpus[:400], np.random.default_rng(3))
    out = benchmark(clf.predict, model, corpus[400:450])
    assert len(out) == 50


def test_keywords_extract_top(benchmark, classified):
    keywords = benchmark(extract_top, classified, 100, 4)
    assert keywords.anomaly and keywords.normal


def test_bootstrap(benchmark, corpus):
    config = PipelineConfig(seed_keywords=sorted(SEED_KEYWORDS))
    keywords = benchmark(bootstrap, corpus[:400], config)
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


def test_ingest_parse_blocks_5000(benchmark, sequence_file):
    # the detect read path: raw blocks, each parsed on its own, keeping no ids
    def parse(path):
        blocks = ingest.raw_blocks(path)
        return sum(
            len(ingest.parse_block(path, *b, ingest.sequence_from_json, ingest.IngestError))
            for b in blocks
        )

    assert benchmark(parse, sequence_file) == 5_000


@pytest.fixture(scope="module")
def model_dir(corpus, sequence_file):
    path = sequence_file.parent / "model"
    path.mkdir(exist_ok=True)
    clf.ClassifierModel.create(corpus[:400], np.random.default_rng(5)).save(path / "classifier.npz")
    return path


def detect_call(model_dir, sequences, out):
    argv = ["detect", "--model-dir", str(model_dir), "--sequences", str(sequences),
            "--out", str(out)]

    def detect():
        with redirect_stdout(io.StringIO()):  # the CLI reports the file it writes
            return cli.main(argv)

    return detect


def test_cli_detect_5000(benchmark, model_dir, sequence_file):
    # five blocks: scored by a worker pool when more than one CPU is available
    out = sequence_file.parent / "predictions.jsonl"
    assert benchmark(detect_call(model_dir, sequence_file, out)) == cli.EXIT_OK
    assert out.read_text().count("\n") == 5_000


def test_cli_detect_100(benchmark, model_dir, sequence_file):
    # one block: always scored inline
    small = sequence_file.parent / "sequences_100.jsonl"
    with open(sequence_file, encoding="utf-8") as fh:
        small.write_text("".join(islice(fh, 100)), encoding="utf-8")
    out = sequence_file.parent / "predictions_100.jsonl"
    assert benchmark(detect_call(model_dir, small, out)) == cli.EXIT_OK
    assert out.read_text().count("\n") == 100
