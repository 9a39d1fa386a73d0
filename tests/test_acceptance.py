"""Acceptance suite: the committed end-to-end bounds and property checks.

Heavier than the unit suites: full-size synthetic pipeline runs, 1e5-sample
Monte-Carlo walk statistics and a 50k-line BGL-format smoke corpus. Expect
a few minutes of wall clock for the whole file.
"""

import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

# perfbench/selftest.py loads this file by path for synthesize_bgl, with no
# tests directory on the import path.
sys.path.insert(0, str(Path(__file__).resolve().parent))
from graph_literals import edge_literal, frequency_matrix, out_neighbors, step_probabilities
from loggad import annotator as ann
from loggad import classifier as clf
from loggad import evaluation as ev
from loggad import graph as eg
from loggad import walks
from loggad.annotator import AnnotatorModel, forward, node_representations
from loggad.graph import EventGraph, Subgraph, build, transition_probabilities
from loggad.ingest import LogSequence
from loggad.keywords import ANOMALY, NORMAL, KeywordSet, extract_top
from loggad.pipeline import PipelineConfig, run_pipeline, strip_gold
from loggad.walks import WalkLengthModel, WalkSampler


SEED_KEYWORDS = ["fault0_trap", "fault1_trap"]


def kwset(normal, anomaly):
    return KeywordSet(normal=[(w, 1.0) for w in normal], anomaly=[(w, 1.0) for w in anomaly])


# ---------------------------------------------------------------------------
# End-to-end synthetic run and ablation ordering (shared three-mode fixture)
# ---------------------------------------------------------------------------


@dataclass
class ModeRun:
    result: object
    test_f1: float
    seconds: float


@pytest.fixture(scope="module")
def ablation():
    """One default corpus, all three annotator modes, held-out test scores."""
    spec = ev.SyntheticSpec(noise_rate=0.1)  # all other knobs at defaults
    corpus = ev.generate_synthetic(spec)
    train, test = ev.split_chronological(corpus, train_fraction=0.8)
    gold_test = {s.id: s.gold_label for s in test}
    test_unlabeled = strip_gold(test)
    runs = {}
    for mode in ("counting", "no_selfsup", "full"):
        config = PipelineConfig(annotator_mode=mode, seed_keywords=list(SEED_KEYWORDS))
        start = time.perf_counter()
        result = run_pipeline(strip_gold(train), config)
        seconds = time.perf_counter() - start
        predictions = {sid: label for sid, label, _ in clf.predict(result.classifier, test_unlabeled)}
        metrics = ev.score(predictions, gold_test)
        runs[mode] = ModeRun(result=result, test_f1=metrics.f1, seconds=seconds)
    return runs


class TestEndToEndSynthetic:
    def test_converges_within_five_iterations(self, ablation):
        run = ablation["full"].result
        assert run.converged
        assert len(run.records) <= 5
        assert run.records[-1].gamma < 0.1

    def test_heldout_f1_at_least_090(self, ablation):
        assert ablation["full"].test_f1 >= 0.90

    def test_wall_clock_under_five_minutes(self, ablation):
        assert ablation["full"].seconds < 300.0


class TestAblationOrdering:
    def test_counting_then_no_selfsup_then_full(self, ablation):
        counting = ablation["counting"].test_f1
        no_selfsup = ablation["no_selfsup"].test_f1
        full = ablation["full"].test_f1
        assert counting <= no_selfsup <= full

    def test_full_beats_counting_by_at_least_005(self, ablation):
        assert ablation["full"].test_f1 - ablation["counting"].test_f1 >= 0.05


# ---------------------------------------------------------------------------
# Gradient correctness: central finite differences on random small instances
# ---------------------------------------------------------------------------


def numeric_grads(loss_fn, params, h=1e-6):
    out = {}
    for name, arr in params.items():
        num = np.zeros_like(arr)
        flat = arr.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            num.ravel()[idx] = (up - down) / (2 * h)
        out[name] = num
    return out


def assert_grads_close(analytic, numeric, tol=1e-4):
    for name in analytic:
        a, n = analytic[name], numeric[name]
        rel = np.linalg.norm(a - n) / (np.linalg.norm(a) + np.linalg.norm(n) + 1e-12)
        assert rel < tol, f"{name}: relative error {rel}"


def random_graph(rng, n):
    flags = np.zeros((n, 2))
    for i in range(n):
        cls = int(rng.integers(0, 3))
        if cls == 2:
            flags[i] = 1.0
        else:
            flags[i, cls] = 1.0
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges[(i, j)] = int(rng.integers(1, 5))
    return EventGraph(
        words=[f"w{i}" for i in range(n)], class_flags=flags, frequency=frequency_matrix(n, edges)
    )


def random_subgraph(rng, g):
    k = int(rng.integers(1, g.n_vertices + 1))
    return Subgraph(graph=g, vertex_ids=rng.choice(g.n_vertices, size=k, replace=False))


class TestGradientCorrectness:
    def test_annotator_twenty_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            g = random_graph(rng, n=int(rng.integers(2, 6)))
            sg = random_subgraph(rng, g)
            model = AnnotatorModel.create(g.features.shape[1], rng, n_layers=2, hidden=4)
            for arr in model.params.values():
                arr += rng.normal(0, 0.05, size=arr.shape)
            target = int(rng.integers(0, 2))
            _, analytic = ann.loss_and_grads(model, [sg], [target])
            numeric = numeric_grads(
                lambda: ann.loss_and_grads(model, [sg], [target])[0], model.params
            )
            assert_grads_close(analytic, numeric)

    def test_classifier_twenty_instances(self):
        rng = np.random.default_rng(202)
        vocab = [f"w{i}" for i in range(6)]
        corpus = [LogSequence(id="s", tokens=vocab)]
        for _ in range(20):
            model = clf.ClassifierModel.create(corpus, rng, embed_dim=4, hidden=3)
            tokens = [vocab[int(rng.integers(6))] for _ in range(int(rng.integers(1, 8)))]
            target = int(rng.integers(0, 2))
            ids = [model.token_ids(tokens)]
            _, analytic = clf.loss_and_grads(model, ids, [target])
            numeric = numeric_grads(
                lambda: clf.loss_and_grads(model, ids, [target])[0], model.params
            )
            assert_grads_close(analytic, numeric)


# ---------------------------------------------------------------------------
# Equation-level oracles on a <= 10-sequence corpus
# ---------------------------------------------------------------------------


TOY = [
    (LogSequence(id="s0", tokens=["open", "read", "close", "read"]), NORMAL),
    (LogSequence(id="s1", tokens=["open", "write", "close", "node1"]), NORMAL),
    (LogSequence(id="s2", tokens=["read", "flush", "node1", "open"]), NORMAL),
    (LogSequence(id="s3", tokens=["panic", "trap", "open", "node1"]), ANOMALY),
    (LogSequence(id="s4", tokens=["panic", "abort", "abort", "read"]), ANOMALY),
    (LogSequence(id="s5", tokens=["trap", "panic", "panic", "close"]), ANOMALY),
]


class TestEquationOracles:
    def brute_tfidf_top(self, corpus, z, m):
        out = {}
        n_docs = len(corpus)
        for class_t in (NORMAL, ANOMALY):
            rows = []
            vocab = sorted({t for s, lbl in corpus if lbl == class_t for t in s.tokens})
            for word in vocab:
                tf = sum(
                    s.tokens.count(word) for s, lbl in corpus if lbl == class_t
                )
                df = sum(1 for s, _ in corpus if word in s.tokens)
                idf = math.log((n_docs + 1) / (df + 1)) + 1.0
                rows.append((word, tf * idf**m, tf))
            rows.sort(key=lambda r: (-r[1], -r[2], r[0]))
            out[class_t] = [(w, sc) for w, sc, _ in rows[:z]]
        return out

    def test_tfidf_top_z(self):
        ks = extract_top(TOY, Z=8, M=4, stopwords=frozenset())
        expected = self.brute_tfidf_top(TOY, 8, 4)
        assert [w for w, _ in ks.normal] == [w for w, _ in expected[NORMAL]]
        assert [w for w, _ in ks.anomaly] == [w for w, _ in expected[ANOMALY]]
        for got, want in zip(ks.normal + ks.anomaly, expected[NORMAL] + expected[ANOMALY]):
            assert got[1] == pytest.approx(want[1])

    def brute_adjacency(self, keywords, corpus, window):
        words = keywords.all_words()
        counts = {}
        for s in corpus:
            positions = [(p, t) for p, t in enumerate(s.tokens) if t in words]
            for i in range(len(positions)):
                for j in range(i + 1, len(positions)):
                    (pa, wa), (pb, wb) = positions[i], positions[j]
                    if pb - pa <= window and wa != wb:
                        key = tuple(sorted((wa, wb)))
                        counts[key] = counts.get(key, 0) + 1
        return counts

    def test_cooccurrence_adjacency(self):
        ks = extract_top(TOY, Z=8, M=4, stopwords=frozenset())
        corpus = [s for s, _ in TOY]
        g = build(ks, corpus, cooccur_window=3)
        expected = self.brute_adjacency(ks, corpus, 3)
        got = {
            tuple(sorted((g.words[i], g.words[j]))): f for (i, j), f in edge_literal(g).items()
        }
        assert got == expected

    def test_walk_length_moments(self):
        ks = extract_top(TOY, Z=8, M=4, stopwords=frozenset())
        corpus = [s for s, _ in TOY]
        model = walks.fit_length_model(corpus, ks)
        words = ks.all_words()
        counts = [sum(1 for t in s.tokens if t in words) for s in corpus]
        mean = sum(counts) / len(counts)
        var = sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)
        assert model.mu == pytest.approx(mean)
        assert model.sigma2 == pytest.approx(var)

    def test_transition_rows_sum_to_one(self):
        ks = extract_top(TOY, Z=8, M=4, stopwords=frozenset())
        g = build(ks, [s for s, _ in TOY], cooccur_window=5)
        policy = transition_probabilities(g)
        for v in range(g.n_vertices):
            if not policy[v].any():  # dead end
                continue
            row = step_probabilities(g, policy, v)
            assert abs(row.sum() - 1.0) <= 1e-12
            # Eq 6: each entry proportional to the edge frequency
            freqs = np.array(
                [edge_literal(g).get(tuple(sorted((v, u))), 0) for u in out_neighbors(g, v)],
                dtype=float,
            )
            assert np.allclose(row, freqs / freqs.sum(), atol=1e-12)

    def test_vote_labels(self):
        ks = kwset(["open", "read", "close"], ["panic", "trap", "abort"])
        for s, _ in TOY:
            a = sum(s.tokens.count(w) for w in ("panic", "trap", "abort"))
            n = sum(s.tokens.count(w) for w in ("open", "read", "close"))
            expected = None if a + n == 0 else (ANOMALY if a > n else NORMAL)
            assert ann.vote_counts([s], ks)[0].label == expected


# ---------------------------------------------------------------------------
# GIN invariants
# ---------------------------------------------------------------------------


@dataclass
class PermutedView:
    features: np.ndarray
    adjacency: np.ndarray
    is_empty: bool = False


class TestGinInvariants:
    def test_permutation_invariance_100_subgraphs(self):
        rng = np.random.default_rng(303)
        for _ in range(100):
            g = random_graph(rng, n=int(rng.integers(2, 8)))
            sg = random_subgraph(rng, g)
            model = AnnotatorModel.create(g.features.shape[1], rng, n_layers=3, hidden=8)
            base = forward(model, [sg])
            perm = rng.permutation(sg.n_vertices)
            view = PermutedView(
                features=sg.features[perm],
                adjacency=sg.adjacency[np.ix_(perm, perm)],
            )
            assert np.max(np.abs(forward(model, [view]) - base)) <= 1e-9

    def test_isolated_node_reduction(self):
        # with no edges no node gets a message: every layer's row of a node
        # equals that node run alone and the MLP of its own (1 + eps)-scaled
        # row, and the logits reduce to the head applied to the concatenated
        # per-layer sums
        rng = np.random.default_rng(404)
        g = EventGraph(
            words=["a", "b", "c"], class_flags=np.ones((3, 2)), frequency=frequency_matrix(3, {})
        )
        sg = Subgraph(graph=g, vertex_ids=np.array([0, 1, 2]))
        model = AnnotatorModel.create(g.features.shape[1], rng, n_layers=3, hidden=8)
        p = model.params
        for arr in p.values():
            arr += rng.normal(0, 0.05, size=arr.shape)
        reps = node_representations(model, [sg])
        for k in range(1, 4):
            Z = (1.0 + p[f"eps{k}"][0]) * reps[k - 1] @ p[f"W1_{k}"] + p[f"b1_{k}"]
            mlp = np.tanh(Z) @ p[f"W2_{k}"] + p[f"b2_{k}"]
            assert np.allclose(reps[k], mlp, rtol=0, atol=1e-12)
        for v in range(3):
            alone = node_representations(model, [Subgraph(graph=g, vertex_ids=np.array([v]))])
            for R, R_alone in zip(reps, alone):
                assert np.allclose(R[v], R_alone[0], rtol=0, atol=1e-12)
        readout = np.concatenate([R.sum(axis=0) for R in reps])
        expected = readout @ p["head_W"] + p["head_b"]
        assert np.allclose(forward(model, [sg])[0], expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Walk statistics: Monte-Carlo vs Eq 6 and start-class uniformity
# ---------------------------------------------------------------------------


class TestWalkStatistics:
    def test_transition_frequencies_match_eq6(self):
        # star with edge frequencies 3:1: one-step frequencies must land
        # within +-0.01 of 0.75 / 0.25 at 1e5 samples
        g = EventGraph(
            words=["center", "b", "c"],
            class_flags=np.ones((3, 2)),
            frequency=frequency_matrix(3, {(0, 1): 3, (0, 2): 1}),
        )
        policy = transition_probabilities(g)
        rng = np.random.default_rng(55)
        n = 100_000
        hits = {1: 0, 2: 0}
        cum = policy[0]
        neighbors = np.arange(g.n_vertices)  # a row's columns are vertex ids
        for _ in range(n):
            nxt = int(neighbors[np.searchsorted(cum, rng.random(), side="right")])
            hits[nxt] += 1
        assert hits[1] / n == pytest.approx(0.75, abs=0.01)
        assert hits[2] / n == pytest.approx(0.25, abs=0.01)

    def test_start_class_uniform_within_3_sigma(self):
        flags = np.zeros((4, 2))
        flags[0, 0] = flags[1, 0] = 1.0  # two normal-class words
        flags[2, 1] = flags[3, 1] = 1.0  # two anomaly-class words
        g = EventGraph(
            words=["n0", "n1", "a0", "a1"],
            class_flags=flags,
            frequency=frequency_matrix(4, {(0, 2): 1, (1, 3): 2}),
        )
        sampler = WalkSampler(
            g, transition_probabilities(g), WalkLengthModel(mu=2.0, sigma2=1.0),
            np.random.default_rng(66),
        )
        n = 100_000
        ones = sum(sampler.sample().start_class for _ in range(n))
        sigma = math.sqrt(n * 0.25)
        assert abs(ones - n / 2) <= 3 * sigma


# ---------------------------------------------------------------------------
# Determinism and the gold-label firewall
# ---------------------------------------------------------------------------


def small_run_corpus():
    spec = ev.SyntheticSpec(n_sequences=300, noise_rate=0.1, seed=5)
    return ev.generate_synthetic(spec)


def fast_full_config():
    return PipelineConfig(
        annotator_mode="full",
        annotator_epochs=3,
        finetune_epochs=2,
        classifier_epochs=4,
        max_iterations=2,
        seed_keywords=list(SEED_KEYWORDS),
    )


def artifact_bytes(run_dir):
    """Everything except the manifest, which records wall-clock seconds."""
    out = {}
    for path in sorted(Path(run_dir).rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            out[str(path.relative_to(run_dir))] = path.read_bytes()
    return out


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        corpus = small_run_corpus()
        config = fast_full_config()
        dirs = [tmp_path / "run_a", tmp_path / "run_b"]
        results = [run_pipeline(strip_gold(corpus), config, out_dir=d) for d in dirs]
        a, b = (artifact_bytes(d) for d in dirs)
        assert set(a) == set(b)
        assert all(a[name] == b[name] for name in a)
        # keyword sets and metrics JSON, byte for byte
        assert any(name.startswith("keywords_") for name in a)
        gold = {s.id: s.gold_label for s in corpus}
        payloads = [
            ev.score({sid: l for sid, l, _ in r.predictions}, gold).to_json()
            for r in results
        ]
        assert payloads[0].encode() == payloads[1].encode()


TRAINING_MODULES = ("keywords", "graph", "walks", "annotator", "classifier", "nn")


class TestGoldLabelFirewall:
    def test_training_modules_never_mention_gold(self):
        import loggad

        src_root = Path(loggad.__file__).parent
        for module in TRAINING_MODULES:
            source = (src_root / f"{module}.py").read_text()
            assert "gold_label" not in source, f"{module}.py reads gold labels"

    def test_poisoned_gold_labels_change_nothing(self, tmp_path):
        corpus = small_run_corpus()
        poisoned = [
            LogSequence(
                id=s.id, tokens=list(s.tokens), gold_label=1 - (s.gold_label or 0)
            )
            for s in corpus
        ]
        config = fast_full_config()
        run_pipeline(corpus, config, out_dir=tmp_path / "clean")
        run_pipeline(poisoned, config, out_dir=tmp_path / "poisoned")
        a = artifact_bytes(tmp_path / "clean")
        b = artifact_bytes(tmp_path / "poisoned")
        assert set(a) == set(b)
        assert all(a[name] == b[name] for name in a)


# ---------------------------------------------------------------------------
# BGL-format smoke test (50k lines, no network: the sample is synthesized
# unless a real one is present at data/BGL_50k.log)
# ---------------------------------------------------------------------------


REAL_BGL_SAMPLE = Path(__file__).resolve().parent.parent / "data" / "BGL_50k.log"

BGL_BENIGN_VOCAB = [
    ["instruction", "cache", "prefetch", "stream", "hit", "depth"],
    ["ddr", "scrubbing", "rate", "background", "sweep", "complete"],
    ["core", "configuration", "register", "image", "loaded", "chdir"],
    ["ethernet", "link", "carrier", "detected", "negotiated", "duplex"],
    ["torus", "sender", "retransmission", "queue", "drained", "idle"],
    ["ciod", "socket", "control", "stream", "connected", "service"],
    ["mmcs", "boot", "program", "block", "initialized", "ready"],
    ["fan", "speed", "nominal", "enclosure", "temperature", "stable"],
]
BGL_FAULT_WORDS = [
    "kernel_panic", "dtlb_miss", "parity_alert", "machine_check",
    "storage_interrupt", "ras_fatal", "ecc_uncorrectable", "watchdog_reset",
]
BGL_FAULT_TAGS = ["KERNDTLB", "KERNMC", "KERNPAN", "APPREAD"]


def synthesize_bgl(path, n_lines=50_000, window=50, seed=13):
    """A BGL-shaped stream: alert-tagged lines cluster in incident windows."""
    rng = np.random.default_rng(seed)
    p_fault = np.arange(1, len(BGL_FAULT_WORDS) + 1, dtype=float) ** -2.0
    p_fault /= p_fault.sum()
    n_windows = n_lines // window
    anomalous = set(rng.choice(n_windows, size=n_windows // 10, replace=False).tolist())
    ts = 1117838570
    lines = []
    for w in range(n_windows):
        comm = int(rng.integers(len(BGL_BENIGN_VOCAB)))
        rack = (
            f"R{int(rng.integers(0, 512)):03d}"
            f"-M{int(rng.integers(0, 2))}-N{int(rng.integers(0, 16))}"
        )
        for _ in range(window):
            ts += int(rng.integers(1, 4))
            stamp = (
                f"2005-06-03-15.42.{int(rng.integers(0, 60)):02d}"
                f".{int(rng.integers(0, 999999)):06d}"
            )
            if w in anomalous and rng.random() < 0.5:
                k = int(rng.integers(2, 5))
                words = [
                    BGL_FAULT_WORDS[int(rng.choice(len(BGL_FAULT_WORDS), p=p_fault))]
                    for _ in range(k)
                ]
                # incidents interleave subsystems that never mix when healthy
                for i in range(2):
                    v = BGL_BENIGN_VOCAB[(comm + 1 + i) % len(BGL_BENIGN_VOCAB)]
                    words.append(v[int(rng.integers(len(v)))])
                tag, level = BGL_FAULT_TAGS[int(rng.integers(len(BGL_FAULT_TAGS)))], "FATAL"
            else:
                vocab = BGL_BENIGN_VOCAB[comm]
                words = [
                    vocab[int(rng.integers(len(vocab)))]
                    for _ in range(int(rng.integers(4, 7)))
                ]
                tag, level = "-", "INFO"
            lines.append(
                f"{tag} {ts} 2005.06.03 {rack} {stamp} {rack} RAS KERNEL {level} "
                + " ".join(words)
            )
    Path(path).write_text("\n".join(lines) + "\n")


class TestBglSmoke:
    def test_full_pipeline_beats_always_normal(self, tmp_path):
        if REAL_BGL_SAMPLE.is_file():
            sample = REAL_BGL_SAMPLE
        else:
            sample = tmp_path / "bgl_sample.log"
            synthesize_bgl(sample)
        records = ev.load_loghub_sample(sample, "bgl")
        assert len(records) >= 50_000
        sequences = ev.sequences_from_records(records, "bgl", window_size=50)
        gold = {s.id: s.gold_label for s in sequences}
        assert any(g == 1 for g in gold.values())
        config = PipelineConfig(
            annotator_mode="full",
            seed_keywords=["kernel_panic", "dtlb_miss"],
        )
        result = run_pipeline(strip_gold(sequences), config)
        assert result.converged
        assert len(result.records) <= config.max_iterations
        metrics = ev.score({sid: l for sid, l, _ in result.predictions}, gold)
        baseline = ev.score({sid: 0 for sid in gold}, gold)
        assert metrics.f1 > baseline.f1
