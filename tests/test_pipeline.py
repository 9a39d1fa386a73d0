"""Pipeline loop: bootstrap, iteration mechanics, artifacts and the gold firewall."""

import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from loggad import cli, ingest
from loggad import evaluation as ev
from loggad import pipeline as pl
from loggad.ingest import LogSequence
from loggad.keywords import ANOMALY, NORMAL
from loggad.pipeline import (
    PipelineConfig,
    PipelineError,
    bootstrap,
    corpus_hash,
    run_pipeline,
    strip_gold,
)


def tiny_corpus(n=120, seed=5, noise=0.0):
    spec = ev.SyntheticSpec(
        n_sequences=n,
        anomaly_rate=0.15,
        noise_rate=noise,
        seed=seed,
        n_normal_templates=6,
        n_anomaly_templates=3,
        n_communities=3,
        anomaly_token_rate=0.7,
        normal_vocab=[f"svc{i}_ok" for i in range(30)],
        anomaly_vocab=[f"fault{i}_trap" for i in range(6)],
        shared_vocab=[f"node{i}" for i in range(20)],
    )
    return ev.generate_synthetic(spec), spec


def fast_config(**kw):
    defaults = dict(
        keywords_per_class=20,
        annotator_mode="counting",
        annotator_epochs=1,
        finetune_epochs=1,
        classifier_epochs=10,
        max_iterations=3,
        seed=11,
        seed_keywords=["fault0_trap", "fault1_trap"],
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


class TestConfig:
    def test_bad_mode_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(annotator_mode="votes")

    @pytest.mark.parametrize("name, value, rule", [
        ("annotator_lr", -1.0, "finite and > 0"), ("finetune_lr", float("nan"), "finite and > 0"),
        ("classifier_lr", 0.0, "finite and > 0"), ("classifier_lr", float("inf"), "finite and > 0"),
        ("finetune_margin", 1.5, "in [0, 1)"), ("finetune_margin", 1.0, "in [0, 1)"),
        ("finetune_margin", -0.1, "in [0, 1)"), ("seed", -1, ">= 0"), ("seed", -7, ">= 0"),
        ("drift_threshold", float("nan"), "a number"),
    ])
    @pytest.mark.parametrize("from_ini", [False, True], ids=["dataclass", "from_ini"])
    def test_unusable_value_rejected_naming_the_field(self, tmp_path, name, value, rule, from_ini):
        # counting mode never fine-tunes, yet the config is still rejected
        with pytest.raises(PipelineError, match=re.escape(f"{name} must be {rule}, got {value}")):
            if from_ini:
                path = tmp_path / "run.ini"
                path.write_text(f"[pipeline]\nannotator_mode = counting\n{name} = {value}\n")
                PipelineConfig.from_ini(path)
            else:
                PipelineConfig(annotator_mode="counting", **{name: value})

    @pytest.mark.parametrize("name, value", [("seed", 0), ("drift_threshold", float("inf"))])
    def test_edge_seed_and_threshold_accepted(self, name, value):
        # thresholds below 0 or above 1 are accepted too; run_pipeline tests use them
        assert getattr(PipelineConfig(**{name: value}), name) == value

    def test_dict_round_trip(self):
        cfg = fast_config()
        assert PipelineConfig(**cfg.to_dict()) == cfg

    def test_from_ini(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[pipeline]\n"
            "keywords_per_class = 50\n"
            "annotator_lr = 0.001\n"
            "annotator_mode = counting\n"
            "seed_keywords = failed, denied\n"
        )
        cfg = PipelineConfig.from_ini(path)
        assert cfg.keywords_per_class == 50
        assert cfg.annotator_lr == pytest.approx(1e-3)
        assert cfg.annotator_mode == "counting"
        assert cfg.seed_keywords == ["failed", "denied"]
        # untouched fields keep their defaults
        assert cfg.idf_exponent == 4

    def test_from_ini_round_trips_every_field(self, tmp_path):
        cfg = PipelineConfig(
            keywords_per_class=40, idf_exponent=3, cooccur_window=7, gin_layers=2,
            gin_hidden=16, annotator_epochs=5, annotator_batch=8, finetune_epochs=6,
            finetune_margin=0.35, finetune_lr=2.5e-3, annotator_lr=3e-5,
            classifier_epochs=4, classifier_batch=9, classifier_lr=7.5e-4, embed_dim=12,
            classifier_hidden=24, drift_threshold=0.05, max_iterations=3, seed=11,
            annotator_mode="no_selfsup", seed_keywords=["failed", "denied"],
            walk_max_length=32, stopwords_path="stop.txt",
        )
        names = [f.name for f in fields(PipelineConfig)]
        assert all(getattr(cfg, n) != getattr(PipelineConfig(), n) for n in names)

        def ini_value(value):
            return ", ".join(value) if isinstance(value, list) else str(value)

        path = tmp_path / "run.ini"
        path.write_text(
            "[pipeline]\n" + "".join(f"{n} = {ini_value(getattr(cfg, n))}\n" for n in names)
        )
        back = PipelineConfig.from_ini(path)
        assert back == cfg
        assert [type(getattr(back, n)) for n in names] == [type(getattr(cfg, n)) for n in names]

    def test_from_ini_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[pipeline]\nlearning_rate = 0.1\n")
        with pytest.raises(PipelineError):
            PipelineConfig.from_ini(path)

    def test_from_ini_missing_file_rejected(self, tmp_path):
        with pytest.raises(PipelineError):
            PipelineConfig.from_ini(tmp_path / "absent.ini")

    @pytest.mark.parametrize("text, named", [
        ("keywords_per_class = 50\n", "no section headers"),
        ("[pipeline]\nseed = 1\nseed = 2\n", "option 'seed' in section 'pipeline' already exists"),
        ("[pipeline]\nseed = 1\n[model]\nseed = 2\n", "seed is set in two sections"),
        ("[DEFAULT]\nseed = 1\n[pipeline]\nseed = 2\n", "seed is set in two sections"),
        ("[model]\ngin_layers = three\n", "gin_layers = three: invalid literal for int()"),
    ])
    def test_from_ini_malformed_file_names_file_and_key(self, tmp_path, text, named):
        path = tmp_path / "run.ini"
        path.write_text(text)
        with pytest.raises(PipelineError, match=re.escape(f"config file {path}: ")) as err:
            PipelineConfig.from_ini(path)
        assert named in str(err.value)


class TestStripGold:
    def test_removes_labels_keeps_content(self):
        corpus = [LogSequence(id="a", tokens=["x"], gold_label=1)]
        stripped = strip_gold(corpus)
        assert stripped[0].gold_label is None
        assert stripped[0].id == "a" and stripped[0].tokens == ["x"]

    def test_hash_ignores_gold(self):
        a = [LogSequence(id="a", tokens=["x"], gold_label=1)]
        b = [LogSequence(id="a", tokens=["x"], gold_label=0)]
        assert corpus_hash(a) == corpus_hash(b)


def seed_split(corpus, seeds):
    return [(seq, ANOMALY if set(seeds) & set(seq.tokens) else NORMAL) for seq in corpus]


class TestBootstrap:
    def test_seeded_anomaly_list_is_exactly_seeds(self):
        corpus, spec = tiny_corpus()
        cfg = fast_config()
        keywords = bootstrap(strip_gold(corpus), cfg)
        assert sorted(w for w, _ in keywords.anomaly) == sorted(cfg.seed_keywords)
        assert keywords.normal == []

    def test_one_score_pass_orders_the_seed_words(self, monkeypatch):
        corpus, _ = tiny_corpus()
        cfg = fast_config(seed_keywords=["fault0_trap", "fault1_trap", "fault2_trap"])
        passes = []
        score = pl.score

        def counted(*args):
            passes.append(args)
            return score(*args)

        monkeypatch.setattr(pl, "score", counted)
        keywords = bootstrap(strip_gold(corpus), cfg)
        assert len(passes) == 1
        scores = score(seed_split(corpus, cfg.seed_keywords), cfg.idf_exponent)[ANOMALY]
        expected = sorted(
            ((w, scores[w][0]) for w in cfg.seed_keywords), key=lambda item: (-item[1], item[0])
        )
        assert keywords.anomaly == expected

    def test_seeded_requires_seeds(self):
        corpus, _ = tiny_corpus()
        with pytest.raises(PipelineError):
            bootstrap(strip_gold(corpus), fast_config(seed_keywords=[]))

    def test_seed_without_hits_rejected(self):
        corpus, _ = tiny_corpus()
        with pytest.raises(PipelineError):
            bootstrap(strip_gold(corpus), fast_config(seed_keywords=["nonexistent_word"]))

    def test_empty_corpus_rejected(self):
        with pytest.raises(PipelineError):
            bootstrap([], fast_config())

    def test_seed_in_every_sequence_rejected(self):
        corpus = [LogSequence(id="a", tokens=["x", "y"]), LogSequence(id="b", tokens=["y"])]
        with pytest.raises(PipelineError, match="every sequence contains a seed keyword"):
            bootstrap(corpus, fast_config(seed_keywords=["y"]))


class TestRunPipeline:
    def test_converges_and_reports_gammas(self):
        corpus, _ = tiny_corpus()
        result = run_pipeline(corpus, fast_config(max_iterations=5))
        assert 1 <= len(result.records) <= 5
        for rec in result.records:
            assert 0.0 <= rec.gamma <= 1.0
        assert len(result.predictions) == len(corpus)

    def test_max_iterations_cap(self):
        corpus, _ = tiny_corpus()
        # an impossible threshold forces the cap
        cfg = fast_config(max_iterations=2, drift_threshold=-1.0)
        result = run_pipeline(corpus, cfg)
        assert len(result.records) == 2
        assert not result.converged

    def test_permissive_threshold_stops_first_iteration(self):
        corpus, _ = tiny_corpus()
        cfg = fast_config(drift_threshold=1.01)
        result = run_pipeline(corpus, cfg)
        assert len(result.records) == 1
        assert result.converged

    def test_counting_mode_has_no_annotator(self):
        corpus, _ = tiny_corpus()
        result = run_pipeline(corpus, fast_config())
        assert all(r.pretrain_trace == [] and r.finetune_trace == [] for r in result.records)

    def test_full_mode_trains_annotator(self):
        # iteration 1 labels by the vote; the annotator trains from iteration 2
        corpus, _ = tiny_corpus()
        cfg = fast_config(annotator_mode="full", max_iterations=2, gin_hidden=16)
        result = run_pipeline(corpus, cfg)
        assert result.records[0].pretrain_trace == result.records[0].finetune_trace == []
        assert len(result.records[1].pretrain_trace) > 0
        assert len(result.records[1].finetune_trace) > 0

    @pytest.mark.parametrize("mode", ["counting", "no_selfsup", "full"])
    def test_iteration_1_labels_by_the_seed_split(self, tmp_path, mode):
        # the Normal list starts empty, so a sequence with a seed word votes
        # Anomaly unanimously and every other sequence abstains
        corpus, _ = tiny_corpus()
        cfg = fast_config(annotator_mode=mode, max_iterations=2, gin_hidden=16)
        run_pipeline(corpus, cfg, out_dir=tmp_path)
        assert json.loads((tmp_path / "keywords_000.json").read_text())["normal"] == []
        seeds = set(cfg.seed_keywords)
        rows = [json.loads(line) for line in (tmp_path / "pseudo_labels_001.jsonl").open()]
        assert [row["id"] for row in rows] == [seq.id for seq in corpus]
        for row, seq in zip(rows, corpus):
            expected = (ANOMALY, 1.0, False) if seeds & set(seq.tokens) else (NORMAL, 0.5, True)
            assert (row["label"], row["confidence"], row["flagged"]) == expected

    def test_repeated_id_rejected_before_bootstrap(self, tmp_path, monkeypatch):
        corpus, _ = tiny_corpus()
        corpus[7] = LogSequence(id=corpus[2].id, tokens=corpus[7].tokens)
        monkeypatch.setattr(pl, "bootstrap", lambda *a, **k: pytest.fail("bootstrap ran"))
        with pytest.raises(PipelineError, match=f"sequence id '{corpus[2].id}' is repeated"):
            run_pipeline(corpus, fast_config(), out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_walk_failure_fails_the_run_cleanly(self, tmp_path):
        # "the", "a" and "of" are stopwords, so the Normal keyword list is
        # empty and iteration 2's walk sampler has no Normal start vertex
        corpus = [
            *(LogSequence(id=f"a{i}", tokens=["fault0_trap", "x", "y"]) for i in range(10)),
            *(LogSequence(id=f"b{i}", tokens=["the", "a"]) for i in range(5)),
            *(LogSequence(id=f"c{i}", tokens=["of", "the"]) for i in range(5)),
        ]
        cfg = fast_config(
            annotator_mode="full", seed_keywords=["fault0_trap"], classifier_epochs=30
        )
        with pytest.raises(PipelineError, match="class 0 has no keyword present in the graph"):
            run_pipeline(corpus, cfg, out_dir=tmp_path)
        assert json.loads((tmp_path / "failure.json").read_text())["iteration"] == 2

    def test_finetune_prior_is_previous_iteration_predictions(self, monkeypatch):
        # iteration 1 has no classifier labels yet and labels by the vote,
        # so fine-tuning never runs without a prior; iteration k gets exactly
        # the labels iteration k-1's trained classifier predicts on the corpus
        corpus, _ = tiny_corpus()
        priors, classifiers = [], []
        targets, train = pl.ann.targets, pl.clf.train

        def capture_prior(*args, prior, **kwargs):
            priors.append(dict(prior))
            return targets(*args, prior=prior, **kwargs)

        def capture_classifier(model, *args, **kwargs):
            classifiers.append(model)
            return train(model, *args, **kwargs)

        monkeypatch.setattr(pl.ann, "targets", capture_prior)
        monkeypatch.setattr(pl.clf, "train", capture_classifier)
        # at 8 hidden units iteration 2 predicts all-Normal on this corpus,
        # which ends the run; at 16 both classes stay alive for three
        # iterations and the predictions change from one to the next
        cfg = fast_config(
            annotator_mode="no_selfsup", max_iterations=3, drift_threshold=-1.0, gin_hidden=16
        )
        stripped = strip_gold(corpus)
        result = run_pipeline(corpus, cfg)
        assert len(result.records) == 3 and len(priors) == 2 and len(classifiers) == 3
        assert priors[0] != priors[1]
        for k in (2, 3):
            expected = {sid: label for sid, label, _ in pl.clf.predict(classifiers[k - 2], stripped)}
            assert priors[k - 2] == expected
        assert result.predictions == pl.clf.predict(classifiers[-1], stripped)

    def test_gin_iteration_induces_each_sequence_once(self, monkeypatch):
        # fine-tuning and annotation read one list of subgraphs, one per
        # sequence, so each subgraph's adjacency is gathered once
        corpus, _ = tiny_corpus()
        made, passed = [], {"finetune": [], "annotate": []}
        post_init = pl.eg.Subgraph.__post_init__
        finetune, annotate = pl.ann.finetune, pl.ann.annotate

        def counted(sg):
            made.append(sg)
            post_init(sg)

        def capture_finetune(model, subgraphs, *args, **kwargs):
            passed["finetune"].append(subgraphs)
            return finetune(model, subgraphs, *args, **kwargs)

        def capture_annotate(model, corpus, subgraphs):
            passed["annotate"].append(subgraphs)
            return annotate(model, corpus, subgraphs)

        monkeypatch.setattr(pl.eg.Subgraph, "__post_init__", counted)
        monkeypatch.setattr(pl.ann, "finetune", capture_finetune)
        monkeypatch.setattr(pl.ann, "annotate", capture_annotate)
        cfg = fast_config(
            annotator_mode="no_selfsup", max_iterations=2, drift_threshold=-1.0, gin_hidden=16
        )
        result = run_pipeline(corpus, cfg)
        assert len(result.records) == 2  # iteration 1 votes; iteration 2 is the GIN's
        [tuned], [labelled] = passed["finetune"], passed["annotate"]
        assert len(made) == len(tuned) == len(labelled) == len(corpus)
        assert all(a is b is c for a, b, c in zip(made, tuned, labelled))

    def single_class_from(self, monkeypatch, iteration):
        """Make classifier.predict return class NORMAL everywhere from the
        given iteration's call on; returns the real predictions per call."""
        predict, real = pl.clf.predict, []

        def fake(model, corpus):
            out = predict(model, corpus)
            real.append(out)
            if len(real) >= iteration:
                return [(sid, NORMAL, conf) for sid, _, conf in out]
            return out

        monkeypatch.setattr(pl.clf, "predict", fake)
        return real

    def test_single_class_iteration_keeps_previous_iteration(self, monkeypatch, tmp_path):
        corpus, _ = tiny_corpus()
        classifiers = []
        train = pl.clf.train

        def capture_classifier(model, *args, **kwargs):
            classifiers.append(model)
            return train(model, *args, **kwargs)

        monkeypatch.setattr(pl.clf, "train", capture_classifier)
        real = self.single_class_from(monkeypatch, 2)
        out = tmp_path / "run"
        result = run_pipeline(corpus, fast_config(drift_threshold=-1.0), out_dir=out)
        assert len(real) == 2 and len(classifiers) == 2
        assert len(result.records) == 1 and not result.converged
        assert result.classifier is classifiers[0]
        assert result.predictions == real[0]
        assert result.stop_reason.startswith("iteration 2: ")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"] == result.stop_reason
        assert len(manifest["iterations"]) == 1
        assert not (out / "keywords_002.json").exists()
        assert not (out / "failure.json").exists()

    def test_single_class_first_iteration_raises(self, monkeypatch, tmp_path):
        corpus, _ = tiny_corpus()
        self.single_class_from(monkeypatch, 1)
        with pytest.raises(PipelineError, match="iteration 1 failed"):
            run_pipeline(corpus, fast_config(), out_dir=tmp_path / "run")
        assert (tmp_path / "run" / "failure.json").exists()

    def test_no_selfsup_skips_pretraining(self):
        corpus, _ = tiny_corpus()
        cfg = fast_config(annotator_mode="no_selfsup", max_iterations=2, gin_hidden=16)
        result = run_pipeline(corpus, cfg)
        assert result.records[1].pretrain_trace == []
        assert len(result.records[1].finetune_trace) > 0

    def test_first_iteration_labels_by_the_vote_in_every_mode(self, tmp_path):
        # without previous classifier labels no mode builds a graph or trains
        # an annotator, so one iteration writes counting mode's bytes
        corpus, _ = tiny_corpus()
        names = ["keywords_001.json", "pseudo_labels_001.jsonl", "predictions_001.jsonl",
                 "model/classifier.npz"]
        runs = {}
        for mode in pl.ANNOTATOR_MODES:
            out = tmp_path / mode
            run_pipeline(corpus, fast_config(annotator_mode=mode, max_iterations=1), out_dir=out)
            runs[mode] = [(out / name).read_bytes() for name in names]
        assert runs["full"] == runs["no_selfsup"] == runs["counting"]


class TestDeterminism:
    def run_once(self, tmp_path, name, corpus, cfg):
        out = tmp_path / name
        run_pipeline(corpus, cfg, out_dir=out)
        return out

    def artifact_bytes(self, out: Path) -> dict[str, bytes]:
        skip = {"manifest.json"}  # contains wall-clock seconds
        return {
            p.name: p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name not in skip
        }

    def test_byte_identical_artifacts(self, tmp_path):
        corpus, _ = tiny_corpus()
        cfg = fast_config()
        a = self.run_once(tmp_path, "a", corpus, cfg)
        b = self.run_once(tmp_path, "b", corpus, cfg)
        assert self.artifact_bytes(a) == self.artifact_bytes(b)

    def test_seed_changes_run(self, tmp_path):
        corpus, _ = tiny_corpus(seed=6)
        r1 = run_pipeline(corpus, fast_config(seed=1))
        r2 = run_pipeline(corpus, fast_config(seed=2))
        k1 = [w for w, _ in r1.records[0].keywords.anomaly]
        k2 = [w for w, _ in r2.records[0].keywords.anomaly]
        assert k1 != k2 or r1.predictions != r2.predictions


class TestGoldFirewall:
    def test_poisoned_gold_changes_nothing(self, tmp_path):
        corpus, _ = tiny_corpus()
        poisoned = [
            LogSequence(id=s.id, tokens=list(s.tokens), gold_label=1 - (s.gold_label or 0))
            for s in corpus
        ]
        cfg = fast_config()
        out_clean = tmp_path / "clean"
        out_poisoned = tmp_path / "poisoned"
        r1 = run_pipeline(corpus, cfg, out_dir=out_clean)
        r2 = run_pipeline(poisoned, cfg, out_dir=out_poisoned)
        assert r1.predictions == r2.predictions
        k1, k2 = r1.records[-1].keywords, r2.records[-1].keywords
        assert [w for w, _ in k1.anomaly] == [w for w, _ in k2.anomaly]
        td = TestDeterminism()
        assert td.artifact_bytes(out_clean) == td.artifact_bytes(out_poisoned)

    def test_training_modules_never_touch_gold(self):
        # static audit: the training-path sources must not reference gold
        # labels anywhere; only ingest (carrying them) and evaluation
        # (scoring them) may.
        import loggad

        root = Path(loggad.__file__).parent
        for mod in ("keywords", "graph", "walks", "nn", "annotator", "classifier"):
            text = (root / f"{mod}.py").read_text()
            assert "gold_label" not in text, f"{mod}.py references gold_label"
        pipeline_text = (root / "pipeline.py").read_text()
        # pipeline may mention it only in the strip_gold firewall itself
        body = pipeline_text.replace(
            'return [LogSequence(id=s.id, tokens=list(s.tokens), gold_label=None) for s in corpus]',
            "",
        )
        assert body.count("gold_label") <= 1  # the docstring mention at most


class TestArtifacts:
    def test_manifest_and_iteration_files(self, tmp_path):
        corpus, _ = tiny_corpus()
        out = tmp_path / "run"
        result = run_pipeline(corpus, fast_config(), out_dir=out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["corpus_hash"] == corpus_hash(strip_gold(corpus))
        assert manifest["converged"] == result.converged
        assert len(manifest["iterations"]) == len(result.records)
        assert (out / "keywords_000.json").exists()
        for entry in manifest["iterations"]:
            for key in ("keywords_path", "pseudo_labels_path", "predictions_path"):
                assert (out / entry[key]).exists()
        assert (out / "model" / "classifier.npz").exists()
        cfg_json = json.loads((out / "config.json").read_text())
        assert cfg_json == fast_config().to_dict()

    def test_full_run_writes_exactly_the_listed_files(self, tmp_path):
        # the annotator trains in iteration 2 but is not saved: the classifier
        # is the only model a run keeps, and detect scores from it alone
        corpus, _ = tiny_corpus()
        out = tmp_path / "run"
        cfg = fast_config(annotator_mode="full", max_iterations=2, drift_threshold=-1.0,
                          gin_hidden=16)
        result = run_pipeline(corpus, cfg, out_dir=out)
        assert len(result.records[1].pretrain_trace) > 0
        written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        assert written == sorted([
            "config.json", "manifest.json", "keywords_000.json", "keywords_001.json",
            "keywords_002.json", "pseudo_labels_001.jsonl", "pseudo_labels_002.jsonl",
            "predictions_001.jsonl", "predictions_002.jsonl", "model/classifier.npz",
        ])
        sequences, scored = tmp_path / "corpus.jsonl", tmp_path / "detect.jsonl"
        ingest.write_jsonl(corpus, sequences)
        argv = ["detect", "--model-dir", str(out / "model"), "--sequences", str(sequences),
                "--out", str(scored)]
        assert cli.main(argv) == cli.EXIT_OK
        assert scored.read_bytes() == (out / "predictions_002.jsonl").read_bytes()

    def test_manifest_keeps_first_min_and_last_loss(self, tmp_path):
        corpus, _ = tiny_corpus()
        out = tmp_path / "run"
        result = run_pipeline(corpus, fast_config(annotator_mode="no_selfsup"), out_dir=out)
        manifest = json.loads((out / "manifest.json").read_text())
        for entry, record in zip(manifest["iterations"], result.records):
            trace = record.classifier_trace
            assert entry["loss"]["classifier"] == {
                "first": trace[0], "min": min(trace), "last": trace[-1]
            }
            assert entry["loss"]["pretrain"] is None  # no_selfsup takes no pre-training step
        # iteration 1 labels by the vote and fine-tunes nothing
        assert manifest["iterations"][0]["loss"]["finetune"] is None
        assert len(manifest["iterations"]) > 1
        for entry, record in zip(manifest["iterations"][1:], result.records[1:]):
            assert entry["loss"]["finetune"]["last"] == record.finetune_trace[-1]

    def test_manifest_keeps_flagged_counts_and_keyword_warnings(self, tmp_path):
        # Z=1000 is more than either class has candidates, so every
        # iteration's keyword set carries warnings
        corpus, _ = tiny_corpus()
        out = tmp_path / "run"
        result = run_pipeline(corpus, fast_config(keywords_per_class=1000), out_dir=out)
        manifest = json.loads((out / "manifest.json").read_text())
        for entry, record in zip(manifest["iterations"], result.records, strict=True):
            rows = [json.loads(row) for row in
                    (out / entry["pseudo_labels_path"]).read_text().splitlines()]
            assert entry["flagged"] == sum(row["flagged"] for row in rows)
            labels = [row["label"] for row in rows]
            assert entry["pseudo_counts"] == {"0": labels.count(0), "1": labels.count(1)}
            assert (out / entry["predictions_path"]).read_text() == "".join(
                pl.clf.prediction_lines(record.predictions)
            )
            assert entry["keyword_warnings"] == record.keywords.warnings
            assert len(entry["keyword_warnings"]) == 2
        assert result.predictions is result.records[-1].predictions
        assert result.pseudo_labels is result.records[-1].pseudo_labels

    def test_pseudo_label_files_parse(self, tmp_path):
        corpus, _ = tiny_corpus()
        out = tmp_path / "run"
        run_pipeline(corpus, fast_config(max_iterations=1, drift_threshold=1.01), out_dir=out)
        lines = (out / "pseudo_labels_001.jsonl").read_text().splitlines()
        assert len(lines) == len(corpus)
        row = json.loads(lines[0])
        assert set(row) == {"id", "label", "confidence", "flagged"}

    def test_keyword_files_hold_their_iteration(self, tmp_path):
        corpus, _ = tiny_corpus()
        out = tmp_path / "run"
        result = run_pipeline(corpus, fast_config(drift_threshold=-1.0), out_dir=out)
        assert [r.iteration for r in result.records] == [1, 2, 3]
        for k in range(4):  # keywords_000.json is the bootstrap's
            assert json.loads((out / f"keywords_{k:03d}.json").read_text())["iteration"] == k
