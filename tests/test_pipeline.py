"""Pipeline loop: bootstrap, iteration mechanics, artifacts and the gold firewall."""

import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from loggad import evaluation as ev
from loggad import keywords as kw
from loggad import pipeline as pl
from loggad.ingest import LogSequence
from loggad.keywords import ANOMALY, NORMAL, extract_top
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

    @pytest.mark.parametrize("name, value", [
        ("annotator_lr", -1.0), ("finetune_lr", float("nan")), ("classifier_lr", 0.0),
        ("classifier_lr", float("inf")), ("finetune_margin", 1.5), ("finetune_margin", 1.0),
        ("finetune_margin", -0.1),
    ])
    def test_untrainable_rate_or_margin_rejected(self, name, value):
        # counting mode never fine-tunes, yet the config is still rejected
        rule = "in [0, 1)" if name == "finetune_margin" else "finite and > 0"
        with pytest.raises(PipelineError, match=re.escape(f"{name} must be {rule}, got {value}")):
            PipelineConfig(annotator_mode="counting", **{name: value})

    def test_dict_round_trip(self):
        cfg = fast_config()
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

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


class TestBootstrap:
    def test_seeded_anomaly_list_is_exactly_seeds(self):
        corpus, spec = tiny_corpus()
        cfg = fast_config()
        keywords, classified = bootstrap(strip_gold(corpus), cfg)
        assert sorted(w for w, _ in keywords.anomaly) == sorted(cfg.seed_keywords)
        assert keywords.iteration_index == 0
        assert len(keywords.normal) == len(keywords.anomaly)

    def test_seeded_split_marks_seed_sequences(self):
        corpus, _ = tiny_corpus()
        cfg = fast_config()
        _, classified = bootstrap(strip_gold(corpus), cfg)
        seeds = set(cfg.seed_keywords)
        for seq, label in classified:
            assert label == (ANOMALY if seeds & set(seq.tokens) else NORMAL)

    @pytest.mark.parametrize("stopwords", [None, frozenset({"svc10_ok"})])
    def test_one_score_pass_gives_extract_tops_normal_list(self, monkeypatch, stopwords):
        corpus, _ = tiny_corpus()
        cfg = fast_config()
        passes = []
        score = pl.score

        def counted(*args):
            passes.append(args)
            return score(*args)

        monkeypatch.setattr(pl, "score", counted)
        monkeypatch.setattr(kw, "score", counted)
        keywords, classified = bootstrap(strip_gold(corpus), cfg, stopwords)
        assert len(passes) == 1
        expected = extract_top(classified, len(keywords.anomaly), cfg.idf_exponent, stopwords)
        assert keywords.normal == expected.normal

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
        assert result.final_annotator is None
        assert all(r.pretrain_trace == [] and r.finetune_trace == [] for r in result.records)

    def test_full_mode_trains_annotator(self):
        corpus, _ = tiny_corpus()
        cfg = fast_config(annotator_mode="full", max_iterations=1, gin_hidden=8)
        result = run_pipeline(corpus, cfg)
        assert result.final_annotator is not None
        assert len(result.records[0].pretrain_trace) > 0
        assert len(result.records[0].finetune_trace) > 0

    def test_repeated_id_rejected_before_bootstrap(self, tmp_path, monkeypatch):
        corpus, _ = tiny_corpus()
        corpus[7] = LogSequence(id=corpus[2].id, tokens=corpus[7].tokens)
        monkeypatch.setattr(pl, "bootstrap", lambda *a, **k: pytest.fail("bootstrap ran"))
        with pytest.raises(PipelineError, match=f"sequence id '{corpus[2].id}' is repeated"):
            run_pipeline(corpus, fast_config(), out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_walk_failure_fails_the_run_cleanly(self, tmp_path):
        # "the", "a" and "of" are stopwords, so the Normal keyword list is
        # empty and the walk sampler has no Normal start vertex
        corpus = [
            LogSequence(id="a", tokens=["fault0_trap", "x", "y"]),
            LogSequence(id="b", tokens=["the", "a"]),
            LogSequence(id="c", tokens=["of", "the"]),
        ]
        cfg = fast_config(annotator_mode="full", seed_keywords=["fault0_trap"])
        with pytest.raises(PipelineError, match="class 0 has no keyword present in the graph"):
            run_pipeline(corpus, cfg, out_dir=tmp_path)
        assert json.loads((tmp_path / "failure.json").read_text())["iteration"] == 1

    def test_finetune_prior_is_previous_iteration_predictions(self, monkeypatch):
        # iteration 1 fine-tunes without prior labels (the bootstrap split
        # is no classifier output); iteration k gets exactly the labels
        # iteration k-1's trained classifier predicts on the corpus
        corpus, _ = tiny_corpus()
        priors, classifiers = [], []
        finetune, train = pl.ann.finetune, pl.clf.train

        def capture_prior(*args, prior=None, **kwargs):
            priors.append(None if prior is None else dict(prior))
            return finetune(*args, prior=prior, **kwargs)

        def capture_classifier(model, *args, **kwargs):
            classifiers.append(model)
            return train(model, *args, **kwargs)

        monkeypatch.setattr(pl.ann, "finetune", capture_prior)
        monkeypatch.setattr(pl.clf, "train", capture_classifier)
        # at 8 hidden units iteration 1 predicts all-Normal on this corpus,
        # which ends the run; at 16 both classes stay alive for three
        # iterations and the predictions change from one to the next
        cfg = fast_config(
            annotator_mode="no_selfsup", max_iterations=3, drift_threshold=-1.0, gin_hidden=16
        )
        stripped = strip_gold(corpus)
        result = run_pipeline(corpus, cfg)
        assert len(result.records) == 3 and len(priors) == 3 and len(classifiers) == 3
        assert priors[0] is None
        assert priors[1] != priors[2]
        for k in (2, 3):
            expected = {sid: label for sid, label, _ in pl.clf.predict(classifiers[k - 2], stripped)}
            assert priors[k - 1] == expected
        assert result.predictions == pl.clf.predict(classifiers[-1], stripped)

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
        assert result.keywords == result.records[0].keywords
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
        cfg = fast_config(annotator_mode="no_selfsup", max_iterations=1, gin_hidden=8)
        result = run_pipeline(corpus, cfg)
        assert result.records[0].pretrain_trace == []
        assert len(result.records[0].finetune_trace) > 0


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
        assert [w for w, _ in r1.keywords.anomaly] == [w for w, _ in r2.keywords.anomaly]
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
            assert entry["loss"]["finetune"]["last"] == record.finetune_trace[-1]
            assert entry["loss"]["pretrain"] is None  # no_selfsup takes no pre-training step

    def test_manifest_keeps_flagged_counts_and_keyword_warnings(self, tmp_path):
        # Z=1000 is more than either class has candidates, so every
        # iteration's keyword set carries warnings
        corpus, _ = tiny_corpus()
        out = tmp_path / "run"
        result = run_pipeline(corpus, fast_config(keywords_per_class=1000), out_dir=out)
        manifest = json.loads((out / "manifest.json").read_text())
        for entry, record in zip(manifest["iterations"], result.records, strict=True):
            rows = (out / entry["pseudo_labels_path"]).read_text().splitlines()
            assert entry["flagged"] == sum(json.loads(row)["flagged"] for row in rows)
            assert entry["keyword_warnings"] == record.keywords.warnings
            assert len(entry["keyword_warnings"]) == 2

    def test_pseudo_label_files_parse(self, tmp_path):
        corpus, _ = tiny_corpus()
        out = tmp_path / "run"
        run_pipeline(corpus, fast_config(max_iterations=1, drift_threshold=1.01), out_dir=out)
        lines = (out / "pseudo_labels_001.jsonl").read_text().splitlines()
        assert len(lines) == len(corpus)
        row = json.loads(lines[0])
        assert set(row) == {"id", "label", "confidence", "flagged"}
