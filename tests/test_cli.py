"""CLI commands: exit codes, golden files and determinism."""

import json
import tracemalloc

import numpy as np
import pytest

from loggad import classifier as clf
from loggad import ingest
from loggad.cli import (
    DETECT_BLOCK,
    EXIT_ERROR,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_VOCAB_MISMATCH,
    main,
)


def run(argv):
    return main(argv)


@pytest.fixture
def synth_corpus(tmp_path):
    out = tmp_path / "corpus.jsonl"
    assert run(["synth", "--n", "150", "--seed", "3", "--out", str(out)]) == EXIT_OK
    return out


def train_args(corpus, out_dir, extra=()):
    return [
        "train",
        "--sequences", str(corpus),
        "--out-dir", str(out_dir),
        "--mode", "counting",
        "--seed", "11",
        "--seed-keywords", "fault0_trap,fault1_trap",
        *extra,
    ]


class TestSynth:
    def test_writes_corpus_and_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(["synth", "--n", "100", "--seed", "5", "--out", str(a)]) == EXIT_OK
        assert run(["synth", "--n", "100", "--seed", "5", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        sequences = ingest.read_jsonl(a)
        assert len(sequences) == 100
        assert sum(s.gold_label for s in sequences) == 10

    def test_bad_rate_exits_1(self, tmp_path):
        out = tmp_path / "x.jsonl"
        assert run(["synth", "--anomaly-rate", "0", "--out", str(out)]) == EXIT_ERROR


class TestIngest:
    def test_plain_windowing_golden(self, tmp_path):
        raw = tmp_path / "raw.log"
        raw.write_text("alpha beta\ngamma delta\nepsilon zeta\n")
        out = tmp_path / "seqs.jsonl"
        code = run(["ingest", "--input", str(raw), "--kind", "plain",
                    "--window", "2", "--out", str(out)])
        assert code == EXIT_OK
        sequences = ingest.read_jsonl(out)
        assert [s.tokens for s in sequences] == [
            ["alpha", "beta", "gamma", "delta"],
            ["epsilon", "zeta"],
        ]
        assert [s.id for s in sequences] == ["win_000000", "win_000001"]

    def test_bgl_kind_sets_labels(self, tmp_path):
        raw = tmp_path / "bgl.log"
        raw.write_text("- ts ok message\nKERN ts bad message\n")
        out = tmp_path / "seqs.jsonl"
        assert run(["ingest", "--input", str(raw), "--kind", "bgl",
                    "--window", "1", "--out", str(out)]) == EXIT_OK
        assert [s.gold_label for s in ingest.read_jsonl(out)] == [0, 1]

    def test_missing_input_exits_2(self, tmp_path):
        out = tmp_path / "seqs.jsonl"
        assert run(["ingest", "--input", str(tmp_path / "nope.log"),
                    "--kind", "plain", "--out", str(out)]) == EXIT_MISSING_INPUT

    def test_determinism(self, tmp_path):
        raw = tmp_path / "raw.log"
        raw.write_text("some log line 123456\nanother one\n")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run(["ingest", "--input", str(raw), "--kind", "plain",
                        "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestTrainDetectReportEval:
    def test_full_command_cycle(self, tmp_path, synth_corpus, capsys):
        run_dir = tmp_path / "run"
        assert run(train_args(synth_corpus, run_dir)) == EXIT_OK
        assert (run_dir / "manifest.json").is_file()

        # report: iteration-0 row shows exactly the seed keywords
        assert run(["report", "--run-dir", str(run_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        line0 = next(l for l in out.splitlines() if l.strip().startswith("iteration 0"))
        assert "fault0_trap" in line0 and "fault1_trap" in line0
        assert (run_dir / "gamma.csv").is_file()
        gammas = [
            float(row.split(",")[1])
            for row in (run_dir / "gamma.csv").read_text().splitlines()[1:]
        ]
        assert gammas and all(0.0 <= g <= 1.0 for g in gammas)

        # detect on the training corpus
        preds = tmp_path / "preds.jsonl"
        assert run(["detect", "--model-dir", str(run_dir / "model"),
                    "--sequences", str(synth_corpus), "--out", str(preds)]) == EXIT_OK
        rows = [json.loads(l) for l in preds.read_text().splitlines()]
        assert len(rows) == 150
        assert all(set(r) == {"id", "label", "confidence"} for r in rows)

        # eval against the gold labels carried by the synthetic corpus
        metrics_path = tmp_path / "metrics.json"
        assert run(["eval", "--predictions", str(preds), "--gold", str(synth_corpus),
                    "--out", str(metrics_path)]) == EXIT_OK
        metrics = json.loads(metrics_path.read_text())
        assert {"precision", "recall", "f1"} <= set(metrics)

    def test_train_missing_sequences_exits_2(self, tmp_path):
        assert run(train_args(tmp_path / "nope.jsonl", tmp_path / "run")) == EXIT_MISSING_INPUT

    def test_train_bad_seed_keyword_exits_1(self, tmp_path, synth_corpus):
        code = run([
            "train", "--sequences", str(synth_corpus), "--out-dir", str(tmp_path / "r"),
            "--mode", "counting", "--seed-keywords", "no_such_word",
        ])
        assert code == EXIT_ERROR

    def test_train_determinism_byte_identical(self, tmp_path, synth_corpus):
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        assert run(train_args(synth_corpus, run_a)) == EXIT_OK
        assert run(train_args(synth_corpus, run_b)) == EXIT_OK
        for name in sorted(p.name for p in run_a.iterdir() if p.suffix in (".json", ".jsonl")):
            if name == "manifest.json":  # contains wall-clock timings
                continue
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name

    def test_detect_missing_model_exits_2(self, tmp_path, synth_corpus):
        assert run(["detect", "--model-dir", str(tmp_path / "nope"),
                    "--sequences", str(synth_corpus),
                    "--out", str(tmp_path / "p.jsonl")]) == EXIT_MISSING_INPUT

    def test_detect_manifest_hash_mismatch_exits_3(self, tmp_path, synth_corpus):
        run_dir = tmp_path / "run"
        assert run(train_args(synth_corpus, run_dir)) == EXIT_OK
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["classifier_vocab_hash"] = "tampered"
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        code = run(["detect", "--model-dir", str(run_dir / "model"),
                    "--sequences", str(synth_corpus), "--out", str(tmp_path / "p.jsonl")])
        assert code == EXIT_VOCAB_MISMATCH

    def test_report_missing_run_dir_exits_2(self, tmp_path):
        assert run(["report", "--run-dir", str(tmp_path / "nope")]) == EXIT_MISSING_INPUT

    def test_eval_golden_counts(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        ingest.write_jsonl(
            [
                ingest.LogSequence(id=f"s{i}", tokens=["x"], gold_label=g)
                for i, g in enumerate([1, 1, 0, 0])
            ],
            gold,
        )
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            "\n".join(
                json.dumps({"id": f"s{i}", "label": p, "confidence": 1.0})
                for i, p in enumerate([1, 0, 1, 0])
            )
        )
        assert run(["eval", "--predictions", str(preds), "--gold", str(gold)]) == EXIT_OK

    def test_config_file_round_trip(self, tmp_path, synth_corpus):
        ini = tmp_path / "cfg.ini"
        ini.write_text(
            "[pipeline]\nannotator_mode = counting\nmax_iterations = 2\n"
            "seed_keywords = fault0_trap, fault1_trap\nclassifier_epochs = 10\n"
        )
        run_dir = tmp_path / "run"
        code = run(["train", "--sequences", str(synth_corpus),
                    "--config", str(ini), "--out-dir", str(run_dir)])
        assert code == EXIT_OK
        saved = json.loads((run_dir / "config.json").read_text())
        assert saved["max_iterations"] == 2
        assert saved["seed_keywords"] == ["fault0_trap", "fault1_trap"]


WORDS = [f"w{i}" for i in range(40)]


def random_sequences(n, seed=0, ids=None):
    rng = np.random.default_rng(seed)
    return [
        ingest.LogSequence(
            id=ids[i % len(ids)] + str(i) if ids else f"s{i}",
            tokens=[WORDS[k] for k in rng.integers(0, len(WORDS), size=rng.integers(1, 20))]
            + (["never_seen"] if i % 7 == 0 else []),
        )
        for i in range(n)
    ]


@pytest.fixture
def model_dir(tmp_path):
    """An untrained classifier: detect needs weights, not good ones."""
    model = clf.ClassifierModel.create(
        [ingest.LogSequence(id="v", tokens=WORDS)], np.random.default_rng(4), embed_dim=8, hidden=8
    )
    path = tmp_path / "run" / "model"
    path.mkdir(parents=True)
    model.save(path / "classifier.npz")
    return path


def detect(model_dir, sequences, out):
    return run(["detect", "--model-dir", str(model_dir), "--sequences", str(sequences),
                "--out", str(out)])


class TestDetectStreaming:
    def test_output_is_json_dumps_of_whole_corpus_predict(self, tmp_path, model_dir):
        n = 2 * DETECT_BLOCK + 37
        ids = ['q"uote', "back\\slash", "ctl\x01\x1f", "ünïcødé ☃ 😀", "tab\tnl\u2028"]
        corpus = random_sequences(n, ids=ids)
        path = tmp_path / "seqs.jsonl"
        ingest.write_jsonl(corpus, path)
        out = tmp_path / "preds.jsonl"
        assert detect(model_dir, path, out) == EXIT_OK
        model = clf.ClassifierModel.load(model_dir / "classifier.npz")
        expected = "".join(
            json.dumps({"id": sid, "label": label, "confidence": round(conf, 12)}) + "\n"
            for sid, label, conf in clf.predict(model, corpus)
        )
        assert out.read_bytes() == expected.encode("ascii")
        assert len(set(json.loads(line)["id"] for line in out.read_text().splitlines())) == n
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_empty_input_writes_no_predictions(self, tmp_path, model_dir, capsys):
        path = tmp_path / "seqs.jsonl"
        path.write_text("\n\n")
        out = tmp_path / "preds.jsonl"
        assert detect(model_dir, path, out) == EXIT_OK
        assert out.read_bytes() == b""
        assert "wrote 0 predictions" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad", ['{"id": "x", "tokens": ["w1"],}', '{"id": "x"}', '{"id": "x", "tokens": []}']
    )
    def test_bad_line_exits_1_naming_it_and_keeps_out(self, tmp_path, model_dir, capsys, bad):
        good = tmp_path / "good.jsonl"
        ingest.write_jsonl(random_sequences(DETECT_BLOCK + 500), good)
        text = good.read_text().splitlines()
        bad_line = DETECT_BLOCK + 300  # after a whole block has been predicted and written
        text[bad_line - 1] = bad
        path = tmp_path / "seqs.jsonl"
        path.write_text("\n".join(text) + "\n")
        out = tmp_path / "preds.jsonl"
        out.write_text("previous predictions\n")
        assert detect(model_dir, path, out) == EXIT_ERROR
        assert f"line {bad_line}:" in capsys.readouterr().err
        assert out.read_text() == "previous predictions\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "good.jsonl", "preds.jsonl", "run", "seqs.jsonl"
        ]

    def test_train_and_eval_report_bad_line(self, tmp_path, capsys):
        path = tmp_path / "seqs.jsonl"
        path.write_text('{"id": "a", "tokens": ["x"]}\n{"id": "b"}\n')
        assert run(train_args(path, tmp_path / "run")) == EXIT_ERROR
        assert "line 2:" in capsys.readouterr().err
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": "a", "label": 0, "confidence": 1.0}\n')
        assert run(["eval", "--predictions", str(preds), "--gold", str(path)]) == EXIT_ERROR
        assert "line 2:" in capsys.readouterr().err

    def test_train_rejects_a_non_string_token_naming_its_line(
        self, tmp_path, synth_corpus, capsys
    ):
        lines = synth_corpus.read_text().splitlines()
        lines[6] = '{"id": "bad", "tokens": ["fault0_trap", 7], "gold_label": 1}'
        path = tmp_path / "seqs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert run(train_args(path, tmp_path / "run")) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "line 7:" in err and "non-string token" in err

    def test_peak_memory_does_not_grow_with_the_input(self, tmp_path, model_dir):
        peaks = []
        for n in (2_500, 20_000):
            path = tmp_path / f"seqs_{n}.jsonl"
            ingest.write_jsonl(random_sequences(n), path)
            tracemalloc.start()
            try:
                assert detect(model_dir, path, tmp_path / f"preds_{n}.jsonl") == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks
