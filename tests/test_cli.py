"""CLI commands: exit codes, golden files and determinism."""

import concurrent.futures
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from loggad import classifier as clf
from loggad import cli, ingest, nn
from loggad import evaluation as ev
from loggad import pipeline as pl
from loggad.cli import (
    EXIT_ERROR,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_VOCAB_MISMATCH,
    main,
)
from loggad.ingest import BLOCK_LINES


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

    def test_plain_kind_sets_line_labels_from_zero(self, tmp_path):
        raw = tmp_path / "raw.log"
        raw.write_text("alpha beta\ngamma delta\nepsilon zeta\n")
        labels = tmp_path / "lines.csv"
        labels.write_text("0,0\n1,1\n")
        out = tmp_path / "seqs.jsonl"
        assert run(["ingest", "--input", str(raw), "--kind", "plain", "--labels", str(labels),
                    "--window", "1", "--out", str(out)]) == EXIT_OK
        assert [s.gold_label for s in ingest.read_jsonl(out)] == [0, 1, None]

    def test_a_blank_window_is_skipped_and_counted(self, tmp_path, capsys):
        raw = tmp_path / "raw.log"
        lines = [f"event {i} ok" for i in range(1000)]
        lines[76] = "!!"
        raw.write_text("\n".join(lines) + "\n")
        out = tmp_path / "seqs.jsonl"
        assert run(["ingest", "--input", str(raw), "--kind", "plain",
                    "--window", "1", "--out", str(out)]) == EXIT_OK
        ids = [s.id for s in ingest.read_jsonl(out)]
        assert ids == [f"win_{i:06d}" for i in range(1000) if i != 76]
        assert "skipped 1 window(s)" in capsys.readouterr().out

    HDFS_LOG = (
        "081109 INFO dfs.DataNode: Receiving block blk_1 src\n"
        "081109 INFO dfs.DataNode: heartbeat\n"
        "081109 INFO dfs.DataNode: Receiving block blk_2 src\n"
    )

    def test_hdfs_lines_without_a_block_id_are_counted(self, tmp_path, capsys):
        raw = tmp_path / "hdfs.log"
        raw.write_text(self.HDFS_LOG)
        labels = tmp_path / "blocks.csv"
        labels.write_text("BlockId,Label\nblk_1,Normal\nblk_2,Anomaly\n")
        out = tmp_path / "seqs.jsonl"
        assert run(["ingest", "--input", str(raw), "--kind", "hdfs", "--labels", str(labels),
                    "--out", str(out)]) == EXIT_OK
        assert [(s.id, s.gold_label) for s in ingest.read_jsonl(out)] == [("blk_1", 0), ("blk_2", 1)]
        assert "skipped 1 line(s) with no blk_ block id" in capsys.readouterr().out

    def test_hdfs_label_naming_an_absent_block_exits_1(self, tmp_path, capsys):
        raw = tmp_path / "hdfs.log"
        raw.write_text(self.HDFS_LOG)
        labels = tmp_path / "blocks.csv"
        labels.write_text("BlockId,Label\nblk_1,Normal\nblk_2,Anomaly\nblk_3,Anomaly\n")
        out = tmp_path / "seqs.jsonl"
        assert run(["ingest", "--input", str(raw), "--kind", "hdfs", "--labels", str(labels),
                    "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"{labels}, line 4: labelled block blk_3 does not occur in {raw}" in err
        assert not out.exists()

    def test_plain_line_labelled_twice_exits_1(self, tmp_path, capsys):
        raw = tmp_path / "raw.log"
        raw.write_text("alpha beta\ngamma delta\nepsilon zeta\n")
        labels = tmp_path / "lines.csv"
        labels.write_text("2,1\n2,0\n")
        out = tmp_path / "seqs.jsonl"
        assert run(["ingest", "--input", str(raw), "--kind", "plain", "--labels", str(labels),
                    "--window", "1", "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"{labels}, line 2: log line 2 is repeated, first on line 1" in err
        assert not out.exists()

    def test_empty_plain_file_exits_1(self, tmp_path, capsys):
        raw = tmp_path / "raw.log"
        raw.write_text("\n\n")
        out = tmp_path / "seqs.jsonl"
        assert run(["ingest", "--input", str(raw), "--kind", "plain",
                    "--out", str(out)]) == EXIT_ERROR
        assert f"no records in {raw}" in capsys.readouterr().err

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
        manifest = json.loads((run_dir / "manifest.json").read_text())
        iterations = manifest["iterations"]
        loss_lines = out.split("loss per iteration")[1].splitlines()[1 : 1 + len(iterations)]
        for entry, line in zip(iterations, loss_lines, strict=True):
            c = entry["loss"]["classifier"]
            assert line == (
                f"  iteration {entry['iteration']}: pretrain -; finetune -; "
                f"classifier {c['first']:.4g} / {c['min']:.4g} / {c['last']:.4g}"
            )
        flag_lines = out.split("fallback pseudo-labels and keyword warnings per iteration")[1]
        for entry, line in zip(iterations, flag_lines.splitlines()[1 : 1 + len(iterations)],
                               strict=True):
            warnings = "; ".join(entry["keyword_warnings"]) or "none"
            assert line == (
                f"  iteration {entry['iteration']}: flagged={entry['flagged']}; "
                f"keyword warnings: {warnings}"
            )
        # seed coverage, counted from the corpus itself
        seeded = sum(bool({"fault0_trap", "fault1_trap"} & set(s.tokens))
                     for s in ingest.read_jsonl(synth_corpus))
        assert (f"seed coverage: {seeded / 150:.1%} of iteration 1's 150 "
                "sequences hold a seed word") in out.splitlines()

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

    @pytest.mark.parametrize(
        "bad, problem",
        [
            ('{"id": "s1"}', "'label' must be 0 or 1"),
            ('{"label": 1}', "'id' is missing"),
            ('{"id": 7, "label": 1}', "'id' is missing or not a str"),
            ('{"id": "s1", "label": "yes"}', "'label' must be 0 or 1, got 'yes'"),
            ('{"id": "s1", "label": true}', "'label' must be 0 or 1, got True"),
            ('{"id": "s1", "label": 2}', "'label' must be 0 or 1, got 2"),
            ('{"id": "s1", "label": 1.0}', "'label' must be 0 or 1, got 1.0"),
            ('{"id": "s0", "label": 0}', "sequence id 's0' is repeated, first on line 1"),
            ('["s1", 1]', "expected a JSON object"),
            ('{"id": "s1", ', "invalid JSON"),
        ],
    )
    def test_eval_rejects_a_bad_predictions_line_naming_it(self, tmp_path, capsys, bad, problem):
        gold = tmp_path / "gold.jsonl"
        ingest.write_jsonl(
            [ingest.LogSequence(id=f"s{i}", tokens=["x"], gold_label=i % 2) for i in range(3)],
            gold,
        )
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            '{"id": "s0", "label": 0}\n\n' + bad + '\n{"id": "s2", "label": 1}\n'
        )
        assert run(["eval", "--predictions", str(preds), "--gold", str(gold)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"{preds}, line 3: {problem}" in err

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

    @pytest.mark.parametrize("field", [
        "max_iterations", "annotator_batch", "classifier_batch", "keywords_per_class",
        "idf_exponent", "cooccur_window", "gin_layers", "gin_hidden", "annotator_epochs",
        "finetune_epochs", "classifier_epochs", "embed_dim", "classifier_hidden",
        "walk_max_length",
    ])
    def test_config_below_one_exits_1_naming_the_field(self, tmp_path, synth_corpus, capsys,
                                                       field):
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[pipeline]\n{field} = 0\n")
        code = run(train_args(synth_corpus, tmp_path / "run", ["--config", str(ini)]))
        assert code == EXIT_ERROR
        assert f"{field} must be >= 1, got 0" in capsys.readouterr().err

    def test_negative_seed_exits_1_naming_it_and_writes_nothing(self, tmp_path, synth_corpus,
                                                               capsys):
        run_dir = tmp_path / "run"
        argv = train_args(synth_corpus, run_dir)
        argv[argv.index("--seed") + 1] = "-1"
        assert run(argv) == EXIT_ERROR
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_zero_classifier_lr_exits_1_naming_the_field(self, tmp_path, synth_corpus, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[pipeline]\nclassifier_lr = 0\n")
        code = run(train_args(synth_corpus, tmp_path / "run", ["--config", str(ini)]))
        assert code == EXIT_ERROR
        assert "classifier_lr must be finite and > 0, got 0.0" in capsys.readouterr().err

    def test_diverging_run_exits_1_and_writes_failure(self, tmp_path, synth_corpus, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[pipeline]\nclassifier_lr = 1e300\n")
        run_dir = tmp_path / "run"
        code = run(train_args(synth_corpus, run_dir, ["--config", str(ini)]))
        assert code == EXIT_ERROR
        assert "iteration 1 failed: non-finite classifier loss" in capsys.readouterr().err
        failure = json.loads((run_dir / "failure.json").read_text())
        assert failure["iteration"] == 1
        assert not (run_dir / "manifest.json").exists()


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
        n = 2 * BLOCK_LINES + 37
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
        ingest.write_jsonl(random_sequences(BLOCK_LINES + 500), good)
        text = good.read_text().splitlines()
        bad_line = BLOCK_LINES + 300  # after a whole block has been predicted and written
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

    def test_non_utf8_line_exits_1_naming_it(self, tmp_path, model_dir, capsys):
        path = tmp_path / "seqs.jsonl"
        path.write_bytes(b'{"id": "a", "tokens": ["x"]}\n{"id": "b", "tokens": ["x\xff"]}\n')
        assert detect(model_dir, path, tmp_path / "preds.jsonl") == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}, line 2: 'utf-8' codec can't decode byte 0xff")

    def test_train_and_eval_reject_a_repeated_id(self, tmp_path, capsys):
        # two logs ingested separately both number their windows from win_000000
        path = tmp_path / "seqs.jsonl"
        ingest.write_jsonl(
            [ingest.LogSequence(id=sid, tokens=[word, "x"], gold_label=int(word == "fault0_trap"))
             for sid, word in (("a", "fault0_trap"), ("b", "ok"), ("a", "ok"), ("c", "up"))],
            path,
        )
        repeated = f"{path}, line 3: sequence id 'a' is repeated, first on line 1"
        assert run(train_args(path, tmp_path / "run")) == EXIT_ERROR
        assert repeated in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(
            json.dumps({"id": sid, "label": 1}) + "\n" for sid in ("a", "b", "c")
        ))
        assert run(["eval", "--predictions", str(preds), "--gold", str(path)]) == EXIT_ERROR
        assert repeated in capsys.readouterr().err

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
        # the small input fills the pool's window of workers + 1 blocks in flight
        small = max(2_500, cli._cpus() * BLOCK_LINES + 1)
        peaks = []
        for n in (small, 8 * small):
            path = tmp_path / f"seqs_{n}.jsonl"
            ingest.write_jsonl(random_sequences(n), path)
            tracemalloc.start()
            try:
                assert detect(model_dir, path, tmp_path / f"preds_{n}.jsonl") == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks


class CountedPool:
    """A worker pool that counts the blocks submitted and not yet collected."""

    def __init__(self, pool):
        self.pool = pool
        self.in_flight = self.most_in_flight = 0

    def submit(self, fn, *args):
        future = self.pool.submit(fn, *args)
        self.in_flight += 1
        self.most_in_flight = max(self.most_in_flight, self.in_flight)
        result = future.result

        def collect():
            self.in_flight -= 1
            return result()

        future.result = collect
        return future

    def shutdown(self, **kwargs):
        self.pool.shutdown(**kwargs)


@pytest.fixture
def pools(monkeypatch):
    """The worker pools ``loggad detect`` starts, counted."""
    started = []
    pool_class = concurrent.futures.ProcessPoolExecutor

    def counted(*args, **kwargs):
        started.append(CountedPool(pool_class(*args, **kwargs)))
        return started[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    return started


def lines_file(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


def sequence_lines(n, seed=0):
    return [json.dumps({"id": seq.id, "tokens": seq.tokens}) for seq in random_sequences(n, seed)]


class TestDetectPool:
    """Three blocks or more are scored by forked workers, with the inline path's bytes."""

    def test_pool_and_inline_write_the_same_bytes(
        self, tmp_path, model_dir, monkeypatch, pools
    ):
        path = tmp_path / "seqs.jsonl"
        ingest.write_jsonl(random_sequences(2 * BLOCK_LINES + 37), path)
        written = {}
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_cpus", lambda: cpus)
            out = tmp_path / f"preds_{cpus}.jsonl"
            assert detect(model_dir, path, out) == EXIT_OK
            written[cpus] = out.read_bytes()
            assert len(pools) == cpus - 1
        assert written[1] == written[2]
        assert written[1].count(b"\n") == 2 * BLOCK_LINES + 37
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_at_most_workers_plus_one_blocks_are_in_flight(
        self, tmp_path, model_dir, monkeypatch, pools, cpus
    ):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        path = tmp_path / "seqs.jsonl"
        ingest.write_jsonl(random_sequences(8 * BLOCK_LINES), path)
        assert detect(model_dir, path, tmp_path / "preds.jsonl") == EXIT_OK
        assert [(pool.most_in_flight, pool.in_flight) for pool in pools] == [(cpus + 1, 0)]

    @pytest.mark.parametrize("bad_line", [2 * BLOCK_LINES + 1, 4 * BLOCK_LINES - 5])
    def test_bad_line_in_a_late_block_leaves_no_worker_and_keeps_out(
        self, tmp_path, model_dir, monkeypatch, pools, capsys, bad_line
    ):
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        lines = sequence_lines(5 * BLOCK_LINES)
        lines[bad_line - 1] = '{"id": "x"}'
        path = lines_file(tmp_path / "seqs.jsonl", lines)
        out = tmp_path / "preds.jsonl"
        out.write_text("previous predictions\n")
        assert detect(model_dir, path, out) == EXIT_ERROR
        assert len(pools) == 1
        assert multiprocessing.active_children() == []
        assert capsys.readouterr().err == (
            f"error: {path}, line {bad_line}: 'tokens' is missing or not a list\n"
        )
        assert out.read_text() == "previous predictions\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["preds.jsonl", "run", "seqs.jsonl"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_blank_lines_at_a_block_boundary_keep_line_numbers(
        self, tmp_path, model_dir, monkeypatch, capsys, cpus
    ):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        lines = sequence_lines(3 * BLOCK_LINES)
        for n in (BLOCK_LINES - 1, BLOCK_LINES, BLOCK_LINES + 1, BLOCK_LINES + 2):
            lines[n - 1] = "  "
        path = lines_file(tmp_path / "seqs.jsonl", lines)
        out = tmp_path / "preds.jsonl"
        assert detect(model_dir, path, out) == EXIT_OK
        assert out.read_text().count("\n") == 3 * BLOCK_LINES - 4
        lines[BLOCK_LINES + 2] = "not json"
        lines_file(path, lines)
        capsys.readouterr()
        assert detect(model_dir, path, out) == EXIT_ERROR
        assert f"{path}, line {BLOCK_LINES + 3}: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [1, BLOCK_LINES, 2 * BLOCK_LINES])
    def test_fewer_than_three_blocks_start_no_pool(self, tmp_path, model_dir, monkeypatch, n):
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", lambda *a, **k: pytest.fail("pool started")
        )
        path = tmp_path / "seqs.jsonl"
        ingest.write_jsonl(random_sequences(n), path)
        out = tmp_path / "preds.jsonl"
        assert detect(model_dir, path, out) == EXIT_OK
        assert out.read_text().count("\n") == n


class TestOutputPathErrors:
    """An output path that cannot be written ends in exit 1 naming it, not a traceback."""

    def test_detect_out_directory_exits_1_and_keeps_it(self, tmp_path, model_dir, capsys):
        path = tmp_path / "seqs.jsonl"
        ingest.write_jsonl(random_sequences(10), path)
        out = tmp_path / "preds"
        out.mkdir()
        (out / "kept.txt").write_text("kept\n")
        assert detect(model_dir, path, out) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert [p.name for p in out.iterdir()] == ["kept.txt"]
        assert (out / "kept.txt").read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []

    def test_eval_out_directory_exits_1(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        ingest.write_jsonl([ingest.LogSequence(id="a", tokens=["x"], gold_label=1)], gold)
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": "a", "label": 1}\n')
        out = tmp_path / "metrics"
        out.mkdir()
        assert run(["eval", "--predictions", str(preds), "--gold", str(gold),
                    "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_ingest_out_directory_exits_1(self, tmp_path, capsys):
        raw = tmp_path / "raw.log"
        raw.write_text("alpha beta\n")
        out = tmp_path / "seqs"
        out.mkdir()
        assert run(["ingest", "--input", str(raw), "--kind", "plain",
                    "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_train_out_dir_file_exits_1_and_keeps_it(self, tmp_path, synth_corpus, capsys):
        out_dir = tmp_path / "run"
        out_dir.write_text("not a directory\n")
        assert run(train_args(synth_corpus, out_dir)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out_dir) in err
        assert out_dir.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", ["synth", "ingest", "detect", "report", "eval"])
    def test_out_in_a_missing_directory_exits_1_naming_it(
        self, tmp_path, model_dir, capsys, command
    ):
        seqs = tmp_path / "seqs.jsonl"
        ingest.write_jsonl(
            [ingest.LogSequence(id="a", tokens=["fault0_trap"], gold_label=1),
             ingest.LogSequence(id="b", tokens=["ok"], gold_label=0)],
            seqs,
        )
        raw = tmp_path / "raw.log"
        raw.write_text("alpha beta\n")
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": "a", "label": 1}\n')
        run_dir = tmp_path / "trained"
        assert run(train_args(seqs, run_dir, ["--seed-keywords", "fault0_trap"])) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "nodir" / "out"
        argv = {
            "synth": ["synth", "--n", "50"],
            "ingest": ["ingest", "--input", str(raw), "--kind", "plain"],
            "detect": ["detect", "--model-dir", str(model_dir), "--sequences", str(seqs)],
            "report": ["report", "--run-dir", str(run_dir)],
            "eval": ["eval", "--predictions", str(preds), "--gold", str(seqs)],
        }[command]
        assert run([*argv, "--out", str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: output path is in no existing directory: {out}\n"
        assert captured.out == ""
        assert not out.parent.exists()

    def test_detect_checks_out_before_reading(self, tmp_path, model_dir, monkeypatch):
        path = tmp_path / "seqs.jsonl"
        ingest.write_jsonl(random_sequences(10), path)
        monkeypatch.setattr(ingest, "raw_blocks", lambda *a: pytest.fail("input was read"))
        assert detect(model_dir, path, tmp_path) == EXIT_ERROR

    def test_missing_stopwords_file_stays_a_missing_input(self, tmp_path, synth_corpus, capsys):
        config = tmp_path / "run.ini"
        config.write_text(f"[pipeline]\nstopwords_path = {tmp_path / 'absent.txt'}\n")
        code = run(train_args(synth_corpus, tmp_path / "run", ["--config", str(config)]))
        assert code == EXIT_MISSING_INPUT
        assert "absent.txt" in capsys.readouterr().err


@pytest.fixture
def counting_run(tmp_path, synth_corpus):
    run_dir = tmp_path / "run"
    assert run(train_args(synth_corpus, run_dir)) == EXIT_OK
    return run_dir


def report(run_dir):
    return run(["report", "--run-dir", str(run_dir)])


class TestRunDirectoryFiles:
    """A malformed run-directory JSON file ends in exit 1 naming it, not a traceback."""

    def test_report_keywords_without_a_key_exits_1_naming_it(self, counting_run, capsys):
        path = counting_run / "keywords_001.json"
        path.write_text('{"iteration": 1}')
        assert report(counting_run) == EXIT_ERROR
        assert f"error: {path}: 'anomaly' is missing or not a list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "manifest, problem",
        [
            ({}, "'iterations' is missing or not a list"),
            # as a manifest written before it kept loss curves and fallback counts
            ({"iterations": [{"iteration": 1, "gamma": 0.5, "keywords_path": "keywords_001.json"}]},
             "every 'iterations' entry must be an object with the keys flagged, gamma, "
             "iteration, keyword_warnings, keywords_path, loss, pseudo_counts"),
        ],
        ids=["empty", "entry-without-loss"],
    )
    def test_report_manifest_without_a_key_exits_1_naming_it(
        self, counting_run, capsys, manifest, problem
    ):
        path = counting_run / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert report(counting_run) == EXIT_ERROR
        assert f"error: {path}: {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "anomaly", [[5], [["fault0_trap"]], [[3, 1.0]], [["fault0_trap", "high"]]],
        ids=["int", "one-item", "int-word", "str-score"],
    )
    def test_report_keywords_with_a_bad_pair_exits_1_naming_it(
        self, counting_run, capsys, anomaly
    ):
        path = counting_run / "keywords_001.json"
        path.write_text(json.dumps({"iteration": 1, "normal": [], "anomaly": anomaly}))
        assert report(counting_run) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {path}: 'anomaly' holds an entry that is not a [str, number] pair\n"
        )

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("gamma", None, "'gamma' is not a number"),
            ("gamma", "0.5", "'gamma' is not a number"),
            ("flagged", 1.5, "'flagged' is not an int"),
            ("keyword_warnings", [3], "'keyword_warnings' is not a list of str"),
            ("keyword_warnings", "none", "'keyword_warnings' is not a list of str"),
            ("keywords_path", 1, "'keywords_path' is not a str"),
            ("loss", [], "'loss' is not an object"),
            ("pseudo_counts", [3], "'pseudo_counts' is not an object of int with a positive sum"),
            ("pseudo_counts", {"0": 1.5},
             "'pseudo_counts' is not an object of int with a positive sum"),
            ("pseudo_counts", {"0": 0, "1": 0},
             "'pseudo_counts' is not an object of int with a positive sum"),
            ("loss.classifier", {"first": 1.0},
             "'loss.classifier' is not null or an object of numeric first, min and last"),
            ("loss.pretrain", 0.5,
             "'loss.pretrain' is not null or an object of numeric first, min and last"),
        ],
    )
    def test_report_manifest_with_a_wrong_typed_value_exits_1_naming_it(
        self, counting_run, capsys, key, value, problem
    ):
        path = counting_run / "manifest.json"
        manifest = json.loads(path.read_text())
        entry = manifest["iterations"][-1]
        if key.startswith("loss."):
            entry["loss"][key.split(".")[1]] = value
        else:
            entry[key] = value
        path.write_text(json.dumps(manifest, indent=2))
        i = len(manifest["iterations"]) - 1
        assert report(counting_run) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: iterations[{i}]: {problem}\n"
        assert captured.out == ""

    def test_report_manifest_syntax_error_names_its_line(self, counting_run, capsys):
        path = counting_run / "manifest.json"
        lines = path.read_text().splitlines()
        assert lines[5].startswith('    "annotator_lr"')
        lines[5] = lines[5].replace('"annotator_lr"', 'annotator_lr"')
        path.write_text("\n".join(lines) + "\n")
        assert report(counting_run) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {path}: invalid JSON: Expecting property name enclosed in double quotes "
            "at line 6, column 5\n"
        )

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_report_top_below_1_exits_1_naming_it(self, counting_run, capsys, top):
        code = run(["report", "--run-dir", str(counting_run), "--top", top])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: --top must be >= 1, got {top}\n"

    def test_detect_manifest_without_vocab_hash_exits_1_naming_it(
        self, tmp_path, counting_run, synth_corpus, capsys
    ):
        path = counting_run / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["classifier_vocab_hash"]
        path.write_text(json.dumps(manifest))
        code = run(["detect", "--model-dir", str(counting_run / "model"),
                    "--sequences", str(synth_corpus), "--out", str(tmp_path / "p.jsonl")])
        assert code == EXIT_ERROR
        assert (f"error: {path}: 'classifier_vocab_hash' is missing or not a str"
                in capsys.readouterr().err)

    def test_report_keywords_not_json_exits_1_naming_it(self, counting_run, capsys):
        path = counting_run / "keywords_001.json"
        path.write_text("not json\n")
        assert report(counting_run) == EXIT_ERROR
        assert f"error: {path}: invalid JSON: Expecting value" in capsys.readouterr().err

    def test_detect_manifest_not_an_object_exits_1_naming_it(
        self, tmp_path, counting_run, synth_corpus, capsys
    ):
        path = counting_run / "manifest.json"
        path.write_text("[]")
        code = run(["detect", "--model-dir", str(counting_run / "model"),
                    "--sequences", str(synth_corpus), "--out", str(tmp_path / "p.jsonl")])
        assert code == EXIT_ERROR
        assert f"error: {path}: expected a JSON object" in capsys.readouterr().err

    def test_run_directory_is_utf8_under_an_ascii_locale(self, tmp_path):
        # LC_ALL=C with UTF-8 mode off makes ASCII the locale's encoding, the
        # default of open(); stdout stays UTF-8, so report can print the word
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONIOENCODING": "utf-8",
               "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

        def loggad(*argv):
            done = subprocess.run([sys.executable, "-m", "loggad.cli", *map(str, argv)],
                                  env=env, capture_output=True)
            assert done.returncode == EXIT_OK, done.stderr.decode(errors="replace")
            return done.stdout.decode()

        sequences = ev.generate_synthetic(ev.SyntheticSpec(n_sequences=200, seed=2))
        for seq in sequences:
            seq.tokens = ["sérvice1" if tok == "svc80_ok" else tok for tok in seq.tokens]
        corpus, run_dir, scored = tmp_path / "c.jsonl", tmp_path / "run", tmp_path / "s.jsonl"
        ingest.write_jsonl(sequences, corpus)
        ini = tmp_path / "cfg.ini"  # an input file, read as UTF-8 too
        ini.write_text("[pipeline]\n# the sérvice1 corpus\nmax_iterations = 3\n", encoding="utf-8")
        loggad(*train_args(corpus, run_dir, ["--config", ini]))
        assert "sérvice1" in (run_dir / "keywords_001.json").read_text(encoding="utf-8")
        assert "sérvice1" in loggad("report", "--run-dir", run_dir, "--top", 200)
        loggad("detect", "--model-dir", run_dir / "model", "--sequences", corpus, "--out", scored)
        last = json.loads((run_dir / "manifest.json").read_text())["iterations"][-1]
        assert scored.read_bytes() == (run_dir / last["predictions_path"]).read_bytes()

    def test_report_escapes_what_an_ascii_stdout_cannot_print(self, tmp_path, monkeypatch):
        # with no PYTHONIOENCODING, an ASCII locale makes stdout ASCII too:
        # report prints a non-ASCII keyword escaped instead of failing on it
        sequences = ev.generate_synthetic(ev.SyntheticSpec(n_sequences=150, seed=3))
        for seq in sequences:
            seq.tokens = ["fäult2_trap" if tok == "fault2_trap" else tok for tok in seq.tokens]
        corpus, run_dir = tmp_path / "c.jsonl", tmp_path / "run"
        ingest.write_jsonl(sequences, corpus)
        assert run(train_args(corpus, run_dir)) == EXIT_OK
        anomaly = json.loads((run_dir / "keywords_001.json").read_text(encoding="utf-8"))["anomaly"]
        assert "fäult2_trap" in [w for w, _ in anomaly]
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        env.pop("PYTHONIOENCODING", None)
        done = subprocess.run([sys.executable, "-m", "loggad.cli", "report", "--run-dir",
                               str(run_dir), "--top", "200"], env=env, capture_output=True)
        assert done.returncode == EXIT_OK, done.stderr.decode(errors="replace")
        assert b"f\\xe4ult2_trap" in done.stdout
        out = io.StringIO()  # no encoding of its own: the word goes out as it is
        monkeypatch.setattr(sys, "stdout", out)
        assert run(["report", "--run-dir", str(run_dir), "--top", "200"]) == EXIT_OK
        assert "fäult2_trap" in out.getvalue()

    def test_report_missing_keywords_file_exits_2(self, counting_run, capsys):
        path = counting_run / "keywords_000.json"
        path.unlink()
        assert report(counting_run) == EXIT_MISSING_INPUT
        assert f"no such file: {path}" in capsys.readouterr().err

    def test_report_prints_why_the_run_stopped_early(
        self, tmp_path, synth_corpus, capsys, monkeypatch
    ):
        # the second iteration's classifier predicts one class, so the run keeps iteration 1
        predict, calls = pl.clf.predict, []

        def single_class_from_the_second_call(model, corpus):
            calls.append(model)
            return [(sid, 0 if len(calls) > 1 else label, conf)
                    for sid, label, conf in predict(model, corpus)]

        monkeypatch.setattr(pl.clf, "predict", single_class_from_the_second_call)
        ini = tmp_path / "cfg.ini"
        ini.write_text("[pipeline]\ndrift_threshold = -1\n")
        run_dir = tmp_path / "run"
        assert run(train_args(synth_corpus, run_dir, ["--config", str(ini)])) == EXIT_OK
        capsys.readouterr()
        assert report(run_dir) == EXIT_OK
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("stopped early: iteration 2: ")
        assert last.endswith("; kept iteration 1")


def _with_meta(**meta):
    """Rewrite a checkpoint with ``meta`` merged into its metadata."""
    def corrupt(checkpoint):
        params, saved = nn.load_checkpoint(checkpoint)
        nn.save_checkpoint(checkpoint, params, {**saved, **meta})
    return corrupt


def _without_meta(checkpoint):
    params, _ = nn.load_checkpoint(checkpoint)
    np.savez(checkpoint, **{f"param__{k}": v for k, v in params.items()})


def _without_vocab(checkpoint):
    params, saved = nn.load_checkpoint(checkpoint)
    del saved["vocab"]
    nn.save_checkpoint(checkpoint, params, saved)


def _text_file(checkpoint):
    checkpoint.write_text("not a checkpoint\n")


def _empty_file(checkpoint):
    checkpoint.write_bytes(b"")


def _npy_file(checkpoint):
    with open(checkpoint, "wb") as fh:
        np.save(fh, np.zeros(3))


def _one_word_too_many(checkpoint):
    model = clf.ClassifierModel.load(checkpoint)
    model.vocab["extra_word"] = len(model.vocab) + 1  # saved with its hash, but no emb row
    model.save(checkpoint)


@pytest.mark.parametrize(
    "corrupt, problem",
    [
        (_with_meta(kind="annotator"), "not a classifier checkpoint: annotator"),
        (_with_meta(vocab_hash="tampered"), "checkpoint vocabulary hash mismatch"),
        (_without_meta, "not a loggad classifier checkpoint: no __meta__ entry"),
        (_without_vocab, "not a loggad classifier checkpoint: 'vocab' is missing"),
        (_text_file, "not a loggad classifier checkpoint: This file contains pickled"),
        (_empty_file, "not a loggad classifier checkpoint: No data left in file"),
        (_npy_file, "not a loggad classifier checkpoint: not an .npz archive"),
        (_one_word_too_many, "not a loggad classifier checkpoint: parameters"),
    ],
    ids=["kind", "vocab-hash", "no-meta", "no-vocab", "text-file", "empty-file", "npy-file",
         "vocab-longer-than-emb"],
)
def test_detect_rejected_checkpoint_exits_3(tmp_path, model_dir, capsys, corrupt, problem):
    checkpoint = model_dir / "classifier.npz"
    corrupt(checkpoint)
    path = tmp_path / "seqs.jsonl"
    ingest.write_jsonl(random_sequences(3), path)
    assert detect(model_dir, path, tmp_path / "preds.jsonl") == EXIT_VOCAB_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith(f"error: {checkpoint}: {problem}") and "Traceback" not in err


def test_eval_prediction_missing_a_gold_id_exits_1(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    ingest.write_jsonl(
        [ingest.LogSequence(id=f"s{i}", tokens=["x"], gold_label=i % 2) for i in range(3)], gold
    )
    preds = tmp_path / "preds.jsonl"
    preds.write_text('{"id": "s0", "label": 0}\n{"id": "s2", "label": 0}\n')
    assert run(["eval", "--predictions", str(preds), "--gold", str(gold)]) == EXIT_ERROR
    assert "prediction/gold id mismatch (1 ids differ)" in capsys.readouterr().err


class TestOneParserPerProcess:
    """``main`` parses with one parser per process; each call still runs the
    handler the module holds then, and no value leaks from an earlier call."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_handler_patched_after_a_call_is_the_one_that_runs(
        self, tmp_path, model_dir, monkeypatch
    ):
        path = tmp_path / "seqs.jsonl"
        ingest.write_jsonl(random_sequences(10), path)
        assert detect(model_dir, path, tmp_path / "a.jsonl") == EXIT_OK
        calls = []

        def patched(args):
            calls.append(args.out)
            return 7

        monkeypatch.setattr(cli, "cmd_detect", patched)
        assert detect(model_dir, path, tmp_path / "b.jsonl") == 7
        assert calls == [str(tmp_path / "b.jsonl")]
        assert not (tmp_path / "b.jsonl").exists()

    def test_calls_in_one_process_each_give_their_own_result(
        self, tmp_path, counting_run, capsys
    ):
        model_dir = counting_run / "model"
        with pytest.raises(SystemExit) as exc:  # --sequences and --out missing
            run(["detect", "--model-dir", str(model_dir)])
        assert exc.value.code == 2
        assert "the following arguments are required: --sequences, --out" in (
            capsys.readouterr().err
        )

        model = clf.ClassifierModel.load(model_dir / "classifier.npz")
        for seed, n in ((1, 30), (2, 45)):
            corpus = random_sequences(n, seed)
            path = tmp_path / f"seqs_{seed}.jsonl"
            ingest.write_jsonl(corpus, path)
            out = tmp_path / f"preds_{seed}.jsonl"
            assert detect(model_dir, path, out) == EXIT_OK
            expected = "".join(clf.prediction_lines(clf.predict(model, corpus)))
            assert out.read_text() == expected
            assert capsys.readouterr().out == f"wrote {n} predictions to {out}\n"

        # report takes no --out here: detect's --out must not reach it
        assert report(counting_run) == EXIT_OK
        after_detect = capsys.readouterr()
        assert after_detect.err == ""
        assert f"gamma series: {counting_run / 'gamma.csv'}\n" in after_detect.out
        gamma_csv = (counting_run / "gamma.csv").read_bytes()
        (counting_run / "gamma.csv").unlink()
        cli.build_parser.cache_clear()  # the same report from a parser built for it alone
        assert report(counting_run) == EXIT_OK
        assert capsys.readouterr() == after_detect
        assert (counting_run / "gamma.csv").read_bytes() == gamma_csv
