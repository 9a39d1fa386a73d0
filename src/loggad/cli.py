"""Command-line entry points.

Commands: ingest, synth, train, detect, report, eval. All I/O goes
through files; every command is deterministic given its inputs and
--seed. Exit codes: 0 success, 1 generic error, 2 missing input file,
3 model/vocabulary mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

from loggad import classifier as clf
from loggad import evaluation as ev
from loggad import ingest
from loggad.keywords import KeywordSet
from loggad.pipeline import PipelineConfig, PipelineError, run_pipeline

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_INPUT = 2
EXIT_VOCAB_MISMATCH = 3

DETECT_BLOCK = 1024  # sequences parsed, predicted and written at a time


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(path)
    return p


def cmd_ingest(args) -> int:
    path = _require_file(args.input)
    if args.kind == "plain":
        sequences = ingest.window(ingest.read_plain_records(path), args.window)
    else:
        if args.labels:
            _require_file(args.labels)
        records = ev.load_loghub_sample(path, args.kind, label_path=args.labels)
        sequences = ev.sequences_from_records(records, args.kind, window_size=args.window)
    ingest.write_jsonl(sequences, args.out)
    print(f"wrote {len(sequences)} sequences to {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = ev.SyntheticSpec(
        n_sequences=args.n,
        anomaly_rate=args.anomaly_rate,
        noise_rate=args.noise,
        seed=args.seed,
    )
    sequences = ev.generate_synthetic(spec)
    ingest.write_jsonl(sequences, args.out)
    print(f"wrote {len(sequences)} synthetic sequences to {args.out}")
    print(f"anomaly seed candidates: {','.join(spec.anomaly_vocab[:4])}")
    return EXIT_OK


def cmd_train(args) -> int:
    seq_path = _require_file(args.sequences)
    config = PipelineConfig.from_ini(_require_file(args.config)) if args.config else PipelineConfig()
    overrides = {}
    if args.mode:
        overrides["annotator_mode"] = args.mode
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.seed_keywords:
        overrides["seed_keywords"] = [w.strip() for w in args.seed_keywords.split(",") if w.strip()]
        overrides["init_mode"] = "seeded"
    if args.init_mode:
        overrides["init_mode"] = args.init_mode
    if overrides:
        config = replace(config, **overrides)
    corpus = ingest.read_jsonl(seq_path)
    result = run_pipeline(corpus, config, out_dir=args.out_dir)
    last = result.records[-1]
    print(
        f"finished after {len(result.records)} iteration(s); "
        f"gamma={last.gamma:.4f} converged={result.converged}"
    )
    print(f"manifest: {Path(args.out_dir) / 'manifest.json'}")
    return EXIT_OK


def cmd_detect(args) -> int:
    seq_path = _require_file(args.sequences)
    model_dir = Path(args.model_dir)
    checkpoint = model_dir / "classifier.npz"
    if not checkpoint.is_file():
        raise FileNotFoundError(str(checkpoint))
    try:
        model = clf.ClassifierModel.load(checkpoint)
    except clf.ClassifierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VOCAB_MISMATCH
    manifest_path = model_dir.parent / "manifest.json"
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("classifier_vocab_hash") not in (None, model.vocab_hash):
            print("error: model vocabulary hash does not match run manifest", file=sys.stderr)
            return EXIT_VOCAB_MISMATCH
    out = Path(args.out)
    # written beside --out and moved over it only once every block is written,
    # so a bad input line leaves an existing --out as it was
    partial = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    sequences = ingest.iter_jsonl(seq_path)
    written = 0
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            while block := list(islice(sequences, DETECT_BLOCK)):
                fh.writelines(clf.prediction_lines(clf.predict(model, block)))
                written += len(block)
        os.replace(partial, out)
    finally:
        partial.unlink(missing_ok=True)
    print(f"wrote {written} predictions to {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(str(manifest_path))
    manifest = json.loads(manifest_path.read_text())

    print("keyword evolution (top anomaly keywords per iteration)")
    initial = run_dir / "keywords_000.json"
    rows = []
    if initial.is_file():
        rows.append((0, KeywordSet.from_json(initial.read_text())))
    for entry in manifest["iterations"]:
        ks = KeywordSet.from_json((run_dir / entry["keywords_path"]).read_text())
        rows.append((entry["iteration"], ks))
    for iteration, ks in rows:
        top = ", ".join(w for w, _ in ks.anomaly[: args.top])
        print(f"  iteration {iteration}: {top}")

    print("keyword drift per iteration")
    gamma_rows = [(e["iteration"], e["gamma"]) for e in manifest["iterations"]]
    for iteration, gamma in gamma_rows:
        print(f"  iteration {iteration}: gamma={gamma:.4f}")
    csv_path = Path(args.out) if args.out else run_dir / "gamma.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "gamma"])
        writer.writerows(gamma_rows)
    print(f"gamma series: {csv_path}")
    if manifest.get("stop_reason"):
        print(f"stopped early: {manifest['stop_reason']}")
    return EXIT_OK


def cmd_eval(args) -> int:
    pred_path = _require_file(args.predictions)
    gold_path = _require_file(args.gold)
    predictions = {}
    with open(pred_path) as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                predictions[obj["id"]] = int(obj["label"])
    gold = {}
    for seq in ingest.read_jsonl(gold_path):
        if seq.gold_label is not None:
            gold[seq.id] = seq.gold_label
    predictions = {sid: lbl for sid, lbl in predictions.items() if sid in gold}
    metrics = ev.score(predictions, gold)
    payload = metrics.to_json()
    if args.out:
        Path(args.out).write_text(payload + "\n")
    print(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loggad")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a raw log file into sequence JSONL")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", required=True, choices=list(ev.DATASET_KINDS) + ["plain"])
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=20)
    p.add_argument("--labels", help="optional label file (per-line or per-block)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--anomaly-rate", type=float, default=0.1)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run the iterative training pipeline")
    p.add_argument("--sequences", required=True)
    p.add_argument("--config", help="INI config file; omit for defaults")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mode", choices=["full", "no_selfsup", "counting"])
    p.add_argument("--seed", type=int)
    p.add_argument("--seed-keywords", help="comma-separated anomaly seed words")
    p.add_argument("--init-mode", choices=["seeded", "random"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="predict with a trained model")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--sequences", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("report", help="keyword evolution and drift report for a run")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--top", type=int, default=12)
    p.add_argument("--out", help="gamma CSV path (default: run_dir/gamma.csv)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True, help="sequence JSONL with gold_label")
    p.add_argument("--out", help="metrics JSON path")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (PipelineError, ev.EvalError, ingest.IngestError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
