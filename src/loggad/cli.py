"""Command-line entry points.

Commands: ingest, synth, train, detect, report, eval. All I/O goes
through files; every command is deterministic given its inputs and
--seed. Exit codes: 0 success, 1 generic error, 2 missing input file,
3 model/vocabulary mismatch.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections import deque
from contextlib import closing
from dataclasses import replace
from functools import cache, partial
from itertools import chain, islice
from pathlib import Path
from typing import Iterator

from loggad import classifier as clf
from loggad import evaluation as ev
from loggad import ingest
from loggad.pipeline import LOSS_PHASES, PipelineConfig, PipelineError, run_pipeline, word_list

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_INPUT = 2
EXIT_VOCAB_MISMATCH = 3

POOL_MIN_BLOCKS = 3  # below this many blocks, forking the pool costs what it saves


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _is_curve(value) -> bool:
    """A loss phase as manifest.json holds it: null, or numeric first, min and last."""
    return value is None or isinstance(value, dict) and all(
        _is_number(value.get(key)) for key in ("first", "min", "last")
    )


# what `report` reads of each manifest.json iteration entry, and what it must hold
REPORT_ENTRY = {
    "iteration": ("an int", lambda v: type(v) is int),
    "gamma": ("a number", _is_number),
    "keywords_path": ("a str", lambda v: isinstance(v, str)),
    "loss": ("an object", lambda v: isinstance(v, dict)),
    "flagged": ("an int", lambda v: type(v) is int),
    # iteration 1's seed coverage divides by the sum, so it must be above 0
    "pseudo_counts": (
        "an object of int with a positive sum",
        lambda v: isinstance(v, dict) and all(type(n) is int for n in v.values())
        and sum(v.values()) > 0,
    ),
    "keyword_warnings": (
        "a list of str", lambda v: isinstance(v, list) and all(isinstance(w, str) for w in v)
    ),
}


def _entry_problem(entry: dict) -> str | None:
    """The first value of a manifest.json iteration entry that `report` cannot print."""
    for key, (what, ok) in REPORT_ENTRY.items():
        if not ok(entry[key]):
            return f"{key!r} is not {what}"
    for phase in LOSS_PHASES:
        if phase not in entry["loss"] or not _is_curve(entry["loss"][phase]):
            return f"'loss.{phase}' is not null or an object of numeric first, min and last"
    return None


def _require_file(path: str | Path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(path)
    return p


def _run_json(path: Path, **types: type) -> dict:
    """``ingest.json_object`` of a UTF-8 run-directory file; anything else
    raises ValueError (exit 1) naming the file."""
    try:
        return ingest.json_object(_require_file(path).read_text(encoding="utf-8"), **types)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _output_file(path: str) -> Path:
    """An output file path, checked before any work: a path that cannot be
    written fails at once with exit 1, not as a missing input."""
    p = Path(path)
    if p.is_dir():
        raise ValueError(f"output path is a directory: {path}")
    if not p.parent.is_dir():
        raise ValueError(f"output path is in no existing directory: {path}")
    return p


def cmd_ingest(args) -> int:
    path = _require_file(args.input)
    if args.labels:
        _require_file(args.labels)
    out = _output_file(args.out)
    records = ev.load_loghub_sample(path, args.kind, label_path=args.labels)
    if args.kind == "hdfs":
        sequences, unkeyed = ingest.group_by_key(records, ev.HDFS_BLOCK_PATTERN)
        skipped = f"{len(unkeyed)} line(s) with no blk_ block id" if unkeyed else ""
    else:
        sequences = ev.sequences_from_records(records, args.kind, window_size=args.window)
        n_blank = -(-len(records) // args.window) - len(sequences)
        skipped = f"{n_blank} window(s) whose lines normalize to no token" if n_blank else ""
    ingest.write_jsonl(sequences, out)
    print(f"wrote {len(sequences)} sequences to {args.out}")
    if skipped:
        print(f"skipped {skipped}")
    return EXIT_OK


def cmd_synth(args) -> int:
    out = _output_file(args.out)
    spec = ev.SyntheticSpec(
        n_sequences=args.n,
        anomaly_rate=args.anomaly_rate,
        noise_rate=args.noise,
        seed=args.seed,
    )
    sequences = ev.generate_synthetic(spec)
    ingest.write_jsonl(sequences, out)
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
        overrides["seed_keywords"] = word_list(args.seed_keywords)
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
    out = _output_file(args.out)
    model_dir = Path(args.model_dir)
    checkpoint = _require_file(model_dir / "classifier.npz")
    try:
        model = clf.ClassifierModel.load(checkpoint)
    except clf.ClassifierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VOCAB_MISMATCH
    manifest_path = model_dir.parent / "manifest.json"
    if manifest_path.is_file():
        manifest = _run_json(manifest_path, classifier_vocab_hash=str)
        if manifest["classifier_vocab_hash"] != model.vocab_hash:
            print("error: model vocabulary hash does not match run manifest", file=sys.stderr)
            return EXIT_VOCAB_MISMATCH
    # written beside --out and moved over it only once every block is written,
    # so a bad input line leaves an existing --out as it was
    partial_out = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    blocks = ingest.raw_blocks(seq_path)  # ingest.BLOCK_LINES lines parsed and scored at a time
    written = 0
    try:
        with open(partial_out, "w", encoding="utf-8") as fh, closing(
            _scored(partial(_score_block, model, seq_path), blocks)
        ) as scored:
            for count, text in scored:
                fh.write(text)
                written += count
        os.replace(partial_out, out)
    finally:
        partial_out.unlink(missing_ok=True)
    print(f"wrote {written} predictions to {args.out}")
    return EXIT_OK


def _score_block(model, path, block: tuple[int, list[bytes]]) -> tuple[int, str]:
    """Parse, predict and format one ``ingest.raw_blocks`` block: the
    number of its sequences and their prediction lines."""
    pairs = ingest.parse_block(path, *block, ingest.sequence_from_json, ingest.IngestError)
    lines = clf.prediction_lines(clf.predict(model, [seq for _, seq in pairs]))
    return len(lines), "".join(lines)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # an OS that does not say which CPUs a process may use
        return 1


def _scored(score, blocks: Iterator) -> Iterator:
    """Yield ``score(block)`` for each block, in input order.

    An input of at least ``POOL_MIN_BLOCKS`` blocks is scored by a pool of
    forked worker processes, one per CPU, which inherit ``score`` (and the
    model in it) instead of unpickling it; at most workers + 1 blocks are
    in flight, so memory does not grow with the input. Fewer blocks, or one
    CPU, scores inline. Closing the generator, or an error in a block,
    shuts the pool down with the pending blocks cancelled.
    """
    head = list(islice(blocks, POOL_MIN_BLOCKS))
    workers = _cpus() if len(head) == POOL_MIN_BLOCKS else 1
    # chain keeps its arguments to the end: given the list, it would hold
    # the head's blocks until the last block is scored
    blocks = chain(iter(head), blocks)
    del head
    if workers == 1:
        yield from map(score, blocks)
        return
    # imported here, not with the CLI: they add 2 MiB to any process that imports them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(score,),
    )
    try:
        pending = deque()
        for block in blocks:
            if len(pending) > workers:
                yield pending.popleft().result()
            pending.append(pool.submit(_score_in_worker, block))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


_worker_score = None  # a detect worker's ``score``, set as the worker starts


def _start_worker(score) -> None:
    global _worker_score
    _worker_score = score


def _score_in_worker(block):
    return _worker_score(block)


def _echo(line: str) -> None:
    """print(), backslash-escaping what stdout's encoding (an ASCII locale's, say) cannot hold."""
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    print(line.encode(encoding, "backslashreplace").decode(encoding))


def cmd_report(args) -> int:
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    run_dir = Path(args.run_dir)
    manifest_path = run_dir / "manifest.json"
    manifest = _run_json(manifest_path, iterations=list)
    iterations = manifest["iterations"]
    if not all(isinstance(e, dict) and REPORT_ENTRY.keys() <= e.keys() for e in iterations):
        raise ValueError(f"{manifest_path}: every 'iterations' entry must be an object "
                         f"with the keys {', '.join(sorted(REPORT_ENTRY))}")
    for i, entry in enumerate(iterations):
        if problem := _entry_problem(entry):
            raise ValueError(f"{manifest_path}: iterations[{i}]: {problem}")
    csv_path = _output_file(args.out) if args.out else run_dir / "gamma.csv"

    _echo("keyword evolution (top anomaly keywords per iteration)")
    files = [(0, "keywords_000.json")] + [(e["iteration"], e["keywords_path"]) for e in iterations]
    for iteration, name in files:
        anomaly = _run_json(run_dir / name, anomaly=list)["anomaly"]
        if not all(isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
                   and _is_number(pair[1]) for pair in anomaly):
            raise ValueError(f"{run_dir / name}: 'anomaly' holds an entry that is not "
                             "a [str, number] pair")
        top = ", ".join(w for w, _ in anomaly[: args.top])
        _echo(f"  iteration {iteration}: {top}")

    _echo("keyword drift per iteration")
    gamma_rows = [(e["iteration"], e["gamma"]) for e in iterations]
    for iteration, gamma in gamma_rows:
        _echo(f"  iteration {iteration}: gamma={gamma:.4f}")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "gamma"])
        writer.writerows(gamma_rows)
    _echo(f"gamma series: {csv_path}")
    _echo("loss per iteration (first / min / last; - for a phase that took no step)")
    for entry in iterations:
        curves = []
        for phase in LOSS_PHASES:
            c = entry["loss"][phase]
            summary = "-" if c is None else f"{c['first']:.4g} / {c['min']:.4g} / {c['last']:.4g}"
            curves.append(f"{phase} {summary}")
        _echo(f"  iteration {entry['iteration']}: " + "; ".join(curves))
    _echo("fallback pseudo-labels and keyword warnings per iteration")
    for entry in iterations:
        warnings = "; ".join(entry["keyword_warnings"]) or "none"
        _echo(f"  iteration {entry['iteration']}: flagged={entry['flagged']}; "
              f"keyword warnings: {warnings}")
    if iterations:
        # iteration 1 votes by the seed split, so it flags exactly the sequences with no seed word
        first = iterations[0]
        total = sum(first["pseudo_counts"].values())
        _echo(f"seed coverage: {1 - first['flagged'] / total:.1%} of iteration "
              f"{first['iteration']}'s {total} sequences hold a seed word")
    if manifest.get("stop_reason"):
        _echo(f"stopped early: {manifest['stop_reason']}")
    return EXIT_OK


def cmd_eval(args) -> int:
    pred_path = _require_file(args.predictions)
    gold_path = _require_file(args.gold)
    out = _output_file(args.out) if args.out else None
    predictions = ev.read_predictions(pred_path)
    gold = {s.id: s.gold_label for s in ingest.read_jsonl(gold_path) if s.gold_label is not None}
    predictions = {sid: lbl for sid, lbl in predictions.items() if sid in gold}
    metrics = ev.score(predictions, gold)
    payload = metrics.to_json()
    if out:
        out.write_text(payload + "\n")
    print(payload)
    return EXIT_OK


@cache  # built on main's first call and reused: argparse keeps no state between parses
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loggad")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a raw log file into sequence JSONL")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", required=True, choices=ev.DATASET_KINDS)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=20)
    p.add_argument(
        "--labels",
        help="optional label file: per block for hdfs, per line (from 0) for "
        "plain/hadoop/openstack; bgl/thunderbird carry inline tags",
    )

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--anomaly-rate", type=float, default=0.1)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=2)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="run the iterative training pipeline")
    p.add_argument("--sequences", required=True)
    p.add_argument("--config", help="INI config file; omit for defaults")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mode", choices=["full", "no_selfsup", "counting"])
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--seed-keywords",
        help="comma-separated anomaly seed words; required unless the config sets seed_keywords",
    )

    p = sub.add_parser("detect", help="predict with a trained model")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--sequences", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="keyword evolution and drift report for a run")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--top", type=int, default=12)
    p.add_argument("--out", help="gamma CSV path (default: run_dir/gamma.csv)")

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True, help="sequence JSONL with gold_label")
    p.add_argument("--out", help="metrics JSON path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up by name on every call, so a cmd_* patched after the first call is the one that runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
