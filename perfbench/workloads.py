"""The benchmark's workloads: inputs from a seed, a timed body, output checks.

Every workload runs in one process as a single closed-loop caller: each
call starts when the previous one returned. ``run_workload`` measures the
end-to-end metrics untraced; ``trace_workload`` repeats the work with the
span tracer installed and derives the per-layer metrics from the spans.

Each timed phase makes a fixed number of calls, set by --seconds and
never by the speed it measures, and each metric has one estimator. The
shared two-core host this was tuned on runs at speeds up to about 1.6x
apart for seconds to minutes at a time; process CPU time slows with wall
time, so the cause is contention for the cores, not preemption. The
slower speed is the common one: most runs spend some time at it, while
many never see the faster one. So timings are read on the slow side of
their samples, where the run-to-run spread is smallest; a median or the
fastest sample flips between the two speeds from run to run. Rounds
spread every metric's samples over the whole run. Every sample is kept
in the record.
"""

from __future__ import annotations

import io
import json
import shutil
import statistics
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from loggad import classifier as clf
from loggad import cli
from loggad import evaluation as ev
from loggad import ingest, pipeline
from loggad.pipeline import PipelineConfig, PipelineError, PipelineResult, strip_gold

import bgl_stream
import tracer as tr

SEED_KEYWORDS = ["fault0_trap", "fault1_trap"]
BATCH = 50
BATCH_CALLS = 1_000
REFERENCE_SECONDS = 8.0  # the --seconds that the call counts in Sizes are set for
LAYERS = (
    "ingest", "evaluation", "keywords", "graph", "walks",
    "annotator", "classifier", "nn", "pipeline", "cli",
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes, set-up repeats, and the annotator epochs of full mode.

    The paper's run (2,000 sequences, 30 + 30 annotator epochs) takes
    about 100 s on two cores, more than the time budget allows. Three
    pre-training epochs keep walk-subgraph adjacency second only to the
    annotator's per-example gradients in the profile, as in the paper's
    run; ten fine-tuning epochs keep held-out precision from collapsing on
    some corpora, as it does with fewer. The other settings stay at their
    defaults. Held-out quality varies with the corpus far more than with
    the held-out size, so synth_full trains on several small corpora.
    """

    synth_corpora: int = 6
    synth_train: int = 400
    synth_heldout: int = 100
    detect_train: int = 1_600
    detect_sequences: int = 50_000
    bgl_lines: int = 50_000
    detect_setups: int = 3
    annotator_epochs: int = 3
    finetune_epochs: int = 10
    # calls a run at --seconds 8, shared by the rounds: phase (a) on
    # synth_full's small held-out splits and on detect_50k, then phase (b)
    synth_cli_calls: int = 280
    detect_cli_calls: int = 6
    synth_chunks: int = 7  # of BATCH_CALLS predict calls
    detect_chunks: int = 6


FULL = Sizes()
TINY = Sizes(  # the self-test's size
    synth_corpora=2,
    synth_train=160,
    synth_heldout=40,
    detect_train=160,
    detect_sequences=200,
    bgl_lines=2_000,
    detect_setups=2,
    finetune_epochs=1,
    synth_cli_calls=4,
    detect_cli_calls=4,
    synth_chunks=2,
    detect_chunks=2,
)


@dataclass
class Checks:
    """Counts operations and the ones whose output failed a check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


# -- output checks ----------------------------------------------------------


def check_predictions(predictions: list[tuple[str, int, float]], ids: list[str]) -> list[str]:
    """Every id predicted exactly once, labels in {0,1}, confidences in [0.5,1]."""
    problems = []
    seen = [sid for sid, _, _ in predictions]
    if len(set(seen)) != len(seen) or set(seen) != set(ids):
        problems.append(f"{len(seen)} predictions do not cover {len(ids)} ids exactly once")
    bad_label = sum(1 for _, label, _ in predictions if label not in (0, 1))
    bad_conf = sum(1 for _, _, conf in predictions if not 0.5 <= conf <= 1.0)
    if bad_label:
        problems.append(f"{bad_label} labels outside {{0,1}}")
    if bad_conf:
        problems.append(f"{bad_conf} confidences outside [0.5, 1]")
    return problems


def heldout_score(
    predictions: list[tuple[str, int, float]], gold: dict[str, int]
) -> tuple[Optional[ev.Metrics], list[str]]:
    """Anomaly-positive P/R/F1 on a held-out set, which must beat always-Normal."""
    problems = check_predictions(predictions, list(gold))
    if problems:
        return None, problems
    m = ev.score({sid: label for sid, label, _ in predictions}, gold)
    baseline = ev.score({sid: 0 for sid in gold}, gold)
    if not m.f1 > baseline.f1:
        problems.append(f"held-out F1 {m.f1:.4f} not above always-Normal {baseline.f1:.4f}")
    return m, problems


def pooled(scores: list[ev.Metrics]) -> tuple[float, float, float]:
    """Precision, recall and F1 over the summed confusion counts."""
    tp = sum(m.tp for m in scores)
    fp = sum(m.fp for m in scores)
    fn = sum(m.fn for m in scores)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def read_cli_predictions(path: Path) -> list[tuple[str, int, float]]:
    with open(path, encoding="utf-8") as fh:
        return [(o["id"], o["label"], o["confidence"]) for o in map(json.loads, fh)]


def cli_matches_predict(
    cli_out: list[tuple[str, int, float]], in_process: list[tuple[str, int, float]]
) -> list[str]:
    """The CLI writes confidences rounded to 12 places; compare on that basis."""
    expected = [(sid, label, round(conf, 12)) for sid, label, conf in in_process]
    if cli_out == expected:
        return []
    differ = sum(1 for a, b in zip(cli_out, expected) if a != b)
    differ += abs(len(cli_out) - len(expected))
    return [f"CLI detect differs from classifier.predict on {differ} sequences"]


# -- inputs -----------------------------------------------------------------


def timed(fn: Callable, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


@dataclass
class Prepared:
    """One corpus split for a workload, plus the model when set-up trains one."""

    train: list  # sequences handed to run_pipeline, gold stripped
    gold: dict[str, int]  # held-out gold labels
    heldout: list  # held-out sequences, gold stripped
    heldout_path: Path  # the same sequences as JSONL
    run_dir: Optional[Path] = None
    result: Optional[PipelineResult] = None
    train_seconds: Optional[float] = None


def _split(corpus, n_train: int, path: Path) -> Prepared:
    """Chronological split: the first n_train sequences train, the rest are held out."""
    train, test = corpus[:n_train], corpus[n_train:]
    heldout = strip_gold(test)
    ingest.write_jsonl(heldout, path)
    return Prepared(strip_gold(train), {s.id: s.gold_label for s in test}, heldout, path)


def prepare_synth(seed: int, work: Path, sizes: Sizes, index: int = 0) -> Prepared:
    """Corpus ``index`` of seed S, generated with seed S*K+index, K corpora a run."""
    spec = ev.SyntheticSpec(
        n_sequences=sizes.synth_train + sizes.synth_heldout,
        noise_rate=0.1,
        seed=seed * sizes.synth_corpora + index,
    )
    return _split(ev.generate_synthetic(spec), sizes.synth_train, work / "heldout.jsonl")


def prepare_detect(seed: int, work: Path, sizes: Sizes, index: int = 0) -> Prepared:
    """Set-up ``index`` of seed S uses generator seed S*K+index, K set-ups a run."""
    spec = ev.SyntheticSpec(
        n_sequences=sizes.detect_train + sizes.detect_sequences,
        seed=seed * sizes.detect_setups + index,
    )
    prepared = _split(ev.generate_synthetic(spec), sizes.detect_train, work / "heldout.jsonl")
    prepared.run_dir = work / "setup_run"
    prepared.train_seconds, prepared.result = train_once(
        prepared, workload_config("detect_50k", sizes), prepared.run_dir
    )
    return prepared


def workload_config(name: str, sizes: Sizes) -> PipelineConfig:
    if name == "detect_50k":
        return PipelineConfig(annotator_mode="counting", seed_keywords=SEED_KEYWORDS)
    return PipelineConfig(
        annotator_mode="full",
        seed_keywords=SEED_KEYWORDS,
        annotator_epochs=sizes.annotator_epochs,
        finetune_epochs=sizes.finetune_epochs,
    )


PREPARE = {"synth_full": prepare_synth, "detect_50k": prepare_detect}


def train_once(prepared: Prepared, config: PipelineConfig, run_dir: Path):
    """run_pipeline with an output directory, as ``loggad train`` runs it."""
    shutil.rmtree(run_dir, ignore_errors=True)
    return timed(pipeline.run_pipeline, prepared.train, config, out_dir=run_dir)


def fingerprint(run_dir: Path, result: PipelineResult) -> tuple:
    """What a repeat of one seed's training must reproduce exactly."""
    model = (run_dir / "model" / "classifier.npz").read_bytes()
    return model, len(result.records), tuple(result.predictions)


def same(repeats: list[tuple], what: str) -> list[str]:
    """Repeats of one seed must agree exactly; a difference is a failure."""
    return [] if len(set(repeats)) == 1 else [f"{what}: repeats of one seed disagree"]


# -- detect phases ----------------------------------------------------------


def cli_detect(run_dir: Path, prepared: Prepared, out: Path) -> float:
    argv = [
        "detect", "--model-dir", str(run_dir / "model"),
        "--sequences", str(prepared.heldout_path), "--out", str(out),
    ]
    with redirect_stdout(io.StringIO()):  # the CLI reports each file it writes
        seconds, code = timed(cli.main, argv)
    if code != 0:
        raise RuntimeError(f"loggad detect exited with code {code}")
    return seconds


def batch_latencies(model, batches: list, calls: int) -> tuple[list[float], list]:
    """``calls`` classifier.predict calls in a closed loop, in milliseconds."""
    latencies = []
    outputs = []
    for k in range(calls):
        batch = batches[k % len(batches)]
        start = time.perf_counter()
        out = clf.predict(model, batch)
        latencies.append((time.perf_counter() - start) * 1e3)
        outputs.append(out)
    return latencies, outputs


@dataclass
class DetectSamples:
    """Phase (a) seconds and sequences per ``loggad detect`` call; phase (b)
    milliseconds per predict call, and the p50 and p99 of each chunk."""

    cli_seconds: list[float] = field(default_factory=list)
    cli_sequences: list[int] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    chunk_p50_ms: list[float] = field(default_factory=list)
    chunk_p99_ms: list[float] = field(default_factory=list)


def detect_round(
    prepared: Prepared,
    run_dir: Path,
    work: Path,
    cli_calls: int,
    chunks: int,
    d: DetectSamples,
    checks: Checks,
) -> list[tuple[str, int, float]]:
    """Both detect phases on one model, a fixed number of calls each.

    Phase (a) runs ``loggad detect`` file to file ``cli_calls`` times;
    repeats must write the same bytes. Phase (b) then runs
    ``chunks`` chunks of BATCH_CALLS classifier.predict calls (more if the
    held-out set has more batches) on BATCH-sequence batches of the
    held-out set, cycling through them. Returns the CLI predictions,
    checked against the held-out ids and against in-process predict.
    """
    out = work / "detect_out.jsonl"
    for call in range(cli_calls):
        d.cli_seconds.append(cli_detect(run_dir, prepared, out))
        d.cli_sequences.append(len(prepared.gold))
        data = out.read_bytes()
        if not call:
            first = data
            cli_out = read_cli_predictions(out)
            checks.record(check_predictions(cli_out, list(prepared.gold)))
        else:
            checks.record([] if data == first else ["CLI detect output changed between runs"])

    model = clf.ClassifierModel.load(run_dir / "model" / "classifier.npz")
    heldout = prepared.heldout
    batches = [heldout[i : i + BATCH] for i in range(0, len(heldout), BATCH)]
    for chunk in range(chunks):
        latencies, outputs = batch_latencies(model, batches, max(BATCH_CALLS, len(batches)))
        if not chunk:
            # the first len(batches) calls cover every held-out sequence once
            in_process = [p for batch_out in outputs[: len(batches)] for p in batch_out]
            checks.record(cli_matches_predict(cli_out, in_process))
        d.latencies_ms.extend(latencies)
        d.chunk_p50_ms.append(float(np.percentile(latencies, 50)))
        d.chunk_p99_ms.append(float(np.percentile(latencies, 99)))
    return cli_out


# -- untraced run -----------------------------------------------------------


def per_round(count: int, seconds: float, rounds: int) -> int:
    """A fixed share of ``count`` calls per round, scaled from the 8-second run."""
    return max(1, round(count * seconds / REFERENCE_SECONDS / rounds))


def run_workload(
    name: str, seed: int, seconds: float, work: Path, sizes: Sizes = FULL
) -> tuple[dict, dict, Checks]:
    """Rounds of set-up, training and detection.

    Each round sets up, so set-ups spread over the whole run and a slow
    spell of the host hits some rounds of each metric rather than all of
    one. The number of calls in each detect phase is fixed by --seconds
    and never by the speed measured.

    synth_full: round r sets up corpus r and trains it in full mode (a
    PipelineError counts as a failed operation), then detects on its
    held-out split. A last round sets up and trains the first corpus
    again, and must reproduce its model and detect output exactly.
    Held-out P/R/F1 pool the confusion counts of the corpora: each corpus
    holds out only about ten anomalies.
    detect_50k: sizes.detect_setups rounds, each on its own corpus. Set-up
    trains the counting-mode model, which gives the round's train_s; the
    first round trains it once more and must reproduce it exactly. Each
    round then detects on the 50,000 held-out sequences.
    Held-out P/R/F1 are the medians over the corpora, so that one corpus on
    which the counting-mode model collapses does not decide the run; each
    corpus's scores are kept in the samples.

    One estimator per timing (see the module docstring): train_s is the
    slowest training, detect_seq_per_s the lower quartile of the ``loggad
    detect`` calls' sequences per second, and detect_batch_ms_p50 the
    highest p50 of the chunks of BATCH_CALLS predict calls. Stalls of 10
    to 25 ms hit a few chunks of most runs and would decide any p99 they
    fall in, so detect_batch_ms_p99 is the lowest chunk p99. setup_s is
    the median set-up.

    Returns (metric -> (value, unit), raw samples, checks).
    """
    checks = Checks()
    synth = name == "synth_full"
    config = workload_config(name, sizes)
    rounds = sizes.synth_corpora + 1 if synth else sizes.detect_setups
    cli_calls = per_round(sizes.synth_cli_calls if synth else sizes.detect_cli_calls, seconds, rounds)
    chunks = per_round(sizes.synth_chunks if synth else sizes.detect_chunks, seconds, rounds)
    setup_seconds, train_seconds, iterations, scores, repeats = [], [], [], [], []
    d = DetectSamples()
    for r in range(rounds):
        w = work / f"round_{r}"
        w.mkdir()
        if synth:
            s, prepared = timed(prepare_synth, seed, w, sizes, r % sizes.synth_corpora)
            setup_seconds.append(s)
            run_dir = w / "run"
            try:
                t, result = train_once(prepared, config, run_dir)
            except PipelineError as exc:
                checks.record([f"round {r}: {exc}"])
                continue
        else:
            s, prepared = timed(prepare_detect, seed, w, sizes, r)
            setup_seconds.append(s)
            run_dir, result, t = prepared.run_dir, prepared.result, prepared.train_seconds
            if not r:  # trained again, the model must reproduce exactly
                t_again, again = train_once(prepared, config, w / "again")
                train_seconds.append(t_again)
                checks.record(same(
                    [fingerprint(run_dir, result), fingerprint(w / "again", again)], "counting-mode model"
                ))
        checks.record([])
        train_seconds.append(t)
        iterations.append(len(result.records))
        cli_out = detect_round(prepared, run_dir, w, cli_calls, chunks, d, checks)
        if synth and r % sizes.synth_corpora == 0:
            repeats.append((fingerprint(run_dir, result), tuple(cli_out)))
            if r:
                continue  # the repeat round: compared, not scored twice
        m, problems = heldout_score(cli_out, prepared.gold)
        checks.record(problems)
        if m is not None:
            scores.append(m)
    if not scores:
        raise RuntimeError(f"{name}: every round failed: {checks.problems}")
    if synth:
        checks.record(same(repeats, "models and detect output"))
        precision, recall, f1 = pooled(scores)
    else:
        precision, recall, f1 = (
            statistics.median(getattr(m, k) for m in scores) for k in ("precision", "recall", "f1")
        )
    metrics = {
        "train_s": (max(train_seconds), "s"),
        "heldout_f1": (f1, "ratio"),
        "heldout_precision": (precision, "ratio"),
        "heldout_recall": (recall, "ratio"),
        "detect_seq_per_s": (
            statistics.quantiles([n / t for n, t in zip(d.cli_sequences, d.cli_seconds)], n=4)[0],
            "seq/s",
        ),
        "detect_batch_ms_p50": (max(d.chunk_p50_ms), "ms"),
        "detect_batch_ms_p99": (min(d.chunk_p99_ms), "ms"),
        "setup_s": (statistics.median(setup_seconds), "s"),
    }
    samples = {
        "train_s": train_seconds,
        "setup_s": setup_seconds,
        "cli_seconds": d.cli_seconds,
        "cli_sequences": d.cli_sequences,
        "latencies_ms": d.latencies_ms,
        "chunk_p50_ms": d.chunk_p50_ms,
        "chunk_p99_ms": d.chunk_p99_ms,
        "pipeline_iterations": iterations,
        "heldout": [
            {"f1": m.f1, "precision": m.precision, "recall": m.recall, "tp": m.tp, "fp": m.fp,
             "fn": m.fn, "tn": m.tn}
            for m in scores
        ],
    }
    return metrics, samples, checks


# -- traced run -------------------------------------------------------------


def _observe(t: tr.Tracer) -> None:
    t.observe("graph.build", lambda g: g)
    t.observe("walks.sample", lambda walk: walk.subgraph.n_vertices)
    t.observe("annotator.pretrain", len)
    t.observe("annotator.finetune", len)
    t.observe("classifier.train", len)
    t.observe("classifier.predict", len)
    t.observe("ingest.window", lambda seqs: sum(len(s.tokens) for s in seqs))
    t.observe("evaluation.load_loghub_sample", len)


def ingest_bgl(seed: int, work: Path, sizes: Sizes) -> list:
    """A BGL-format stream from the seed, loaded and cut into 50-line windows."""
    path = work / "bgl.log"
    path.write_text(bgl_stream.bgl_stream(seed, sizes.bgl_lines))
    records = ev.load_loghub_sample(path, "bgl")
    return ev.sequences_from_records(records, "bgl", window_size=50)


def trace_workload(
    name: str, seed: int, work: Path, sizes: Sizes = FULL
) -> tuple[dict, Checks, tr.Tracer]:
    """One untraced and one traced pass over set-up and body.

    The body is run_pipeline on the first corpus for synth_full, so its
    profile is the training's, and one ``loggad detect`` for detect_50k,
    whose traced pass then adds one detect round. Tracing must change no
    result, so the two passes' held-out predictions and iteration counts
    are compared; for synth_full that is also the full-mode determinism
    check. The traced minus the untraced body time is the tracing overhead.

    synth_full's traced pass ends with the ingest path of a BGL-format
    stream (load_loghub_sample, then 50-line windows), which gives the
    ingest metrics; training on BGL windows does not fit the time budget.
    """
    checks = Checks()
    config = workload_config(name, sizes)
    outputs, body_seconds = [], []
    t = tr.Tracer(run_id=f"{name}-seed{seed}")
    _observe(t)
    for traced in (False, True):
        w = work / ("traced" if traced else "untraced")
        w.mkdir()
        if traced:
            t.install()
        with t.span("bench.setup") if traced else nullcontext():
            first = PREPARE[name](seed, w, sizes)
        with t.span("bench.body") if traced else nullcontext():
            if name == "synth_full":
                run_dir = w / "run"
                s, result = train_once(first, config, run_dir)
                predictions = clf.predict(result.classifier, first.heldout)
            else:
                run_dir, result = first.run_dir, first.result
                s = cli_detect(run_dir, first, w / "detect_out.jsonl")
                predictions = read_cli_predictions(w / "detect_out.jsonl")
        body_seconds.append(s)
        outputs.append((predictions, len(result.records)))
        checks.record(heldout_score(predictions, first.gold)[1])
        if traced and name == "detect_50k":
            with t.span("bench.detect"):
                detect_round(first, run_dir, w, 2, 1, DetectSamples(), checks)
        if traced and name == "synth_full":
            with t.span("bench.bgl_ingest"):
                windows = ingest_bgl(seed, w, sizes)
            checks.record([] if windows else ["BGL ingest gave no windows"])
        if traced:
            t.uninstall()
    checks.record([] if outputs[0] == outputs[1] else ["tracing changed the held-out predictions"])
    checks.record(tr.check_spans(t.spans))
    return layer_metrics(t, result, body_seconds[1] - body_seconds[0]), checks, t


def layer_metrics(t: tr.Tracer, result: PipelineResult, overhead_s: float) -> dict:
    """Per-layer metrics from the traced pass's spans and its last pipeline result.

    A metric whose hooks are all absent from the program reads NaN.
    """
    summary = tr.summarize(t.spans)
    gone = set(t.absent)
    nan = float("nan")

    def secs(*hooks):
        if all(h in gone for h in hooks):
            return nan
        return sum(summary.get(h, {}).get("seconds", 0.0) for h in hooks)

    def calls(*hooks):
        if all(h in gone for h in hooks):
            return nan
        return sum(summary.get(h, {}).get("calls", 0) for h in hooks)

    def observed(hook):
        return [v for v in t.results.get(hook, []) if v is not None]

    def total(hook):
        return nan if hook in gone else sum(observed(hook))

    def share(hits, n):
        return hits / n if n else 0.0

    last = result.records[-1]
    graphs = observed("graph.build")
    if "graph.build" in gone:
        vertices = edges = nan
    elif graphs:
        g = json.loads(graphs[-1].to_json())
        vertices, edges = len(g["vertices"]), len(g["edges"])
    else:
        vertices = edges = 0
    walk_sizes = observed("walks.sample")
    pseudo = result.pseudo_labels
    predicted = {sid: label for sid, label, _ in result.predictions}
    iteration_spans = [s for s in t.spans if s.name == "pipeline.run_iteration"]
    load_s = secs("evaluation.load_loghub_sample")
    self_by_layer = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for hook, row in summary.items():
        self_by_layer[hook.split(".")[0]] += row["self_seconds"]

    m = {
        "graph.adjacency_s": (secs("graph.adjacency"), "s"),
        "graph.adjacency_calls": (calls("graph.adjacency"), "count"),
        "graph.build_s": (secs("graph.build"), "s"),
        "graph.induce_s": (secs("graph.induce"), "s"),
        "graph.induce_calls": (calls("graph.induce"), "count"),
        "graph.transition_s": (secs("graph.transition"), "s"),
        "graph.vertices": (vertices, "count"),
        "graph.edges": (edges, "count"),
        "annotator.loss_and_grads_s": (secs("annotator.loss_and_grads"), "s"),
        "annotator.loss_and_grads_calls": (calls("annotator.loss_and_grads"), "count"),
        "annotator.pretrain_s": (secs("annotator.pretrain"), "s"),
        "annotator.pretrain_steps": (total("annotator.pretrain"), "count"),
        "annotator.finetune_s": (secs("annotator.finetune"), "s"),
        "annotator.finetune_steps": (total("annotator.finetune"), "count"),
        "annotator.annotate_s": (secs("annotator.annotate", "annotator.vote_annotate"), "s"),
        "annotator.pretrain_loss_last": (last.pretrain_trace[-1] if last.pretrain_trace else 0.0, "nat"),
        "annotator.finetune_loss_last": (last.finetune_trace[-1] if last.finetune_trace else 0.0, "nat"),
        "annotator.flagged_share": (share(sum(p.flagged for p in pseudo), len(pseudo)), "ratio"),
        "classifier.loss_last": (last.classifier_trace[-1] if last.classifier_trace else 0.0, "nat"),
        "classifier.annotator_agreement": (
            share(sum(predicted.get(p.sequence_id) == p.label for p in pseudo), len(pseudo)), "ratio"
        ),
        "pipeline.iterations": (len(result.records), "count"),
        "walks.sample_s": (secs("walks.sample"), "s"),
        "walks.walks": (calls("walks.sample"), "count"),
        "walks.mean_walk_vertices": (
            nan if "walks.sample" in gone else share(sum(walk_sizes), len(walk_sizes)), "count"
        ),
        "walks.fit_length_s": (secs("walks.fit_length"), "s"),
        "nn.grad_buffer_s": (secs("nn.zeros_like_params", "nn.accumulate"), "s"),
        "nn.grad_buffer_calls": (calls("nn.zeros_like_params", "nn.accumulate"), "count"),
        "nn.adam_step_s": (secs("nn.adam_step"), "s"),
        "nn.adam_steps": (calls("nn.adam_step"), "count"),
        "classifier.train_s": (secs("classifier.train"), "s"),
        "classifier.train_steps": (total("classifier.train"), "count"),
        "classifier.loss_and_grads_s": (secs("classifier.loss_and_grads"), "s"),
        "classifier.loss_and_grads_calls": (calls("classifier.loss_and_grads"), "count"),
        "classifier.predict_s": (secs("classifier.predict"), "s"),
        "classifier.predict_calls": (calls("classifier.predict"), "count"),
        "classifier.predicted_seqs": (total("classifier.predict"), "count"),
        "keywords.extract_top_s": (secs("keywords.extract_top"), "s"),
        "keywords.extract_top_calls": (calls("keywords.extract_top"), "count"),
        "keywords.score_s": (secs("keywords.score"), "s"),
        "keywords.score_calls": (calls("keywords.score"), "count"),
        "pipeline.bootstrap_s": (secs("pipeline.bootstrap"), "s"),
        "pipeline.write_artifacts_s": (
            secs("pipeline.write_iteration_artifacts", "pipeline.write_manifest"), "s"
        ),
        "pipeline.last_iteration_s": (
            iteration_spans[-1].end - iteration_spans[-1].start
            if iteration_spans
            else secs("pipeline.run_iteration"),
            "s",
        ),
        "evaluation.load_loghub_sample_s": (load_s, "s"),
        "ingest.window_s": (secs("ingest.window"), "s"),
        "ingest.lines_per_s": (share(total("evaluation.load_loghub_sample"), load_s), "lines/s"),
        "ingest.tokens": (total("ingest.window"), "count"),
        "ingest.read_jsonl_s": (secs("ingest.read_jsonl"), "s"),
        "ingest.write_jsonl_s": (secs("ingest.write_jsonl"), "s"),
        "evaluation.generate_synthetic_s": (secs("evaluation.generate_synthetic"), "s"),
        "cli.detect_s": (secs("cli.detect"), "s"),
        "bench.trace_overhead_s": (overhead_s, "s"),
        "bench.absent_hooks": (len(t.absent), "count"),
        "bench.spans": (len(t.spans), "count"),
    }
    for layer, seconds in self_by_layer.items():
        m[f"self.{layer}_s"] = (seconds, "s")
    return m
