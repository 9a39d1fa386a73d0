"""End-to-end iterative training loop.

Each iteration: build the event graph from the current keywords, train the
subgraph annotator (self-supervised pre-training plus fine-tuning, depending
on mode), pseudo-label every sequence, train the sequence classifier on
those pseudo labels, re-extract keywords from the classifier's predictions,
and measure keyword drift. The loop stops when drift falls below the
threshold or the iteration cap is hit. An iteration after the first whose
classifier predicts a single class ends the run at the previous iteration,
whose results are kept.

Fine-tuning targets are the decisive keyword votes. From the second
iteration on, a sequence whose vote falls below ``finetune_margin`` is
trained toward the previous iteration's classifier label instead of being
dropped; the first iteration has no such labels (the bootstrap split is
only a keyword seed), so there it is dropped.

Gold labels never reach any of this: the corpus is stripped of them at the
entry point, so poisoned gold labels cannot change anything before the
evaluation stage.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from loggad import annotator as ann
from loggad import classifier as clf
from loggad import graph as eg
from loggad import nn, walks
from loggad.ingest import LogSequence
from loggad.keywords import (
    ANOMALY,
    NORMAL,
    ClassifiedCorpus,
    KeywordError,
    KeywordSet,
    drift,
    extract_top,
    load_stopwords,
    rank,
    score,
)


class PipelineError(RuntimeError):
    pass


class SingleClassError(PipelineError):
    """The iteration's classifier predicts one class for the whole corpus,
    so no keywords can be extracted for the other class."""


ANNOTATOR_MODES = ("full", "no_selfsup", "counting")


# PipelineConfig field type -> parser of its INI value
_INI_PARSERS = {
    int: int,
    float: float,
    str: str,
    Optional[str]: str,
    list[str]: lambda raw: [w.strip() for w in raw.split(",") if w.strip()],
}


@dataclass
class PipelineConfig:
    keywords_per_class: int = 100  # Z
    idf_exponent: int = 4  # M
    cooccur_window: int = 10
    gin_layers: int = 3
    gin_hidden: int = 64
    annotator_epochs: int = 30
    annotator_batch: int = 20
    finetune_epochs: int = 30
    finetune_margin: float = 0.2  # votes below this decisiveness are not training targets
    finetune_lr: float = 1e-3
    annotator_lr: float = 1e-4
    classifier_epochs: int = 8
    classifier_batch: int = 5
    classifier_lr: float = 1e-3
    embed_dim: int = 32
    classifier_hidden: int = 32
    drift_threshold: float = 0.1
    max_iterations: int = 10
    seed: int = 7
    annotator_mode: str = "full"
    seed_keywords: list[str] = field(default_factory=list)
    walk_max_length: int = 64
    stopwords_path: Optional[str] = None

    def __post_init__(self):
        if self.annotator_mode not in ANNOTATOR_MODES:
            raise PipelineError(f"annotator_mode must be one of {ANNOTATOR_MODES}")
        for name in (
            "keywords_per_class", "idf_exponent", "cooccur_window", "gin_layers",
            "gin_hidden", "annotator_epochs", "annotator_batch", "finetune_epochs",
            "classifier_epochs", "classifier_batch", "embed_dim", "classifier_hidden",
            "max_iterations", "walk_max_length",
        ):
            if getattr(self, name) < 1:
                raise PipelineError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("annotator_lr", "finetune_lr", "classifier_lr"):
            lr = getattr(self, name)
            if not (math.isfinite(lr) and lr > 0):
                raise PipelineError(f"{name} must be finite and > 0, got {lr}")
        if not 0.0 <= self.finetune_margin < 1.0:
            raise PipelineError(f"finetune_margin must be in [0, 1), got {self.finetune_margin}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        return cls(**data)

    @classmethod
    def from_ini(cls, path) -> "PipelineConfig":
        """Key/value config file with sections; keys match field names."""
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise PipelineError(f"config file not found: {path}")
        flat: dict[str, str] = {}
        for section in parser.sections():
            flat.update(parser[section])
        hints = get_type_hints(cls)
        unknown = set(flat) - set(hints)
        if unknown:
            raise PipelineError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{name: _INI_PARSERS[hints[name]](raw) for name, raw in flat.items()})


@dataclass
class IterationRecord:
    iteration: int
    keywords: KeywordSet
    gamma: float
    pseudo_counts: dict[int, int]
    flagged: int  # pseudo-labels from a fallback path
    pretrain_trace: list[float]
    finetune_trace: list[float]
    classifier_trace: list[float]
    seconds: float


@dataclass
class PipelineResult:
    classifier: clf.ClassifierModel
    records: list[IterationRecord]
    keywords: KeywordSet
    predictions: list[tuple[str, int, float]]
    pseudo_labels: list[ann.PseudoLabel]
    converged: bool
    final_annotator: Optional[ann.AnnotatorModel] = None
    stop_reason: Optional[str] = None  # set when a degenerate iteration ended the run early


def strip_gold(corpus: list[LogSequence]) -> list[LogSequence]:
    """Firewall: training-path code only ever sees label-free sequences."""
    return [LogSequence(id=s.id, tokens=list(s.tokens), gold_label=None) for s in corpus]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def bootstrap(
    corpus: list[LogSequence],
    config: PipelineConfig,
    stopwords: Optional[frozenset[str]] = None,
) -> tuple[KeywordSet, ClassifiedCorpus]:
    """Initial keyword set and initial class split, from the seed keywords.

    The seed keywords define the Anomaly class: sequences containing any
    seed form the initial anomaly split, and the Normal keyword list is
    extracted from the remainder. ``stopwords`` replaces the default
    stopword list when given; ``run_pipeline`` loads it once from
    ``config.stopwords_path``.
    """
    if not corpus:
        raise PipelineError("empty corpus")
    seeds = [w.lower() for w in config.seed_keywords]
    if not seeds:
        raise PipelineError("seed_keywords is empty; the bootstrap needs at least one seed word")
    seed_set = set(seeds)
    classified = [
        (seq, ANOMALY if seed_set.intersection(seq.tokens) else NORMAL) for seq in corpus
    ]
    n_hits = sum(1 for _, lbl in classified if lbl == ANOMALY)
    if n_hits == 0:
        raise PipelineError(f"no sequence contains any seed keyword {seeds}")
    if n_hits == len(corpus):
        raise PipelineError("every sequence contains a seed keyword; cannot split")
    scores = score(classified, config.idf_exponent)
    anomaly_list = sorted(
        ((w, scores[ANOMALY].get(w, (0.0, 0))[0]) for w in seed_set),
        key=lambda item: (-item[1], item[0]),
    )
    # Initial normal list kept as short as the seed list: symmetric list
    # sizes keep the term-frequency vote unbiased at cold start.
    normal_list = rank(scores[NORMAL], stopwords)[: len(seed_set)]
    keywords = KeywordSet(normal=normal_list, anomaly=anomaly_list, iteration_index=0)
    return keywords, classified


def run_iteration(
    corpus: list[LogSequence],
    keywords: KeywordSet,
    config: PipelineConfig,
    iteration: int,
    prior: Optional[dict[str, int]] = None,
    stopwords: Optional[frozenset[str]] = None,
) -> tuple[
    KeywordSet,
    IterationRecord,
    clf.ClassifierModel,
    list[ann.PseudoLabel],
    Optional[ann.AnnotatorModel],
    list[tuple[str, int, float]],
]:
    """One loop pass: graph, annotator, pseudo labels, classifier, keywords.

    ``prior`` holds the previous iteration's classifier labels by sequence
    id; fine-tuning uses them for sequences whose keyword vote is indecisive.
    ``stopwords`` is as in ``bootstrap``. Returns the classifier's predictions
    on the corpus as the last element. Raises ``SingleClassError`` when the
    classifier predicts one class for every sequence.
    """
    start = time.perf_counter()
    pretrain_trace: list[float] = []
    finetune_trace: list[float] = []
    annotator_model: Optional[ann.AnnotatorModel] = None

    if config.annotator_mode == "counting":
        pseudo = ann.vote_annotate(corpus, keywords)
    else:
        g = eg.build(keywords, corpus, config.cooccur_window)
        annotator_model = ann.AnnotatorModel.create(
            in_dim=g.feature_dim,
            rng=_rng(config.seed, iteration, 1),
            n_layers=config.gin_layers,
            hidden=config.gin_hidden,
            vocab_hash=g.vocab_hash,
        )
        if config.annotator_mode == "full":
            length_model = walks.fit_length_model(corpus, keywords, l_max=config.walk_max_length)
            transitions = eg.transition_probabilities(g)
            sampler = walks.WalkSampler(
                g, transitions, length_model, _rng(config.seed, iteration, 2)
            )
            steps = config.annotator_epochs * math.ceil(len(corpus) / config.annotator_batch)
            pretrain_trace = ann.pretrain(
                annotator_model,
                sampler,
                steps=steps,
                batch_size=config.annotator_batch,
                lr=config.annotator_lr,
            )
        finetune_trace = ann.finetune(
            annotator_model,
            corpus,
            g,
            keywords,
            epochs=config.finetune_epochs,
            lr=config.finetune_lr,
            batch_size=config.annotator_batch,
            rng=_rng(config.seed, iteration, 3),
            margin=config.finetune_margin,
            prior=prior,
        )
        pseudo = ann.annotate(annotator_model, corpus, g)

    classifier = clf.ClassifierModel.create(
        corpus,
        rng=_rng(config.seed, iteration, 4),
        embed_dim=config.embed_dim,
        hidden=config.classifier_hidden,
    )
    classifier_trace = clf.train(
        classifier,
        corpus,
        pseudo,
        epochs=config.classifier_epochs,
        batch_size=config.classifier_batch,
        lr=config.classifier_lr,
        rng=_rng(config.seed, iteration, 5),
    )
    predictions = clf.predict(classifier, corpus)
    pred_by_id = {sid: label for sid, label, _ in predictions}
    predicted = set(pred_by_id.values())
    if len(predicted) < 2:
        raise SingleClassError(f"the classifier predicts class {predicted.pop()} for every sequence")
    classified: ClassifiedCorpus = [(seq, pred_by_id[seq.id]) for seq in corpus]

    new_keywords = extract_top(
        classified,
        config.keywords_per_class,
        config.idf_exponent,
        stopwords=stopwords,
        iteration_index=iteration,
    )
    gamma = drift(new_keywords, keywords)
    counts = {NORMAL: 0, ANOMALY: 0}
    for pl in pseudo:
        counts[pl.label] += 1
    record = IterationRecord(
        iteration=iteration,
        keywords=new_keywords,
        gamma=gamma,
        pseudo_counts=counts,
        flagged=sum(pl.flagged for pl in pseudo),
        pretrain_trace=pretrain_trace,
        finetune_trace=finetune_trace,
        classifier_trace=classifier_trace,
        seconds=time.perf_counter() - start,
    )
    return new_keywords, record, classifier, pseudo, annotator_model, predictions


def run_pipeline(
    corpus: list[LogSequence],
    config: PipelineConfig,
    out_dir: Optional[str | Path] = None,
) -> PipelineResult:
    """Full iterative run; optionally writes a replayable manifest directory.

    When an iteration after the first ends with a classifier that predicts a
    single class, the run stops there and returns the previous iteration's
    classifier, predictions and keywords, with the reason in
    ``stop_reason`` and in the manifest. In the first iteration that, like
    any other iteration failure, raises ``PipelineError``; so does a
    sequence id that occurs twice, before any training.
    """
    corpus = strip_gold(corpus)
    ids: set[str] = set()
    for seq in corpus:
        if seq.id in ids:
            raise PipelineError(f"sequence id {seq.id!r} is repeated; ids must be unique")
        ids.add(seq.id)
    stopwords = load_stopwords(config.stopwords_path) if config.stopwords_path else None
    keywords, _ = bootstrap(corpus, config, stopwords)
    records: list[IterationRecord] = []
    classifier = None
    pseudo: list[ann.PseudoLabel] = []
    predictions: list[tuple[str, int, float]] = []
    prior: Optional[dict[str, int]] = None
    final_annotator = None
    converged = False
    stop_reason = None
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "keywords_000.json").write_text(keywords.to_json() + "\n")

    for iteration in range(1, config.max_iterations + 1):
        try:
            keywords, record, classifier, pseudo, final_annotator, predictions = run_iteration(
                corpus, keywords, config, iteration, prior=prior, stopwords=stopwords
            )
        except (
            eg.GraphError, ann.AnnotatorError, clf.ClassifierError, KeywordError,
            SingleClassError, nn.TrainingDiverged, walks.WalkError,
        ) as exc:
            if isinstance(exc, SingleClassError) and records:
                stop_reason = f"iteration {iteration}: {exc}; kept iteration {iteration - 1}"
                break
            if out is not None:
                (out / "failure.json").write_text(
                    json.dumps({"iteration": iteration, "error": str(exc)}) + "\n"
                )
            raise PipelineError(f"iteration {iteration} failed: {exc}") from exc
        records.append(record)
        if out is not None:
            _write_iteration_artifacts(out, record, pseudo, predictions)
        if record.gamma < config.drift_threshold:
            converged = True
            break
        prior = {sid: label for sid, label, _ in predictions}

    assert classifier is not None
    result = PipelineResult(
        classifier=classifier,
        records=records,
        keywords=keywords,
        predictions=predictions,
        pseudo_labels=pseudo,
        converged=converged,
        final_annotator=final_annotator,
        stop_reason=stop_reason,
    )
    if out is not None:
        _write_manifest(out, config, corpus, result)
    return result


def corpus_hash(corpus: list[LogSequence]) -> str:
    """Content hash over ids and tokens only (gold labels excluded)."""
    h = hashlib.sha256()
    for seq in corpus:
        h.update(json.dumps([seq.id, seq.tokens], ensure_ascii=False).encode())
    return h.hexdigest()


def _write_iteration_artifacts(out: Path, record, pseudo, predictions) -> None:
    k = record.iteration
    (out / f"keywords_{k:03d}.json").write_text(record.keywords.to_json() + "\n")
    with open(out / f"pseudo_labels_{k:03d}.jsonl", "w") as fh:
        for pl in pseudo:
            fh.write(
                json.dumps(
                    {
                        "id": pl.sequence_id,
                        "label": pl.label,
                        "confidence": round(pl.confidence, 12),
                        "flagged": pl.flagged,
                    }
                )
                + "\n"
            )
    with open(out / f"predictions_{k:03d}.jsonl", "w") as fh:
        fh.writelines(clf.prediction_lines(predictions))


def _loss_summary(trace: list[float]) -> Optional[dict[str, float]]:
    """First, minimum and last loss of a training trace; None for no steps."""
    if not trace:
        return None
    return {"first": trace[0], "min": min(trace), "last": trace[-1]}


def _write_manifest(out: Path, config: PipelineConfig, corpus, result: PipelineResult) -> None:
    from loggad import __version__

    model_dir = out / "model"
    model_dir.mkdir(exist_ok=True)
    result.classifier.save(model_dir / "classifier.npz")
    if result.final_annotator is not None:
        result.final_annotator.save(model_dir / "annotator.npz")
    manifest = {
        "tool_version": __version__,
        "config": config.to_dict(),
        "corpus_hash": corpus_hash(corpus),
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "iterations": [
            {
                "iteration": r.iteration,
                "gamma": r.gamma,
                "pseudo_counts": {str(k): v for k, v in r.pseudo_counts.items()},
                "flagged": r.flagged,
                "keyword_warnings": r.keywords.warnings,
                "seconds": r.seconds,
                "keywords_path": f"keywords_{r.iteration:03d}.json",
                "pseudo_labels_path": f"pseudo_labels_{r.iteration:03d}.jsonl",
                "predictions_path": f"predictions_{r.iteration:03d}.jsonl",
                "loss": {
                    "pretrain": _loss_summary(r.pretrain_trace),
                    "finetune": _loss_summary(r.finetune_trace),
                    "classifier": _loss_summary(r.classifier_trace),
                },
            }
            for r in result.records
        ],
        "classifier_vocab_hash": result.classifier.vocab_hash,
        "model_dir": "model",
    }
    (out / "config.json").write_text(json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n")
    tmp = out / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    tmp.replace(out / "manifest.json")
