"""End-to-end iterative training loop.

Each iteration: build the event graph from the current keywords, train the
subgraph annotator (self-supervised pre-training plus fine-tuning, depending
on mode), pseudo-label every sequence, train the sequence classifier on
those pseudo labels, re-extract keywords from the classifier's predictions,
and measure keyword drift. The loop stops when drift falls below the
threshold or the iteration cap is hit. An iteration after the first whose
classifier predicts a single class ends the run at the previous iteration,
whose results are kept.

The first iteration pseudo-labels by the keyword vote in every mode, as
counting mode does in all of them. Its only keywords are the seed words,
so its graph would hold only Anomaly vertices, and its vote is the seed
split: Anomaly where a seed word occurs, an abstention (Normal at 0.5,
flagged) everywhere else. From iteration 2 on, each sequence's subgraph is
induced once; fine-tuning trains it toward ``annotator.targets`` (the
decisive keyword votes, and the previous iteration's classifier label where
a vote falls below ``finetune_margin``), and ``annotator.annotate`` labels
the same subgraphs.

An iteration's ``IterationRecord`` owns its outputs: its pseudo-labels,
the classifier's predictions, the keywords extracted from them, their
drift and the loss traces. Its run-directory files and manifest entry are
written from it, and ``PipelineResult.predictions`` and ``pseudo_labels``
are the last record's, the kept iteration.

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
    score,
)


class PipelineError(RuntimeError):
    pass


class SingleClassError(PipelineError):
    """The iteration's classifier predicts one class for the whole corpus,
    so no keywords can be extracted for the other class."""


ANNOTATOR_MODES = ("full", "no_selfsup", "counting")


def word_list(raw: str) -> list[str]:
    """The non-blank words of a comma-separated list, stripped."""
    return [w.strip() for w in raw.split(",") if w.strip()]


# PipelineConfig field type -> parser of its INI value
_INI_PARSERS = {int: int, float: float, str: str, Optional[str]: str, list[str]: word_list}


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
        for name, kind in get_type_hints(type(self)).items():  # every size and count
            floor = 0 if name == "seed" else 1
            if kind is int and getattr(self, name) < floor:
                raise PipelineError(f"{name} must be >= {floor}, got {getattr(self, name)}")
        for name in ("annotator_lr", "finetune_lr", "classifier_lr"):
            lr = getattr(self, name)
            if not (math.isfinite(lr) and lr > 0):
                raise PipelineError(f"{name} must be finite and > 0, got {lr}")
        if not 0.0 <= self.finetune_margin < 1.0:
            raise PipelineError(f"finetune_margin must be in [0, 1), got {self.finetune_margin}")
        if math.isnan(self.drift_threshold):  # gamma < nan never holds: the run could not converge
            raise PipelineError("drift_threshold must be a number, got nan")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_ini(cls, path) -> "PipelineConfig":
        """Key/value config file with sections; keys match field names, each
        set once in the whole file, [DEFAULT] included. A malformed file
        raises PipelineError naming it, and the key where one applies."""
        # default_section=None: [DEFAULT] is one more section, not inherited
        parser = configparser.ConfigParser(default_section=None)
        try:
            if not parser.read(str(path), encoding="utf-8"):
                raise PipelineError(f"config file not found: {path}")
            items = [item for section in parser.sections() for item in parser[section].items()]
        except configparser.Error as exc:
            raise PipelineError(f"config file {path}: {' '.join(str(exc).split())}") from None
        hints = get_type_hints(cls)
        unknown = {name for name, _ in items} - set(hints)
        if unknown:
            raise PipelineError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for name, raw in items:
            if name in values:
                raise PipelineError(f"config file {path}: {name} is set in two sections")
            try:
                values[name] = _INI_PARSERS[hints[name]](raw)
            except ValueError as exc:
                raise PipelineError(f"config file {path}: {name} = {raw}: {exc}") from None
        return cls(**values)


# the training phases whose loss traces an IterationRecord holds, as ``<phase>_trace``
LOSS_PHASES = ("pretrain", "finetune", "classifier")


@dataclass
class IterationRecord:
    iteration: int
    keywords: KeywordSet  # extracted from this iteration's predictions
    gamma: float
    pseudo_labels: list[ann.PseudoLabel]
    predictions: list[tuple[str, int, float]]
    pretrain_trace: list[float]
    finetune_trace: list[float]
    classifier_trace: list[float]
    seconds: float


@dataclass
class PipelineResult:
    classifier: clf.ClassifierModel
    records: list[IterationRecord]  # the last one is the kept iteration
    converged: bool
    stop_reason: Optional[str] = None  # set when a degenerate iteration ended the run early

    @property
    def predictions(self) -> list[tuple[str, int, float]]:
        return self.records[-1].predictions

    @property
    def pseudo_labels(self) -> list[ann.PseudoLabel]:
        return self.records[-1].pseudo_labels


def strip_gold(corpus: list[LogSequence]) -> list[LogSequence]:
    """Firewall: training-path code only ever sees label-free sequences."""
    return [LogSequence(id=s.id, tokens=list(s.tokens), gold_label=None) for s in corpus]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def bootstrap(corpus: list[LogSequence], config: PipelineConfig) -> KeywordSet:
    """Initial keyword set: the seed keywords as the Anomaly list and an
    empty Normal list.

    The seed words are ordered by their TF-IDF^M score over the seed split,
    which puts the sequences that hold a seed word in the Anomaly class and
    the rest in the Normal class.
    """
    if not corpus:
        raise PipelineError("empty corpus")
    seeds = [w.lower() for w in config.seed_keywords]
    if not seeds:
        raise PipelineError("seed_keywords is empty; the bootstrap needs at least one seed word")
    seed_set = set(seeds)
    classified: ClassifiedCorpus = [
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
    return KeywordSet(normal=[], anomaly=anomaly_list)


def run_iteration(
    corpus: list[LogSequence],
    keywords: KeywordSet,
    config: PipelineConfig,
    iteration: int,
    prior: Optional[dict[str, int]] = None,
    stopwords: Optional[frozenset[str]] = None,
) -> tuple[IterationRecord, clf.ClassifierModel]:
    """One loop pass: graph, annotator, pseudo labels, classifier, keywords.

    ``prior`` holds the previous iteration's classifier labels by sequence
    id; fine-tuning uses them for sequences whose keyword vote is indecisive.
    Without it, or in counting mode, the keyword vote pseudo-labels the
    corpus and no graph is built.
    ``stopwords`` replaces keyword extraction's default stopword list when
    given; ``run_pipeline`` loads it once from ``config.stopwords_path``.
    The annotator lives only inside this call; only its pseudo-labels leave
    it, in the record with the predictions, new keywords and loss traces.
    Raises ``SingleClassError`` when the classifier predicts one class for
    every sequence.
    """
    start = time.perf_counter()
    pretrain_trace: list[float] = []
    finetune_trace: list[float] = []

    # no prior: iteration 1, whose graph would hold only the seed words' Anomaly vertices
    if config.annotator_mode == "counting" or prior is None:
        pseudo = ann.vote_annotate(corpus, keywords)
    else:
        g = eg.build(keywords, corpus, config.cooccur_window)
        annotator_model = ann.AnnotatorModel.create(
            in_dim=g.feature_dim,
            rng=_rng(config.seed, iteration, 1),
            n_layers=config.gin_layers,
            hidden=config.gin_hidden,
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
        subgraphs = [eg.induce_sequence_subgraph(g, seq) for seq in corpus]
        finetune_trace = ann.finetune(
            annotator_model,
            subgraphs,
            ann.targets(corpus, keywords, margin=config.finetune_margin, prior=prior),
            epochs=config.finetune_epochs,
            batch_size=config.annotator_batch,
            lr=config.finetune_lr,
            rng=_rng(config.seed, iteration, 3),
        )
        pseudo = ann.annotate(annotator_model, corpus, subgraphs)

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
        classified, config.keywords_per_class, config.idf_exponent, stopwords=stopwords
    )
    record = IterationRecord(
        iteration=iteration,
        keywords=new_keywords,
        gamma=drift(new_keywords, keywords),
        pseudo_labels=pseudo,
        predictions=predictions,
        pretrain_trace=pretrain_trace,
        finetune_trace=finetune_trace,
        classifier_trace=classifier_trace,
        seconds=time.perf_counter() - start,
    )
    return record, classifier


def run_pipeline(
    corpus: list[LogSequence],
    config: PipelineConfig,
    out_dir: Optional[str | Path] = None,
) -> PipelineResult:
    """Full iterative run; optionally writes a run directory.

    The run directory holds the manifest and each iteration's keywords,
    pseudo-labels and predictions; of the models only the final classifier
    is saved, under ``model/``, for ``loggad detect`` to replay.

    When an iteration after the first ends with a classifier that predicts a
    single class, the run stops there and returns the previous iteration's
    classifier and predictions, its record last, with the reason in
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
    keywords = bootstrap(corpus, config)
    records: list[IterationRecord] = []
    classifier = None
    prior: Optional[dict[str, int]] = None
    converged = False
    stop_reason = None
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "keywords_000.json").write_text(keywords.to_json(0) + "\n", encoding="utf-8")

    for iteration in range(1, config.max_iterations + 1):
        try:
            record, classifier = run_iteration(
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
                failure = json.dumps({"iteration": iteration, "error": str(exc)})
                (out / "failure.json").write_text(failure + "\n", encoding="utf-8")
            raise PipelineError(f"iteration {iteration} failed: {exc}") from exc
        records.append(record)
        keywords = record.keywords
        if out is not None:
            _write_iteration_artifacts(out, record)
        if record.gamma < config.drift_threshold:
            converged = True
            break
        prior = {sid: label for sid, label, _ in record.predictions}

    assert classifier is not None
    result = PipelineResult(
        classifier=classifier, records=records, converged=converged, stop_reason=stop_reason
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


def _write_iteration_artifacts(out: Path, record: IterationRecord) -> None:
    k = record.iteration
    keywords_text = record.keywords.to_json(k) + "\n"
    (out / f"keywords_{k:03d}.json").write_text(keywords_text, encoding="utf-8")
    with open(out / f"pseudo_labels_{k:03d}.jsonl", "w", encoding="utf-8") as fh:
        for pl in record.pseudo_labels:
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
    with open(out / f"predictions_{k:03d}.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(clf.prediction_lines(record.predictions))


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
                "pseudo_counts": {
                    str(c): sum(pl.label == c for pl in r.pseudo_labels) for c in (NORMAL, ANOMALY)
                },
                "flagged": sum(pl.flagged for pl in r.pseudo_labels),
                "keyword_warnings": r.keywords.warnings,
                "seconds": r.seconds,
                "keywords_path": f"keywords_{r.iteration:03d}.json",
                "pseudo_labels_path": f"pseudo_labels_{r.iteration:03d}.jsonl",
                "predictions_path": f"predictions_{r.iteration:03d}.jsonl",
                "loss": {p: _loss_summary(getattr(r, f"{p}_trace")) for p in LOSS_PHASES},
            }
            for r in result.records
        ],
        "classifier_vocab_hash": result.classifier.vocab_hash,
        "model_dir": "model",
    }
    config_text = json.dumps(config.to_dict(), sort_keys=True, indent=2)
    (out / "config.json").write_text(config_text + "\n", encoding="utf-8")
    tmp = out / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    tmp.replace(out / "manifest.json")
