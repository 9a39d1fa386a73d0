"""Metrics, synthetic corpus generation and sample dataset loaders.

Anomaly is the positive class throughout. The synthetic generator plants
an exact anomaly count (not Bernoulli) so desk-scale thresholds are
stable across seeds.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from loggad.ingest import LogSequence, RawLogRecord, group_by_key, window


class EvalError(ValueError):
    pass


@dataclass
class Metrics:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    flags: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "precision": self.precision,
                "recall": self.recall,
                "f1": self.f1,
                "tp": self.tp,
                "fp": self.fp,
                "fn": self.fn,
                "tn": self.tn,
                "flags": self.flags,
            },
            sort_keys=True,
        )


def score(predictions: dict[str, int], gold: dict[str, int]) -> Metrics:
    """Confusion counts and P/R/F1 with Anomaly (1) as positive.

    Zero denominators produce 0 plus a flag, never NaN. Prediction and
    gold id sets must match exactly.
    """
    if set(predictions) != set(gold):
        missing = set(gold) ^ set(predictions)
        raise EvalError(f"prediction/gold id mismatch ({len(missing)} ids differ)")
    tp = fp = fn = tn = 0
    for sid, pred in predictions.items():
        g = gold[sid]
        if pred == 1 and g == 1:
            tp += 1
        elif pred == 1 and g == 0:
            fp += 1
        elif pred == 0 and g == 1:
            fn += 1
        else:
            tn += 1
    flags = []
    if tp + fp == 0:
        precision = 0.0
        flags.append("no_positive_predictions")
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 0.0
        flags.append("no_positive_gold")
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0:
        f1 = 0.0
        flags.append("zero_f1_denominator")
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return Metrics(tp=tp, fp=fp, fn=fn, tn=tn, precision=precision, recall=recall, f1=f1, flags=flags)


@dataclass
class SyntheticSpec:
    n_sequences: int = 2000
    anomaly_rate: float = 0.1
    normal_vocab: list[str] = field(default_factory=list)
    anomaly_vocab: list[str] = field(default_factory=list)
    shared_vocab: list[str] = field(default_factory=list)
    length_range: tuple[int, int] = (20, 30)
    n_normal_templates: int = 30
    n_anomaly_templates: int = 12
    template_size: tuple[int, int] = (6, 8)
    zipf_exponent: float = 1.0  # frequency skew within each vocabulary (0 = uniform)
    # number of service "communities": the normal vocabulary splits into
    # this many disjoint blocks, each normal template draws from a single
    # block, and anomaly templates spread their benign words over several
    # blocks. Real incidents look like this: a fault message interleaves
    # subsystems that never co-occur in healthy traffic, so the anomaly
    # signature lives in the co-occurrence structure, not just the words.
    n_communities: int = 10
    # separate skew for the shared filler vocabulary: a steeper curve
    # splits fillers into a ubiquitous head and an ultra-rare tail, the
    # hallmark of real log vocabularies
    shared_zipf: float = 0.0
    # separate skew for the anomaly vocabulary: real incident logs are
    # dominated by one or two fault signatures with a long tail of rare
    # failure modes, which is usually steeper than the benign vocabulary
    anomaly_zipf: float = 2.0
    shared_rate: float = 0.1  # fraction of tokens drawn from the class-free shared vocabulary
    # fraction of an anomaly template drawn from the anomaly vocabulary;
    # a (lo, hi) tuple samples one rate per template, mixing fault-dense
    # templates with sparse ones where fault words are a small minority
    anomaly_token_rate: float | tuple[float, float] = (0.2, 0.7)
    noise_rate: float = 0.0  # probability a sequence is corrupted with wrong-class tokens
    noise_token_rate: float = 0.35  # fraction of template draws flipped inside a corrupted sequence
    seed: int = 2

    def __post_init__(self):
        if not self.normal_vocab:
            self.normal_vocab = [f"svc{i}_ok" for i in range(200)]
        if not self.anomaly_vocab:
            self.anomaly_vocab = [f"fault{i}_trap" for i in range(30)]
        if not self.shared_vocab:
            self.shared_vocab = [f"node{i}" for i in range(40)]


def generate_synthetic(spec: SyntheticSpec) -> list[LogSequence]:
    """Seed-deterministic template-structured corpus with an exact planted
    anomaly count.

    Real log streams are emitted by a fixed set of message templates, so
    each sequence is generated from one template: a small bag of words
    sampled from the class vocabulary (anomaly templates draw
    ``anomaly_token_rate`` of their slots from the anomaly vocabulary and
    the rest from the normal one). Sequence tokens are draws from the
    template bag interleaved with class-free shared filler at
    ``shared_rate``. A ``noise_rate`` fraction of sequences is corrupted by
    ambient contamination: ``noise_token_rate`` of their template draws are
    swapped for tokens leaked from a random normal template, the way
    interleaved sessions bleed into each other in a real stream (ambient
    traffic is overwhelmingly benign, so leaked tokens are benign for both
    classes). Within each vocabulary, words follow a Zipf-like frequency
    curve (weight 1/rank^zipf_exponent) when sampled into templates,
    matching the heavy skew of real log vocabularies.
    """
    if not 0 < spec.anomaly_rate < 1:
        raise EvalError(f"anomaly_rate must be in (0,1), got {spec.anomaly_rate}")
    overlap = set(spec.anomaly_vocab) & (set(spec.normal_vocab) | set(spec.shared_vocab))
    if overlap:
        raise EvalError(f"anomaly vocabulary overlaps benign vocabularies: {sorted(overlap)[:3]}")
    if spec.n_normal_templates < 1 or spec.n_anomaly_templates < 1:
        raise EvalError("template counts must be >= 1")
    rng = np.random.default_rng(spec.seed)
    n = spec.n_sequences
    n_anomaly = int(round(n * spec.anomaly_rate))
    labels = np.zeros(n, dtype=int)
    labels[rng.permutation(n)[:n_anomaly]] = 1

    def zipf_probs(n_words: int, exponent: float) -> np.ndarray:
        weights = np.arange(1, n_words + 1, dtype=float) ** -exponent
        return weights / weights.sum()

    normal = list(spec.normal_vocab)
    shared = list(spec.shared_vocab)
    anomalous = list(spec.anomaly_vocab)
    anomalous_set = set(anomalous)
    p_shared = zipf_probs(len(shared), spec.shared_zipf)
    p_anomalous = zipf_probs(len(anomalous), spec.anomaly_zipf)

    k = spec.n_communities
    if k < 1 or k > len(normal):
        raise EvalError(f"n_communities must be in [1, len(normal_vocab)], got {k}")
    block = len(normal) // k
    communities = [normal[i * block : (i + 1) * block] for i in range(k)]
    communities[-1].extend(normal[k * block :])
    p_comm = [zipf_probs(len(c), spec.zipf_exponent) for c in communities]

    def benign_word(comm: int) -> str:
        c = communities[comm]
        return c[int(rng.choice(len(c), p=p_comm[comm]))]

    lo_t, hi_t = spec.template_size

    atr = spec.anomaly_token_rate
    atr_lo, atr_hi = atr if isinstance(atr, tuple) else (atr, atr)

    def make_template(anomaly: bool) -> list[str]:
        size = int(rng.integers(lo_t, hi_t + 1))
        rate = rng.uniform(atr_lo, atr_hi)
        # a healthy template stays inside one community; a fault template
        # spreads its benign words round-robin over all of them
        home = int(rng.integers(k))
        words: list[str] = []
        benign_slots = 0
        for _ in range(size):
            if anomaly and rng.random() < rate:
                words.append(anomalous[int(rng.choice(len(anomalous), p=p_anomalous))])
            else:
                comm = (home + benign_slots) % k if anomaly else home
                words.append(benign_word(comm))
                benign_slots += 1
        if anomaly and not any(w in anomalous_set for w in words):
            # an anomaly template must stay detectable in principle
            words[int(rng.integers(len(words)))] = anomalous[
                int(rng.choice(len(anomalous), p=p_anomalous))
            ]
        return sorted(set(words))

    normal_templates = [make_template(False) for _ in range(spec.n_normal_templates)]
    anomaly_templates = [make_template(True) for _ in range(spec.n_anomaly_templates)]

    lo, hi = spec.length_range
    sequences = []
    for i in range(n):
        pool = anomaly_templates if labels[i] == 1 else normal_templates
        template = pool[int(rng.integers(len(pool)))]
        corrupted = rng.random() < spec.noise_rate
        length = int(rng.integers(lo, hi + 1))
        tokens = []
        for _ in range(length):
            if rng.random() < spec.shared_rate:
                tokens.append(shared[int(rng.choice(len(shared), p=p_shared))])
            elif corrupted and rng.random() < spec.noise_token_rate:
                ambient = normal_templates[int(rng.integers(len(normal_templates)))]
                tokens.append(ambient[int(rng.integers(len(ambient)))])
            else:
                tokens.append(template[int(rng.integers(len(template)))])
        sequences.append(LogSequence(id=f"seq_{i:06d}", tokens=tokens, gold_label=int(labels[i])))
    return sequences


DATASET_KINDS = ("hdfs", "bgl", "thunderbird", "hadoop", "openstack")

HDFS_BLOCK_PATTERN = r"blk_-?\d+"


def load_loghub_sample(
    path, dataset_kind: str, label_path: Optional[str] = None
) -> list[RawLogRecord]:
    """Load a (possibly truncated) LogHub-style sample file into records.

    BGL/Thunderbird lines carry an inline alert tag: a leading "-" means
    normal, anything else marks the line anomalous. HDFS labels come from
    a block-id label file (``blk_...,Anomaly|Normal`` or ``blk_...,0|1``
    per line). Hadoop/OpenStack carry no inline labels; an optional label
    file mapping line_no to 0/1 may be supplied for any kind.
    """
    if dataset_kind not in DATASET_KINDS:
        raise EvalError(f"unknown dataset kind {dataset_kind!r}; expected one of {DATASET_KINDS}")
    line_labels = _load_line_labels(label_path) if label_path and dataset_kind not in ("hdfs",) else {}
    block_labels = _load_block_labels(label_path) if label_path and dataset_kind == "hdfs" else {}

    records = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line_no, raw in enumerate(fh):
            text = raw.rstrip("\n")
            if not text.strip():
                continue
            gold: Optional[int] = line_labels.get(line_no)
            if dataset_kind in ("bgl", "thunderbird"):
                parts = text.split(maxsplit=1)
                if len(parts) < 2:
                    raise EvalError(
                        f"{dataset_kind} line {line_no} has no alert tag field: {text[:80]!r}"
                    )
                tag, rest = parts
                gold = 0 if tag == "-" else 1
                text = rest
            elif dataset_kind == "hdfs" and block_labels:
                m = re.search(HDFS_BLOCK_PATTERN, text)
                if m:
                    gold = block_labels.get(m.group(0), gold)
            records.append(RawLogRecord(line_no=line_no, text=text, gold_label=gold))
    if not records:
        raise EvalError(f"no records in {path}")
    return records


def _load_block_labels(path) -> dict[str, int]:
    labels = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.lower().startswith("blockid"):
                continue
            block, _, tag = line.partition(",")
            tag = tag.strip().lower()
            labels[block.strip()] = 1 if tag in ("anomaly", "1") else 0
    return labels


def _load_line_labels(path) -> dict[int, int]:
    labels = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            line_no, _, tag = line.partition(",")
            labels[int(line_no)] = int(tag)
    return labels


def sequences_from_records(
    records: list[RawLogRecord], dataset_kind: str, window_size: int = 20
) -> list[LogSequence]:
    """HDFS groups by block id; every other kind uses fixed windows."""
    if dataset_kind == "hdfs":
        sequences, _ = group_by_key(records, HDFS_BLOCK_PATTERN)
        return sequences
    return window(records, window_size)


def split_chronological(
    sequences: list[LogSequence], train_fraction: float = 0.8
) -> tuple[list[LogSequence], list[LogSequence]]:
    """First train_fraction of sequences (in input order) for training."""
    if not 0 < train_fraction < 1:
        raise EvalError(f"train_fraction must be in (0,1), got {train_fraction}")
    cut = int(round(len(sequences) * train_fraction))
    return sequences[:cut], sequences[cut:]
