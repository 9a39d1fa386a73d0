"""Metrics, synthetic corpus generation and sample dataset loaders.

Anomaly is the positive class throughout. The synthetic generator plants
an exact anomaly count (not Bernoulli) so desk-scale thresholds are
stable across seeds. Predictions and label files are read through
``ingest.numbered_lines``, so a bad line raises EvalError naming it.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Optional

import numpy as np

from loggad.ingest import (
    LogSequence, RawLogRecord, group_by_key, json_object, numbered_lines, window,
)


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
        return json.dumps(asdict(self), sort_keys=True)


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


def read_predictions(path) -> dict[str, int]:
    """Map sequence id to predicted label from a predictions JSONL file.

    Each non-blank line is an object with a string ``id`` and a ``label``
    of 0 or 1 (a boolean is not a label); other keys are ignored. A bad
    line, or an id already seen, raises EvalError through
    ``ingest.numbered_lines``, naming the file and its line number.
    """
    lines = numbered_lines(path, _prediction_from_json, EvalError, ("sequence id", itemgetter(0)))
    return dict(item for _, item in lines)


def _prediction_from_json(line: str) -> tuple[str, int]:
    obj = json_object(line, id=str)
    sid, label = obj["id"], obj.get("label")
    if type(label) is not int or label not in (0, 1):
        raise ValueError(f"'label' must be 0 or 1, got {label!r}")
    return sid, label


@dataclass
class SyntheticSpec:
    n_sequences: int = 2000
    anomaly_rate: float = 0.1
    # the three vocabularies: None gives the default words, an empty list
    # is rejected by generate_synthetic
    normal_vocab: Optional[list[str]] = None
    anomaly_vocab: Optional[list[str]] = None
    shared_vocab: Optional[list[str]] = None
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
        if self.normal_vocab is None:
            self.normal_vocab = [f"svc{i}_ok" for i in range(200)]
        if self.anomaly_vocab is None:
            self.anomaly_vocab = [f"fault{i}_trap" for i in range(30)]
        if self.shared_vocab is None:
            self.shared_vocab = [f"node{i}" for i in range(40)]


# raw words fetched from the bit generator at a time: 4,096 words become
# about 200 KiB of Python ints, while 65,536 raised the peak RSS of making
# a 500-sequence corpus by 3.4 MiB and were no faster
_WORDS_PER_FETCH = 4_096
_TWO_POW_32 = 1 << 32
_LOW_HALF = _TWO_POW_32 - 1
_DOUBLE_UNIT = 2.0**-53


class _Replay:
    """numpy ``Generator`` draws, replayed from its bit generator's raw words.

    A scalar ``rng.random()`` or ``rng.integers(n)`` costs one to three
    microseconds of call overhead and ``rng.choice(n, p=p)`` over ten, as
    p is validated again on every call. Each method here makes the same draw
    from the same 64-bit words, fetched ``_WORDS_PER_FETCH`` at a time with
    ``random_raw``:

    - ``random`` is the top 53 bits of one word, scaled to [0, 1);
    - ``integers(n)`` is Lemire's bounded draw on 32-bit halves (arXiv
      1805.10941). A fresh word gives its low half and leaves its high
      half for the next ``integers`` call, as ``has_uint32``/``uinteger``
      do in the bit generator's state; ``integers(1)`` draws nothing;
    - ``choice(cdf)`` is numpy's ``cdf.searchsorted(random(), "right")``
      over a cdf built as ``p.cumsum() / p.cumsum()[-1]``.

    The draws match numpy's only for ``1 <= n < 2**32``. The bit generator
    is left past every word fetched, so its owner must draw nothing more.
    """

    __slots__ = ("_next_word", "_half")

    def __init__(self, bit_generator: np.random.BitGenerator):
        state = bit_generator.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        fetches = iter(lambda: bit_generator.random_raw(_WORDS_PER_FETCH).tolist(), None)
        self._next_word = chain.from_iterable(fetches).__next__

    def random(self) -> float:
        return (self._next_word() >> 11) * _DOUBLE_UNIT

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def _next_half(self) -> int:
        half = self._half
        if half is None:
            word = self._next_word()
            self._half = word >> 32
            return word & _LOW_HALF
        self._half = None
        return half

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        m = self._next_half() * n
        if m & _LOW_HALF < n:
            threshold = (_TWO_POW_32 - n) % n
            while m & _LOW_HALF < threshold:
                m = self._next_half() * n
        return m >> 32

    def choice(self, cdf: list[float]) -> int:
        return bisect_right(cdf, self.random())


def _zipf_cdf(n_words: int, exponent: float, name: str) -> list[float]:
    """The cdf ``rng.choice(n_words, p=p)`` searches for Zipf-like weights
    1/rank^exponent, normalised as numpy normalises it."""
    weights = np.arange(1, n_words + 1, dtype=float) ** -exponent
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    if not np.isfinite(cdf).all():
        raise EvalError(f"{name} gives no word frequencies, got {exponent}")
    return cdf.tolist()


def _check_spec(spec: SyntheticSpec) -> None:
    """Raise EvalError naming the first field that no corpus can be made from."""
    if not 0 < spec.anomaly_rate < 1:
        raise EvalError(f"anomaly_rate must be in (0,1), got {spec.anomaly_rate}")
    if not spec.n_sequences >= 0:
        raise EvalError(f"n_sequences must be >= 0, got {spec.n_sequences}")
    for name in ("length_range", "template_size"):
        lo, hi = getattr(spec, name)
        if not 1 <= lo <= hi:
            raise EvalError(f"{name} must satisfy 1 <= lo <= hi, got {(lo, hi)}")
    atr = spec.anomaly_token_rate
    atr_lo, atr_hi = atr if isinstance(atr, tuple) else (atr, atr)
    if not 0 <= atr_lo <= atr_hi <= 1:
        raise EvalError(f"anomaly_token_rate must lie in [0, 1] with lo <= hi, got {atr}")
    for name in ("shared_rate", "noise_rate", "noise_token_rate"):
        rate = getattr(spec, name)
        if not 0 <= rate <= 1:
            raise EvalError(f"{name} must be in [0, 1], got {rate}")
    for name in ("normal_vocab", "anomaly_vocab", "shared_vocab"):
        if not getattr(spec, name):
            raise EvalError(f"{name} must hold at least one word")
    overlap = set(spec.anomaly_vocab) & (set(spec.normal_vocab) | set(spec.shared_vocab))
    if overlap:
        raise EvalError(f"anomaly vocabulary overlaps benign vocabularies: {sorted(overlap)[:3]}")
    if spec.n_normal_templates < 1 or spec.n_anomaly_templates < 1:
        raise EvalError("template counts must be >= 1")
    if not 1 <= spec.n_communities <= len(spec.normal_vocab):
        raise EvalError(
            f"n_communities must be in [1, len(normal_vocab)], got {spec.n_communities}"
        )


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

    The draws are not scalar numpy calls: ``_Replay`` replays numpy's own
    ``random``, ``integers``, ``uniform`` and ``choice`` algorithms from
    the raw words of ``default_rng(spec.seed)``'s bit generator, so every
    corpus is byte-identical to the one made with one ``rng.random()``,
    ``rng.integers(...)``, ``rng.uniform(...)`` or ``rng.choice(..., p=)``
    call per draw, in a fraction of the time. A spec no corpus can be made
    from raises EvalError naming its field.
    """
    _check_spec(spec)
    normal = list(spec.normal_vocab)
    shared = list(spec.shared_vocab)
    anomalous = list(spec.anomaly_vocab)
    anomalous_set = set(anomalous)
    cdf_shared = _zipf_cdf(len(shared), spec.shared_zipf, "shared_zipf")
    cdf_anomalous = _zipf_cdf(len(anomalous), spec.anomaly_zipf, "anomaly_zipf")

    k = spec.n_communities
    block = len(normal) // k
    communities = [normal[i * block : (i + 1) * block] for i in range(k)]
    communities[-1].extend(normal[k * block :])
    cdf_comm = [_zipf_cdf(len(c), spec.zipf_exponent, "zipf_exponent") for c in communities]

    rng = np.random.default_rng(spec.seed)
    n = spec.n_sequences
    n_anomaly = int(round(n * spec.anomaly_rate))
    labels = np.zeros(n, dtype=int)
    labels[rng.permutation(n)[:n_anomaly]] = 1
    labels = labels.tolist()
    draw = _Replay(rng.bit_generator)
    random, integers, choice = draw.random, draw.integers, draw.choice

    def benign_word(comm: int) -> str:
        return communities[comm][choice(cdf_comm[comm])]

    lo_t, hi_t = spec.template_size

    atr = spec.anomaly_token_rate
    atr_lo, atr_hi = atr if isinstance(atr, tuple) else (atr, atr)

    def make_template(anomaly: bool) -> list[str]:
        size = lo_t + integers(hi_t + 1 - lo_t)
        rate = draw.uniform(atr_lo, atr_hi)
        # a healthy template stays inside one community; a fault template
        # spreads its benign words round-robin over all of them
        home = integers(k)
        words: list[str] = []
        benign_slots = 0
        for _ in range(size):
            if anomaly and random() < rate:
                words.append(anomalous[choice(cdf_anomalous)])
            else:
                comm = (home + benign_slots) % k if anomaly else home
                words.append(benign_word(comm))
                benign_slots += 1
        if anomaly and not any(w in anomalous_set for w in words):
            # an anomaly template must stay detectable in principle
            words[integers(len(words))] = anomalous[choice(cdf_anomalous)]
        return sorted(set(words))

    normal_templates = [make_template(False) for _ in range(spec.n_normal_templates)]
    anomaly_templates = [make_template(True) for _ in range(spec.n_anomaly_templates)]

    lo, hi = spec.length_range
    sequences = []
    for i in range(n):
        pool = anomaly_templates if labels[i] == 1 else normal_templates
        template = pool[integers(len(pool))]
        corrupted = random() < spec.noise_rate
        length = lo + integers(hi + 1 - lo)
        tokens = []
        for _ in range(length):
            if random() < spec.shared_rate:
                tokens.append(shared[choice(cdf_shared)])
            elif corrupted and random() < spec.noise_token_rate:
                ambient = normal_templates[integers(len(normal_templates))]
                tokens.append(ambient[integers(len(ambient))])
            else:
                tokens.append(template[integers(len(template))])
        sequences.append(LogSequence(id=f"seq_{i:06d}", tokens=tokens, gold_label=labels[i]))
    return sequences


DATASET_KINDS = ("plain", "hdfs", "bgl", "thunderbird", "hadoop", "openstack")
INLINE_TAG_KINDS = ("bgl", "thunderbird")

HDFS_BLOCK_PATTERN = r"blk_-?\d+"


def load_loghub_sample(
    path, dataset_kind: str, label_path: Optional[str] = None
) -> list[RawLogRecord]:
    """Load a raw log file, such as a (possibly truncated) LogHub sample, into
    one record per non-blank line, numbered from 0. A line ends at ``\\n``
    only, as in every other input file; a ``\\r`` before it is stripped.

    BGL/Thunderbird lines carry an inline alert tag: a leading "-" means
    normal, anything else marks the line anomalous; these kinds take no
    label file. HDFS labels come from a block-id label file
    (``blk_...,Anomaly|Normal`` or ``blk_...,0|1`` per line). Plain,
    Hadoop and OpenStack lines carry no inline labels; an optional label
    file maps line_no (from 0) to 0/1. A label naming a block that never
    occurs, a blank line or a line past the end of the log raises
    EvalError naming its file line; so does a block or line labelled twice,
    naming both file lines.
    """
    if dataset_kind not in DATASET_KINDS:
        raise EvalError(f"unknown dataset kind {dataset_kind!r}; expected one of {DATASET_KINDS}")
    if label_path and dataset_kind in INLINE_TAG_KINDS:
        raise EvalError(f"{dataset_kind} takes no label file: its lines carry inline alert tags")
    line_labels, block_labels = {}, {}
    if label_path and dataset_kind == "hdfs":
        block_labels = _load_labels(label_path, _block_label, "block")
    elif label_path:
        line_labels = _load_labels(label_path, _line_label, "log line")

    records = []
    n_lines = 0
    labelled_blocks = set()  # block labels some record took
    with open(path, "r", encoding="utf-8", errors="replace", newline="\n") as fh:
        for line_no, raw in enumerate(fh):
            n_lines += 1
            text = raw.rstrip("\r\n")
            if not text.strip():
                continue
            labelled = line_labels.pop(line_no, None)
            gold: Optional[int] = labelled[0] if labelled else None
            if dataset_kind in INLINE_TAG_KINDS:
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
                if m and m.group(0) in block_labels:
                    gold = block_labels[m.group(0)][0]
                    labelled_blocks.add(m.group(0))
            records.append(RawLogRecord(line_no=line_no, text=text, gold_label=gold))
    if not records:
        raise EvalError(f"no records in {path}")
    for line_no, (_, file_line) in line_labels.items():  # labels no record took
        where = (
            f"is blank in {path}" if line_no < n_lines
            else f"is past the end of {path}, which has {n_lines} lines numbered from 0"
        )
        raise EvalError(f"{label_path}, line {file_line}: labelled log line {line_no} {where}")
    for block, (_, file_line) in block_labels.items():
        if block not in labelled_blocks:
            raise EvalError(
                f"{label_path}, line {file_line}: labelled block {block} does not occur in {path}"
            )
    return records


_BLOCK_TAGS = {"anomaly": 1, "1": 1, "normal": 0, "0": 0}  # lower-cased
_LINE_TAGS = {"1": 1, "0": 0}


def _block_label(line: str) -> Optional[tuple[str, int]]:
    """``blk_...,tag``, the tag in any case; a ``BlockId`` header is skipped."""
    line = line.strip()
    if line.lower().startswith("blockid"):
        return None
    block, _, tag = line.partition(",")
    label = _BLOCK_TAGS.get(tag.strip().lower())
    if label is None:
        raise ValueError(f"label must be Anomaly, Normal, 1 or 0, got {tag.strip()!r}")
    return block.strip(), label


def _line_label(line: str) -> tuple[int, int]:
    """``line_no,tag`` with the tag 0 or 1."""
    line = line.strip()
    line_no, _, tag = (part.strip() for part in line.partition(","))
    if not line_no.isdecimal() or tag not in _LINE_TAGS:
        raise ValueError(f"expected 'line_no,label' with label 0 or 1, got {line!r}")
    return int(line_no), _LINE_TAGS[tag]


def _load_labels(path, parse, what: str) -> dict:
    """Key -> (label, label-file line from 1); a bad line, or a key
    labelled twice, raises EvalError naming its file line."""
    lines = numbered_lines(path, parse, EvalError, (what, itemgetter(0)))
    return {key: (label, n) for n, (key, label) in lines}


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
