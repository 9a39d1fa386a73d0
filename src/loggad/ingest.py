"""Raw log ingestion: normalization, grouping and windowing.

No template parser is involved anywhere. A raw line is lowercased, long
digit runs are replaced by a sentinel token, and the rest is split on
punctuation while keeping ``_``, ``/`` and ``.`` compounds intact, so
tokens like ``obj_host_amd64_custom1_rhel4`` or ``infinihost0`` survive
as single units.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

NUM_SENTINEL = "[Num]"

_PLACEHOLDER = "\x00num\x00"
_DIGIT_RUN = re.compile(r"\d{5,}")
# A token is either the digit-run placeholder or an alphanumeric chunk with
# optional _ / . separators joining further alphanumeric chunks.
_TOKEN = re.compile(r"\x00num\x00|[a-z0-9]+(?:[_./][a-z0-9]+)*")


class IngestError(ValueError):
    pass


class NormalizationError(IngestError):
    """Raised when a line normalizes to zero tokens."""


@dataclass(frozen=True)
class RawLogRecord:
    line_no: int
    text: str
    timestamp: Optional[str] = None
    gold_label: Optional[int] = None  # 0 = Normal, 1 = Anomaly

    def __post_init__(self):
        if self.line_no < 0:
            raise IngestError(f"negative line_no {self.line_no}")
        if not self.text.strip():
            raise IngestError(f"empty text at line {self.line_no}")


@dataclass
class LogSequence:
    id: str
    tokens: list[str]
    gold_label: Optional[int] = None

    def __post_init__(self):
        if not self.tokens:
            raise IngestError(f"sequence {self.id!r} has no tokens")


def normalize_line(text: str) -> list[str]:
    """Normalize one raw log line into tokens.

    Lowercases, replaces digit runs longer than 4 with the ``[Num]``
    sentinel (runs of length <= 4 are kept verbatim), then splits on
    whitespace/punctuation, keeping intra-word ``_ / .`` separators.

    Raises NormalizationError when nothing survives (e.g. a
    punctuation-only line).
    """
    if not text.strip():
        raise NormalizationError("empty line")
    lowered = _DIGIT_RUN.sub(f" {_PLACEHOLDER} ", text.lower())
    tokens = [
        NUM_SENTINEL if t == _PLACEHOLDER else t for t in _TOKEN.findall(lowered)
    ]
    if not tokens:
        raise NormalizationError(f"no tokens after normalization: {text!r}")
    return tokens


@dataclass
class RejectReport:
    """Records that matched no grouping key, kept for inspection."""

    records: list[RawLogRecord] = field(default_factory=list)

    def __len__(self):
        return len(self.records)


def read_plain_records(path) -> list[RawLogRecord]:
    """One record per non-blank line of a raw log file, numbered from 0."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return [
            RawLogRecord(line_no=line_no, text=text)
            for line_no, text in enumerate(raw.rstrip("\n") for raw in fh)
            if text.strip()
        ]


def group_by_key(
    records: list[RawLogRecord], key_pattern: str | re.Pattern
) -> tuple[list[LogSequence], RejectReport]:
    """Partition records into sequences keyed by a regex match on raw text.

    One sequence per distinct key, tokens concatenated in line order.
    A sequence is Anomaly iff any member record is Anomaly. Records
    matching no key land in the reject report instead of being dropped.
    """
    pattern = re.compile(key_pattern)
    groups: dict[str, list[RawLogRecord]] = {}
    rejects = RejectReport()
    for rec in sorted(records, key=lambda r: r.line_no):
        m = pattern.search(rec.text)
        if m is None:
            rejects.records.append(rec)
            continue
        key = m.group(0)
        groups.setdefault(key, []).append(rec)
    if not groups:
        raise IngestError(f"key pattern {pattern.pattern!r} matched no record")
    sequences = []
    for key, members in groups.items():
        tokens: list[str] = []
        labels = []
        for rec in members:
            tokens.extend(normalize_line(rec.text))
            labels.append(rec.gold_label)
        gold = _combine_labels(labels)
        sequences.append(LogSequence(id=key, tokens=tokens, gold_label=gold))
    return sequences, rejects


def window(records: list[RawLogRecord], size: int) -> list[LogSequence]:
    """Fixed-size non-overlapping windows in file (chronological) order.

    The last window may be shorter. Window label is Anomaly iff any
    member line is Anomaly. Lines that normalize to nothing contribute no
    tokens but still count toward window boundaries.
    """
    if size < 1:
        raise IngestError(f"window size must be >= 1, got {size}")
    ordered = sorted(records, key=lambda r: r.line_no)
    sequences = []
    for w, start in enumerate(range(0, len(ordered), size)):
        chunk = ordered[start : start + size]
        tokens: list[str] = []
        labels = []
        for rec in chunk:
            try:
                tokens.extend(normalize_line(rec.text))
            except NormalizationError:
                pass
            labels.append(rec.gold_label)
        if not tokens:
            raise IngestError(f"window {w} contains no normalizable tokens")
        sequences.append(
            LogSequence(id=f"win_{w:06d}", tokens=tokens, gold_label=_combine_labels(labels))
        )
    return sequences


def _combine_labels(labels: Iterable[Optional[int]]) -> Optional[int]:
    labels = list(labels)
    if any(l == 1 for l in labels):
        return 1
    if all(l is None for l in labels):
        return None
    return 0


def write_jsonl(sequences: list[LogSequence], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(
                json.dumps(
                    {"id": seq.id, "tokens": seq.tokens, "gold_label": seq.gold_label},
                    ensure_ascii=False,
                )
                + "\n"
            )


def _sequence_from_json(line: str) -> LogSequence:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise IngestError(f"invalid JSON: {exc.msg} at column {exc.colno}") from None
    if not isinstance(obj, dict):
        raise IngestError("expected a JSON object")
    for key, typ in (("id", str), ("tokens", list)):
        if not isinstance(obj.get(key), typ):
            raise IngestError(f"{key!r} is missing or not a {typ.__name__}")
    tokens = obj["tokens"]
    try:
        "".join(tokens)  # the cheapest full check that every token is a str
    except TypeError:
        raise IngestError("'tokens' holds a non-string token") from None
    gold = obj.get("gold_label")
    if gold is not None and (type(gold) is not int or gold not in (0, 1)):
        raise IngestError(f"'gold_label' must be 0, 1 or null, got {gold!r}")
    return LogSequence(id=obj["id"], tokens=tokens, gold_label=gold)


def iter_jsonl(path) -> Iterator[LogSequence]:
    """Yield one sequence per non-blank line of a JSONL file, read lazily.

    Each line is an object with a string ``id``, a non-empty list of string
    ``tokens`` and an optional ``gold_label`` of 0, 1 or null. A line that
    breaks this raises IngestError naming the file and its line number
    (from 1).
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                seq = _sequence_from_json(line)
            except IngestError as exc:
                raise IngestError(f"{path}, line {line_no}: {exc}") from None
            yield seq


def read_jsonl(path) -> list[LogSequence]:
    return list(iter_jsonl(path))
