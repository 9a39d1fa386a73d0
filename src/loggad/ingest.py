"""Raw log ingestion: normalization, grouping and windowing; and
``numbered_lines``, the one reader of every line-numbered input file
(sequence and prediction JSONL, label files, the stopword list).

No template parser is involved anywhere. A raw line is lowercased, long
digit runs are replaced by a sentinel token, and the rest is split on
punctuation while keeping ``_``, ``/`` and ``.`` compounds intact, so
tokens like ``obj_host_amd64_custom1_rhel4`` or ``infinihost0`` survive
as single units.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter
from typing import Any, Iterable, Iterator, Optional

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


def group_by_key(
    records: list[RawLogRecord], key_pattern: str | re.Pattern
) -> tuple[list[LogSequence], list[RawLogRecord]]:
    """Partition records into sequences keyed by a regex match on raw text.

    One sequence per distinct key, tokens concatenated in line order.
    A sequence is Anomaly iff any member record is Anomaly. Records
    matching no key are returned as the second element instead of being
    dropped.
    """
    pattern = re.compile(key_pattern)
    groups: dict[str, list[RawLogRecord]] = {}
    rejects: list[RawLogRecord] = []
    for rec in sorted(records, key=lambda r: r.line_no):
        m = pattern.search(rec.text)
        if m is None:
            rejects.append(rec)
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
    tokens but still count toward window boundaries; a window made only of
    such lines is skipped, and the other windows keep their ids. Raises
    IngestError when every window is skipped.
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
        if tokens:
            sequences.append(
                LogSequence(id=f"win_{w:06d}", tokens=tokens, gold_label=_combine_labels(labels))
            )
    if ordered and not sequences:
        raise IngestError("no window contains normalizable tokens")
    return sequences


def _combine_labels(labels: Iterable[Optional[int]]) -> Optional[int]:
    labels = list(labels)
    if any(l == 1 for l in labels):
        return 1
    if all(l is None for l in labels):
        return None
    return 0


_GOLD_JSON = {None: "null", 0: "0", 1: "1"}


def write_jsonl(sequences: list[LogSequence], path) -> None:
    """One JSON object per sequence and line, with keys id, tokens and gold_label.

    Each line is formatted directly and is byte for byte what
    ``json.dumps(obj, ensure_ascii=False)`` gives, which writes every str
    with ``encode_basestring``; skipping the dict per line halves the time.
    """
    with open(path, "w", encoding="utf-8") as fh:
        try:
            fh.writelines(
                '{"id": ' + encode_basestring(seq.id)
                + ', "tokens": [' + ", ".join(map(encode_basestring, seq.tokens))
                + '], "gold_label": ' + _GOLD_JSON[seq.gold_label] + "}\n"
                for seq in sequences
            )
        except KeyError as exc:
            raise IngestError(f"gold_label must be 0, 1 or None, got {exc.args[0]!r}") from None


def numbered_lines(path, parse, error, keyed=None) -> Iterator[tuple[int, Any]]:
    """Yield ``(n, parse(line))`` for each non-blank line ``n`` (from 1) of
    a UTF-8 text file, read lazily; lines end at ``\\n``.

    ``parse`` returns an item, returns None to skip the line, or raises
    ValueError(message). Any failure raises ``error(f"{path}, line {n}: …")``:
    a parse error, a line that is not UTF-8, or, when ``keyed`` is a
    ``(name, key)`` pair, an item whose ``key(item)`` an earlier line gave,
    naming that line too.
    """
    name, key_of = keyed or (None, None)
    first_line: dict = {}
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, 1):
            try:
                line = raw.decode()  # UTF-8, the default, is the fastest call
                if line.isspace():
                    continue
                item = parse(line)
            except ValueError as exc:
                raise error(f"{path}, line {n}: {exc}") from None
            if item is None:
                continue
            if key_of:
                key = key_of(item)
                first = first_line.setdefault(key, n)
                if first != n:
                    message = f"{name} {key!r} is repeated, first on line {first}"
                    raise error(f"{path}, line {n}: {message}")
            yield n, item


def json_object(line: str) -> dict:
    """The JSON object on one line; anything else raises ValueError."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg} at column {exc.colno}") from None
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    return obj


def _sequence_from_json(line: str) -> LogSequence:
    obj = json_object(line)
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
    breaks this raises IngestError naming the file and its line number.
    Ids are not checked, so memory does not grow with the file.
    """
    return map(itemgetter(1), numbered_lines(path, _sequence_from_json, IngestError))


def read_jsonl(path) -> list[LogSequence]:
    """``iter_jsonl`` as a list; an id already seen raises IngestError
    naming both of its lines."""
    keyed = ("sequence id", attrgetter("id"))
    return [seq for _, seq in numbered_lines(path, _sequence_from_json, IngestError, keyed)]
