"""Raw log ingestion: normalization, grouping and windowing; and the one
reader of every line-numbered input file (sequence and prediction JSONL,
label files, the stopword list): ``raw_blocks`` cuts a file into blocks of
raw lines, ``parse_block`` parses one block, and ``numbered_lines`` chains
the two and checks for repeated keys.

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
from itertools import islice
from operator import attrgetter
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

    Raises NormalizationError when nothing survives (e.g. a blank or
    punctuation-only line).
    """
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


BLOCK_LINES = 1024  # raw lines read and parsed at a time


def raw_blocks(path, size: int = BLOCK_LINES) -> Iterator[tuple[int, list[bytes]]]:
    """Yield ``(n, lines)`` for each run of up to ``size`` raw lines of a
    file, read lazily as bytes; ``n`` is the number (from 1) of the first
    line of the run, and lines end at ``\\n``."""
    with open(path, "rb") as fh:
        n = 1
        while lines := list(islice(fh, size)):
            yield n, lines
            n += len(lines)


def parse_block(path, first: int, lines: list[bytes], parse, error) -> list[tuple[int, Any]]:
    """``(n, parse(line))`` for each non-blank line ``n`` of a block that
    ``raw_blocks`` yielded, decoded as UTF-8.

    ``parse`` returns an item, returns None to skip the line, or raises
    ValueError(message). A parse error or a line that is not UTF-8 raises
    ``error(f"{path}, line {n}: …")``.
    """
    items = []
    for n, raw in enumerate(lines, first):
        try:
            line = raw.decode()  # UTF-8, the default, is the fastest call
            if line.isspace():
                continue
            item = parse(line)
        except ValueError as exc:
            raise error(f"{path}, line {n}: {exc}") from None
        if item is not None:
            items.append((n, item))
    return items


def numbered_lines(path, parse, error, keyed=None) -> Iterator[tuple[int, Any]]:
    """Yield ``(n, parse(line))`` for each non-blank line ``n`` (from 1) of
    a UTF-8 text file: ``parse_block`` over ``raw_blocks``.

    Any failure raises ``error(f"{path}, line {n}: …")``: a parse error, a
    line that is not UTF-8, or, when ``keyed`` is a ``(name, key)`` pair,
    an item whose ``key(item)`` an earlier line gave, naming that line too.
    """
    name, key_of = keyed or (None, None)
    first_line: dict = {}
    for first, lines in raw_blocks(path):
        for n, item in parse_block(path, first, lines, parse, error):
            if key_of:
                key = key_of(item)
                first_seen = first_line.setdefault(key, n)
                if first_seen != n:
                    message = f"{name} {key!r} is repeated, first on line {first_seen}"
                    raise error(f"{path}, line {n}: {message}")
            yield n, item


def json_object(text: str, **types: type) -> dict:
    """The JSON object in a text, one JSONL line or a whole file, each key
    of ``types`` holding a value of that type; anything else raises
    ValueError, which names the line of a syntax error past the first line."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        where = f"column {exc.colno}"
        if exc.lineno > 1:
            where = f"line {exc.lineno}, {where}"
        raise ValueError(f"invalid JSON: {exc.msg} at {where}") from None
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for key, typ in types.items():
        if not isinstance(obj.get(key), typ):
            raise ValueError(f"{key!r} is missing or not a {typ.__name__}")
    return obj


def sequence_from_json(line: str) -> LogSequence:
    """The sequence on one JSONL line: an object with a string ``id``, a
    non-empty list of string ``tokens`` and an optional ``gold_label`` of 0,
    1 or null; anything else raises ValueError."""
    obj = json_object(line, id=str, tokens=list)
    tokens = obj["tokens"]
    try:
        "".join(tokens)  # the cheapest full check that every token is a str
    except TypeError:
        raise IngestError("'tokens' holds a non-string token") from None
    gold = obj.get("gold_label")
    if gold is not None and (type(gold) is not int or gold not in (0, 1)):
        raise IngestError(f"'gold_label' must be 0, 1 or null, got {gold!r}")
    return LogSequence(id=obj["id"], tokens=tokens, gold_label=gold)


def read_jsonl(path) -> list[LogSequence]:
    """``sequence_from_json`` of each non-blank line of a JSONL file; a bad
    line, or an id already seen, raises IngestError naming the file and the
    line (both lines for a repeated id)."""
    keyed = ("sequence id", attrgetter("id"))
    return [seq for _, seq in numbered_lines(path, sequence_from_json, IngestError, keyed)]
