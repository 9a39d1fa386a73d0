"""Class-discriminative keyword scoring, selection and drift.

Scoring is term frequency within a predicted class times a smoothed
inverse document frequency raised to an exponent: the exponent sharpens
the preference for rare, class-specific words over merely frequent ones.
``score`` counts document and term frequencies of both classes in one
pass over the corpus and ``rank`` orders one class's result; keyword
selection and the bootstrap both read one ``score`` pass.
Drift between two iterations' keyword sets is the fraction of current
keywords that were not present in the previous set; it is the pipeline's
convergence signal.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from loggad.ingest import NUM_SENTINEL, LogSequence

# Sequences paired with a predicted (not gold) class label.
ClassifiedCorpus = list[tuple[LogSequence, int]]

NORMAL, ANOMALY = 0, 1

DEFAULT_STOPWORDS = frozenset(
    """a an and are as at be but by for from has have in is it its of on or
    that the this to was were will with not no if then than so such over
    under""".split()
)


class KeywordError(ValueError):
    pass


@dataclass
class KeywordSet:
    """Ordered (word, score) lists per class, scores non-increasing."""

    normal: list[tuple[str, float]]
    anomaly: list[tuple[str, float]]
    iteration_index: int = 0
    warnings: list[str] = field(default_factory=list)

    def class_list(self, class_t: int) -> list[tuple[str, float]]:
        return self.anomaly if class_t == ANOMALY else self.normal

    def class_words(self, class_t: int) -> list[str]:
        return [w for w, _ in self.class_list(class_t)]

    def all_words(self) -> set[str]:
        return {w for w, _ in self.normal} | {w for w, _ in self.anomaly}

    def to_json(self) -> str:
        return json.dumps(
            {
                "iteration": self.iteration_index,
                "normal": [[w, s] for w, s in self.normal],
                "anomaly": [[w, s] for w, s in self.anomaly],
            },
            ensure_ascii=False,
        )

    @classmethod
    def from_json(cls, text: str) -> "KeywordSet":
        obj = json.loads(text)
        return cls(
            normal=[(w, float(s)) for w, s in obj["normal"]],
            anomaly=[(w, float(s)) for w, s in obj["anomaly"]],
            iteration_index=int(obj["iteration"]),
        )


def score(corpus: ClassifiedCorpus, M: int) -> dict[int, dict[str, tuple[float, int]]]:
    """TF-IDF^M score and TF of every word, per predicted class, in one pass.

    TF is the raw occurrence count across class-t sequences; IDF is
    ln((N+1)/(df+1)) + 1 over the whole corpus. A word absent from class t
    has no entry there: its score is 0. A class without any sequence
    raises KeywordError.
    """
    if M < 1:
        raise KeywordError("IDF exponent M must be >= 1")
    df: Counter = Counter()
    tf = {NORMAL: Counter(), ANOMALY: Counter()}
    for seq, lbl in corpus:
        df.update(set(seq.tokens))
        tf[lbl].update(seq.tokens)
    for class_t, counts in tf.items():
        if not counts:  # a LogSequence holds at least one token
            raise KeywordError(f"corpus has no sequence in class {class_t}")
    n_docs = len(corpus)
    idf_m = {w: (math.log((n_docs + 1) / (d + 1)) + 1.0) ** M for w, d in df.items()}
    return {
        class_t: {w: (count * idf_m[w], count) for w, count in counts.items()}
        for class_t, counts in tf.items()
    }


def rank(
    class_scores: dict[str, tuple[float, int]],
    stopwords: Optional[frozenset[str] | set[str]] = None,
) -> list[tuple[str, float]]:
    """Every candidate keyword of one class of ``score``'s result, best first.

    Higher TF-IDF^M ranks first; ties break by higher TF, then
    lexicographically. The digit sentinel and stopwords (the default list
    when ``stopwords`` is None) never qualify.
    """
    stop = DEFAULT_STOPWORDS if stopwords is None else stopwords
    scored = sorted(
        ((w, s, count) for w, (s, count) in class_scores.items()
         if w != NUM_SENTINEL and w not in stop),
        key=lambda item: (-item[1], -item[2], item[0]),
    )
    return [(w, s) for w, s, _ in scored]


def extract_top(
    corpus: ClassifiedCorpus,
    Z: int,
    M: int,
    stopwords: Optional[frozenset[str] | set[str]] = None,
    iteration_index: int = 0,
) -> KeywordSet:
    """Select the top-Z keywords per class by TF-IDF^M (see ``score`` and
    ``rank``). A class with fewer than Z candidates yields a shorter list
    plus a warning.
    """
    if Z < 1:
        raise KeywordError("Z must be >= 1")
    lists: dict[int, list[tuple[str, float]]] = {}
    warnings: list[str] = []
    for class_t, scores in score(corpus, M).items():
        ranked = rank(scores, stopwords)
        if len(ranked) < Z:
            warnings.append(
                f"class {class_t}: only {len(ranked)} candidate keywords (< Z={Z})"
            )
        lists[class_t] = ranked[:Z]
    return KeywordSet(
        normal=lists[NORMAL],
        anomaly=lists[ANOMALY],
        iteration_index=iteration_index,
        warnings=warnings,
    )


def drift(current: KeywordSet, previous: KeywordSet) -> float:
    """Fraction of current keywords absent from the previous set.

    Keywords are class-labeled, so the sets compared are (word, class)
    pairs: a word migrating between the anomaly and normal lists counts
    as drift just like a brand-new word. That migration churn is the
    signature of an unstable labeling, which is exactly what convergence
    is supposed to rule out. 0 iff current is a subset of previous; 1 iff
    disjoint. Not symmetric: the denominator is the size of the current
    set.
    """
    cur = {(w, ANOMALY) for w, _ in current.anomaly} | {
        (w, NORMAL) for w, _ in current.normal
    }
    if not cur:
        raise KeywordError("current keyword set is empty")
    prev = {(w, ANOMALY) for w, _ in previous.anomaly} | {
        (w, NORMAL) for w, _ in previous.normal
    }
    return len(cur - prev) / len(cur)


def load_stopwords(path) -> frozenset[str]:
    """One stopword per line; blank lines and '#' comments ignored."""
    words = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                words.add(line.lower())
    return frozenset(words)
