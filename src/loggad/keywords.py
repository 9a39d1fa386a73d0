"""Class-discriminative keyword scoring, selection and drift.

Scoring is term frequency within a predicted class times a smoothed
inverse document frequency raised to an exponent: the exponent sharpens
the preference for rare, class-specific words over merely frequent ones.
``score`` counts document and term frequencies of both classes in one
pass over the corpus, which keyword selection and the bootstrap share.
Drift between two iterations' keyword sets is the fraction of current
keywords that were not present in the previous set; it is the pipeline's
convergence signal.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from loggad.ingest import NUM_SENTINEL, LogSequence, numbered_lines

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
    warnings: list[str] = field(default_factory=list)

    def class_words(self, class_t: int) -> list[str]:
        return [w for w, _ in (self.anomaly if class_t == ANOMALY else self.normal)]

    def all_words(self) -> set[str]:
        return {w for w, _ in self.normal} | {w for w, _ in self.anomaly}

    def to_json(self, iteration: int) -> str:
        """The set as the ``keywords_NNN.json`` of ``iteration`` holds it."""
        return json.dumps(
            {
                "iteration": iteration,
                "normal": [[w, s] for w, s in self.normal],
                "anomaly": [[w, s] for w, s in self.anomaly],
            },
            ensure_ascii=False,
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


def extract_top(
    corpus: ClassifiedCorpus, Z: int, M: int, stopwords: Optional[frozenset[str] | set[str]] = None
) -> KeywordSet:
    """Select the top-Z keywords per class by TF-IDF^M (see ``score``).

    Higher TF-IDF^M ranks first; ties break by higher TF, then
    lexicographically. The digit sentinel and stopwords (the default list
    when ``stopwords`` is None) never qualify. A class with fewer than Z
    candidates yields a shorter list plus a warning.
    """
    if Z < 1:
        raise KeywordError("Z must be >= 1")
    stop = DEFAULT_STOPWORDS if stopwords is None else stopwords
    lists: dict[int, list[tuple[str, float]]] = {}
    warnings: list[str] = []
    for class_t, scores in score(corpus, M).items():
        ranked = sorted(
            ((w, s, count) for w, (s, count) in scores.items()
             if w != NUM_SENTINEL and w not in stop),
            key=lambda item: (-item[1], -item[2], item[0]),
        )
        if len(ranked) < Z:
            warnings.append(f"class {class_t}: only {len(ranked)} candidate keywords (< Z={Z})")
        lists[class_t] = [(w, s) for w, s, _ in ranked[:Z]]
    return KeywordSet(normal=lists[NORMAL], anomaly=lists[ANOMALY], warnings=warnings)


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
    cur, prev = (
        {(w, c) for c in (NORMAL, ANOMALY) for w in ks.class_words(c)} for ks in (current, previous)
    )
    if not cur:
        raise KeywordError("current keyword set is empty")
    return len(cur - prev) / len(cur)


def load_stopwords(path) -> frozenset[str]:
    """One stopword per line; blank lines and '#' comments ignored. A line
    that is not UTF-8 raises KeywordError naming it."""
    lines = numbered_lines(path, str.strip, KeywordError)
    return frozenset(word.lower() for _, word in lines if not word.startswith("#"))
