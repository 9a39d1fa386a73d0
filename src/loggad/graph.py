"""Keyword co-occurrence event graph.

Vertices are keywords that actually occur in the corpus; an edge joins two
keywords that appear within a token-distance window inside the same
sequence, weighted by total co-occurrence count. The graph is stored once,
as a dense |V|x|V| integer frequency matrix (|V| <= 2Z): the adjacency,
the walk transition rows and the JSON edge list are all derived from it.
``build`` counts every sequence at once, one ``np.add.at`` per token offset.
Node features live in R^(2+|V|): two class-membership bits followed by a
one-hot vertex index.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from loggad.ingest import LogSequence
from loggad.keywords import ANOMALY, NORMAL, KeywordSet


class GraphError(ValueError):
    pass


class EmptyGraphError(GraphError):
    """No keyword occurs in the corpus; the iteration cannot proceed."""


@dataclass
class EventGraph:
    words: list[str]
    class_flags: np.ndarray  # (|V|, 2) float64, [in normal list, in anomaly list]
    frequency: np.ndarray  # (|V|, |V|) int64 symmetric co-occurrence counts
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}
        n = len(self.words)
        freq = self.frequency
        if freq.shape != (n, n) or not np.issubdtype(freq.dtype, np.integer):
            raise GraphError(f"frequency must be an integer ({n}, {n}) matrix")
        if np.any(np.diagonal(freq)):
            raise GraphError("self-loop on the frequency diagonal")
        if np.any(freq < 0):
            raise GraphError("negative co-occurrence count")
        if not np.array_equal(freq, freq.T):
            raise GraphError("frequency matrix is not symmetric")
        if not np.all(self.class_flags.sum(axis=1) >= 1):
            raise GraphError("every vertex must belong to at least one class")

    @property
    def n_vertices(self) -> int:
        return len(self.words)

    @property
    def feature_dim(self) -> int:
        return 2 + len(self.words)

    @cached_property
    def features(self) -> np.ndarray:
        """(|V|, 2+|V|): class bits then one-hot index."""
        n = len(self.words)
        feats = np.zeros((n, 2 + n))
        feats[:, :2] = self.class_flags
        feats[np.arange(n), 2 + np.arange(n)] = 1.0
        return feats

    @cached_property
    def adjacency(self) -> np.ndarray:
        """(|V|, |V|) binary adjacency."""
        return (self.frequency > 0).astype(np.float64)

    def class_vertices(self, class_t: int) -> np.ndarray:
        return np.flatnonzero(self.class_flags[:, class_t] > 0)

    @cached_property
    def vocab_hash(self) -> str:
        payload = json.dumps(
            {"words": self.words, "flags": self.class_flags.tolist()}, sort_keys=True
        ).encode()
        return hashlib.sha256(payload).hexdigest()

    def to_json(self) -> str:
        freq = np.triu(self.frequency)
        rows, cols = np.nonzero(freq)
        counts = freq[rows, cols]
        return json.dumps(
            {
                "vertices": [
                    {"word": w, "class_flags": self.class_flags[i].astype(int).tolist()}
                    for i, w in enumerate(self.words)
                ],
                "edges": [list(e) for e in zip(rows.tolist(), cols.tolist(), counts.tolist())],
            },
            ensure_ascii=False,
        )


@dataclass
class Subgraph:
    """Induced subgraph of an EventGraph over a vertex subset."""

    graph: EventGraph
    vertex_ids: np.ndarray  # graph indices, sorted and deduplicated on init

    def __post_init__(self):
        self.vertex_ids = np.unique(np.asarray(self.vertex_ids, dtype=np.int64))

    @property
    def n_vertices(self) -> int:
        return int(self.vertex_ids.size)

    @property
    def is_empty(self) -> bool:
        return self.vertex_ids.size == 0

    @cached_property
    def adjacency(self) -> np.ndarray:
        """(n, n) binary adjacency for message passing."""
        return self.graph.adjacency[np.ix_(self.vertex_ids, self.vertex_ids)]

    @property
    def features(self) -> np.ndarray:
        """(n, 2+|V|) rows of the graph's features, gathered on each access.

        Not cached: a batched forward pass copies them into its own stacked
        matrix, and a cached copy on every fine-tuning subgraph would hold
        2+|V| floats per vertex for the whole training.
        """
        return self.graph.features[self.vertex_ids]


def build(
    keywords: KeywordSet,
    corpus: list[LogSequence],
    cooccur_window: int = 10,
) -> EventGraph:
    """Build the event graph from a keyword set and a token corpus.

    Vertices are keywords (either class) occurring at least once. Two
    keywords co-occur when they appear within ``cooccur_window`` tokens of
    each other in the same sequence; each such position pair adds 1 to the
    edge frequency, on both (i, j) and (j, i).
    """
    if cooccur_window < 1:
        raise GraphError("cooccur_window must be >= 1")
    normal_words = set(keywords.class_words(NORMAL))
    anomaly_words = set(keywords.class_words(ANOMALY))
    all_kw = normal_words | anomaly_words
    if not all_kw:
        raise GraphError("keyword set is empty")

    occurring = set()
    for seq in corpus:
        occurring.update(all_kw.intersection(seq.tokens))
    if not occurring:
        raise EmptyGraphError("no keyword occurs in the corpus")

    words = sorted(occurring)
    index = {w: i for i, w in enumerate(words)}
    flags = np.zeros((len(words), 2))
    for w, i in index.items():
        if w in normal_words:
            flags[i, NORMAL] = 1.0
        if w in anomaly_words:
            flags[i, ANOMALY] = 1.0

    # One stream of vertex ids (-1 for other tokens), with cooccur_window
    # -1s after each sequence so that no counted pair spans two sequences.
    gap = [-1] * cooccur_window
    stream: list[int] = []
    for seq in corpus:
        stream.extend([index.get(tok, -1) for tok in seq.tokens])
        stream.extend(gap)
    ids = np.asarray(stream, dtype=np.int64)
    freq = np.zeros((len(words), len(words)), dtype=np.int64)
    for d in range(1, cooccur_window + 1):
        a, b = ids[:-d], ids[d:]
        keep = (a >= 0) & (b >= 0) & (a != b)
        np.add.at(freq, (a[keep], b[keep]), 1)
    return EventGraph(words=words, class_flags=flags, frequency=freq + freq.T)


def transition_probabilities(g: EventGraph) -> np.ndarray:
    """Row-cumulative walk probabilities, (|V|, |V|) float64.

    Row v is the running sum of F[v] / sum(F[v]); the next vertex after v
    is the first column whose entry exceeds a uniform draw. That sum can
    round below 1 (ten equal neighbours end at 0.9999999999999999), so from
    a row's last positive column on it is raised to at least 1.0: a draw
    just below 1 then lands on that column instead of past the row's end.
    An isolated vertex gets an all-zero row (dead end).
    """
    if g.n_vertices == 0:
        raise GraphError("empty graph")
    freq = g.frequency
    cum = np.cumsum(freq / np.maximum(freq.sum(axis=1, keepdims=True), 1), axis=1)
    n = g.n_vertices
    last = n - 1 - np.argmax(freq[:, ::-1] > 0, axis=1)
    tail = (np.arange(n) >= last[:, None]) & (cum[:, -1:] > 0)
    np.maximum(cum, 1.0, out=cum, where=tail)
    return cum


def induce_sequence_subgraph(g: EventGraph, seq: LogSequence) -> Subgraph:
    """Subgraph induced by the graph keywords present in a sequence.

    Empty subgraphs are permitted (sequence contains no keywords).
    """
    index = g.index
    return Subgraph(graph=g, vertex_ids=[index[tok] for tok in seq.tokens if tok in index])
