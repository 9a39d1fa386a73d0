"""Keyword co-occurrence event graph.

Vertices are keywords that actually occur in the corpus; an edge joins two
keywords that appear within a token-distance window inside the same
sequence, weighted by total co-occurrence count. Node features live in
R^(2+|V|): two class-membership bits followed by a one-hot vertex index.
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
    edges: dict[tuple[int, int], int]  # i < j for undirected graphs
    directed: bool = False
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}
        n = len(self.words)
        for (i, j), f in self.edges.items():
            if i == j:
                raise GraphError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"edge ({i},{j}) out of range")
            if f < 1:
                raise GraphError(f"edge ({i},{j}) has frequency {f} < 1")
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
    def neighbor_lists(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per vertex: (neighbor indices, co-occurrence frequencies)."""
        acc: list[dict[int, int]] = [dict() for _ in self.words]
        for (i, j), f in self.edges.items():
            acc[i][j] = acc[i].get(j, 0) + f
            if not self.directed:
                acc[j][i] = acc[j].get(i, 0) + f
        out = []
        for row in acc:
            idx = np.array(sorted(row), dtype=np.int64)
            freq = np.array([row[k] for k in idx], dtype=np.float64)
            out.append((idx, freq))
        return out

    @cached_property
    def adjacency(self) -> np.ndarray:
        """(|V|, |V|) binary adjacency, symmetric even for directed graphs."""
        n = len(self.words)
        adj = np.zeros((n, n))
        if self.edges:
            i, j = np.array(list(self.edges), dtype=np.int64).T
            adj[i, j] = 1.0
            adj[j, i] = 1.0
        return adj

    def frequency(self, a: int, b: int) -> int:
        if self.directed:
            return self.edges.get((a, b), 0)
        return self.edges.get((a, b) if a < b else (b, a), 0)

    def class_vertices(self, class_t: int) -> np.ndarray:
        return np.flatnonzero(self.class_flags[:, class_t] > 0)

    @cached_property
    def vocab_hash(self) -> str:
        payload = json.dumps(
            {"words": self.words, "flags": self.class_flags.tolist()}, sort_keys=True
        ).encode()
        return hashlib.sha256(payload).hexdigest()

    def to_json(self) -> str:
        return json.dumps(
            {
                "vertices": [
                    {"word": w, "class_flags": self.class_flags[i].astype(int).tolist()}
                    for i, w in enumerate(self.words)
                ],
                "edges": [[i, j, int(f)] for (i, j), f in sorted(self.edges.items())],
                "directed": self.directed,
            },
            ensure_ascii=False,
        )


@dataclass
class WalkPolicy:
    """Normalized outgoing transition probabilities per vertex."""

    neighbors: list[np.ndarray]
    probabilities: list[np.ndarray]
    cumulative: list[np.ndarray] = field(init=False)

    def __post_init__(self):
        self.cumulative = [np.cumsum(p) for p in self.probabilities]

    def is_dead_end(self, vertex: int) -> bool:
        return self.neighbors[vertex].size == 0


@dataclass
class Subgraph:
    """Induced subgraph of an EventGraph over a vertex subset."""

    graph: EventGraph
    vertex_ids: np.ndarray  # sorted graph indices

    def __post_init__(self):
        self.vertex_ids = np.asarray(sorted(set(int(v) for v in self.vertex_ids)), dtype=np.int64)

    @property
    def n_vertices(self) -> int:
        return int(self.vertex_ids.size)

    @property
    def is_empty(self) -> bool:
        return self.vertex_ids.size == 0

    @cached_property
    def adjacency(self) -> np.ndarray:
        """(n, n) binary adjacency, undirected, for message passing."""
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
    directed: bool = False,
) -> EventGraph:
    """Build the event graph from a keyword set and a token corpus.

    Vertices are keywords (either class) occurring at least once. Two
    keywords co-occur when they appear within ``cooccur_window`` tokens of
    each other in the same sequence; each such position pair adds 1 to the
    edge frequency. Directed mode counts earlier-to-later pairs only.
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

    edges: dict[tuple[int, int], int] = {}
    for seq in corpus:
        hits = [(pos, index[tok]) for pos, tok in enumerate(seq.tokens) if tok in index]
        for a in range(len(hits)):
            pa, va = hits[a]
            for b in range(a + 1, len(hits)):
                pb, vb = hits[b]
                if pb - pa > cooccur_window:
                    break
                if va == vb:
                    continue
                key = (va, vb) if directed else (min(va, vb), max(va, vb))
                edges[key] = edges.get(key, 0) + 1
    return EventGraph(words=words, class_flags=flags, edges=edges, directed=directed)


def transition_probabilities(g: EventGraph) -> WalkPolicy:
    """Row-normalize co-occurrence frequencies into walk probabilities.

    Isolated vertices get an empty row (dead end).
    """
    if g.n_vertices == 0:
        raise GraphError("empty graph")
    neighbors = []
    probabilities = []
    for idx, freq in g.neighbor_lists:
        neighbors.append(idx)
        if idx.size == 0:
            probabilities.append(np.zeros(0))
        else:
            probabilities.append(freq / freq.sum())
    return WalkPolicy(neighbors=neighbors, probabilities=probabilities)


def induce_sequence_subgraph(g: EventGraph, seq: LogSequence) -> Subgraph:
    """Subgraph induced by the graph keywords present in a sequence.

    Empty subgraphs are permitted (sequence contains no keywords).
    """
    ids = sorted({g.index[tok] for tok in seq.tokens if tok in g.index})
    return Subgraph(graph=g, vertex_ids=np.array(ids, dtype=np.int64))
