"""Random-walk generation of self-supervision pairs.

A training pair is made by picking a class uniformly, picking a start
keyword of that class uniformly, drawing a walk length from a Gaussian
fitted to per-sequence keyword counts, and walking the event graph with
frequency-proportional transition probabilities, one ``bisect_right`` on a
row of cumulative probabilities per step. The induced subgraph over
the distinct visited vertices, labeled with the start class, imitates a
log sequence's subgraph.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from loggad.graph import EventGraph, Subgraph
from loggad.ingest import LogSequence
from loggad.keywords import KeywordSet


class WalkError(ValueError):
    pass


@dataclass
class WalkLengthModel:
    """Walk lengths drawn from N(mu, sigma2), rounded and clipped to [1, l_max]."""

    mu: float
    sigma2: float  # unbiased variance
    l_max: int = 64

    def sample_length(self, rng: np.random.Generator) -> int:
        raw = rng.normal(self.mu, np.sqrt(self.sigma2))
        return min(max(round(raw), 1), self.l_max)


@dataclass
class WalkSample:
    start_class: int
    start_word: str
    subgraph: Subgraph


def fit_length_model(
    corpus: list[LogSequence], keywords: KeywordSet, l_max: int = 64
) -> WalkLengthModel:
    """Mean and unbiased variance of per-sequence keyword token counts. A word
    on both class lists counts once here, but once per class in the vote."""
    if len(corpus) < 2:
        raise WalkError("need >= 2 sequences to estimate variance")
    words = keywords.all_words()
    counts = np.array([sum(1 for t in seq.tokens if t in words) for seq in corpus], dtype=float)
    mu = counts.mean()
    sigma2 = counts.var(ddof=1)
    return WalkLengthModel(mu=float(mu), sigma2=float(sigma2), l_max=l_max)


def sample_walk(
    g: EventGraph,
    transitions: Sequence[Sequence[float]],
    model: WalkLengthModel,
    rng: np.random.Generator,
) -> WalkSample:
    """One self-supervision sample: class, start keyword, walked subgraph.

    ``transitions`` holds the row-cumulative probabilities of
    ``graph.transition_probabilities``, as its array or as the per-row
    ``array('d')`` copies that ``WalkSampler`` keeps. The walk takes L
    transition steps, or none when it starts on a dead end (an all-zero
    row): the event graph is symmetric, so a walk that leaves its start
    never meets one. The L uniforms come from one ``rng.random(L)`` call,
    the same doubles as L scalar draws. Each step is the first column whose
    cumulative probability exceeds its draw, and repeated visits collapse
    into the distinct-vertex set.
    """
    start_class = int(rng.integers(2))
    candidates = g.class_vertices(start_class)
    if candidates.size == 0:
        raise WalkError(f"class {start_class} has no keyword present in the graph")
    start = int(candidates[rng.integers(candidates.size)])
    length = model.sample_length(rng)
    visited = {start}
    if transitions[start][-1] != 0.0:
        current = start
        for u in rng.random(length).tolist():
            current = bisect_right(transitions[current], u)
            visited.add(current)
    return WalkSample(
        start_class=start_class,
        start_word=g.words[start],
        subgraph=Subgraph(graph=g, vertex_ids=list(visited)),
    )


class WalkSampler:
    """Bundles graph, transition rows, length model and a seeded RNG."""

    def __init__(
        self,
        g: EventGraph,
        transitions: np.ndarray,
        model: WalkLengthModel,
        rng: np.random.Generator,
    ):
        for class_t in (0, 1):
            if g.class_vertices(class_t).size == 0:
                raise WalkError(f"class {class_t} has no keyword present in the graph")
        self.graph = g
        # sample_walk bisects these: bisect_right on an array('d') row is
        # several times faster than np.searchsorted, at the float64 size
        self.transitions = [array("d", row) for row in transitions]
        self.model = model
        self.rng = rng

    def sample(self) -> WalkSample:
        return sample_walk(self.graph, self.transitions, self.model, self.rng)

    def sample_batch(self, n: int) -> list[WalkSample]:
        return [self.sample() for _ in range(n)]
