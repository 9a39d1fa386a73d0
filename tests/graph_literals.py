"""Hand-written event graphs for the tests.

Tests write a graph's edges as the literal ``{(i, j): frequency}``, with
``i < j``. These helpers turn that literal into the dense frequency matrix
an ``EventGraph`` stores, and read a graph or its transition rows back in
the same per-vertex form.
"""

import numpy as np


def frequency_matrix(n, edges):
    """(n, n) int64 counts from an edge literal, mirrored across the diagonal."""
    freq = np.zeros((n, n), dtype=np.int64)
    for (i, j), f in edges.items():
        freq[i, j] += f
        freq[j, i] += f
    return freq


def edge_literal(g):
    """The graph's edges as ``{(i, j): frequency}``, ``i < j``."""
    freq = np.triu(g.frequency)
    return {(int(i), int(j)): int(freq[i, j]) for i, j in zip(*np.nonzero(freq))}


def out_neighbors(g, v):
    """Out-neighbours of v in index order."""
    return np.flatnonzero(g.frequency[v])


def step_probabilities(g, transitions, v):
    """Per-neighbour transition probabilities of v, from its cumulative row."""
    return np.diff(transitions[v], prepend=0.0)[out_neighbors(g, v)]
