"""Look inside the event graph and the random-walk sampler.

Builds the keyword co-occurrence graph for a small synthetic corpus,
prints its highest-degree vertices and transition rows, then samples a
few class-labeled walks of Gaussian-distributed length — the exact
pretraining signal the subgraph annotator learns from.

Run: python3 demos/inspect_graph_and_walks.py
"""

import numpy as np

from loggad import evaluation as ev
from loggad import walks
from loggad.graph import build, transition_probabilities
from loggad.keywords import extract_top

CLASS_NAMES = {0: "normal", 1: "anomaly"}


def main():
    spec = ev.SyntheticSpec(n_sequences=400, anomaly_rate=0.1)
    corpus = ev.generate_synthetic(spec)
    labeled = [(s, s.gold_label) for s in corpus]

    keywords = extract_top(labeled, Z=25, M=4)
    print("top anomaly keywords:", [w for w, _ in keywords.anomaly[:8]])
    print("top normal keywords: ", [w for w, _ in keywords.normal[:8]])

    graph = build(keywords, corpus, cooccur_window=10)
    transitions = transition_probabilities(graph)
    degrees = np.count_nonzero(graph.frequency, axis=1)
    print(f"\ngraph: {graph.n_vertices} vertices, {degrees.sum() // 2} edges")
    for v in np.argsort(-degrees)[:5]:
        flags = graph.class_flags[v]
        cls = "both" if flags.all() else CLASS_NAMES[int(flags[1])]
        print(f"  {graph.words[v]:24s} degree={degrees[v]:3d} class={cls}")

    hub = int(np.argmax(degrees))
    row = np.diff(transitions[hub], prepend=0.0)  # cumulative row -> probabilities
    top = np.argsort(-row, kind="stable")[: min(4, degrees[hub])]
    print(f"\ntransition row for '{graph.words[hub]}' (top 4 next-hops):")
    for k in top:
        print(f"  -> {graph.words[k]:24s} p={row[k]:.3f}")

    length_model = walks.fit_length_model(corpus, keywords)
    print(f"\nwalk length ~ N(mu={length_model.mu:.1f}, sigma2={length_model.sigma2:.1f})")
    sampler = walks.WalkSampler(graph, transitions, length_model, np.random.default_rng(0))
    for _ in range(4):
        sample = sampler.sample()
        words = [graph.words[v] for v in sample.subgraph.vertex_ids[:6]]
        print(f"  start_class={CLASS_NAMES[sample.start_class]:7s} "
              f"|subgraph|={sample.subgraph.n_vertices:2d} words={words}")


if __name__ == "__main__":
    main()
