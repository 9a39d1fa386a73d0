"""The synthetic generator as it was written with one scalar numpy call per
random draw (``rng.random``, ``rng.integers``, ``rng.uniform``,
``rng.choice``).

``evaluation.generate_synthetic`` replays the same draws from raw
bit-generator words; this copy is the oracle it must equal sequence for
sequence. The body below ``rng = ...`` is kept verbatim: do not tidy it.
"""

import numpy as np

from loggad.evaluation import EvalError, SyntheticSpec
from loggad.ingest import LogSequence


def generate_synthetic_scalar(spec: SyntheticSpec) -> list[LogSequence]:
    rng = np.random.default_rng(spec.seed)
    n = spec.n_sequences
    n_anomaly = int(round(n * spec.anomaly_rate))
    labels = np.zeros(n, dtype=int)
    labels[rng.permutation(n)[:n_anomaly]] = 1

    def zipf_probs(n_words: int, exponent: float) -> np.ndarray:
        weights = np.arange(1, n_words + 1, dtype=float) ** -exponent
        return weights / weights.sum()

    normal = list(spec.normal_vocab)
    shared = list(spec.shared_vocab)
    anomalous = list(spec.anomaly_vocab)
    anomalous_set = set(anomalous)
    p_shared = zipf_probs(len(shared), spec.shared_zipf)
    p_anomalous = zipf_probs(len(anomalous), spec.anomaly_zipf)

    k = spec.n_communities
    if k < 1 or k > len(normal):
        raise EvalError(f"n_communities must be in [1, len(normal_vocab)], got {k}")
    block = len(normal) // k
    communities = [normal[i * block : (i + 1) * block] for i in range(k)]
    communities[-1].extend(normal[k * block :])
    p_comm = [zipf_probs(len(c), spec.zipf_exponent) for c in communities]

    def benign_word(comm: int) -> str:
        c = communities[comm]
        return c[int(rng.choice(len(c), p=p_comm[comm]))]

    lo_t, hi_t = spec.template_size

    atr = spec.anomaly_token_rate
    atr_lo, atr_hi = atr if isinstance(atr, tuple) else (atr, atr)

    def make_template(anomaly: bool) -> list[str]:
        size = int(rng.integers(lo_t, hi_t + 1))
        rate = rng.uniform(atr_lo, atr_hi)
        # a healthy template stays inside one community; a fault template
        # spreads its benign words round-robin over all of them
        home = int(rng.integers(k))
        words: list[str] = []
        benign_slots = 0
        for _ in range(size):
            if anomaly and rng.random() < rate:
                words.append(anomalous[int(rng.choice(len(anomalous), p=p_anomalous))])
            else:
                comm = (home + benign_slots) % k if anomaly else home
                words.append(benign_word(comm))
                benign_slots += 1
        if anomaly and not any(w in anomalous_set for w in words):
            # an anomaly template must stay detectable in principle
            words[int(rng.integers(len(words)))] = anomalous[
                int(rng.choice(len(anomalous), p=p_anomalous))
            ]
        return sorted(set(words))

    normal_templates = [make_template(False) for _ in range(spec.n_normal_templates)]
    anomaly_templates = [make_template(True) for _ in range(spec.n_anomaly_templates)]

    lo, hi = spec.length_range
    sequences = []
    for i in range(n):
        pool = anomaly_templates if labels[i] == 1 else normal_templates
        template = pool[int(rng.integers(len(pool)))]
        corrupted = rng.random() < spec.noise_rate
        length = int(rng.integers(lo, hi + 1))
        tokens = []
        for _ in range(length):
            if rng.random() < spec.shared_rate:
                tokens.append(shared[int(rng.choice(len(shared), p=p_shared))])
            elif corrupted and rng.random() < spec.noise_token_rate:
                ambient = normal_templates[int(rng.integers(len(normal_templates)))]
                tokens.append(ambient[int(rng.integers(len(ambient)))])
            else:
                tokens.append(template[int(rng.integers(len(template)))])
        sequences.append(LogSequence(id=f"seq_{i:06d}", tokens=tokens, gold_label=int(labels[i])))
    return sequences
