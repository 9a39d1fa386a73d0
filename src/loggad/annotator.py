"""Subgraph annotator: a small sum-aggregation graph network, hand-rolled.

Per layer, each node representation becomes
MLP(sum of neighbor representations + (1 + eps) * own representation)
with a learnable scalar eps per layer; the graph readout concatenates the
per-layer sums of node representations (layer 0 is the raw features) and a
linear head maps that to 2 logits. Forward, backward and the optimizer are
plain numpy; gradients are checked against finite differences in tests.

The kernel is batched: one forward and one backward pass per minibatch. The
node rows of a batch's subgraphs are stacked, each subgraph's own adjacency
block is applied to its rows, and the readout is a segment sum per
subgraph. The first MLP weight is applied before aggregating, which is the
same map by linearity and keeps the |V|+2-wide one-hot features out of the
message passing. A single subgraph is a batch of one; training, the
tests and ``annotate`` all run this one pass.

Training happens in two phases: self-supervised pre-training on random-walk
subgraphs (predict the walk's start class), then fine-tuning on sequence
subgraphs against decisive keyword-count votes, with the previous
iteration's classifier labels standing in for indecisive ones. Both phases
run through ``nn.fit``; they differ only in the batches they feed it. The
trained model then pseudo-labels every sequence.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from loggad import nn
from loggad.graph import EventGraph, induce_sequence_subgraph
from loggad.ingest import LogSequence
from loggad.keywords import ANOMALY, NORMAL, KeywordSet
from loggad.walks import WalkSampler


class AnnotatorError(ValueError):
    pass


@dataclass
class AnnotatorModel:
    params: nn.Params
    n_layers: int
    hidden: int
    in_dim: int
    vocab_hash: str
    identity_mode: bool = False  # test harness: layers pass aggregation through

    @classmethod
    def create(
        cls,
        in_dim: int,
        rng: np.random.Generator,
        n_layers: int = 3,
        hidden: int = 64,
        vocab_hash: str = "",
        identity_mode: bool = False,
    ) -> "AnnotatorModel":
        params: nn.Params = {}
        d = in_dim
        for k in range(1, n_layers + 1):
            params[f"eps{k}"] = np.zeros(1)
            if not identity_mode:
                params[f"W1_{k}"] = nn.xavier(rng, d, hidden)
                params[f"b1_{k}"] = np.zeros(hidden)
                params[f"W2_{k}"] = nn.xavier(rng, hidden, hidden)
                params[f"b2_{k}"] = np.zeros(hidden)
                d = hidden
        readout_dim = in_dim * (n_layers + 1) if identity_mode else in_dim + n_layers * hidden
        params["head_W"] = nn.xavier(rng, readout_dim, 2)
        params["head_b"] = np.zeros(2)
        return cls(
            params=params,
            n_layers=n_layers,
            hidden=hidden,
            in_dim=in_dim,
            vocab_hash=vocab_hash,
            identity_mode=identity_mode,
        )

    def save(self, path) -> None:
        nn.save_checkpoint(
            path,
            self.params,
            {
                "kind": "annotator",
                "n_layers": self.n_layers,
                "hidden": self.hidden,
                "in_dim": self.in_dim,
                "vocab_hash": self.vocab_hash,
                "identity_mode": self.identity_mode,
            },
        )

    @classmethod
    def load(cls, path) -> "AnnotatorModel":
        params, meta = nn.load_checkpoint(path)
        if meta.get("kind") != "annotator":
            raise AnnotatorError(f"not an annotator checkpoint: {meta.get('kind')}")
        return cls(
            params=params,
            n_layers=meta["n_layers"],
            hidden=meta["hidden"],
            in_dim=meta["in_dim"],
            vocab_hash=meta["vocab_hash"],
            identity_mode=meta["identity_mode"],
        )


@dataclass
class PseudoLabel:
    sequence_id: str
    label: int
    confidence: float
    flagged: bool = False  # fallback path was taken


def _as_batch(sgs) -> tuple[list, bool]:
    """(subgraphs, single): one subgraph is a batch of one."""
    if isinstance(sgs, (list, tuple)):
        return list(sgs), False
    return [sgs], True


@dataclass
class _Pass:
    """One batched forward pass, kept for the backward pass.

    The node rows of all subgraphs are stacked; subgraph b owns rows
    ``starts[b]`` to ``starts[b] + sizes[b]`` and message passing applies its
    own adjacency block to them.
    """

    adjacency: list[np.ndarray]
    starts: np.ndarray
    sizes: np.ndarray
    reps: list[np.ndarray]  # R^(0..K), stacked node rows
    layers: list[tuple[np.ndarray, Optional[np.ndarray]]]  # per layer: H, tanh output T
    readout: np.ndarray  # (B, readout_dim)
    logits: np.ndarray  # (B, 2)

    def aggregate(self, H: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Each subgraph's adjacency (or its transpose) times its own rows of H."""
        out = np.empty_like(H)
        for A, s in zip(self.adjacency, self.starts):
            rows = slice(s, s + A.shape[0])
            np.matmul(A.T if transpose else A, H[rows], out=out[rows])
        return out


def _forward_pass(model: AnnotatorModel, sgs: list) -> _Pass:
    """Only ``.features``, ``.adjacency`` and ``.is_empty`` of a subgraph are read."""
    if not sgs:
        raise AnnotatorError("cannot run the annotator on an empty batch")
    if any(sg.is_empty for sg in sgs):
        raise AnnotatorError("cannot run the annotator on an empty subgraph")
    X = sgs[0].features if len(sgs) == 1 else np.concatenate([sg.features for sg in sgs])
    if X.shape[1] != model.in_dim:
        raise AnnotatorError(
            f"feature width {X.shape[1]} does not match model in_dim {model.in_dim}"
        )
    adjacency = [sg.adjacency for sg in sgs]
    sizes = np.array([A.shape[0] for A in adjacency])
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    fp = _Pass(adjacency, starts, sizes, [X], [], np.empty(0), np.empty(0))
    p = model.params
    for k in range(1, model.n_layers + 1):
        # (A R + (1+eps) R) W1 == A (R W1) + (1+eps) (R W1): multiplying by W1
        # first keeps the |V|+2-wide features out of the aggregation
        H = fp.reps[-1] if model.identity_mode else fp.reps[-1] @ p[f"W1_{k}"]
        Z = fp.aggregate(H)
        Z += (1.0 + p[f"eps{k}"][0]) * H
        if model.identity_mode:
            fp.layers.append((H, None))
            fp.reps.append(Z)
        else:
            Z += p[f"b1_{k}"]
            T = np.tanh(Z, out=Z)
            fp.layers.append((H, T))
            R = T @ p[f"W2_{k}"]
            R += p[f"b2_{k}"]
            fp.reps.append(R)
    fp.readout = np.concatenate([np.add.reduceat(R, starts, axis=0) for R in fp.reps], axis=1)
    fp.logits = fp.readout @ p["head_W"] + p["head_b"]
    return fp


def node_representations(model: AnnotatorModel, sgs) -> list[np.ndarray]:
    """Per-layer node representation matrices R^(0..K) of a subgraph, or of
    a list of subgraphs with their node rows stacked in order. Exposed for
    the layer-reduction tests."""
    return _forward_pass(model, _as_batch(sgs)[0]).reps


def forward(model: AnnotatorModel, sgs) -> np.ndarray:
    """2-class logits: (2,) for a subgraph, (B, 2) for a list of B subgraphs."""
    batch, single = _as_batch(sgs)
    logits = _forward_pass(model, batch).logits
    return logits[0] if single else logits


def loss_and_grads(model: AnnotatorModel, sgs, targets) -> tuple[float, nn.Params]:
    """Mean cross-entropy loss and its analytic gradients over a batch.

    ``sgs`` is a subgraph with an int target, or a list of subgraphs with
    one target each.
    """
    batch, _ = _as_batch(sgs)
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    if targets.shape != (len(batch),):
        raise AnnotatorError(f"{targets.size} targets for {len(batch)} subgraphs")
    fp = _forward_pass(model, batch)
    p = model.params
    loss, dlogits = nn.cross_entropy(fp.logits, targets)

    grads: nn.Params = {"head_W": fp.readout.T @ dlogits, "head_b": dlogits.sum(axis=0)}
    dreadout = dlogits @ p["head_W"].T
    offsets = np.cumsum([0] + [R.shape[1] for R in fp.reps])
    fp.reps.pop()  # R^(K) is only read out
    dR = None  # gradient reaching R^(k) from layer k+1
    # each forward array is dropped once its layer is done, to keep the peak low
    for k in range(model.n_layers, 0, -1):
        H, T = fp.layers.pop()
        # every node row of a subgraph gets its subgraph's readout gradient
        dZ = np.repeat(dreadout[:, offsets[k] : offsets[k + 1]], fp.sizes, axis=0)
        if dR is not None:
            dZ += dR
        if not model.identity_mode:
            grads[f"W2_{k}"] = T.T @ dZ
            grads[f"b2_{k}"] = dZ.sum(axis=0)
            dZ = dZ @ p[f"W2_{k}"].T
            dZ *= 1.0 - T * T
            grads[f"b1_{k}"] = dZ.sum(axis=0)
        grads[f"eps{k}"] = np.array([np.vdot(dZ, H)])
        dH = fp.aggregate(dZ, transpose=True)
        dH += (1.0 + p[f"eps{k}"][0]) * dZ
        P = fp.reps.pop()  # R^(k-1)
        if not model.identity_mode:
            grads[f"W1_{k}"] = P.T @ dH
            if k > 1:
                dH = dH @ p[f"W1_{k}"].T
        dR = dH
    return loss, {name: grads[name] for name in p}


def pretrain(
    model: AnnotatorModel,
    sampler: WalkSampler,
    steps: int,
    batch_size: int = 20,
    lr: float = 1e-4,
) -> list[float]:
    """Self-supervised pre-training: predict the start class of walks.

    Mutates the model in place and returns the loss trace. 0 steps leave
    the model unchanged.
    """
    batches = (
        [(s.subgraph, s.start_class) for s in sampler.sample_batch(batch_size)]
        for _ in range(steps)
    )
    return nn.fit(model.params, partial(loss_and_grads, model), batches, lr, "annotator")


def vote_counts(seq: LogSequence, keywords: KeywordSet) -> tuple[int, int]:
    """(Normal, Anomaly) keyword hits of a sequence, counted with multiplicity."""
    counts = Counter(seq.tokens)
    return (
        sum(counts[w] for w in keywords.class_words(NORMAL)),
        sum(counts[w] for w in keywords.class_words(ANOMALY)),
    )


def _vote(n: int, a: int) -> Optional[int]:
    if n + a == 0:
        return None
    return ANOMALY if a > n else NORMAL


def _margin(n: int, a: int) -> float:
    return abs(a - n) / (a + n) if n + a else 0.0


def vote_label(seq: LogSequence, keywords: KeywordSet) -> Optional[int]:
    """Keyword term-frequency vote: argmax over class keyword lists.

    Returns None (abstain) when the sequence contains no keyword at all;
    ties break toward Normal.
    """
    return _vote(*vote_counts(seq, keywords))


def vote_margin(seq: LogSequence, keywords: KeywordSet) -> float:
    """Decisiveness of the keyword vote: |A - N| / (A + N), 0 on abstain."""
    return _margin(*vote_counts(seq, keywords))


def _vote_pseudo_label(sequence_id: str, n: int, a: int) -> PseudoLabel:
    label = _vote(n, a)
    if label is None:
        return PseudoLabel(sequence_id, NORMAL, 0.5, flagged=True)
    return PseudoLabel(sequence_id, label, (a if label == ANOMALY else n) / (n + a))


def vote_annotate(corpus: list[LogSequence], keywords: KeywordSet) -> list[PseudoLabel]:
    """Pseudo-label by keyword counting alone (no graph model).

    Confidence is the winning class's share of keyword hits; abstentions
    fall back to Normal at 0.5 and are flagged.
    """
    return [_vote_pseudo_label(seq.id, *vote_counts(seq, keywords)) for seq in corpus]


def finetune(
    model: AnnotatorModel,
    corpus: list[LogSequence],
    graph: EventGraph,
    keywords: KeywordSet,
    epochs: int,
    lr: float = 1e-4,
    batch_size: int = 20,
    rng: Optional[np.random.Generator] = None,
    margin: float = 0.0,
    prior: Optional[Mapping[str, int]] = None,
) -> list[float]:
    """Fine-tune on sequence subgraphs.

    A sequence whose keyword vote is decisive (margin at or above the
    threshold) is trained toward that vote. An indecisive vote is never a
    target: ambiguous votes are exactly the ones the annotator exists to
    overrule. Such a sequence is trained toward its ``prior`` label instead
    (sequence id -> class, the previous iteration's classifier labels) when
    one is given, and skipped otherwise. Abstaining sequences (no keywords,
    hence empty subgraphs) are always skipped.
    Mutates the model in place and returns the loss trace.
    """
    _check_graph_match(model, graph)
    if not 0.0 <= margin < 1.0:
        raise AnnotatorError(f"margin must be in [0, 1), got {margin}")
    prior = prior or {}
    pairs = []
    for seq in corpus:
        n, a = vote_counts(seq, keywords)
        label = _vote(n, a)
        if label is None:
            continue
        if _margin(n, a) < margin:
            if seq.id not in prior:
                continue
            label = prior[seq.id]
        sg = induce_sequence_subgraph(graph, seq)
        if sg.is_empty:
            continue
        pairs.append((sg, label))
    if not pairs:
        raise AnnotatorError(
            "no fine-tuning targets: keyword set does not cover the corpus, "
            "or the margin threshold is too strict and no prior labels cover "
            "the indecisive votes"
        )
    batches = nn.minibatches(pairs, epochs, batch_size, rng or np.random.default_rng(0))
    return nn.fit(model.params, partial(loss_and_grads, model), batches, lr, "annotator")


ANNOTATE_BLOCK = 32  # sequences per batched forward pass in annotate


def annotate(
    model: AnnotatorModel,
    corpus: list[LogSequence],
    graph: EventGraph,
    keywords: KeywordSet,
) -> list[PseudoLabel]:
    """Pseudo-label every sequence.

    Subgraphs go through the batched forward pass a block of sequences at
    a time. Sequences with empty subgraphs fall back to the keyword vote;
    if that abstains too, they get Normal with confidence 0.5. Both
    fallbacks are flagged.
    """
    _check_graph_match(model, graph)
    labels = []
    for start in range(0, len(corpus), ANNOTATE_BLOCK):
        block = corpus[start : start + ANNOTATE_BLOCK]
        sgs = [induce_sequence_subgraph(graph, seq) for seq in block]
        scored = [sg for sg in sgs if not sg.is_empty]
        probs = iter(nn.softmax(forward(model, scored)) if scored else ())
        for seq, sg in zip(block, sgs):
            if sg.is_empty:
                vote = vote_label(seq, keywords)
                labels.append(
                    PseudoLabel(seq.id, NORMAL if vote is None else vote, 0.5, flagged=True)
                )
                continue
            row = next(probs)
            label = int(np.argmax(row))
            labels.append(PseudoLabel(seq.id, label, float(row[label])))
    return labels


def _check_graph_match(model: AnnotatorModel, graph: EventGraph) -> None:
    if model.vocab_hash and model.vocab_hash != graph.vocab_hash:
        raise AnnotatorError(
            "annotator was trained against a different graph vocabulary "
            f"({model.vocab_hash[:12]} != {graph.vocab_hash[:12]})"
        )
