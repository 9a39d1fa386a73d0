"""Subgraph annotator: a small sum-aggregation graph network, hand-rolled.

Per layer, each node representation becomes
MLP(sum of neighbor representations + (1 + eps) * own representation)
with a learnable scalar eps per layer; the graph readout concatenates the
per-layer sums of node representations (layer 0 is the raw features) and a
linear head maps that to 2 logits. Forward, backward and the optimizer are
plain numpy; gradients are checked against finite differences in tests.

The kernel takes a list of subgraphs: one forward and one backward pass
per batch. The node rows of the subgraphs are stacked, each subgraph's own
adjacency block is applied to its rows, and the readout is a segment sum
per subgraph. The first MLP weight is applied before aggregating, which is
the same map by linearity and keeps the |V|+2-wide one-hot features out of
the message passing. Training and ``annotate`` run this one pass.

Training happens in two phases: self-supervised pre-training on random-walk
subgraphs (predict the walk's start class), then fine-tuning on sequence
subgraphs toward ``targets``: decisive keyword-count votes, with the previous
iteration's classifier labels standing in for indecisive ones. Both phases
run through ``nn.fit``; they differ only in the batches they feed it. The
trained model then labels the same subgraphs. ``vote_counts`` is the one
keyword vote that ``targets`` and the counting-only ``vote_annotate`` read,
and ``pseudo_labels`` the one cut from class shares to pseudo-labels that
``vote_annotate`` (vote shares) and ``annotate`` (softmax rows) share.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from loggad import nn
from loggad.ingest import LogSequence
from loggad.keywords import ANOMALY, NORMAL, KeywordSet
from loggad.walks import WalkSampler


class AnnotatorError(ValueError):
    pass


@dataclass
class AnnotatorModel:
    params: nn.Params
    n_layers: int
    in_dim: int

    @classmethod
    def create(
        cls,
        in_dim: int,
        rng: np.random.Generator,
        n_layers: int = 3,
        hidden: int = 64,
    ) -> "AnnotatorModel":
        params: nn.Params = {}
        d = in_dim
        for k in range(1, n_layers + 1):
            params[f"eps{k}"] = np.zeros(1)
            params[f"W1_{k}"] = nn.xavier(rng, d, hidden)
            params[f"b1_{k}"] = np.zeros(hidden)
            params[f"W2_{k}"] = nn.xavier(rng, hidden, hidden)
            params[f"b2_{k}"] = np.zeros(hidden)
            d = hidden
        params["head_W"] = nn.xavier(rng, in_dim + n_layers * hidden, 2)
        params["head_b"] = np.zeros(2)
        return cls(params=params, n_layers=n_layers, in_dim=in_dim)


@dataclass
class PseudoLabel:
    sequence_id: str
    label: int
    confidence: float
    flagged: bool = False  # fallback path was taken


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
    layers: list[tuple[np.ndarray, np.ndarray]]  # per layer: H, tanh output T
    readout: np.ndarray  # (B, readout_dim)
    logits: np.ndarray  # (B, 2)

    def aggregate(self, H: np.ndarray) -> np.ndarray:
        """Each subgraph's adjacency (symmetric, so also its transpose) times its own rows of H."""
        out = np.empty_like(H)
        for A, s in zip(self.adjacency, self.starts):
            rows = slice(s, s + A.shape[0])
            np.matmul(A, H[rows], out=out[rows])
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
        H = fp.reps[-1] @ p[f"W1_{k}"]
        Z = fp.aggregate(H)
        Z += (1.0 + p[f"eps{k}"][0]) * H
        Z += p[f"b1_{k}"]
        T = np.tanh(Z, out=Z)
        fp.layers.append((H, T))
        R = T @ p[f"W2_{k}"]
        R += p[f"b2_{k}"]
        fp.reps.append(R)
    fp.readout = np.concatenate([np.add.reduceat(R, starts, axis=0) for R in fp.reps], axis=1)
    fp.logits = fp.readout @ p["head_W"] + p["head_b"]
    return fp


def node_representations(model: AnnotatorModel, sgs: list) -> list[np.ndarray]:
    """Per-layer node representation matrices R^(0..K) of a list of
    subgraphs, their node rows stacked in order. Exposed for the layer
    oracle tests."""
    return _forward_pass(model, sgs).reps


def forward(model: AnnotatorModel, sgs: list) -> np.ndarray:
    """(B, 2) class logits for a list of B subgraphs."""
    return _forward_pass(model, sgs).logits


def loss_and_grads(model: AnnotatorModel, sgs: list, targets) -> tuple[float, nn.Params]:
    """Mean cross-entropy loss and its analytic gradients over a list of
    subgraphs with one target each."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (len(sgs),):
        raise AnnotatorError(f"{targets.size} targets for {len(sgs)} subgraphs")
    fp = _forward_pass(model, sgs)
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
        grads[f"W2_{k}"] = T.T @ dZ
        grads[f"b2_{k}"] = dZ.sum(axis=0)
        dZ = dZ @ p[f"W2_{k}"].T
        dZ *= 1.0 - T * T
        grads[f"b1_{k}"] = dZ.sum(axis=0)
        grads[f"eps{k}"] = np.array([np.vdot(dZ, H)])
        dH = fp.aggregate(dZ)
        dH += (1.0 + p[f"eps{k}"][0]) * dZ
        P = fp.reps.pop()  # R^(k-1)
        grads[f"W1_{k}"] = P.T @ dH
        if k > 1:
            dH = dH @ p[f"W1_{k}"].T
        dR = dH
    return loss, {name: grads[name] for name in p}


def pretrain(
    model: AnnotatorModel,
    sampler: WalkSampler,
    steps: int,
    batch_size: int,
    lr: float,
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


class Vote(NamedTuple):
    """(Normal, Anomaly) keyword hits of one sequence and the vote they cast."""

    n: int
    a: int

    @property
    def label(self) -> Optional[int]:
        """Argmax class, ties toward Normal; None (abstain) without any keyword."""
        if self.n + self.a == 0:
            return None
        return ANOMALY if self.a > self.n else NORMAL

    @property
    def margin(self) -> float:
        """Decisiveness of the vote: |A - N| / (A + N), 0 on abstain."""
        return abs(self.a - self.n) / (self.a + self.n) if self.n + self.a else 0.0


def vote_counts(corpus: list[LogSequence], keywords: KeywordSet) -> list[Vote]:
    """The keyword term-frequency vote of every sequence, hits counted with
    multiplicity. A word on both class lists counts once for each class.
    """
    normal, anomaly = set(keywords.class_words(NORMAL)), set(keywords.class_words(ANOMALY))
    return [
        Vote(sum(1 for t in seq.tokens if t in normal), sum(1 for t in seq.tokens if t in anomaly))
        for seq in corpus
    ]


def pseudo_labels(
    corpus: list[LogSequence], shares: Iterable[Optional[tuple[float, float]]]
) -> list[PseudoLabel]:
    """Each sequence's (Normal, Anomaly) share pair is labelled the larger
    share's class, ties going to Normal, at that share; None (an abstention)
    is Normal at 0.5, flagged. A pair, not one Anomaly score, because
    ``1 - a/t`` and ``n/t`` can differ in the last bit."""
    labels = []
    for seq, pair in zip(corpus, shares, strict=True):
        if pair is None:
            labels.append(PseudoLabel(seq.id, NORMAL, 0.5, flagged=True))
        else:
            label = ANOMALY if pair[ANOMALY] > pair[NORMAL] else NORMAL
            labels.append(PseudoLabel(seq.id, label, float(pair[label])))
    return labels


def vote_annotate(corpus: list[LogSequence], keywords: KeywordSet) -> list[PseudoLabel]:
    """Pseudo-label by keyword counting alone (no graph model): each class's
    share of a sequence's keyword hits, None where the vote abstains."""
    shares = [
        (v.n / (v.n + v.a), v.a / (v.n + v.a)) if v.n + v.a else None
        for v in vote_counts(corpus, keywords)
    ]
    return pseudo_labels(corpus, shares)


def targets(
    corpus: list[LogSequence], keywords: KeywordSet, margin: float, prior: Mapping[str, int]
) -> list[Optional[int]]:
    """The fine-tuning target of every sequence: its keyword vote if decisive
    (margin at or above the threshold), else its ``prior`` label (the previous
    iteration's classifier label by sequence id), None on abstain or without
    one. An indecisive vote is never a target; the annotator exists to overrule it."""
    if not 0.0 <= margin < 1.0:
        raise AnnotatorError(f"margin must be in [0, 1), got {margin}")
    return [
        None if v.label is None else v.label if v.margin >= margin else prior.get(seq.id)
        for seq, v in zip(corpus, vote_counts(corpus, keywords))
    ]


def finetune(
    model: AnnotatorModel,
    subgraphs: list,
    targets: list[Optional[int]],
    epochs: int,
    batch_size: int,
    lr: float,
    rng: np.random.Generator,
) -> list[float]:
    """Fine-tune each sequence subgraph toward its target, leaving out those
    whose target is None. Mutates the model in place; returns the loss trace."""
    pairs = [(sg, t) for sg, t in zip(subgraphs, targets, strict=True) if t is not None]
    if not pairs:
        raise AnnotatorError(
            "no fine-tuning targets: keyword set does not cover the corpus, or the margin "
            "is too strict and no prior label covers an indecisive vote"
        )
    batches = nn.minibatches(pairs, epochs, batch_size, rng)
    return nn.fit(model.params, partial(loss_and_grads, model), batches, lr, "annotator")


ANNOTATE_BLOCK = 32  # sequences per batched forward pass in annotate


def annotate(
    model: AnnotatorModel, corpus: list[LogSequence], subgraphs: list
) -> list[PseudoLabel]:
    """Pseudo-label every sequence from its subgraph (``subgraphs[i]`` is ``corpus[i]``'s).

    A block's non-empty subgraphs share one batched forward pass (a row's
    bits depend on its batch) and their softmax rows go to ``pseudo_labels``.
    An empty subgraph is an abstention: on the corpus the graph was built
    from, its keyword vote abstains too.
    """
    shares = []
    for start in range(0, len(subgraphs), ANNOTATE_BLOCK):
        block = subgraphs[start : start + ANNOTATE_BLOCK]
        scored = [sg for sg in block if not sg.is_empty]
        rows = iter(nn.softmax(forward(model, scored)) if scored else ())
        shares.extend(None if sg.is_empty else next(rows) for sg in block)
    return pseudo_labels(corpus, shares)
