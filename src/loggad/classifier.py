"""Compact pluggable sequence classifier trained on pseudo labels.

The default model is deliberately small: a token embedding table, mean
pooling over the sequence, and a 2-layer head producing 2 logits. Mean
pooling makes it order-agnostic, which diverges from an order-aware
transformer but keeps training and gradient checking tractable at desk
scale. Any object with the same train/predict/save/load surface can be
swapped in by the pipeline.

The kernel is batched: the token ids of a minibatch are concatenated, mean
pooling is one segment sum (``np.add.reduceat``), and the embedding
gradient is scattered back with ``np.add.at``. A single sequence is a batch
of one. ``predict`` runs the same forward pass over fixed-size blocks of
the corpus, and its dense layers use a row-by-row product so a sequence's
prediction does not depend on which sequences share the call. ``train``
runs the minibatch Adam loop of ``nn.fit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional

import numpy as np

from loggad import nn
from loggad.annotator import PseudoLabel
from loggad.ingest import LogSequence

UNK = 0  # reserved embedding row


class ClassifierError(ValueError):
    pass


@dataclass
class ClassifierModel:
    params: nn.Params
    vocab: dict[str, int]  # token -> embedding row; row 0 is UNK
    embed_dim: int
    hidden: int

    @classmethod
    def create(
        cls,
        corpus: list[LogSequence],
        rng: np.random.Generator,
        embed_dim: int = 32,
        hidden: int = 32,
    ) -> "ClassifierModel":
        tokens = sorted({tok for seq in corpus for tok in seq.tokens})
        vocab = {tok: i + 1 for i, tok in enumerate(tokens)}
        params: nn.Params = {
            "emb": nn.xavier(rng, len(vocab) + 1, embed_dim),
            "W1": nn.xavier(rng, embed_dim, hidden),
            "b1": np.zeros(hidden),
            "W2": nn.xavier(rng, hidden, 2),
            "b2": np.zeros(2),
        }
        return cls(params=params, vocab=vocab, embed_dim=embed_dim, hidden=hidden)

    @property
    def vocab_hash(self) -> str:
        return nn.vocab_digest(sorted(self.vocab))

    def token_ids(self, tokens: Iterable[str]) -> np.ndarray:
        return np.array([self.vocab.get(t, UNK) for t in tokens], dtype=np.int64)

    def save(self, path) -> None:
        words = [None] * (len(self.vocab) + 1)
        for tok, i in self.vocab.items():
            words[i] = tok
        nn.save_checkpoint(
            path,
            self.params,
            {
                "kind": "classifier",
                "embed_dim": self.embed_dim,
                "hidden": self.hidden,
                "vocab": words[1:],
                "vocab_hash": self.vocab_hash,
            },
        )

    @classmethod
    def load(cls, path) -> "ClassifierModel":
        params, meta = nn.load_checkpoint(path)
        if meta.get("kind") != "classifier":
            raise ClassifierError(f"not a classifier checkpoint: {meta.get('kind')}")
        vocab = {tok: i + 1 for i, tok in enumerate(meta["vocab"])}
        model = cls(
            params=params, vocab=vocab, embed_dim=meta["embed_dim"], hidden=meta["hidden"]
        )
        if meta["vocab_hash"] != model.vocab_hash:
            raise ClassifierError("checkpoint vocabulary hash mismatch")
        return model


def _as_batch(tokens) -> tuple[list, bool]:
    """(token lists, single): one token list is a batch of one."""
    if len(tokens) and not isinstance(tokens[0], str):
        return list(tokens), False
    return [tokens], True


def _rowwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b computed row by row in the same order whatever the row count.

    BLAS picks its kernel by shape, so ``a @ b`` can give a row different
    bits depending on how many rows share the call; predictions must not
    depend on which other sequences share a ``predict`` call.
    """
    return np.einsum("bi,ij->bj", a, b)


@dataclass
class _Pass:
    """One batched forward pass, kept for the backward pass. The token ids
    of all sequences are concatenated; sequence b owns ``lengths[b]`` of them."""

    ids: np.ndarray
    lengths: np.ndarray
    x: np.ndarray  # (B, embed_dim) mean-pooled embeddings
    t: np.ndarray  # (B, hidden)
    logits: np.ndarray  # (B, 2)


def _forward_pass(model: ClassifierModel, token_lists: list) -> _Pass:
    lengths = np.array([len(tokens) for tokens in token_lists], dtype=np.int64)
    if lengths.size == 0 or not lengths.all():
        raise ClassifierError("cannot classify an empty batch or an empty token sequence")
    ids = model.token_ids(chain.from_iterable(token_lists))
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    p = model.params
    x = np.add.reduceat(p["emb"][ids], starts, axis=0) / lengths[:, None]
    t = np.tanh(_rowwise(x, p["W1"]) + p["b1"])
    return _Pass(ids, lengths, x, t, _rowwise(t, p["W2"]) + p["b2"])


def forward(model: ClassifierModel, tokens) -> np.ndarray:
    """2-class logits: (2,) for a token list, (B, 2) for a list of B token lists."""
    batch, single = _as_batch(tokens)
    logits = _forward_pass(model, batch).logits
    return logits[0] if single else logits


def loss_and_grads(model: ClassifierModel, tokens, target) -> tuple[float, nn.Params]:
    """Mean cross-entropy loss and its analytic gradients over a batch.

    ``tokens`` is a token list with an int target, or a list of token lists
    with one target each.
    """
    batch, _ = _as_batch(tokens)
    target = np.atleast_1d(np.asarray(target, dtype=np.int64))
    if target.shape != (len(batch),):
        raise ClassifierError(f"{target.size} targets for {len(batch)} sequences")
    fp = _forward_pass(model, batch)
    p = model.params
    loss, dlogits = nn.cross_entropy(fp.logits, target)

    du = (dlogits @ p["W2"].T) * (1.0 - fp.t * fp.t)
    dx = (du @ p["W1"].T) / fp.lengths[:, None]
    demb = np.zeros_like(p["emb"])
    np.add.at(demb, fp.ids, np.repeat(dx, fp.lengths, axis=0))
    grads = {
        "emb": demb,
        "W1": fp.x.T @ du,
        "b1": du.sum(axis=0),
        "W2": fp.t.T @ dlogits,
        "b2": dlogits.sum(axis=0),
    }
    return loss, {name: grads[name] for name in p}


def train(
    model: ClassifierModel,
    corpus: list[LogSequence],
    labels: list[PseudoLabel],
    epochs: int,
    batch_size: int = 5,
    lr: float = 1e-3,
    rng: Optional[np.random.Generator] = None,
) -> list[float]:
    """Adam training against pseudo labels; returns the loss trace.

    Every sequence must have exactly one label; sequences made entirely of
    UNK tokens are excluded from training batches.
    """
    by_id = {pl.sequence_id: pl.label for pl in labels}
    missing = [seq.id for seq in corpus if seq.id not in by_id]
    if missing or len(by_id) != len(corpus):
        raise ClassifierError(
            f"label/corpus mismatch: {len(missing)} sequences unlabeled, "
            f"{len(by_id)} labels for {len(corpus)} sequences"
        )
    examples = [
        (seq.tokens, by_id[seq.id])
        for seq in corpus
        if np.any(model.token_ids(seq.tokens) != UNK)
    ]
    if not examples:
        raise ClassifierError("every sequence is entirely out-of-vocabulary")
    batches = nn.minibatches(examples, epochs, batch_size, rng or np.random.default_rng(0))
    return nn.fit(model.params, partial(loss_and_grads, model), batches, lr, "classifier")


PREDICT_BLOCK = 128  # sequences per forward pass: bounds the gathered embedding rows


def predict(
    model: ClassifierModel, corpus: list[LogSequence]
) -> list[tuple[str, int, float]]:
    """(sequence_id, label, confidence) per sequence, deterministic.

    Runs the batched forward pass a block of sequences at a time; a
    sequence's result does not depend on the other sequences in the call.
    """
    out = []
    for start in range(0, len(corpus), PREDICT_BLOCK):
        block = corpus[start : start + PREDICT_BLOCK]
        probs = nn.softmax(forward(model, [seq.tokens for seq in block]))
        labels = probs.argmax(axis=1)
        confidences = probs[np.arange(len(block)), labels]
        out.extend(zip([seq.id for seq in block], labels.tolist(), confidences.tolist()))
    return out


def prediction_lines(predictions: list[tuple[str, int, float]]) -> list[str]:
    """The bytes of ``json.dumps({"id", "label", "confidence"})`` per line.

    Confidences are rounded to 12 places. json writes a str with
    ``encode_basestring_ascii`` and a finite float with ``float.__repr__``;
    formatting the three fields directly skips building a dict per line.
    """
    return [
        '{"id": ' + encode_basestring_ascii(sid) + ', "label": ' + str(label)
        + ', "confidence": ' + repr(round(conf, 12)) + "}\n"
        for sid, label, conf in predictions
    ]
