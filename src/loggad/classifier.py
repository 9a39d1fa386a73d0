"""Compact sequence classifier trained on pseudo labels.

The model is deliberately small: a token embedding table, mean pooling
over the sequence, and a 2-layer head producing 2 logits. Mean pooling
makes it order-agnostic, which diverges from an order-aware transformer
but keeps training and gradient checking tractable at desk scale. The
pipeline creates it with ``ClassifierModel.create``; there is no other
model to swap in.

The kernel takes a batch as its sequences' ``token_ids`` concatenated plus
one length per sequence: mean pooling is one segment sum
(``np.add.reduceat``), and the embedding gradient is one ``np.bincount``
over (row, column) slots, which adds each slot's values in the order
``np.add.at`` would. ``token_ids`` looks tokens up in one C-level pass
(``np.fromiter`` over ``map(vocab.get, ...)``), with no Python loop or
intermediate list. ``train`` looks each sequence's ids up once and runs
``nn.fit``'s minibatch Adam loop over lists of them; ``model.params`` holds
named views of Adam's one flat buffer. ``predict`` looks a block of
sequences up with one ``token_ids`` call and runs the same pass; its dense
layers use a row-by-row product so a sequence's prediction does not depend
on which sequences share the call.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
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
        return cls(params=params, vocab=vocab)

    @property
    def vocab_hash(self) -> str:
        """Stable hash identifying the vocabulary, whatever its row order."""
        payload = json.dumps(sorted(self.vocab), ensure_ascii=False).encode()
        return hashlib.sha256(payload).hexdigest()

    def token_ids(self, tokens: Iterable[str]) -> np.ndarray:
        """Each token's embedding row, UNK for a token outside the vocabulary."""
        return np.fromiter(map(self.vocab.get, tokens, repeat(UNK)), dtype=np.int64)

    def save(self, path) -> None:
        embed_dim, hidden = self.params["W1"].shape
        nn.save_checkpoint(
            path,
            self.params,
            {
                "kind": "classifier",
                "embed_dim": embed_dim,
                "hidden": hidden,
                "vocab": list(self.vocab),  # in row order, as create and load build it
                "vocab_hash": self.vocab_hash,
            },
        )

    @classmethod
    def load(cls, path) -> "ClassifierModel":
        """The model ``save`` wrote to ``path``; any other file raises
        ClassifierError naming it."""
        try:
            params, meta = nn.load_checkpoint(path)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ClassifierError(f"{path}: not a loggad classifier checkpoint: {exc}") from None
        if meta.get("kind") != "classifier":
            raise ClassifierError(f"{path}: not a classifier checkpoint: {meta.get('kind')}")
        words, embed_dim, hidden = meta.get("vocab"), meta.get("embed_dim"), meta.get("hidden")
        if not (isinstance(words, list) and all(isinstance(w, str) for w in words)
                and len(set(words)) == len(words)):
            problem = "'vocab' is missing or not a list of distinct str"
        else:  # shapes compare by value, so a non-numeric embed_dim or hidden fails here
            shapes = {"emb": (len(words) + 1, embed_dim), "W1": (embed_dim, hidden),
                      "b1": (hidden,), "W2": (hidden, 2), "b2": (2,)}
            found = {k: v.shape for k, v in params.items()}
            problem = None if found == shapes else f"parameters {found}, expected {shapes}"
        if problem:
            raise ClassifierError(f"{path}: not a loggad classifier checkpoint: {problem}")
        vocab = {tok: i + 1 for i, tok in enumerate(words)}
        model = cls(params=params, vocab=vocab)
        if meta.get("vocab_hash") != model.vocab_hash:
            raise ClassifierError(f"{path}: checkpoint vocabulary hash mismatch")
        return model


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


def _forward_pass(model: ClassifierModel, ids: np.ndarray, lengths: np.ndarray) -> _Pass:
    if not lengths.all():
        raise ClassifierError("cannot classify an empty token sequence")
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    p = model.params
    x = np.add.reduceat(p["emb"][ids], starts, axis=0) / lengths[:, None]
    t = np.tanh(_rowwise(x, p["W1"]) + p["b1"])
    return _Pass(ids, lengths, x, t, _rowwise(t, p["W2"]) + p["b2"])


def _concatenated(batch: list) -> tuple[np.ndarray, np.ndarray]:
    """(ids, lengths) of a list of ``token_ids`` arrays, as ``_forward_pass`` takes them."""
    if not batch:
        raise ClassifierError("cannot classify an empty batch")
    return np.concatenate(batch), np.array([len(ids) for ids in batch], dtype=np.int64)


def forward(model: ClassifierModel, batch: list) -> np.ndarray:
    """(B, 2) class logits for a list of B ``token_ids`` arrays."""
    return _forward_pass(model, *_concatenated(batch)).logits


def loss_and_grads(model: ClassifierModel, batch: list, target) -> tuple[float, nn.Params]:
    """Mean cross-entropy loss and its analytic gradients over a list of
    ``token_ids`` arrays with one target each."""
    target = np.asarray(target, dtype=np.int64)
    if target.shape != (len(batch),):
        raise ClassifierError(f"{target.size} targets for {len(batch)} sequences")
    fp = _forward_pass(model, *_concatenated(batch))
    p = model.params
    loss, dlogits = nn.cross_entropy(fp.logits, target)

    du = (dlogits @ p["W2"].T) * (1.0 - fp.t * fp.t)
    dx = (du @ p["W1"].T) / fp.lengths[:, None]
    emb = p["emb"]
    slots = (fp.ids[:, None] * emb.shape[1] + np.arange(emb.shape[1])).ravel()
    demb = np.bincount(
        slots, weights=np.repeat(dx, fp.lengths, axis=0).ravel(), minlength=emb.size
    )
    grads = {
        "emb": demb.reshape(emb.shape),
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
    encoded = ((model.token_ids(seq.tokens), by_id[seq.id]) for seq in corpus)
    examples = [(ids, label) for ids, label in encoded if (ids != UNK).any()]
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
        ids = model.token_ids(chain.from_iterable(seq.tokens for seq in block))
        lengths = np.array([len(seq.tokens) for seq in block], dtype=np.int64)
        probs = nn.softmax(_forward_pass(model, ids, lengths).logits)
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
