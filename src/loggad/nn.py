"""Minimal numeric kernel shared by the two trainable models.

Everything runs in float64. No autodiff: each model supplies its own
analytic gradients, verified against finite differences in the test suite.
All training runs through ``fit``: annotator pre-training and fine-tuning
and the classifier are the same minibatch Adam loop over different batches.
``Adam`` keeps the parameters it trains in one flat float64 vector, so a
step is a few whole-vector operations however many arrays a model has;
one dot product over the flat gradient decides whether the exact,
per-parameter clip norm needs to run at all.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Iterable, Iterator, Sequence

import numpy as np

Params = Dict[str, np.ndarray]


class TrainingDiverged(RuntimeError):
    pass


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: one logit vector, or one row per example."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean loss over a batch of (B, 2) logits with B class targets, and its
    (B, 2) gradient with respect to the logits."""
    p = softmax(logits)
    rows = np.arange(p.shape[0])
    loss = -float(np.mean(np.log(np.maximum(p[rows, target], 1e-300))))
    dlogits = p
    dlogits[rows, target] -= 1.0
    dlogits /= p.shape[0]
    return loss, dlogits


def xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, scale, size=(fan_in, fan_out))


def clip_global_norm(grads: Params, max_norm: float) -> float:
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm and total > 0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def zeros_like_params(params: Params) -> np.ndarray:
    """One flat float64 zero vector with a slot for every element of ``params``."""
    return np.zeros(sum(p.size for p in params.values()))


def _named_views(flat: np.ndarray, like: Params) -> Params:
    """Views of consecutive slices of ``flat``, named and shaped like ``like``."""
    views, start = {}, 0
    for k, p in like.items():
        views[k] = flat[start : start + p.size].reshape(p.shape)
        start += p.size
    return views


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
CLIP_NORM = 5.0  # gradients are rescaled to this global norm before each step


class Adam:
    """Adam with global-norm gradient clipping at ``CLIP_NORM``.

    The parameters move into one flat buffer: each ``params[k]`` of the
    caller's dict is rebound to a named view of it, and the moments ``m``
    and ``v`` are flat too, readable per parameter as ``m[k]`` and ``v[k]``.
    A step updates every element with the same operations in the same
    order as a per-parameter loop would, so the bits are the same; the
    per-parameter ``clip_global_norm`` runs only when the flat gradient's
    ``g @ g`` says that it might clip.
    """

    def __init__(self, params: Params, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self._p = np.concatenate([p.ravel() for p in params.values()])
        params.update(_named_views(self._p, params))
        self._m = zeros_like_params(params)
        self._v = zeros_like_params(params)
        self.m = _named_views(self._m, params)
        self.v = _named_views(self._v, params)

    def step(self, grads: Params) -> None:
        g = np.concatenate([grads[k].ravel() for k in self.params])
        # g @ g sums in another order than clip_global_norm, but within a
        # relative n * 2**-53 of it, so below this bound the exact norm is
        # below CLIP_NORM too and nothing would be clipped. A NaN norm never
        # clips and skips the exact path; an inf norm takes it.
        if g @ g > CLIP_NORM**2 * (1 - 1e-9):
            clip_global_norm(grads, CLIP_NORM)
            g = np.concatenate([grads[k].ravel() for k in self.params])
        self.t += 1
        b1, b2 = BETA1, BETA2
        correction = np.sqrt(1 - b2**self.t) / (1 - b1**self.t)
        m, v = self._m, self._v
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        self._p -= self.lr * correction * m / (np.sqrt(v) + EPS)


def minibatches(
    items: Sequence, epochs: int, batch_size: int, rng: np.random.Generator
) -> Iterator[list]:
    """``epochs`` passes over ``items``, each in a fresh ``rng.permutation``
    order, cut into batches of ``batch_size`` (the last one may be short)."""
    for _ in range(epochs):
        order = rng.permutation(len(items))
        for start in range(0, len(order), batch_size):
            yield [items[i] for i in order[start : start + batch_size]]


def fit(
    params: Params,
    loss_and_grads: Callable[[list, list], tuple[float, Params]],
    batches: Iterable[list],
    lr: float,
    name: str,
) -> list[float]:
    """Train ``params`` in place with one Adam step per batch of
    (input, target) pairs; returns the loss of every batch.

    ``loss_and_grads(inputs, targets)`` gives a batch's loss and gradients.
    A non-finite loss raises TrainingDiverged before its step is taken.
    """
    adam = Adam(params, lr)
    trace: list[float] = []
    for batch in batches:
        loss, grads = loss_and_grads([x for x, _ in batch], [t for _, t in batch])
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite {name} loss {loss} at step {len(trace)}; "
                f"lr={lr} may be too large or gradients exploded"
            )
        trace.append(loss)
        adam.step(grads)
    return trace


def save_checkpoint(path, params: Params, meta: dict) -> None:
    """Write parameters plus JSON metadata; float64 arrays round-trip exactly."""
    arrays = {f"param__{k}": v for k, v in params.items()}
    arrays["__meta__"] = np.frombuffer(
        json.dumps({"format_version": 1, **meta}, sort_keys=True).encode(), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_checkpoint(path) -> tuple[Params, dict]:
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta.get("format_version") != 1:
            raise ValueError(f"unsupported checkpoint format: {meta.get('format_version')}")
        params = {
            k[len("param__") :]: data[k].copy() for k in data.files if k.startswith("param__")
        }
    return params, meta


def vocab_digest(items) -> str:
    """Stable hash identifying a vocabulary (or any ordered word list)."""
    payload = json.dumps(list(items), ensure_ascii=False).encode()
    return hashlib.sha256(payload).hexdigest()
