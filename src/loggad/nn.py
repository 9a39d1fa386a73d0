"""Minimal numeric kernel shared by the two trainable models.

Everything runs in float64. No autodiff: each model supplies its own
analytic gradients, verified against finite differences in the test suite.
All training runs through ``fit``: annotator pre-training and fine-tuning
and the classifier are the same minibatch Adam loop over different batches.
``Adam`` keeps the parameters it trains in one flat float64 vector, so a
step is a few whole-vector operations however many arrays a model has,
the global clip norm among them.
"""

from __future__ import annotations

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
    order as a per-parameter loop would; the global norm is that of the
    flat gradient, ``sqrt(g @ g)``, which is scaled to ``CLIP_NORM`` when
    it is longer. The caller's ``grads`` are left as they were passed.
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
        total = np.sqrt(g @ g)  # NaN never clips; inf scales g by 0 (inf * 0 is NaN)
        if total > CLIP_NORM:
            g *= CLIP_NORM / total
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
    """Parameters and metadata as ``save_checkpoint`` wrote them. A file that
    is not such a checkpoint raises ValueError, EOFError (an empty file) or
    zipfile.BadZipFile (a damaged archive)."""
    data = np.load(path)  # a pickle raises ValueError: allow_pickle is off
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError("not an .npz archive")
    with data:
        if "__meta__" not in data.files:
            raise ValueError("no __meta__ entry")
        meta = json.loads(bytes(data["__meta__"]).decode())
        version = meta.get("format_version") if isinstance(meta, dict) else None
        if version != 1:
            raise ValueError(f"unsupported checkpoint format: {version}")
        params = {
            k[len("param__") :]: data[k].copy() for k in data.files if k.startswith("param__")
        }
    return params, meta

