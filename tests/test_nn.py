"""The shared training kernel: Adam, gradient clipping, minibatching and fit."""

import numpy as np
import pytest

from loggad import nn


def flat_norm(grads):
    g = np.concatenate([g.ravel() for g in grads.values()])
    return np.sqrt(g @ g)


def textbook_adam(params, grad_steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Kingma & Ba's Algorithm 1 with bias-corrected moments, unclipped."""
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    out = {k: p.copy() for k, p in params.items()}
    for t, grads in enumerate(grad_steps, 1):
        for k in out:
            m[k] = b1 * m[k] + (1 - b1) * grads[k]
            v[k] = b2 * v[k] + (1 - b2) * grads[k] ** 2
            m_hat = m[k] / (1 - b1**t)
            v_hat = v[k] / (1 - b2**t)
            out[k] = out[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


class TestAdam:
    def test_steps_match_the_bias_corrected_update(self):
        rng = np.random.default_rng(0)
        params = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
        grad_steps = [
            {"w": rng.uniform(0.2, 1.0, size=(3, 4)), "b": rng.uniform(-1.0, -0.2, size=4)}
            for _ in range(3)
        ]
        assert all(flat_norm(g) < nn.CLIP_NORM for g in grad_steps)
        expected = textbook_adam(params, grad_steps, lr=0.01)
        adam = nn.Adam(params, lr=0.01)
        for grads in grad_steps:
            adam.step({k: g.copy() for k, g in grads.items()})
        assert adam.t == 3
        for k in params:
            # eps sits on sqrt(v) instead of sqrt(v_hat): a relative 3e-7 at t=1
            np.testing.assert_allclose(params[k], expected[k], rtol=1e-6, atol=0)

    def test_gradient_above_the_clip_norm_is_rescaled_before_the_moments(self):
        g = np.array([30.0, -40.0])  # global norm 50
        adam = nn.Adam({"w": np.zeros(2)}, lr=0.1)
        grads = {"w": g.copy()}
        adam.step(grads)
        assert np.array_equal(grads["w"], g)  # the caller's gradient is left as passed
        clipped = g * nn.CLIP_NORM / 50.0
        np.testing.assert_allclose(adam.m["w"], (1 - nn.BETA1) * clipped)
        np.testing.assert_allclose(adam.v["w"], (1 - nn.BETA2) * clipped**2)

    def test_gradient_below_the_clip_norm_is_left_as_it_is(self):
        g = np.array([3.0, -3.9])  # global norm about 4.92
        adam = nn.Adam({"w": np.zeros(2)}, lr=0.1)
        grads = {"w": g.copy()}
        adam.step(grads)
        assert np.array_equal(grads["w"], g)
        np.testing.assert_allclose(adam.m["w"], (1 - nn.BETA1) * g)


class TestMinibatches:
    def test_each_epoch_is_one_permutation_in_order(self):
        items = [f"x{i}" for i in range(7)]
        batches = list(nn.minibatches(items, epochs=2, batch_size=3, rng=np.random.default_rng(4)))
        reference = np.random.default_rng(4)
        expected = []
        for _ in range(2):
            order = [items[i] for i in reference.permutation(7)]
            expected += [order[0:3], order[3:6], order[6:7]]
        assert batches == expected
        assert [len(b) for b in batches] == [3, 3, 1, 3, 3, 1]

    def test_zero_epochs_yield_nothing(self):
        rng = np.random.default_rng(4)
        assert list(nn.minibatches(["a", "b"], epochs=0, batch_size=1, rng=rng)) == []
        assert rng.integers(1 << 30) == np.random.default_rng(4).integers(1 << 30)


class TestFit:
    def test_one_loss_and_one_step_per_batch(self):
        params = {"w": np.zeros(1)}
        seen = []

        def loss_and_grads(inputs, targets):
            seen.append((inputs, targets))
            return float(len(seen)), {"w": np.ones(1)}

        batches = [[("a", 0), ("b", 1)], [("c", 1)], [("d", 0), ("e", 0), ("f", 1)]]
        trace = nn.fit(params, loss_and_grads, batches, lr=0.5, name="toy")
        assert trace == [1.0, 2.0, 3.0]
        assert seen == [(["a", "b"], [0, 1]), (["c"], [1]), (["d", "e", "f"], [0, 0, 1])]
        # a constant gradient moves each Adam step by about lr
        np.testing.assert_allclose(params["w"], [-1.5], rtol=1e-6)

    def test_no_batches_leave_the_params_as_they_are(self):
        params = {"w": np.arange(3.0)}
        assert nn.fit(params, None, [], lr=0.1, name="toy") == []
        assert np.array_equal(params["w"], np.arange(3.0))

    def test_non_finite_loss_raises_naming_the_model_step_and_lr(self):
        params = {"w": np.zeros(1)}
        losses = iter([0.5, 0.4, np.nan])

        def loss_and_grads(inputs, targets):
            return next(losses), {"w": np.ones(1)}

        with pytest.raises(nn.TrainingDiverged, match=r"toy loss nan at step 2; lr=0\.1"):
            nn.fit(params, loss_and_grads, [[(0, 0)]] * 3, lr=0.1, name="toy")
        np.testing.assert_allclose(params["w"], [-0.2], rtol=1e-6)  # two steps taken, not three


class PerParameterAdam:
    """The per-parameter Adam loop that the flat-buffer Adam replaced, with
    the flat gradient's norm as its clip norm: the byte-for-byte reference
    for the clip factor and the update order."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads):
        total = flat_norm(grads)
        if total > nn.CLIP_NORM:
            factor = nn.CLIP_NORM / total
            grads = {k: g * factor for k, g in grads.items()}
        self.t += 1
        b1, b2 = nn.BETA1, nn.BETA2
        correction = np.sqrt(1 - b2**self.t) / (1 - b1**self.t)
        for k, p in self.params.items():
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            p -= self.lr * correction * self.m[k] / (np.sqrt(self.v[k]) + nn.EPS)


def annotator_shaped(rng, in_dim=14, hidden=8, layers=3):
    """17 arrays named and shaped like a 3-layer annotator's parameters."""
    params, d = {}, in_dim
    for k in range(1, layers + 1):
        params[f"eps{k}"] = rng.normal(size=1)
        params[f"W1_{k}"] = rng.normal(size=(d, hidden))
        params[f"b1_{k}"] = rng.normal(size=hidden)
        params[f"W2_{k}"] = rng.normal(size=(hidden, hidden))
        params[f"b2_{k}"] = rng.normal(size=hidden)
        d = hidden
    params["head_W"] = rng.normal(size=(in_dim + layers * hidden, 2))
    params["head_b"] = rng.normal(size=2)
    return params


class TestFlatAdam:
    def test_matches_the_per_parameter_loop_byte_for_byte(self):
        rng = np.random.default_rng(11)
        params = annotator_shaped(rng)
        assert len(params) == 17
        reference = {k: v.copy() for k, v in params.items()}
        adam, ref = nn.Adam(params, lr=0.01), PerParameterAdam(reference, lr=0.01)
        clipped = 0
        for step in range(50):
            scale = 10.0 ** rng.uniform(-3, 1)  # global norms from about 0.03 to 300
            grads = {k: rng.normal(scale=scale, size=v.shape) for k, v in params.items()}
            passed = {k: g.copy() for k, g in grads.items()}
            clipped += flat_norm(grads) > nn.CLIP_NORM
            adam.step(grads)
            ref.step(passed)
            for k in reference:
                assert params[k].tobytes() == reference[k].tobytes(), (step, k)
                assert adam.m[k].tobytes() == ref.m[k].tobytes(), (step, k)
                assert adam.v[k].tobytes() == ref.v[k].tobytes(), (step, k)
                assert grads[k].tobytes() == passed[k].tobytes(), (step, k)
        assert 10 < clipped < 40

    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    @pytest.mark.parametrize(
        "case", ["1+1e-12", "1-1e-12", "1-1e-8", "exact", "nan", "inf"]
    )
    def test_clip_boundary_matches_the_per_parameter_loop(self, case):
        # global norms of CLIP_NORM times each factor, exactly CLIP_NORM, and
        # a NaN or inf element (clipping inf scales it to NaN)
        rng = np.random.default_rng(12)
        params = annotator_shaped(rng)
        reference = {k: v.copy() for k, v in params.items()}
        adam, ref = nn.Adam(params, lr=0.01), PerParameterAdam(reference, lr=0.01)
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        if case == "exact":
            grads = {k: np.zeros_like(g) for k, g in grads.items()}
            grads["head_b"][:] = [3.0, -4.0]
        elif case in ("nan", "inf"):
            grads["W2_2"][1, 3] = float(case)
        else:
            factor = 1.0 + float(case[1:])
            target = nn.CLIP_NORM * factor
            grads = {k: g * (target / flat_norm(grads)) for k, g in grads.items()}
            assert (flat_norm(grads) > nn.CLIP_NORM) == (factor > 1)
        if case == "exact":
            assert flat_norm(grads) == nn.CLIP_NORM
        passed = {k: g.copy() for k, g in grads.items()}
        adam.step(grads)
        ref.step(passed)
        for k in reference:
            assert params[k].tobytes() == reference[k].tobytes(), k
            assert adam.m[k].tobytes() == ref.m[k].tobytes(), k
            assert adam.v[k].tobytes() == ref.v[k].tobytes(), k
            assert grads[k].tobytes() == passed[k].tobytes(), k
