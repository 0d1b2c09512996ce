"""Layers: numerical gradient checks and shape/semantics tests."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.functional import (
    col2im,
    cross_entropy,
    cross_entropy_grad,
    im2col,
    softmax,
)

RNG = np.random.default_rng(7)


def numerical_grad(f, x, eps=1e-3):
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        up = f()
        flat[i] = old - eps
        down = f()
        flat[i] = old
        gflat[i] = (up - down) / (2 * eps)
    return grad


def loss_of(layer, x, training=False):
    """Simple scalar head: sum of squares of the layer output."""
    y = layer.forward(x, training=training)
    return 0.5 * float((y ** 2).sum())


def analytic_input_grad(layer, x, training=False):
    y = layer.forward(x, training=training)
    return layer.backward(y.copy())


class TestFunctional:
    def test_im2col_col2im_adjoint(self):
        """<im2col(x), c> == <x, col2im(c)> (adjointness)."""
        x = RNG.normal(size=(2, 3, 6, 6)).astype(np.float32)
        cols = im2col(x, k=3, stride=1, pad=1)
        c = RNG.normal(size=cols.shape).astype(np.float32)
        lhs = float((cols * c).sum())
        rhs = float((x * col2im(c, x.shape, 3, 1, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-4)

    @pytest.mark.parametrize(
        "hw,k,stride,pad",
        [(6, 3, 1, 1), (12, 3, 1, 1), (12, 3, 2, 1), (9, 1, 2, 0), (5, 3, 1, 0)],
    )
    def test_im2col_matches_patch_extraction(self, hw, k, stride, pad):
        """Both fills -- the gather for outputs up to 8 wide, the window
        copy for wider ones and for non-contiguous inputs -- equal
        patch-by-patch extraction, with and without ``out``."""
        x = RNG.normal(size=(2, 3, hw, hw)).astype(np.float32)
        padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        o = (hw + 2 * pad - k) // stride + 1
        patches = np.stack([
            np.stack([
                padded[n, :, i * stride : i * stride + k,
                       j * stride : j * stride + k].reshape(-1)
                for i in range(o) for j in range(o)
            ], axis=1)
            for n in range(2)
        ])
        assert np.array_equal(im2col(x, k, stride, pad), patches)
        out = np.empty_like(patches)
        assert im2col(x, k, stride, pad, out=out) is out
        assert np.array_equal(out, patches)
        assert np.array_equal(im2col(np.asfortranarray(x), k, stride, pad), patches)

    def test_softmax_rows_sum_to_one(self):
        logits = RNG.normal(size=(5, 7)).astype(np.float32)
        assert softmax(logits).sum(axis=1) == pytest.approx(np.ones(5))

    def test_cross_entropy_grad_matches_numeric(self):
        logits = RNG.normal(size=(4, 5)).astype(np.float64)
        labels = np.array([0, 2, 4, 1])
        analytic = cross_entropy_grad(logits.copy(), labels)
        numeric = numerical_grad(
            lambda: cross_entropy(logits, labels), logits, eps=1e-5
        )
        assert np.allclose(analytic, numeric, atol=1e-5)


class TestGradients:
    @pytest.mark.parametrize(
        "layer,shape,training",
        [
            (Conv2d(2, 3, 3, rng=RNG), (2, 2, 5, 5), False),
            (Conv2d(2, 3, 3, stride=2, bias=True, rng=RNG), (2, 2, 6, 6), False),
            (Linear(6, 4, rng=RNG), (3, 6), False),
            (BatchNorm2d(3), (2, 3, 4, 4), True),
            (ReLU(), (2, 3, 4, 4), False),
            (MaxPool2d(2), (2, 2, 4, 4), False),
            (GlobalAvgPool(), (2, 3, 4, 4), False),
            (Flatten(), (2, 3, 2, 2), False),
        ],
        ids=["conv", "conv-s2-bias", "linear", "bn-train", "relu", "maxpool", "gap", "flatten"],
    )
    def test_input_gradient_matches_numeric(self, layer, shape, training):
        x = RNG.normal(size=shape).astype(np.float32) + 0.1
        analytic = analytic_input_grad(layer, x, training)
        numeric = numerical_grad(lambda: loss_of(layer, x, training), x)
        assert np.allclose(analytic, numeric, atol=2e-2), (
            np.abs(analytic - numeric).max()
        )

    def test_conv_weight_gradient_matches_numeric(self):
        layer = Conv2d(2, 3, 3, rng=RNG)
        x = RNG.normal(size=(2, 2, 5, 5)).astype(np.float32)
        layer.weight.zero_grad()
        analytic_input_grad(layer, x)
        analytic = layer.weight.grad.copy()
        numeric = numerical_grad(lambda: loss_of(layer, x), layer.weight.value)
        assert np.allclose(analytic, numeric, atol=2e-2)

    def test_linear_weight_and_bias_gradients(self):
        layer = Linear(5, 3, rng=RNG)
        x = RNG.normal(size=(4, 5)).astype(np.float32)
        layer.weight.zero_grad()
        layer.bias.zero_grad()
        analytic_input_grad(layer, x)
        numeric_w = numerical_grad(lambda: loss_of(layer, x), layer.weight.value)
        numeric_b = numerical_grad(lambda: loss_of(layer, x), layer.bias.value)
        assert np.allclose(layer.weight.grad, numeric_w, atol=2e-2)
        assert np.allclose(layer.bias.grad, numeric_b, atol=2e-2)

    def test_bn_eval_mode_gradient(self):
        layer = BatchNorm2d(3)
        layer.running_mean[:] = RNG.normal(size=3)
        layer.running_var[:] = 1.0 + RNG.random(3).astype(np.float32)
        x = RNG.normal(size=(2, 3, 4, 4)).astype(np.float32)
        analytic = analytic_input_grad(layer, x, training=False)
        numeric = numerical_grad(lambda: loss_of(layer, x, False), x)
        assert np.allclose(analytic, numeric, atol=2e-2)


class TestSemantics:
    def test_relu_zeroes_negatives(self):
        x = np.array([[-1.0, 2.0]], dtype=np.float32)
        assert list(ReLU().forward(x)[0]) == [0.0, 2.0]

    def test_maxpool_requires_divisible_input(self):
        with pytest.raises(ValueError):
            MaxPool2d(2).forward(np.zeros((1, 1, 5, 5), dtype=np.float32))

    def test_conv_output_shape(self):
        layer = Conv2d(3, 8, 3, stride=2, rng=RNG)
        y = layer.forward(np.zeros((2, 3, 8, 8), dtype=np.float32))
        assert y.shape == (2, 8, 4, 4)

    def test_bn_updates_running_stats_only_in_training(self):
        layer = BatchNorm2d(2)
        x = RNG.normal(size=(4, 2, 3, 3)).astype(np.float32) + 5.0
        before = layer.running_mean.copy()
        layer.forward(x, training=False)
        assert np.array_equal(layer.running_mean, before)
        layer.forward(x, training=True)
        assert not np.array_equal(layer.running_mean, before)

    def test_sequential_params_are_namespaced(self):
        net = Sequential(Linear(2, 2), Linear(2, 2))
        names = set(net.params())
        assert names == {"0.weight", "0.bias", "1.weight", "1.bias"}

    def test_weight_transform_ste(self):
        """With a sign transform, forward uses binarized weights but the
        gradient flows to the latent weights unchanged (STE)."""
        layer = Linear(3, 2, bias=False, rng=RNG)
        alpha = float(np.mean(np.abs(layer.weight.value)))
        layer.weight_transform = lambda w: np.where(w >= 0, alpha, -alpha).astype(
            np.float32
        )
        x = np.eye(3, dtype=np.float32)
        y = layer.forward(x)
        assert np.allclose(np.abs(y), alpha, atol=1e-6)
        layer.weight.zero_grad()
        layer.backward(np.ones((3, 2), dtype=np.float32))
        assert layer.weight.grad.any()
