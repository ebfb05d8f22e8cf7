"""Finite-difference validation harness for every differentiable op."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


def _scalarize(rng, out):
    w = ad.Tensor(rng.normal(size=out.shape))
    return ad.tsum(ad.mul(out, w))


def _param(rng, shape, lo=-1.0, hi=1.0):
    return ad.Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _check(build, seeds, h=1e-5):
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        fn, tensors = build(rng)
        worst = max(worst, ad.finite_difference_check(fn, tensors, h=h))
    return worst


def check_conv2d(seeds):
    def build(rng):
        x = _param(rng, (1, 4, 4))
        w = _param(rng, (2, 1, 3, 3))
        b = _param(rng, (2,))
        return (lambda: _scalarize(np.random.default_rng(0),
                                   ad.conv2d(x, w, b))), [x, w, b]
    return _check(build, seeds)


def check_batchnorm2d(seeds):
    def build(rng):
        x = _param(rng, (3, 2, 2))
        g = _param(rng, (3,), 0.5, 1.5)
        b = _param(rng, (3,))
        state = ad.BatchNormState(3)
        def fn():
            st = ad.BatchNormState(3)  # fresh stats: fn must be repeatable
            return _scalarize(np.random.default_rng(0),
                              ad.batchnorm2d(x, g, b, st, training=True))
        return fn, [x, g, b]
    return _check(build, seeds)


def check_linear(seeds):
    def build(rng):
        x = _param(rng, (3, 4))
        w = _param(rng, (4, 2))
        b = _param(rng, (2,))
        return (lambda: _scalarize(np.random.default_rng(0),
                                   ad.linear(x, w, b))), [x, w, b]
    return _check(build, seeds)


def check_relu(seeds):
    def build(rng):
        # keep values away from the kink
        data = rng.uniform(0.2, 1.0, (3, 4)) * rng.choice([-1, 1], (3, 4))
        x = ad.Tensor(data, requires_grad=True)
        return (lambda: _scalarize(np.random.default_rng(0), ad.relu(x))), [x]
    return _check(build, seeds)


def check_maxpool2d(seeds):
    def build(rng):
        x = _param(rng, (2, 5, 4))  # odd height exercises ceil-mode padding
        return (lambda: _scalarize(np.random.default_rng(0),
                                   ad.maxpool2d(x, (2, 2)))), [x]
    return _check(build, seeds)


def check_layer_norm(seeds):
    def build(rng):
        x = _param(rng, (3, 8))
        g = _param(rng, (8,), 0.5, 1.5)
        b = _param(rng, (8,))
        return (lambda: _scalarize(np.random.default_rng(0),
                                   ad.layer_norm(x, g, b))), [x, g, b]
    return _check(build, seeds)


def check_softmax(seeds):
    def build(rng):
        x = _param(rng, (4, 5))
        return (lambda: _scalarize(np.random.default_rng(0),
                                   ad.softmax(x))), [x]
    return _check(build, seeds)


def check_matmul(seeds):
    def builder(shape_a, shape_b):
        def build(rng):
            a = _param(rng, shape_a)
            b = _param(rng, shape_b)
            return (lambda: _scalarize(np.random.default_rng(0),
                                       ad.matmul(a, b))), [a, b]
        return build
    return max(_check(builder((3, 4), (4, 2)), seeds),
               _check(builder((2, 3, 4), (2, 4, 2)), seeds))  # stacked


def check_attention(seeds):
    def build(rng):
        mha = ad.MultiHeadAttention(8, 2, rng)
        x = _param(rng, (5, 8))
        tensors = [x] + list(mha.parameters().values())
        return (lambda: _scalarize(np.random.default_rng(0),
                                   mha(x, x, x))), tensors
    return _check(build, seeds)


def check_transformer_layer(seeds):
    def build(rng):
        layer = ad.TransformerEncoderLayer(8, 2, 16, rng)
        x = _param(rng, (4, 8))
        tensors = [x] + list(layer.parameters().values())
        return (lambda: _scalarize(np.random.default_rng(0), layer(x))), tensors
    return _check(build, seeds)


def check_masked_ce(seeds):
    def build(rng):
        x = _param(rng, (4, 3))
        labels = rng.integers(0, 3, 4)
        mask = np.array([1, 0, 1, 1])
        return (lambda: ad.masked_softmax_ce(x, labels, mask)), [x]
    return _check(build, seeds)


def check_masked_mean_rows(seeds):
    def build(rng):
        x = _param(rng, (5, 3))
        mask = np.array([1, 0, 1, 0, 1])
        return (lambda: _scalarize(np.random.default_rng(0),
                                   ad.masked_mean_rows(x, mask))), [x]
    return _check(build, seeds)


def check_repeat_upsample(seeds):
    def build(rng):
        x = _param(rng, (3, 2))
        return (lambda: _scalarize(np.random.default_rng(0),
                                   ad.repeat_upsample(x, 4, 11))), [x]
    return _check(build, seeds)


ALL_CHECKS = {
    "conv2d": check_conv2d,
    "batchnorm2d": check_batchnorm2d,
    "linear": check_linear,
    "relu": check_relu,
    "maxpool2d": check_maxpool2d,
    "layer_norm": check_layer_norm,
    "softmax": check_softmax,
    "matmul": check_matmul,
    "multi_head_attention": check_attention,
    "transformer_encoder_layer": check_transformer_layer,
    "masked_softmax_ce": check_masked_ce,
    "masked_mean_rows": check_masked_mean_rows,
    "repeat_upsample": check_repeat_upsample,
}


def run_gradient_suite(n_seeds: int = 10) -> dict[str, float]:
    """Max relative FD error per op over `n_seeds` random instances."""
    seeds = list(range(1, n_seeds + 1))
    return {name: fn(seeds) for name, fn in ALL_CHECKS.items()}
