"""Finite-difference validation harness for every differentiable op."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


def _scalarize(out):
    w = ad.Tensor(np.random.default_rng(0).normal(size=out.shape))
    return ad.tsum(ad.mul(out, w))


def _param(rng, shape, lo=-1.0, hi=1.0):
    return ad.Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _case(op, *draws, scalarize=True):
    """A builder `rng -> (fn, tensors)` checking `op(*inputs)`.

    Inputs are drawn from `rng` in order. A draw is a shape, a
    (shape, lo, hi) triple, or a function of `rng` for anything else (a
    module, labels, a special Tensor). The checked tensors are the drawn
    Tensors and every drawn module's parameters.
    """
    def build(rng):
        inputs = [d(rng) if callable(d)
                  else _param(rng, *d) if isinstance(d[0], tuple)
                  else _param(rng, d) for d in draws]
        tensors = []
        for v in inputs:
            if isinstance(v, ad.Module):
                tensors += v.parameters().values()
            elif isinstance(v, ad.Tensor):
                tensors.append(v)
        if scalarize:
            return (lambda: _scalarize(op(*inputs))), tensors
        return (lambda: op(*inputs)), tensors
    return build


def _relu_input(rng):  # values kept away from the kink
    data = rng.uniform(0.2, 1.0, (3, 4)) * rng.choice([-1, 1], (3, 4))
    return ad.Tensor(data, requires_grad=True)


ALL_CHECKS = {
    "conv2d": [_case(ad.conv2d, (1, 4, 4), (2, 1, 3, 3), (2,))],
    # fresh BN stats on every call, so fn is repeatable
    "batchnorm2d": [_case(lambda x, g, b: ad.batchnorm2d(
        x, g, b, ad.BatchNormState(3), training=True),
        (3, 2, 2), ((3,), 0.5, 1.5), (3,))],
    "linear": [_case(ad.linear, (3, 4), (4, 2), (2,))],
    "relu": [_case(ad.relu, _relu_input)],
    # odd height exercises ceil-mode padding
    "maxpool2d": [_case(lambda x: ad.maxpool2d(x, (2, 2)), (2, 5, 4))],
    "layer_norm": [_case(ad.layer_norm, (3, 8), ((8,), 0.5, 1.5), (8,))],
    "softmax": [_case(ad.softmax, (4, 5))],
    "matmul": [_case(ad.matmul, (3, 4), (4, 2)),
               _case(ad.matmul, (2, 3, 4), (2, 4, 2))],  # stacked
    "multi_head_attention": [_case(
        lambda mha, x: mha(x, x, x),
        lambda rng: ad.MultiHeadAttention(8, 2, rng), (5, 8))],
    "transformer_encoder_layer": [_case(
        lambda layer, x: layer(x),
        lambda rng: ad.TransformerEncoderLayer(8, 2, 16, rng), (4, 8))],
    "masked_softmax_ce": [_case(
        lambda x, labels: ad.masked_softmax_ce(x, labels, np.array([1, 0, 1, 1])),
        (4, 3), lambda rng: rng.integers(0, 3, 4), scalarize=False)],
    "masked_mean_rows": [_case(
        lambda x: ad.masked_mean_rows(x, np.array([1, 0, 1, 0, 1])), (5, 3))],
    "repeat_upsample": [_case(lambda x: ad.repeat_upsample(x, 4, 11), (3, 2))],
}


def run_gradient_suite(n_seeds: int = 10) -> dict[str, float]:
    """Max relative FD error per op over `n_seeds` random instances."""
    seeds = range(1, n_seeds + 1)
    return {name: max(ad.finite_difference_check(*build(np.random.default_rng(s)))
                      for build in builders for s in seeds)
            for name, builders in ALL_CHECKS.items()}
