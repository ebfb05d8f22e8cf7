"""Minimal reverse-mode autodiff engine (f64), layers, and optimizers.

Tensors record their parents and a backward closure; `Tensor.backward()`
topologically sorts the graph and accumulates gradients. Every op is
validated against central finite differences in the test suite.
"""

from __future__ import annotations

import io
import json
import math
import struct

import numpy as np

from .errors import ConfigError, FormatError, NumericError, ShapeError


class Tensor:
    """An f64 array node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise NumericError("non-finite values in tensor")
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.grad is not None})"

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar")
        # depth-first post-order, as a recursive walk would give, but with no
        # self-referencing closure to keep the graph alive after returning
        topo, seen = [], {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                topo.append(node)
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node(data, parents, backward) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, _parents=tuple(parents) if req else (),
                  _backward=backward if req else None)


def _unbroadcast(g, shape):
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _node(a.data + b.data, (a, b), backward)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _node(a.data * b.data, (a, b), backward)


def matmul(a, b):
    """a @ b over the last two axes; leading axes stack matrices."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or a.data.ndim != b.data.ndim:
        raise ShapeError("matmul expects operands of equal rank >= 2")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b._accumulate(np.swapaxes(a.data, -1, -2) @ g)

    return _node(a.data @ b.data, (a, b), backward)


def relu(x):
    x = _as_tensor(x)
    mask = x.data > 0

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return _node(x.data * mask, (x,), backward)


def reshape(x, shape):
    x = _as_tensor(x)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.shape))

    return _node(x.data.reshape(shape), (x,), backward)


def transpose(x, axes=None):
    x = _as_tensor(x)
    axes = tuple(axes) if axes is not None else tuple(range(x.data.ndim))[::-1]
    inv = np.argsort(axes)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.transpose(inv))

    return _node(x.data.transpose(axes), (x,), backward)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(a, b)
                t._accumulate(g[tuple(sl)])

    return _node(np.concatenate([t.data for t in tensors], axis=axis),
                 tensors, backward)


def tsum(x, axis=None):
    x = _as_tensor(x)

    def backward(g):
        if x.requires_grad:
            if axis is None:
                x._accumulate(np.broadcast_to(g, x.shape).copy())
            else:
                x._accumulate(np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    return _node(x.data.sum(axis=axis), (x,), backward)


def repeat_rows(x, times: int):
    """[K] or [1 x K] row -> [times x K]."""
    x = _as_tensor(x)
    row = x.data.reshape(1, -1)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.sum(axis=0).reshape(x.shape))

    return _node(np.repeat(row, times, axis=0), (x,), backward)


def repeat_upsample(x, factor: int, target: int):
    """Repeat each row `factor` times along time, then trim to `target`."""
    x = _as_tensor(x)
    t = x.data.shape[0]
    if t * factor < target:
        raise ShapeError(f"cannot upsample {t} rows x{factor} to {target}")

    def backward(g):
        if x.requires_grad:
            pad = t * factor - target
            gg = np.concatenate([g, np.zeros((pad,) + g.shape[1:])]) if pad else g
            x._accumulate(gg.reshape((t, factor) + x.shape[1:]).sum(axis=1))

    return _node(np.repeat(x.data, factor, axis=0)[:target], (x,), backward)


def masked_mean_rows(x, mask):
    """Mean of the rows of [T x K] where mask[t] == 1. Mask is constant."""
    x = _as_tensor(x)
    m = np.asarray(mask, dtype=np.float64).reshape(-1, 1)
    total = m.sum()
    if total == 0:
        raise ShapeError("masked_mean_rows: empty mask")

    def backward(g):
        if x.requires_grad:
            x._accumulate((m / total) * g.reshape(1, -1))

    return _node((x.data * m).sum(axis=0) / total, (x,), backward)


# ---------------------------------------------------------------------------
# NN primitives
# ---------------------------------------------------------------------------

def linear(x, w, b):
    """[.. x I] @ [I x O] + b."""
    return add(matmul(x, w), b)


def conv2d(x, w, b):
    """Same-padded stride-1 cross-correlation.

    x: [Cin x H x W], w: [Cout x Cin x kh x kw] (odd kernel), b: [Cout].
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin_w != cin:
        raise ShapeError(f"conv2d: input has {cin} channels, kernel expects {cin_w}")
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x.data, ((0, 0), (ph, ph), (pw, pw)))
    # im2col: one [cin*kh*kw x h*wd] patch matrix, conv as a single GEMM
    view = np.lib.stride_tricks.sliding_window_view(xp, (h, wd), axis=(1, 2))
    cols = np.ascontiguousarray(view).reshape(cin * kh * kw, h * wd)
    out = (w.data.reshape(cout, -1) @ cols).reshape(cout, h, wd)
    out += b.data.reshape(cout, 1, 1)

    def backward(g):
        gf = g.reshape(cout, h * wd)
        if b.requires_grad:
            b._accumulate(gf.sum(axis=1))
        if w.requires_grad:
            w._accumulate((gf @ cols.T).reshape(w.shape))
        if x.requires_grad:
            gcols = (w.data.reshape(cout, -1).T @ gf).reshape(
                cin, kh, kw, h, wd)
            gxp = np.zeros_like(xp)
            for dy in range(kh):
                for dx in range(kw):
                    gxp[:, dy:dy + h, dx:dx + wd] += gcols[:, dy, dx]
            x._accumulate(gxp[:, ph:ph + h, pw:pw + wd])

    return _node(out, (x, w, b), backward)


def maxpool2d(x, pool):
    """Ceil-mode max pooling over (H, W) of [C x H x W]; pads with -inf.

    Both passes work on the pt*pf strided views of the padded input. The
    forward pass is their running np.maximum. Equal values have equal bytes
    except +0.0 and -0.0, so only a zero maximum that ties the two could
    differ in sign from argmax's choice; `relu` turns every non-positive
    input but +0.0 into -0.0. The backward pass sends each gradient to the
    first view, in row-major order, that holds the maximum, as argmax would.
    """
    x = _as_tensor(x)
    pt, pf = pool
    c, h, w = x.shape
    ho, wo = -(-h // pt), -(-w // pf)
    offsets = [(i, j) for i in range(pt) for j in range(pf)]

    def padded():
        p = np.full((c, ho * pt, wo * pf), -np.inf)
        p[:, :h, :w] = x.data
        return p

    xp = padded()
    out = xp[:, 0::pt, 0::pf].copy()
    for i, j in offsets[1:]:
        np.maximum(xp[:, i::pt, j::pf], out, out=out)

    def backward(g):
        if x.requires_grad:
            xp = padded()
            gp = np.zeros_like(xp)
            open_cells = np.ones(out.shape, dtype=bool)
            for i, j in offsets:
                hit = xp[:, i::pt, j::pf] == out
                hit &= open_cells
                np.copyto(gp[:, i::pt, j::pf], g, where=hit)
                open_cells &= ~hit
            x._accumulate(gp[:, :h, :w])

    return _node(out, (x,), backward)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Row-wise normalization of [T x D]."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gamma.data + beta.data

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=0))
        if x.requires_grad:
            d = x.shape[-1]
            gx = g * gamma.data
            x._accumulate(inv * (gx - gx.mean(axis=-1, keepdims=True)
                                 - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))

    return _node(out, (x, gamma, beta), backward)


def softmax(x, axis=-1):
    x = _as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if x.requires_grad:
            x._accumulate(p * (g - (g * p).sum(axis=axis, keepdims=True)))

    return _node(p, (x,), backward)


def masked_softmax_ce(logits, labels, mask):
    """Mean cross-entropy over unmasked rows of [T x C].

    Gradient w.r.t. masked-out rows is exactly zero; an all-zero mask
    yields loss 0 with zero gradient.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    m = np.asarray(mask, dtype=np.float64)
    t, c = logits.shape
    if labels.shape != (t,) or m.shape != (t,):
        raise ShapeError("labels/mask must have one entry per row")
    if np.any((labels < 0) | (labels >= c)):
        raise ShapeError("label out of range")
    denom = max(1.0, m.sum())
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    nll = -logp[np.arange(t), labels]
    loss = (nll * m).sum() / denom

    def backward(g):
        if logits.requires_grad:
            p = np.exp(logp)
            grad = p.copy()
            grad[np.arange(t), labels] -= 1.0
            grad *= (m / denom).reshape(-1, 1) * g
            logits._accumulate(grad)

    return _node(loss, (logits,), backward)


def batchnorm2d(x, gamma, beta, state, training: bool, eps=1e-5, momentum=0.1):
    """Per-channel normalization of [C x H x W].

    `state` is a BatchNormState; train mode uses the current batch statistics
    (and updates the running ones), eval mode uses the running statistics.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    c = x.shape[0]
    flat = x.data.reshape(c, -1)
    if training:
        mu = flat.mean(axis=1)
        var = flat.var(axis=1)
        n = flat.shape[1]
        state.running_mean = (1 - momentum) * state.running_mean + momentum * mu
        unbiased = var * n / max(1, n - 1)
        state.running_var = (1 - momentum) * state.running_var + momentum * unbiased
    else:
        mu, var = state.running_mean, state.running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu.reshape(c, 1, 1)) * inv.reshape(c, 1, 1)
    out = xhat * gamma.data.reshape(c, 1, 1) + beta.data.reshape(c, 1, 1)

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).reshape(c, -1).sum(axis=1))
        if beta.requires_grad:
            beta._accumulate(g.reshape(c, -1).sum(axis=1))
        if x.requires_grad:
            gx = g * gamma.data.reshape(c, 1, 1)
            if training:
                gxf = gx.reshape(c, -1)
                xhf = xhat.reshape(c, -1)
                term = (gxf - gxf.mean(axis=1, keepdims=True)
                        - xhf * (gxf * xhf).mean(axis=1, keepdims=True))
                x._accumulate((term * inv.reshape(c, 1)).reshape(x.shape))
            else:
                x._accumulate(gx * inv.reshape(c, 1, 1))

    return _node(out, (x, gamma, beta), backward)


class BatchNormState:
    """Running statistics for one BN layer (not part of the autodiff graph)."""

    def __init__(self, channels: int):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------

class Module:
    """A layer that owns Tensors, other modules, or lists of modules.

    Names come from a walk over the instance's attributes in definition
    order: Tensor attribute `w` is `w`, a child module's names get `<attr>.`
    in front, and the i-th module of a list attribute gets `<attr><i>.`.
    """

    renames: dict[str, str] = {}  # attribute -> name used in its place

    def named(self, kind, prefix: str = "") -> dict:
        """{name: value} for every attribute of type `kind` in the tree."""
        out = {}
        for attr, value in vars(self).items():
            name = prefix + self.renames.get(attr, attr)
            if isinstance(value, kind):
                out[name] = value
            elif isinstance(value, Module):
                out.update(value.named(kind, name + "."))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.update(item.named(kind, f"{name}{i}."))
        return out

    def parameters(self) -> dict[str, Tensor]:
        return self.named(Tensor)


# ---------------------------------------------------------------------------
# Attention / transformer
# ---------------------------------------------------------------------------

class MultiHeadAttention(Module):
    """Standard multi-head scaled dot-product attention with projections."""

    def __init__(self, dim: int, heads: int, rng):
        if dim % heads != 0:
            raise ConfigError(f"dim {dim} not divisible by {heads} heads")
        self.dim, self.heads = dim, heads
        scale = 1.0 / np.sqrt(dim)
        def w():
            return Tensor(rng.normal(0, scale, size=(dim, dim)), requires_grad=True)
        self.wq, self.wk, self.wv, self.wo = w(), w(), w(), w()
        self.bq = Tensor(np.zeros(dim), requires_grad=True)
        self.bk = Tensor(np.zeros(dim), requires_grad=True)
        self.bv = Tensor(np.zeros(dim), requires_grad=True)
        self.bo = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, q_in, k_in, v_in):
        t, dh = q_in.shape[0], self.dim // self.heads

        def split(x, w, b):  # [T x dim] -> [heads x T x dh]
            x = reshape(linear(x, w, b), (x.shape[0], self.heads, dh))
            return transpose(x, (1, 0, 2))

        q = split(q_in, self.wq, self.bq)
        k = split(k_in, self.wk, self.bk)
        v = split(v_in, self.wv, self.bv)
        scores = mul(matmul(q, transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh))
        out = matmul(softmax(scores, axis=-1), v)
        out = reshape(transpose(out, (1, 0, 2)), (t, self.dim))
        return linear(out, self.wo, self.bo)


def sinusoidal_positions(t: int, dim: int) -> np.ndarray:
    pos = np.arange(t)[:, None]
    i = np.arange(dim // 2)[None, :]
    angles = pos / (10000.0 ** (2 * i / dim))
    pe = np.zeros((t, dim))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


class TransformerEncoderLayer(Module):
    """Pre-norm encoder layer with sinusoidal positions added on entry."""

    def __init__(self, dim: int, heads: int, ffn_dim: int, rng):
        self.dim = dim
        self.mha = MultiHeadAttention(dim, heads, rng)
        s1 = np.sqrt(2.0 / (dim + ffn_dim))
        self.w1 = Tensor(rng.normal(0, s1, size=(dim, ffn_dim)), requires_grad=True)
        self.b1 = Tensor(np.zeros(ffn_dim), requires_grad=True)
        self.w2 = Tensor(rng.normal(0, s1, size=(ffn_dim, dim)), requires_grad=True)
        self.b2 = Tensor(np.zeros(dim), requires_grad=True)
        self.ln1_g = Tensor(np.ones(dim), requires_grad=True)
        self.ln1_b = Tensor(np.zeros(dim), requires_grad=True)
        self.ln2_g = Tensor(np.ones(dim), requires_grad=True)
        self.ln2_b = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x):
        x = add(x, sinusoidal_positions(x.shape[0], self.dim))
        h = layer_norm(x, self.ln1_g, self.ln1_b)
        x = add(x, self.mha(h, h, h))
        h = layer_norm(x, self.ln2_g, self.ln2_b)
        ffn = linear(relu(linear(h, self.w1, self.b1)), self.w2, self.b2)
        return add(x, ffn)


# ---------------------------------------------------------------------------
# Optimizers / schedule
# ---------------------------------------------------------------------------

class Adam:
    """Bias-corrected Adam over a {name: Tensor} parameter dict."""

    def __init__(self, params: dict, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None):
        lr = self.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(f"grad shape mismatch for {k}")
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for {k}")
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            mhat = self.m[k] / bc1
            vhat = self.v[k] / bc2
            p.data = p.data - lr * mhat / (np.sqrt(vhat) + self.eps)


def steplr(base_lr: float, epoch: int, gamma: float = 0.5,
           step_size: int = 10) -> float:
    """base_lr * gamma^floor(epoch / step_size)."""
    if epoch < 0:
        raise ConfigError("epoch must be >= 0")
    return base_lr * gamma ** (epoch // step_size)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"FSED"
_CKPT_VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray], hyper: dict) -> None:
    """Versioned binary checkpoint: magic, version, JSON hyper blob, then
    (name, shape, f64 LE data) records. Round trips bit-exactly."""
    blob = json.dumps(hyper, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", _CKPT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            nb = name.encode("utf-8")
            arr = np.asarray(arr, dtype=np.float64)
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a save_checkpoint file; unreadable input raises FormatError."""
    try:
        with open(path, "rb") as raw:
            # a corrupt length field reads short here instead of allocating
            fh = io.BytesIO(raw.read())
        if fh.read(4) != _CKPT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != _CKPT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        (blen,) = struct.unpack("<I", fh.read(4))
        hyper = json.loads(fh.read(blen).decode("utf-8"))
        if not isinstance(hyper, dict):
            raise FormatError(f"{path}: hyper-parameters are not a JSON object")
        (count,) = struct.unpack("<I", fh.read(4))
        arrays = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<I", fh.read(4))
            name = fh.read(nlen).decode("utf-8")
            (ndim,) = struct.unpack("<I", fh.read(4))
            shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim)) if ndim else ()
            n = math.prod(shape)  # exact: np.prod would wrap at 2**63
            data = np.frombuffer(fh.read(8 * n), dtype="<f8")
            if data.size != n:
                raise FormatError(f"{path}: truncated record {name}")
            arrays[name] = data.reshape(shape).copy()
    # ValueError: JSON, UTF-8; OverflowError: a corrupt shape too large to read
    except (OSError, struct.error, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: unreadable checkpoint: {exc}") from exc
    return arrays, hyper


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def finite_difference_check(fn, tensors: list[Tensor], h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `fn` must rebuild the graph from `tensors` and return a scalar Tensor.
    """
    for t in tensors:
        t.grad = None
    loss = fn()
    loss.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in tensors]
    worst = 0.0
    for t, a in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(fn().data)
            flat[i] = orig - h
            lo = float(fn().data)
            flat[i] = orig
            numeric = (hi - lo) / (2 * h)
            ai = a.reshape(-1)[i]
            # floor keeps FD roundoff noise on near-zero components from
            # dominating the relative error
            err = abs(ai - numeric) / max(abs(ai), abs(numeric), 1e-4)
            worst = max(worst, err)
    return worst
