import gc
import weakref

import numpy as np
import pytest

import fsed.autodiff as ad
from fsed.errors import (ConfigError, FormatError, NumericError, ShapeError)


def rand_tensor(rng, shape, grad=True):
    return ad.Tensor(rng.normal(0, 1, size=shape), requires_grad=grad)


class TestTensorBasics:
    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            ad.Tensor([1.0, np.nan])

    def test_graph_freed_after_backward_without_gc(self):
        rng = np.random.default_rng(16)
        x = rand_tensor(rng, (1, 6, 5))
        w, b = rand_tensor(rng, (2, 1, 3, 3)), rand_tensor(rng, (2,))
        gc.disable()
        try:
            hidden = ad.conv2d(x, w, b)
            ref = weakref.ref(hidden)
            loss = ad.tsum(ad.relu(hidden))
            del hidden
            loss.backward()
            del loss
            assert ref() is None
        finally:
            gc.enable()
        assert w.grad is not None

    def test_backward_needs_scalar(self):
        t = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            t.backward()

    def test_grad_accumulates_over_reuse(self):
        x = ad.Tensor(3.0, requires_grad=True)
        y = ad.add(x, x)
        y.backward()
        assert x.grad == pytest.approx(2.0)

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(0)
        x = rand_tensor(rng, (3, 4))
        b = rand_tensor(rng, (4,))
        ad.tsum(ad.add(x, b)).backward()
        assert b.grad == pytest.approx(np.full(4, 3.0))


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.normal(size=(1, 5, 6)))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = ad.conv2d(x, ad.Tensor(w), ad.Tensor(np.zeros(1)))
        assert out.data == pytest.approx(x.data)

    def test_ones_kernel_interior_sum(self):
        x = ad.Tensor(np.ones((1, 5, 5)))
        out = ad.conv2d(x, ad.Tensor(np.ones((1, 1, 3, 3))),
                        ad.Tensor(np.zeros(1)))
        assert out.data[0, 2, 2] == 9.0
        assert out.data[0, 0, 0] == 4.0  # zero-padded corner

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x = rand_tensor(rng, (1, 4, 4))
        w = rand_tensor(rng, (2, 1, 3, 3))
        b = rand_tensor(rng, (2,))
        proj = ad.Tensor(rng.normal(size=(2, 4, 4)))

        def fn():
            return ad.tsum(ad.mul(ad.conv2d(x, w, b), proj))

        assert ad.finite_difference_check(fn, [x, w, b]) < 1e-6

    def test_shape_mismatch(self):
        x = ad.Tensor(np.ones((2, 4, 4)))
        w = ad.Tensor(np.ones((1, 3, 3, 3)))  # 3 in-channels vs 2
        with pytest.raises(ShapeError):
            ad.conv2d(x, w, ad.Tensor(np.zeros(1)))


class TestBatchNorm:
    def test_train_standardizes(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(5, 3, size=(2, 6, 7)))
        state = ad.BatchNormState(2)
        out = ad.batchnorm2d(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)),
                             state, training=True)
        flat = out.data.reshape(2, -1)
        assert flat.mean(axis=1) == pytest.approx(0.0, abs=1e-6)
        assert flat.var(axis=1) == pytest.approx(1.0, abs=1e-4)

    def test_eval_before_train_uses_init_stats(self):
        x = ad.Tensor(np.full((1, 2, 2), 0.5))
        out = ad.batchnorm2d(x, ad.Tensor(np.ones(1)), ad.Tensor(np.zeros(1)),
                             ad.BatchNormState(1), training=False)
        assert out.data == pytest.approx(0.5 / np.sqrt(1 + 1e-5))

    def test_running_stats_updated(self):
        rng = np.random.default_rng(4)
        state = ad.BatchNormState(1)
        x = ad.Tensor(rng.normal(2.0, 1.0, size=(1, 8, 8)))
        ad.batchnorm2d(x, ad.Tensor(np.ones(1)), ad.Tensor(np.zeros(1)),
                       state, training=True)
        assert state.running_mean[0] == pytest.approx(
            0.1 * x.data.mean(), abs=1e-12)


class TestAttention:
    def test_single_token(self):
        rng = np.random.default_rng(5)
        mha = ad.MultiHeadAttention(8, 2, rng)
        x = rand_tensor(rng, (1, 8), grad=False)
        # with T=1 attention weights are 1, so output = V through projections
        v = ad.linear(x, mha.wv, mha.bv)
        want = ad.linear(v, mha.wo, mha.bo)
        assert mha(x, x, x).data == pytest.approx(want.data)

    def test_identical_tokens_identical_rows(self):
        rng = np.random.default_rng(6)
        mha = ad.MultiHeadAttention(16, 8, rng)
        row = rng.normal(size=16)
        x = ad.Tensor(np.stack([row, row]))
        out = mha(x, x, x).data
        assert out[0] == pytest.approx(out[1])

    def test_dim_not_divisible(self):
        with pytest.raises(ConfigError):
            ad.MultiHeadAttention(10, 4, np.random.default_rng(0))

    @staticmethod
    def _per_head_loop(mha, x):
        """Reference: each head on its own column slice, then concatenated."""
        def columns(t, a, b):
            def backward(g):
                full = np.zeros_like(t.data)
                full[:, a:b] += g
                t._accumulate(full)
            return ad._node(t.data[:, a:b], (t,), backward)

        dh = mha.dim // mha.heads
        q = ad.linear(x, mha.wq, mha.bq)
        k = ad.linear(x, mha.wk, mha.bk)
        v = ad.linear(x, mha.wv, mha.bv)
        outs = []
        for h in range(mha.heads):
            qh, kh, vh = (columns(t, h * dh, (h + 1) * dh) for t in (q, k, v))
            scores = ad.mul(ad.matmul(qh, ad.transpose(kh)), 1.0 / np.sqrt(dh))
            outs.append(ad.matmul(ad.softmax(scores, axis=-1), vh))
        return ad.linear(ad.concat(outs, axis=1), mha.wo, mha.bo)

    @staticmethod
    def _graph_nodes(out):
        seen, stack = {id(out)}, [out]
        while stack:
            for p in stack.pop()._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        return len(seen)

    def test_batched_heads_match_per_head_loop(self):
        rng = np.random.default_rng(11)
        mha = ad.MultiHeadAttention(64, 8, rng)
        x = rand_tensor(rng, (108, 64))
        weight = rng.normal(size=(108, 64))
        tensors = [x] + list(mha.parameters().values())
        results = []
        for forward in (mha, lambda *a: self._per_head_loop(mha, a[0])):
            for t in tensors:
                t.zero_grad()
            out = forward(x, x, x)
            ad.tsum(ad.mul(out, weight)).backward()
            results.append((out, [t.grad.tobytes() for t in tensors]))
        (batched, grads), (loop, loop_grads) = results
        assert batched.data.tobytes() == loop.data.tobytes()
        assert grads == loop_grads
        # one stacked op per step instead of one per head
        assert self._graph_nodes(batched) < self._graph_nodes(loop)


class TestTransformerLayer:
    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(7)
        layer = ad.TransformerEncoderLayer(8, 2, 16, rng)
        out = layer(ad.Tensor(np.zeros((5, 8))), add_positions=False)
        assert out.data == pytest.approx(0.0, abs=1e-12)

    def test_shape_preserved(self):
        rng = np.random.default_rng(8)
        layer = ad.TransformerEncoderLayer(16, 8, 32, rng)
        out = layer(rand_tensor(rng, (54, 16), grad=False))
        assert out.shape == (54, 16)

    def test_positions_change_duplicate_rows(self):
        rng = np.random.default_rng(9)
        layer = ad.TransformerEncoderLayer(8, 2, 16, rng)
        row = rng.normal(size=8)
        out = layer(ad.Tensor(np.stack([row, row, row])), add_positions=True)
        assert not np.allclose(out.data[0], out.data[1])


class TestMaskedSoftmaxCE:
    def test_single_frame_half_prob(self):
        logits = ad.Tensor(np.log([[0.5, 0.25, 0.25]]), requires_grad=True)
        loss = ad.masked_softmax_ce(logits, [0], [1])
        assert float(loss.data) == pytest.approx(0.693147, abs=1e-6)

    def test_mean_over_unmasked(self):
        logits = ad.Tensor(np.log([[0.5, 0.5], [0.5, 0.5]]))
        loss = ad.masked_softmax_ce(logits, [0, 1], [1, 1])
        assert float(loss.data) == pytest.approx(0.693147, abs=1e-6)

    def test_all_masked_zero_loss_zero_grad(self):
        rng = np.random.default_rng(10)
        logits = rand_tensor(rng, (4, 3))
        loss = ad.masked_softmax_ce(logits, [0, 1, 2, 0], [0, 0, 0, 0])
        assert float(loss.data) == 0.0
        loss.backward()
        assert np.all(logits.grad == 0.0)

    def test_masked_rows_exact_zero_grad(self):
        rng = np.random.default_rng(11)
        logits = rand_tensor(rng, (6, 4))
        mask = np.array([1, 0, 1, 0, 0, 1])
        loss = ad.masked_softmax_ce(logits, [0, 1, 2, 3, 0, 1], mask)
        loss.backward()
        assert np.all(logits.grad[mask == 0] == 0.0)
        assert np.any(logits.grad[mask == 1] != 0.0)

    def test_masked_perturbation_changes_nothing(self):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(5, 3))
        mask = [1, 1, 0, 1, 0]
        labels = [0, 2, 1, 1, 0]
        l0 = float(ad.masked_softmax_ce(ad.Tensor(base), labels, mask).data)
        bumped = base.copy()
        bumped[2] += 100.0
        bumped[4] -= 50.0
        l1 = float(ad.masked_softmax_ce(ad.Tensor(bumped), labels, mask).data)
        assert l0 == l1

    def test_gradient(self):
        rng = np.random.default_rng(13)
        logits = rand_tensor(rng, (5, 4))

        def fn():
            return ad.masked_softmax_ce(logits, [0, 3, 1, 2, 0], [1, 0, 1, 1, 0])

        assert ad.finite_difference_check(fn, [logits]) < 1e-6


class TestAdam:
    def test_first_step_closed_form(self):
        p = ad.Tensor(1.0, requires_grad=True)
        p.grad = np.array(1.0)
        opt = ad.Adam({"p": p}, lr=0.1)
        opt.step()
        # mhat = vhat = 1 after bias correction; update = lr / (1 + eps)
        want = 1.0 - 0.1 / (1.0 + 1e-8)
        assert float(p.data) == pytest.approx(want, abs=1e-9)
        assert float(p.data) == pytest.approx(0.9, abs=1e-7)

    def test_zero_grad_param_unchanged(self):
        p = ad.Tensor([1.0, 2.0], requires_grad=True)
        opt = ad.Adam({"p": p}, lr=0.1)
        opt.step()
        assert p.data == pytest.approx([1.0, 2.0])

    def test_identical_grads_identical_updates(self):
        a = ad.Tensor(5.0, requires_grad=True)
        b = ad.Tensor(5.0, requires_grad=True)
        a.grad, b.grad = np.array(0.3), np.array(0.3)
        ad.Adam({"a": a, "b": b}, lr=0.01).step()
        assert float(a.data) == float(b.data)

    def test_bit_deterministic(self):
        def run():
            rng = np.random.default_rng(14)
            p = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
            opt = ad.Adam({"p": p}, lr=0.05)
            for _ in range(5):
                p.grad = rng.normal(size=(3, 3))
                opt.step()
            return p.data.tobytes()

        assert run() == run()

    def test_grad_shape_mismatch(self):
        p = ad.Tensor([1.0, 2.0], requires_grad=True)
        p.grad = np.zeros(3)
        with pytest.raises(ShapeError):
            ad.Adam({"p": p}, lr=0.1).step()


class TestStepLR:
    def test_schedule_values(self):
        assert ad.steplr(1e-4, 0) == 1e-4
        assert ad.steplr(1e-4, 10) == 5e-5
        assert ad.steplr(1e-4, 25) == 2.5e-5

    def test_non_increasing(self):
        lrs = [ad.steplr(1e-4, e) for e in range(60)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_negative_epoch(self):
        with pytest.raises(ConfigError):
            ad.steplr(1e-4, -1)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        arrays = {"a.w": rng.normal(size=(4, 3)), "b": rng.normal(size=7),
                  "scalar": np.array(3.14)}
        hyper = {"channels": 32, "note": "x"}
        path = tmp_path / "m.ckpt"
        ad.save_checkpoint(path, arrays, hyper)
        back, h2 = ad.load_checkpoint(path)
        assert h2 == hyper
        assert set(back) == set(arrays)
        for k in arrays:
            assert back[k].tobytes() == np.asarray(arrays[k], float).tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"JUNKxxxxxxx")
        with pytest.raises(FormatError):
            ad.load_checkpoint(path)


class TestMiscOps:
    def test_maxpool_ceil_mode(self):
        x = ad.Tensor(np.arange(15, dtype=float).reshape(1, 5, 3),
                      requires_grad=True)
        out = ad.maxpool2d(x, (2, 2))
        assert out.shape == (1, 3, 2)  # ceil(5/2) x ceil(3/2)
        ad.tsum(out).backward()
        assert x.grad.sum() == out.data.size  # one winner per pool cell

    def test_maxpool_matches_argmax_reference_with_ties(self):
        # small integers through relu: many equal maxima, zeros included
        rng = np.random.default_rng(18)
        for pool in ((2, 2), (1, 2)):
            x = ad.Tensor(rng.integers(-3, 3, size=(3, 7, 9)).astype(float))
            h = ad.Tensor(ad.relu(x).data, requires_grad=True)
            out = ad.maxpool2d(h, pool)
            # the reshape/argmax formulation, first maximum on ties
            pt, pf = pool
            ho, wo = -(-7 // pt), -(-9 // pf)
            padded = np.full((3, ho * pt, wo * pf), -np.inf)
            padded[:, :7, :9] = h.data
            r = padded.reshape(3, ho, pt, wo, pf).transpose(0, 1, 3, 2, 4).reshape(
                3, ho, wo, pt * pf)
            arg = r.argmax(axis=3)
            ref = np.take_along_axis(r, arg[..., None], axis=3)[..., 0]
            assert out.data.tobytes() == ref.tobytes()
            g = rng.normal(size=out.shape)
            ad.tsum(ad.mul(out, ad.Tensor(g))).backward()
            # each cell's gradient lands on its first maximum, in row-major
            # order within the cell, and nowhere else
            want = np.zeros_like(padded)
            for ci, i, j in np.ndindex(3, ho, wo):
                k = arg[ci, i, j]
                want[ci, i * pt + k // pf, j * pf + k % pf] = g[ci, i, j]
            assert h.grad.tobytes() == want[:, :7, :9].tobytes()

    def test_repeat_upsample_exact_cover(self):
        x = ad.Tensor(np.array([[1.0], [2.0]]), requires_grad=True)
        out = ad.repeat_upsample(x, 3, 5)
        assert out.data[:, 0] == pytest.approx([1, 1, 1, 2, 2])
        ad.tsum(out).backward()
        assert x.grad[:, 0] == pytest.approx([3, 2])

    def test_masked_mean_rows(self):
        x = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
                      requires_grad=True)
        out = ad.masked_mean_rows(x, np.array([1.0, 0.0, 1.0]))
        assert out.data == pytest.approx([3.0, 4.0])

    def test_layer_norm_rows(self):
        rng = np.random.default_rng(16)
        x = ad.Tensor(rng.normal(3, 2, size=(4, 8)))
        out = ad.layer_norm(x, ad.Tensor(np.ones(8)), ad.Tensor(np.zeros(8)))
        assert out.data.mean(axis=1) == pytest.approx(0.0, abs=1e-9)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(17)
        out = ad.softmax(ad.Tensor(rng.normal(size=(3, 5))))
        assert out.data.sum(axis=1) == pytest.approx(1.0)
