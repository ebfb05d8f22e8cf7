import dataclasses

import numpy as np
import pytest

import fsed.autodiff as ad
import fsed.fewshot as fs
import fsed.model as mdl
from fsed.errors import FormatError, SelectionError, ShapeError
from fsed.framing import WindowBatch
from fsed.ingest import RunConfig

CFG = dataclasses.replace(RunConfig(), channels=8, embed_dim=8, heads=2,
                          ffn_dim=16)


@pytest.fixture(scope="module")
def model():
    return mdl.ModelParams(CFG, n_classes=3, seed=0)


def rand_window(seed, t=431, bands=128):
    return np.random.default_rng(seed).uniform(0, 1, (t, bands))


class TestBackbone:
    def test_embedding_shape(self, model):
        emb = mdl.backbone_forward(model, rand_window(0))
        assert emb.shape == (108, CFG.embed_dim)

    def test_zero_input_zero_embedding(self):
        m = mdl.ModelParams(CFG, 3, seed=1)
        for lin in (m.embed_proj,):
            lin.b.data[:] = 0
        emb = mdl.backbone_forward(m, np.zeros((431, 128)), training=False)
        # eval-mode BN with init stats maps 0 -> beta=0; relu/pool keep 0
        assert emb.data == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self, model):
        w = rand_window(2)
        a = mdl.backbone_forward(model, w).data
        b = mdl.backbone_forward(model, w.copy()).data
        assert np.array_equal(a, b)

    def test_wrong_band_count(self, model):
        with pytest.raises(ShapeError):
            mdl.backbone_forward(model, np.zeros((431, 64)))

    def test_suffix_of_prefix_is_forward(self, model):
        w = rand_window(19)
        prefix = mdl.backbone_prefix(model, w).data
        assert prefix.shape == (CFG.channels, 108, 128 // 4)
        want = mdl.backbone_forward(model, w, training=False).data.tobytes()
        assert mdl.backbone_suffix(model, prefix).data.tobytes() == want


class TestSedForward:
    def test_logit_shape(self, model):
        emb = mdl.backbone_forward(model, rand_window(3))
        logits = mdl.sed_forward(model, emb, 431)
        assert logits.shape == (431, 3)

    def test_uniform_softmax_for_zero_embedding(self, model):
        bias = model.decoder_sed.b.data.copy()
        model.decoder_sed.b.data[:] = 0
        try:
            logits = mdl.sed_forward(model, ad.Tensor(np.zeros((108, 8))), 431)
            probs = ad.softmax(logits).data
            assert probs == pytest.approx(1 / 3)
        finally:
            model.decoder_sed.b.data = bias

    def test_repeat_groups_share_logits(self, model):
        emb = mdl.backbone_forward(model, rand_window(4))
        logits = mdl.sed_forward(model, emb, 431).data
        for start in (0, 4, 428):
            group = logits[start - start % 4:start - start % 4 + 4]
            group = group[: 431 - (start - start % 4)]
            assert np.allclose(group, group[0])

    def test_softmax_rows_normalized(self, model):
        emb = mdl.backbone_forward(model, rand_window(5))
        probs = ad.softmax(mdl.sed_forward(model, emb, 431)).data
        assert probs.sum(axis=1) == pytest.approx(1.0, abs=1e-9)


class TestTcVector:
    def test_rule(self):
        window = np.array([[1.0, 2], [3, 4], [5, 6]])
        out = mdl.tc_vector(window, np.array([1, 0, 1]), 1)
        assert np.array_equal(out, [[1, 2], [0, 0], [5, 6]])

    def test_idempotent(self):
        window = rand_window(6, t=10, bands=4)
        labels = np.array([0, 1, 1, 0, 2, 1, 0, 0, 1, 2])
        once = mdl.tc_vector(window, labels, 1)
        assert np.array_equal(mdl.tc_vector(once, labels, 1), once)

    def test_all_or_nothing(self):
        window = rand_window(7, t=6, bands=4)
        labels = np.full(6, 2)
        assert np.array_equal(mdl.tc_vector(window, labels, 2), window)
        assert np.all(mdl.tc_vector(window, labels, 1) == 0)


class TestSelectTcWindow:
    def _windows(self, class_at, count=8):
        wins = []
        for i in range(count):
            labels = np.zeros(100, dtype=int)
            if i in class_at:
                labels[5] = class_at[i]
            wins.append(WindowBatch(
                features=np.zeros((100, 4)), sed_labels=labels,
                sfbc_labels=(labels != 0).astype(int),
                train_mask=np.ones(100, dtype=int),
                window_start_frame=i * 50, source_id="t"))
        return wins

    def test_nearest_preceding(self):
        wins = self._windows({2: 1, 7: 1})
        assert mdl.select_tc_window(wins, 1, 7) == 2

    def test_fallback_current(self):
        wins = self._windows({3: 1})
        assert mdl.select_tc_window(wins, 1, 3) == 3

    def test_scan_order(self):
        wins = self._windows({1: 1, 4: 1, 6: 1})
        assert mdl.select_tc_window(wins, 1, 6) == 4

    def test_absent_class(self):
        wins = self._windows({})
        with pytest.raises(SelectionError):
            mdl.select_tc_window(wins, 1, 5)


class TestSfbcForward:
    def test_shapes(self, model):
        emb = mdl.backbone_forward(model, rand_window(8))
        tc_emb = mdl.backbone_forward(model, rand_window(9))
        mask = np.zeros(108)
        mask[10:20] = 1
        logits = mdl.sfbc_forward(model, emb, tc_emb, mask, 431)
        assert logits.shape == (431, 2)

    def test_single_pos_frame_center(self, model):
        emb = mdl.backbone_forward(model, rand_window(10))
        tc_emb = mdl.backbone_forward(model, rand_window(11))
        mask = np.zeros(108)
        mask[42] = 1
        center = ad.masked_mean_rows(tc_emb, mask)
        assert center.data == pytest.approx(tc_emb.data[42])

    def test_invariant_to_neg_frames(self, model):
        window = rand_window(12)
        labels = np.zeros(431, dtype=int)
        labels[100:140] = 1
        emb = mdl.backbone_forward(model, rand_window(13))
        mask = mdl.reduce_pos_mask(labels, 1, 108)

        tc_a = mdl.tc_vector(window, labels, 1)
        scrambled = window.copy()
        scrambled[labels != 1] = 999.0  # perturb only non-target frames
        tc_b = mdl.tc_vector(scrambled, labels, 1)
        assert np.array_equal(tc_a, tc_b)

        out_a = mdl.sfbc_forward(model, emb, mdl.backbone_forward(model, tc_a),
                                 mask, 431).data
        out_b = mdl.sfbc_forward(model, emb, mdl.backbone_forward(model, tc_b),
                                 mask, 431).data
        assert np.array_equal(out_a, out_b)

    def test_empty_mask_rejected(self, model):
        emb = mdl.backbone_forward(model, rand_window(14))
        with pytest.raises(SelectionError):
            mdl.sfbc_forward(model, emb, emb, np.zeros(108), 431)

    def test_no_transformer_path(self, model):
        emb = mdl.backbone_forward(model, rand_window(15))
        mask = np.ones(108)
        out = mdl.sfbc_forward(model, emb, emb, mask, 431,
                               use_transformer=False)
        assert out.shape == (431, 2)


class TestMultitaskGradients:
    def test_both_branches_reach_backbone(self):
        m = mdl.ModelParams(CFG, 3, seed=2)
        window = rand_window(16)
        labels = np.zeros(431, dtype=int)
        labels[50:90] = 1
        emb = mdl.backbone_forward(m, window, training=True)
        sed_logits = mdl.sed_forward(m, emb, 431)
        tc = mdl.tc_vector(window, labels, 1)
        tc_emb = mdl.backbone_forward(m, tc, training=True)
        mask = mdl.reduce_pos_mask(labels, 1, 108)
        sfbc_logits = mdl.sfbc_forward(m, emb, tc_emb, mask, 431)
        ones = np.ones(431)
        loss = ad.add(ad.masked_softmax_ce(sed_logits, labels, ones),
                      ad.masked_softmax_ce(sfbc_logits,
                                           (labels != 0).astype(int), ones))
        loss.backward()
        assert np.any(m.blocks[0].w.grad != 0)
        assert np.any(m.decoder_sed.w.grad != 0)
        assert np.any(m.decoder_sfbc.w.grad != 0)
        assert np.any(m.tf.w1.grad != 0)


class TestCheckpointing:
    def test_roundtrip_restores_forward(self, tmp_path, model):
        path = tmp_path / "m.ckpt"
        model.save(path)
        clone = mdl.ModelParams.from_checkpoint(path, RunConfig())
        w = rand_window(17)
        a = mdl.backbone_forward(model, w).data
        b = mdl.backbone_forward(clone, w).data
        assert a.tobytes() == b.tobytes()

    def test_hyper_preserved(self, tmp_path, model):
        path = tmp_path / "m.ckpt"
        model.save(path)
        clone = mdl.ModelParams.from_checkpoint(path, RunConfig())
        assert clone.cfg.channels == CFG.channels
        assert clone.n_classes == 3

    def test_shift_frames_recorded_and_optional(self, tmp_path):
        cfg = dataclasses.replace(CFG, win_frames=32, shift_frames=8)
        m = mdl.ModelParams(cfg, n_classes=3, seed=2)
        path = tmp_path / "m.ckpt"
        m.save(path)
        assert mdl.ModelParams.from_checkpoint(path, RunConfig()).cfg.shift_frames == 8
        # a checkpoint written before shift_frames was recorded
        hyper = m.hyper()
        del hyper["shift_frames"]
        ad.save_checkpoint(path, m.state_arrays(), hyper)
        base = dataclasses.replace(RunConfig(), shift_frames=5)
        assert mdl.ModelParams.from_checkpoint(path, base).cfg.shift_frames == 5

    @staticmethod
    def _bad_checkpoint(case, path, model):
        if case == "truncated_header":
            path.write_bytes(b"FSED\x01\x00")
        elif case == "corrupt_json":
            path.write_bytes(b"FSED" + (1).to_bytes(4, "little")
                             + (5).to_bytes(4, "little") + b"{oops")
        elif case == "missing_bn_stats":
            arrays = {k: v for k, v in model.state_arrays().items()
                      if "running" not in k}
            ad.save_checkpoint(path, arrays, model.hyper())
        elif case == "missing_hyper_key":
            hyper = model.hyper()
            del hyper["heads"]
            ad.save_checkpoint(path, model.state_arrays(), hyper)
        return path  # "missing_file": never written

    @pytest.mark.parametrize("case", ["truncated_header", "corrupt_json",
                                      "missing_file", "missing_bn_stats",
                                      "missing_hyper_key"])
    def test_bad_input_raises_format_error(self, tmp_path, model, case):
        path = self._bad_checkpoint(case, tmp_path / "bad.ckpt", model)
        if case in ("truncated_header", "corrupt_json", "missing_file"):
            with pytest.raises(FormatError):
                ad.load_checkpoint(path)
        with pytest.raises(FormatError):
            mdl.ModelParams.from_checkpoint(path, RunConfig())
        with pytest.raises(FormatError):
            fs.TaskModel.load(path, RunConfig())

    def test_corrupt_shape_field_raises_format_error(self, tmp_path, model):
        path = tmp_path / "bad.ckpt"
        arrays = {"w": np.zeros((2, 3))}
        ad.save_checkpoint(path, arrays, model.hyper())
        raw = path.read_bytes()
        # the record's two u32 dims sit just before its 48 data bytes
        dims = (2**31).to_bytes(4, "little") + (2**30).to_bytes(4, "little")
        path.write_bytes(raw[:-56] + dims + raw[-48:])
        with pytest.raises(FormatError, match="bad.ckpt"):
            ad.load_checkpoint(path)


class TestRepeatUpsampleGeometry:
    def test_108_by_4_covers_431(self):
        x = ad.Tensor(np.arange(108, dtype=float).reshape(108, 1))
        out = ad.repeat_upsample(x, 4, 431).data[:, 0]
        assert len(out) == 431
        assert out[0] == 0 and out[3] == 0 and out[4] == 1
        assert out[430] == 107  # 432nd value trimmed

    def test_insufficient_rows(self):
        x = ad.Tensor(np.zeros((2, 1)))
        with pytest.raises(Exception):
            ad.repeat_upsample(x, 2, 5)
