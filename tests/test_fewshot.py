import copy
import dataclasses

import numpy as np
import pytest

import fsed.autodiff as ad
import fsed.fewshot as fs
import fsed.model as M
from fsed.errors import TaskError
from fsed.framing import WindowBatch
from fsed.ingest import RunConfig

TINY = dataclasses.replace(RunConfig(), channels=4, embed_dim=4, heads=2,
                           ffn_dim=8, mel_bands=16, win_frames=32,
                           shift_frames=8, iters=4, aug_start_iter=2,
                           support_count=2, finetune_batch=1,
                           pseudo_cycles=1, pseudo_iters=2)


def tiny_model(seed=0, n_classes=3):
    return M.ModelParams(TINY, n_classes=n_classes, seed=seed)


class TestPosCenter:
    def test_identical_unit_vectors(self):
        v = np.array([0.6, 0.8])
        assert fs.pos_center([v] * 5) == pytest.approx(v)

    def test_mean_then_normalize(self):
        center = fs.pos_center([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert center == pytest.approx([0.7071, 0.7071], abs=1e-4)

    def test_zero_norm_rejected(self):
        with pytest.raises(TaskError):
            fs.pos_center([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])


class TestQuerySimilarity:
    def test_self_similarity_one(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=8)
        center = v / np.linalg.norm(v)
        sims, score = fs.query_similarity(v[None, :], center)
        assert score == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_zero(self):
        sims, _ = fs.query_similarity(np.array([[1.0, 0.0]]),
                                      np.array([0.0, 1.0]))
        assert sims[0] == pytest.approx(0.0)

    def test_oracle_value(self):
        center = np.array([1.0, 1.0]) / np.sqrt(2)
        sims, _ = fs.query_similarity(np.array([[1.0, 0.0]]), center)
        assert sims[0] == pytest.approx(0.70711, abs=1e-5)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(50, 8))
        c = rng.normal(size=8)
        sims, score = fs.query_similarity(emb, c / np.linalg.norm(c))
        assert np.all(sims >= -1 - 1e-12) and np.all(sims <= 1 + 1e-12)
        assert score == sims.max()

    def test_window_score_is_max(self):
        emb = np.array([[1.0, 0.0], [0.0, -1.0], [0.5, 0.5]])
        _, score = fs.query_similarity(emb, np.array([1.0, 0.0]))
        assert score == pytest.approx(1.0)


class TestReconstructNegatives:
    def _windows(self, n):
        return [WindowBatch(features=np.full((8, 2), float(i)),
                            sed_labels=np.zeros(8, dtype=int),
                            sfbc_labels=np.zeros(8, dtype=int),
                            train_mask=np.ones(8, dtype=int),
                            window_start_frame=0)
                for i in range(n)]

    def test_lowest_score_selected(self):
        pool = fs.reconstruct_negatives(self._windows(3), [0.9, 0.1, 0.5], 1, [])
        assert len(pool) == 1
        assert np.all(pool[0] == 1.0)

    def test_quota_exceeds_count(self):
        pool = fs.reconstruct_negatives(self._windows(2), [0.3, 0.4], 10, [])
        assert len(pool) == 2

    def test_tie_earlier_index(self):
        pool = fs.reconstruct_negatives(self._windows(3), [0.5, 0.5, 0.5], 1, [])
        assert np.all(pool[0] == 0.0)

    def test_empty_query_region(self):
        neg = [np.ones((5, 2))]
        pool = fs.reconstruct_negatives([], [], 2, neg)
        assert len(pool) == 1 and np.all(pool[0] == 1.0)

    def test_matches_brute_force_argmin(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            scores = rng.uniform(-1, 1, n).round(3).tolist()
            pool = fs.reconstruct_negatives(self._windows(n), scores, 1, [])
            best = min(range(n), key=lambda i: (scores[i], i))
            assert np.all(pool[0] == best)


class TestBuildSupports:
    POOL = [np.full((40, 3), -1.0)]

    def _shot(self, length, value=7.0):
        return np.full((length, 3), value)

    def test_deterministic(self):
        a = fs.build_supports([self._shot(10)], self.POOL, 4, seed=3, win=64)
        b = fs.build_supports([self._shot(10)], self.POOL, 4, seed=3, win=64)
        for wa, wb in zip(a.support1 + a.support2, b.support1 + b.support2):
            assert np.array_equal(wa.features, wb.features)
            assert np.array_equal(wa.sed_labels, wb.sed_labels)

    def test_single_contiguous_pos_run(self):
        sup = fs.build_supports([self._shot(9), self._shot(14)], self.POOL,
                                8, seed=4, win=64)
        for w in sup.support1 + sup.support2:
            pos = np.flatnonzero(w.sed_labels)
            assert len(pos) >= 1
            assert np.array_equal(pos, np.arange(pos[0], pos[-1] + 1))

    def test_pos_frame_count_matches_shot(self):
        sup = fs.build_supports([self._shot(50)], self.POOL, 5, seed=5, win=431)
        for w in sup.support1 + sup.support2:
            assert int(w.sed_labels.sum()) == 50

    def test_labeled_frames_carry_shot_content(self):
        shots = [self._shot(12, value=5.0), self._shot(7, value=9.0)]
        sup = fs.build_supports(shots, self.POOL, 6, seed=6, win=64)
        for w in sup.support1 + sup.support2:
            shot = shots[w.provenance["shot"]]
            a = w.provenance["offset"]
            assert np.array_equal(w.features[a:a + len(shot)], shot)
            assert np.array_equal(np.flatnonzero(w.sed_labels),
                                  np.arange(a, a + len(shot)))

    def test_oversized_shot_cropped(self):
        sup = fs.build_supports([self._shot(100)], self.POOL, 2, seed=7, win=64)
        for w in sup.support1:
            assert int(w.sed_labels.sum()) == 64

    def test_no_shots_rejected(self):
        with pytest.raises(TaskError):
            fs.build_supports([], self.POOL, 2, seed=0)


class TestTimeFilterAug:
    SPEC = RunConfig(aug_zones=6, aug_min_zone=48)

    def test_identity_knots(self):
        rng = np.random.default_rng(8)
        window = rng.uniform(0, 1, (431, 16))
        out = fs.time_filter_aug(window, self.SPEC, rng,
                                 knots=np.full(7, 6.0 / 14.0))
        assert out == pytest.approx(window, abs=1e-12)

    def test_three_frame_ramp_gains(self):
        spec = RunConfig(aug_zones=1, aug_min_zone=3)
        window = np.ones((3, 2))
        out = fs.time_filter_aug(window, spec, np.random.default_rng(9),
                                 knots=np.array([0.0, 1.0]))
        assert out[:, 0] == pytest.approx([0.50119, 1.12202, 2.51189], abs=1e-5)

    def test_gain_bounds(self):
        rng = np.random.default_rng(10)
        window = np.ones((431, 4))
        for _ in range(20):
            out = fs.time_filter_aug(window, self.SPEC, rng)
            assert np.all(out >= 0.50119 - 1e-5)
            assert np.all(out <= 2.51189 + 1e-5)

    def test_zero_frames_stay_zero(self):
        rng = np.random.default_rng(11)
        window = np.zeros((431, 4))
        assert np.all(fs.time_filter_aug(window, self.SPEC, rng) == 0)

    def test_constant_knots_uniform_scale(self):
        rng = np.random.default_rng(12)
        window = rng.uniform(0, 1, (431, 4))
        out = fs.time_filter_aug(window, self.SPEC, rng, knots=np.full(7, 0.25))
        ratio = out / window
        assert ratio == pytest.approx(ratio.flat[0])

    def test_short_window_identity(self):
        window = np.ones((10, 4))
        out = fs.time_filter_aug(window, self.SPEC, np.random.default_rng(13))
        assert np.array_equal(out, window)
        assert out is not window

    def test_zone_lengths_respect_minimum(self):
        # all zones at least min_zone: total length preserved by construction
        rng = np.random.default_rng(14)
        out = fs.time_filter_aug(np.ones((431, 2)), self.SPEC, rng)
        assert out.shape == (431, 2)


class TestGrafting:
    def test_pos_center_row(self):
        model = tiny_model()
        before = model.decoder_sed.w.data.copy()
        center = np.arange(4, dtype=float)
        fs.graft_background_row(model, center, "pos_center")
        assert np.array_equal(model.decoder_sed.w.data[:, 0], center)
        assert model.decoder_sed.b.data[0] == 0.0
        # all other rows bit-identical
        assert model.decoder_sed.w.data[:, 1:].tobytes() == \
            before[:, 1:].tobytes()

    def test_binary_row_mode(self):
        model = tiny_model()
        fs.graft_background_row(model, np.zeros(4), "binary_row")
        assert np.array_equal(model.decoder_sed.w.data[:, 0],
                              model.decoder_bin.w.data[:, 1])

    def test_unknown_mode(self):
        with pytest.raises(Exception):
            fs.graft_background_row(tiny_model(), np.zeros(4), "bogus")


def _tiny_supports(seed=0):
    rng = np.random.default_rng(seed)
    shot = rng.uniform(1, 2, (8, 16))
    pool = [rng.uniform(0, 0.2, (40, 16))]
    return fs.build_supports([shot], pool, TINY.support_count, seed=seed, win=32)


class TestFinetuneSed:
    def test_freeze_contract(self):
        model = tiny_model()
        before = model.snapshot()
        fs.finetune_sed(model, _tiny_supports(), [], TINY, seed=1)
        after = model.state_arrays()
        for name in before:
            if name.startswith(("block0.", "block1.", "embed_proj.", "tf.",
                                "decoder_sfbc.")) and "running" not in name:
                assert np.array_equal(before[name], after[name]), name
        changed = any(not np.array_equal(before[n], after[n])
                      for n in before if n.startswith("decoder_bin."))
        assert changed

    def test_binary_loss_decreases(self):
        cfg = dataclasses.replace(TINY, iters=30, use_aug=False,
                                  finetune_batch=2)
        model = tiny_model()
        sup = _tiny_supports(2)

        def mean_loss():
            vals = []
            for w in sup.support1 + sup.support2:
                emb = M.backbone_forward(model, w.features, training=False)
                loss = ad.masked_softmax_ce(
                    M.bin_forward(model, emb, cfg.win_frames),
                    w.sfbc_labels, w.train_mask)
                vals.append(float(loss.data))
            return float(np.mean(vals))

        before = mean_loss()
        fs.finetune_sed(model, sup, [], cfg, seed=3)
        assert mean_loss() < before


class TestPseudoLabels:
    def _query_windows(self, seed=0, n=2):
        rng = np.random.default_rng(seed)
        return [WindowBatch(features=rng.uniform(0, 1, (32, 16)),
                            sed_labels=np.zeros(32, dtype=int),
                            sfbc_labels=np.zeros(32, dtype=int),
                            train_mask=np.ones(32, dtype=int),
                            window_start_frame=32 * i)
                for i in range(n)]

    @staticmethod
    def _refine(model, windows, cfg):
        return fs.pseudo_label_refine(model, windows, cfg, 0)

    def test_zero_cycles_unchanged(self):
        cfg = dataclasses.replace(TINY, pseudo_cycles=0)
        model = tiny_model()
        before = model.snapshot()
        stats = self._refine(model, self._query_windows(), cfg)
        assert stats == {"cycles_run": 0, "cycles_skipped": 0}
        for k, v in model.state_arrays().items():
            assert np.array_equal(v, before[k])

    def test_unconfident_cycles_skipped(self, monkeypatch):
        model = tiny_model()
        before = model.snapshot()
        monkeypatch.setattr(fs, "positive_prob",
                            lambda logits: np.full(len(logits), 0.5))
        stats = self._refine(model, self._query_windows(), TINY)
        assert stats["cycles_skipped"] == TINY.pseudo_cycles
        assert stats["cycles_run"] == 0
        for k, v in model.state_arrays().items():
            assert np.array_equal(v, before[k])

    def test_confident_frames_trigger_training(self):
        model = tiny_model()
        before = model.snapshot()
        stats = self._refine(model, self._query_windows(1), TINY)
        if stats["cycles_run"]:
            assert any(not np.array_equal(before[n], model.state_arrays()[n])
                       for n in before if n.startswith("decoder_bin."))


class TestFinetuneSfbc:
    def test_transformer_frozen_decoder_trained(self):
        model = tiny_model()
        before = model.snapshot()
        center = fs.finetune_sfbc(model, _tiny_supports(4), TINY, seed=5)
        assert center is not None and center.shape == (4,)
        after = model.state_arrays()
        for name in before:
            if name.startswith("tf.") or name.startswith("block"):
                assert np.array_equal(before[name], after[name]), name
        assert any(not np.array_equal(before[n], after[n])
                   for n in before if n.startswith("decoder_sfbc."))

    def test_empty_support1_skipped(self):
        model = tiny_model()
        sup = fs.ReconstructedSupports(support1=[], support2=[])
        assert fs.finetune_sfbc(model, sup, TINY, seed=0) is None


class TestTaskCheckpoint:
    def test_save_load_roundtrip(self, tmp_path):
        cfg = dataclasses.replace(TINY, multitask=False, use_transformer=False)
        rng = np.random.default_rng(17)
        tm = fs.TaskModel(model=M.ModelParams(cfg, n_classes=3, seed=4),
                          sfbc_center=rng.normal(size=cfg.embed_dim), cfg=cfg)
        ctx = fs.TaskContext(features=rng.uniform(0, 1, (100, 16)),
                             frame_period_s=256 / 22050, pos_ranges=[],
                             neg_ranges=[], query_start_frame=0)
        ctx.query_windows = fs._query_windows(ctx.features, 0, cfg)
        path = tmp_path / "task.ckpt"
        tm.save(path)
        back = fs.TaskModel.load(path, TINY)
        assert (back.cfg.multitask, back.cfg.use_transformer) == (False, False)
        assert back.sfbc_center.tobytes() == tm.sfbc_center.tobytes()
        assert fs.detect(back, ctx).tobytes() == fs.detect(tm, ctx).tobytes()


class TestFrameArithmetic:
    def test_time_to_frames_center_rule(self):
        period = 256 / 22050
        a, b = fs._time_to_frames(0.0, 1.0, period)
        assert (a, b) == (0, 86)  # frame 85 center 0.9927 < 1.0 <= frame 86

    def test_shot_embedding_masked_mean(self):
        model = tiny_model()
        rng = np.random.default_rng(15)
        features = rng.uniform(0, 1, (200, 16))
        emb_val = fs.shot_embedding(model, features, (40, 48), TINY)
        assert emb_val.shape == (4,)
        assert np.all(np.isfinite(emb_val))

    @staticmethod
    def _context(n_samples, last_onset_s, last_offset_s):
        # 690 frames of 256 samples in either clip
        from fsed.ingest import AnnotationEvent, AudioClip, make_support_task

        rng = np.random.default_rng(16)
        clip = AudioClip(rng.uniform(-0.1, 0.1, n_samples), 22050)
        events = [AnnotationEvent(t, t + 0.3, "p") for t in (0.5, 1.5, 2.5, 3.5)]
        events.append(AnnotationEvent(last_onset_s, last_offset_s, "p"))
        return fs.build_task_context(clip, make_support_task(clip, events), TINY)

    def test_shot_after_clip_end_rejected(self):
        with pytest.raises(TaskError, match=r"POS shot at 8\.2 s"):
            self._context(8 * 22050, 8.2, 8.4)

    def test_shot_after_last_frame_center_rejected(self):
        # onset inside the audio but after the center of frame 689, the last
        with pytest.raises(TaskError, match="no frame in the clip"):
            self._context(176584, 176574 / 22050, 176584 / 22050)

    def test_shot_at_last_frame_accepted(self):
        ctx = self._context(176584, 176300 / 22050, 176584 / 22050)
        assert ctx.pos_ranges[-1] == (689, 690)


@pytest.fixture(scope="module")
def adapted(tmp_path_factory):
    """One TINY task adapted end to end: (clip, task, TaskModel, ctx)."""
    from fsed.ingest import (SynthSpec, make_support_task, read_annotations,
                             read_wav, synth_task_set)

    spec = SynthSpec(base_classes=[], novel_classes=["n1"], novel_duration_s=8.0,
                     novel_pos_count=7, event_dur_range=(0.25, 0.4),
                     novel_gap_range=(0.4, 0.7))
    wav, csv_path = synth_task_set(spec, 3, tmp_path_factory.mktemp("task"))["novel"][0]
    clip = read_wav(wav)
    task = make_support_task(clip, read_annotations(csv_path))
    tm, ctx = fs.adapt(tiny_model(seed=6), clip, task, TINY, seed=2)
    return clip, task, tm, ctx


class TestQueryPrefixCache:
    def test_detect_with_cache_equals_fresh_context(self, adapted, monkeypatch):
        clip, task, tm, ctx = adapted
        fresh = fs.detect(tm, fs.build_task_context(clip, task, TINY))
        assert sum(w.prefix is not None for w in ctx.query_windows) == \
            len(ctx.query_windows) > 1

        def no_prefix(*args, **kwargs):
            raise AssertionError("cached prefixes not used")

        monkeypatch.setattr(M, "backbone_prefix", no_prefix)
        assert fs.detect(tm, ctx).tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("name", ["block0.w", "block1.bn_state"])
    def test_stale_cache_ignored(self, adapted, name):
        clip, task, tm, ctx = adapted
        ctx = copy.deepcopy(ctx)  # detect under `changed` refills the slots
        model = fs.clone_model(tm.model)
        if name == "block0.w":
            model.blocks[0].w.data[0, 0, 1, 1] += 0.25
        else:
            model.blocks[1].bn_state.running_mean = (
                model.blocks[1].bn_state.running_mean + 0.25)
        changed = fs.TaskModel(model=model, sfbc_center=tm.sfbc_center, cfg=TINY)
        fresh = fs.detect(changed, fs.build_task_context(clip, task, TINY))
        assert fresh.tobytes() != fs.detect(tm, ctx).tobytes()
        assert fs.detect(changed, ctx).tobytes() == fresh.tobytes()

    def test_pseudo_label_refine_with_and_without_prefixes(self, adapted):
        _, _, tm, ctx = adapted
        cfg = dataclasses.replace(TINY, pseudo_cycles=2, pseudo_iters=3,
                                  pseudo_hi=0.5, pseudo_lo=0.5)
        with_cache, without = fs.clone_model(tm.model), fs.clone_model(tm.model)
        stats = fs.pseudo_label_refine(with_cache, ctx.query_windows, cfg, 4)
        # without the cache: each window's prefix computed afresh
        fresh = [dataclasses.replace(w, prefix=None) for w in ctx.query_windows]
        assert stats == fs.pseudo_label_refine(without, fresh, cfg, 4)
        assert stats["cycles_run"] == 2
        a, b = with_cache.state_arrays(), without.state_arrays()
        assert all(a[k].tobytes() == b[k].tobytes() for k in a)
        assert any(a[k].tobytes() != v.tobytes()
                   for k, v in tm.model.state_arrays().items())

    def test_prefix_blocks_never_trained(self):
        # the cache is exact only while no fine-tuning stage trains blocks 0-1
        for prefix in M.PREFIX_PARAMS:
            assert not prefix.startswith(fs.SED_TRAINABLE + fs.SFBC_TRAINABLE)


def _tiny_base_windows(n=2, seed=7):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        labels = np.zeros(32, dtype=np.int64)
        labels[4 + 6 * i:20 + 6 * i] = 1 + i % 2
        out.append(WindowBatch(features=rng.uniform(0, 1, (32, 16)),
                               sed_labels=labels,
                               sfbc_labels=(labels != 0).astype(np.int64),
                               train_mask=np.ones(32, dtype=np.int64),
                               window_start_frame=32 * i))
    return out


def _fill(windows, model, poison=False):
    """Fill every window's prefix slot under `model`'s fingerprint, with the
    true blocks 0-1 output or (poison) a constant of the same shape."""
    key = M.prefix_fingerprint(model)
    for w in windows:
        prefix = M.window_prefix(model, w, key)
        if poison:
            w.prefix = (key, np.full_like(prefix, 3.0))


def _same_state(a, b) -> bool:
    a, b = a.state_arrays(), b.state_arrays()
    return a.keys() == b.keys() and all(a[k].tobytes() == b[k].tobytes() for k in a)


class TestPrefixStore:
    """Each window's blocks 0-1 output is stored on the window under the
    model's prefix fingerprint; readers must give the same bytes as a fresh
    computation."""

    CFG = dataclasses.replace(TINY, iters=6, aug_start_iter=3)

    def _sed_run(self, cfg, fill_with=None, poison=False):
        model = tiny_model()
        sup, base = _tiny_supports(), _tiny_base_windows()
        if fill_with is not None:
            _fill(sup.support1 + sup.support2 + base, fill_with, poison)
        fs.finetune_sed(model, sup, base, cfg, seed=1)
        return model, sup, base

    def test_finetune_sed_same_from_filled_slots(self):
        empty, sup, base = self._sed_run(self.CFG)
        assert all(w.prefix is not None for w in base)
        filled, _, _ = self._sed_run(self.CFG, fill_with=tiny_model())
        assert _same_state(empty, filled)

    def test_finetune_sfbc_same_from_filled_slots(self):
        runs = []
        for fill in (False, True):
            model, sup = tiny_model(), _tiny_supports(4)
            if fill:
                _fill(sup.support2, tiny_model())
            runs.append((model, fs.finetune_sfbc(model, sup, TINY, seed=5)))
        (a, ca), (b, cb) = runs
        assert ca.tobytes() == cb.tobytes()
        assert _same_state(a, b)

    @pytest.mark.parametrize("name", ["block0.w", "block1.bn_state"])
    def test_slot_of_other_fingerprint_recomputed(self, name):
        other = tiny_model()
        if name == "block0.w":
            other.blocks[0].w.data[0, 0, 1, 1] += 0.25
        else:
            other.blocks[1].bn_state.running_mean = (
                other.blocks[1].bn_state.running_mean + 0.25)
        model = tiny_model()
        key = M.prefix_fingerprint(model)
        assert M.prefix_fingerprint(other) != key
        w = _tiny_base_windows(1)[0]
        stale = M.window_prefix(other, w, M.prefix_fingerprint(other)).copy()
        got = M.window_prefix(model, w, key)
        want = M.backbone_prefix(model, w.features).data
        assert got.tobytes() == want.tobytes() != stale.tobytes()
        assert w.prefix[0] == key
        # a whole stage over slots filled under `other`
        empty, _, _ = self._sed_run(self.CFG)
        refilled, _, _ = self._sed_run(self.CFG, fill_with=other)
        assert _same_state(empty, refilled)

    def test_augmented_draws_never_read_store(self, monkeypatch):
        # augmented from the first iteration and no base windows: no draw
        # may start from a slot, even a poisoned one under the right key
        cfg = dataclasses.replace(self.CFG, use_aug=True, aug_start_iter=0)
        clean = tiny_model()
        fs.finetune_sed(clean, _tiny_supports(), [], cfg, seed=1)
        model, sup = tiny_model(), _tiny_supports()
        _fill(sup.support1 + sup.support2, model, poison=True)

        def no_store(*args, **kwargs):
            raise AssertionError("augmented draw read the prefix store")

        monkeypatch.setattr(M, "window_prefix", no_store)
        fs.finetune_sed(model, sup, [], cfg, seed=1)
        assert _same_state(clean, model)

    def test_poisoned_slots_are_read_without_aug(self):
        # the converse: unaugmented draws do start from the slot, so the
        # poison reaches the weights
        cfg = dataclasses.replace(self.CFG, use_aug=False)
        clean, _, _ = self._sed_run(cfg)
        poisoned, _, _ = self._sed_run(cfg, fill_with=tiny_model(), poison=True)
        assert not _same_state(clean, poisoned)

    def test_base_prefixes_computed_once_across_tasks(self, adapted, monkeypatch):
        clip, task, _, _ = adapted
        base = _tiny_base_windows()
        calls = {id(w.features): 0 for w in base}
        draws = [0]
        prefix, store = M.backbone_prefix, M.window_prefix

        def counting_prefix(model, window, *args, **kwargs):
            if id(window) in calls:
                calls[id(window)] += 1
            return prefix(model, window, *args, **kwargs)

        def counting_store(model, window, key):
            draws[0] += any(window is w for w in base)
            return store(model, window, key)

        monkeypatch.setattr(M, "backbone_prefix", counting_prefix)
        monkeypatch.setattr(M, "window_prefix", counting_store)
        pretrained = tiny_model(seed=6)
        for seed in (2, 3):
            fs.adapt(pretrained, clip, task, TINY, seed, base_windows=base)
        assert draws[0] == 2 * TINY.iters > len(base)
        assert all(n <= 1 for n in calls.values()), calls
