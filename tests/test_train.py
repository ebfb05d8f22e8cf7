import dataclasses

import numpy as np
import pytest

import fsed.autodiff as ad
import fsed.model as M
import fsed.train as train
from fsed.errors import ValidationError
from fsed.framing import ClassMap, WindowBatch, build_overlap_mask, segment_windows
from fsed.ingest import AnnotationEvent, AudioClip, RunConfig

TINY = dataclasses.replace(RunConfig(), channels=4, embed_dim=4, heads=2,
                           ffn_dim=8, mel_bands=16, win_frames=32,
                           shift_frames=8)


def tiny_windows(seed, n_windows=3, t=32, classes=(1, 2)):
    """Synthetic separable corpus: class k lights up band k."""
    rng = np.random.default_rng(seed)
    wins = []
    for i in range(n_windows):
        feats = rng.uniform(0, 0.1, (t, 16))
        labels = np.zeros(t, dtype=int)
        # events aligned to the x4 reduced grid, one per half so they never
        # overlap and labels stay attainable after time reduction
        half = t // max(1, len(classes)) if classes else t
        for j, k in enumerate(classes):
            a = j * half + 4 * rng.integers(0, (half - 8) // 4 + 1)
            labels[a:a + 8] = k
            feats[a:a + 8, k] += 4.0
        wins.append(WindowBatch(
            features=feats, sed_labels=labels,
            sfbc_labels=(labels != 0).astype(int),
            train_mask=np.ones(t, dtype=int),
            window_start_frame=i * t))
    return wins


class TestMultitaskLoss:
    def test_total_is_sum(self):
        rng = np.random.default_rng(0)
        sed = ad.Tensor(rng.normal(size=(8, 3)))
        sfbc = ad.Tensor(rng.normal(size=(8, 2)))
        y = np.array([0, 1, 2, 0, 1, 0, 2, 1])
        a = (y != 0).astype(int)
        mask = np.ones(8)
        l1, l2, total = train.multitask_loss(sed, sfbc, y, a, mask)
        assert float(total.data) == pytest.approx(float(l1.data) + float(l2.data))

    def test_perfect_logits_near_zero(self):
        y = np.array([0, 1, 1, 0])
        a = (y != 0).astype(int)
        sed = ad.Tensor(50.0 * np.eye(2)[y])
        sfbc = ad.Tensor(50.0 * np.eye(2)[a])
        _, _, total = train.multitask_loss(sed, sfbc, y, a, np.ones(4))
        assert float(total.data) < 1e-9

    def test_all_masked_zero(self):
        sed = ad.Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        sfbc = ad.Tensor(np.random.default_rng(2).normal(size=(4, 2)))
        l1, l2, total = train.multitask_loss(sed, sfbc, [0] * 4, [0] * 4,
                                             np.zeros(4))
        assert (float(l1.data), float(l2.data), float(total.data)) == (0, 0, 0)

    def test_sed_only(self):
        sed = ad.Tensor(np.zeros((4, 3)))
        l1, l2, total = train.multitask_loss(sed, None, [0] * 4, [0] * 4,
                                             np.ones(4))
        assert l2 is None and total is l1

    def test_masked_logits_do_not_matter(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(6, 3))
        mask = np.array([1, 0, 1, 1, 0, 1])
        y = np.array([1, 2, 0, 1, 0, 2])
        l_ref = train.multitask_loss(ad.Tensor(base), None, y,
                                     (y != 0).astype(int), mask)[2]
        wrecked = base.copy()
        wrecked[mask == 0] = 1e3
        l_alt = train.multitask_loss(ad.Tensor(wrecked), None, y,
                                     (y != 0).astype(int), mask)[2]
        assert float(l_ref.data) == float(l_alt.data)


class TestWindowStep:
    def _model(self, seed=0):
        return M.ModelParams(TINY, n_classes=3, seed=seed)

    def test_one_step_per_present_class(self):
        model = self._model()
        wins = tiny_windows(0, classes=(1, 2))
        opt = ad.Adam(model.parameters(), lr=1e-3)
        results = train.window_step(model, wins, 1, opt, 1e-3, TINY)
        assert len(results) == 2
        assert opt.step_count == 2
        assert all(not np.isnan(l2) for _, l2 in results)

    def test_background_only_sed_step(self):
        model = self._model()
        wins = tiny_windows(1, classes=())
        opt = ad.Adam(model.parameters(), lr=1e-3)
        results = train.window_step(model, wins, 0, opt, 1e-3, TINY)
        assert len(results) == 1
        assert np.isnan(results[0][1])

    def test_single_task_mode_skips_sfbc(self):
        cfg = dataclasses.replace(TINY, multitask=False)
        model = self._model()
        wins = tiny_windows(2, classes=(1,))
        opt = ad.Adam(model.parameters(), lr=1e-3)
        results = train.window_step(model, wins, 0, opt, 1e-3, cfg)
        assert all(np.isnan(l2) for _, l2 in results)


class TestPretrainEpoch:
    def test_loss_decreases_on_fixed_batch(self):
        model = M.ModelParams(TINY, n_classes=3, seed=3)
        corpus = [train.ClipWindows("a", tiny_windows(4, n_windows=2))]
        opt = ad.Adam(model.parameters(), lr=1e-3)
        plan = train.TrainPlan(epochs=20, kfold=1, seed=0)
        first = train.pretrain_epoch(model, corpus, opt, TINY, plan, 0)
        last = None
        for epoch in range(1, 20):
            last = train.pretrain_epoch(model, corpus, opt, TINY, plan, epoch)
        assert last["l_total"] < first["l_total"]

    def test_step_cap(self):
        model = M.ModelParams(TINY, n_classes=3, seed=4)
        corpus = [train.ClipWindows("a", tiny_windows(5, n_windows=4))]
        opt = ad.Adam(model.parameters(), lr=1e-3)
        plan = train.TrainPlan(epochs=1, kfold=1, seed=0, max_steps_per_epoch=2)
        stats = train.pretrain_epoch(model, corpus, opt, TINY, plan, 0)
        # 2 windows x 2 classes each
        assert stats["steps"] == 4

    def test_separable_problem_learned(self):
        # C=2 separable toy set: frame accuracy > 0.95 within 50 epochs
        cfg = dataclasses.replace(TINY, channels=8, embed_dim=8,
                                  lr_pretrain=3e-3)
        model = M.ModelParams(cfg, n_classes=2, seed=5)
        wins = tiny_windows(6, n_windows=3, classes=(1,))
        corpus = [train.ClipWindows("a", wins)]
        opt = ad.Adam(model.parameters(), lr=3e-3)
        plan = train.TrainPlan(epochs=50, kfold=1, seed=1)
        for epoch in range(50):
            train.pretrain_epoch(model, corpus, opt, cfg, plan, epoch)
        correct = total = 0
        for w in wins:
            emb = M.backbone_forward(model, w.features, training=False)
            pred = M.sed_forward(model, emb, len(w.sed_labels)).data.argmax(axis=1)
            correct += int(np.sum(pred == w.sed_labels))
            total += len(w.sed_labels)
        assert correct / total > 0.95


class TestKFold:
    def test_sizes_within_one(self):
        clips = [f"c{i}" for i in range(10)]
        splits = train.kfold_split(clips, 5, seed=0)
        assert len(splits) == 5
        for _, holdout in splits:
            assert len(holdout) == 2

    def test_partition_properties(self):
        clips = [f"c{i}" for i in range(7)]
        splits = train.kfold_split(clips, 3, seed=1)
        holdouts = [h for _, hs in splits for h in hs]
        assert sorted(holdouts) == sorted(clips)  # disjoint union
        for tr, hold in splits:
            assert set(tr) | set(hold) == set(clips)
            assert not set(tr) & set(hold)

    def test_deterministic(self):
        clips = [f"c{i}" for i in range(8)]
        assert train.kfold_split(clips, 4, 9) == train.kfold_split(clips, 4, 9)

    def test_too_few_clips(self):
        with pytest.raises(ValidationError):
            train.kfold_split(["a", "b"], 5, 0)


class TestTrainFoldSelection:
    """Without a holdout, train_fold returns the lowest-loss epoch's weights."""

    @staticmethod
    def _kept_epoch(monkeypatch, losses):
        def scripted_epoch(model, corpus, optimizer, cfg, plan, epoch):
            model.decoder_bin.b.data[:] = epoch  # mark this epoch's weights
            return {"epoch": epoch, "l1": losses[epoch], "l2": 0.0,
                    "l_total": losses[epoch], "steps": 1}

        monkeypatch.setattr(train, "pretrain_epoch", scripted_epoch)
        corpus = [train.ClipWindows("a", tiny_windows(0, n_windows=1))]
        plan = train.TrainPlan(epochs=len(losses), kfold=1)
        model = train.train_fold(corpus, [], TINY, plan, seed=0)
        return int(model.decoder_bin.b.data[0])

    def test_lowest_loss_epoch_kept(self, monkeypatch):
        assert self._kept_epoch(monkeypatch, [0.9, 0.3, 0.5]) == 1

    def test_tie_keeps_earliest(self, monkeypatch):
        assert self._kept_epoch(monkeypatch, [0.9, 0.3, 0.3, 0.5]) == 1

    def test_single_epoch(self, monkeypatch):
        assert self._kept_epoch(monkeypatch, [0.7]) == 0


class TestPrepareCorpus:
    def _tone_clip(self, dur=3.0):
        t = np.arange(int(dur * 22050)) / 22050
        return AudioClip(0.3 * np.sin(2 * np.pi * 800 * t), 22050)

    def test_speed_perturb_variants(self):
        cfg = dataclasses.replace(RunConfig(), speed_perturb=True)
        cm = ClassMap.from_names(["x"])
        events = [AnnotationEvent(1.0, 2.0, "x")]
        corpus = train.prepare_corpus([(self._tone_clip(), events, "c")], cm, cfg)
        ids = [cw.clip_id for cw in corpus]
        assert ids == ["c@0.9", "c", "c@1.1"]

    def test_no_perturb_single_variant(self):
        cfg = dataclasses.replace(RunConfig(), speed_perturb=False)
        cm = ClassMap.from_names(["x"])
        corpus = train.prepare_corpus(
            [(self._tone_clip(), [AnnotationEvent(0.5, 1.5, "x")], "c")], cm, cfg)
        assert [cw.clip_id for cw in corpus] == ["c"]
        assert all(w.features.shape == (431, 128) for w in corpus[0].windows)


class TestReproducibility:
    def test_pretrain_bit_identical(self):
        def run():
            corpus = [train.ClipWindows("a", tiny_windows(8, n_windows=2))]
            plan = train.TrainPlan(epochs=2, kfold=1, seed=5)
            (model,) = train.pretrain(corpus, TINY, plan)
            return b"".join(v.tobytes()
                            for _, v in sorted(model.state_arrays().items()))

        assert run() == run()
