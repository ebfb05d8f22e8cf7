import math

import numpy as np
import pytest

from fsed.errors import ValidationError
from fsed.framing import (ClassMap, balanced_sample_indices,
                          build_overlap_mask, label_frames, segment_windows)
from fsed.ingest import AnnotationEvent

PERIOD = 256 / 22050


def _feat(t, bands=4):
    return np.arange(t * bands, dtype=np.float64).reshape(t, bands)


class TestClassMap:
    def test_background_reserved(self):
        cm = ClassMap.from_names(["dog", "cat"])
        assert cm.index("cat") == 1 and cm.index("dog") == 2

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            ClassMap.from_names(["a"]).index("b")


class TestLabelFrames:
    def test_one_second_event_boundary(self):
        # frame centers (i + 0.5) * period; event [0, 1) covers 0..85 only
        cm = ClassMap.from_names(["x"])
        labels = label_frames(100, PERIOD, [AnnotationEvent(0.0, 1.0, "x")], cm)
        want = ((np.arange(100) + 0.5) * PERIOD < 1.0).astype(int)
        assert np.array_equal(labels, want)
        assert labels[85] == 1 and labels[86] == 0

    def test_no_events(self):
        cm = ClassMap.from_names(["x"])
        assert np.all(label_frames(50, PERIOD, [], cm) == 0)

    def test_full_coverage(self):
        cm = ClassMap.from_names(["x"])
        labels = label_frames(50, PERIOD, [AnnotationEvent(0, 100, "x")], cm)
        assert np.all(labels == 1)

    def test_later_onset_wins(self):
        cm = ClassMap.from_names(["a", "b"])
        events = [AnnotationEvent(0.0, 0.5, "b"), AnnotationEvent(0.2, 0.4, "a")]
        labels = label_frames(50, PERIOD, events, cm)
        centers = (np.arange(50) + 0.5) * PERIOD
        inner = (centers >= 0.2) & (centers < 0.4)
        assert np.all(labels[inner] == cm.index("a"))
        assert np.all(labels[(centers < 0.2) & (centers < 0.5)] == cm.index("b"))

    def test_monotone_in_offset(self):
        cm = ClassMap.from_names(["x"])
        a = label_frames(200, PERIOD, [AnnotationEvent(0.3, 1.0, "x")], cm)
        b = label_frames(200, PERIOD, [AnnotationEvent(0.3, 1.4, "x")], cm)
        assert np.all(b[a == 1] == 1)


class TestSegmentWindows:
    def test_exact_fit(self):
        wins = segment_windows(_feat(431), np.zeros(431, dtype=int))
        assert len(wins) == 1 and wins[0].pad_frames == 0

    def test_517_frames_two_windows(self):
        wins = segment_windows(_feat(517), np.zeros(517, dtype=int))
        assert [w.window_start_frame for w in wins] == [0, 86]

    def test_count_formula(self):
        for t in (1, 86, 430, 431, 432, 517, 518, 1000, 5000):
            wins = segment_windows(_feat(t), np.zeros(t, dtype=int))
            assert len(wins) == max(1, math.ceil((t - 431) / 86) + 1)

    def test_padding_repeats_last_frame(self):
        wins = segment_windows(_feat(430), np.ones(430, dtype=int))
        (w,) = wins
        assert w.pad_frames == 1
        assert np.array_equal(w.features[-1], w.features[-2])
        assert w.sed_labels[-1] == 0 and w.train_mask[-1] == 0
        assert w.train_mask[:-1].all()

    def test_every_frame_covered(self):
        t = 700
        wins = segment_windows(_feat(t), np.zeros(t, dtype=int))
        covered = set()
        for w in wins:
            covered.update(range(w.window_start_frame,
                                 w.window_start_frame + w.valid_frames))
        assert covered == set(range(t))

    def test_empty_input(self):
        with pytest.raises(ValidationError):
            segment_windows(_feat(0), np.zeros(0, dtype=int))

    def test_sfbc_tracks_sed(self):
        labels = np.zeros(517, dtype=int)
        labels[100:150] = 3
        for w in segment_windows(_feat(517), labels):
            assert np.array_equal(w.sfbc_labels, (w.sed_labels != 0).astype(int))


class TestOverlapMask:
    def _windows(self, t, event_frames):
        labels = np.zeros(t, dtype=int)
        labels[event_frames] = 1
        return build_overlap_mask(segment_windows(_feat(t), labels))

    def test_event_straddling_overlap(self):
        wins = self._windows(517, np.arange(400, 441))
        w0, w1 = wins
        # frames 400..430 live in window 0 only (for training)
        assert w0.train_mask[400:431].all()
        assert not w1.train_mask[400 - 86:431 - 86].any()
        # frames 431..440 exist only in window 1
        assert w1.train_mask[431 - 86:441 - 86].all()

    def test_event_inside_single_window(self):
        wins = self._windows(517, np.arange(10, 40))
        assert wins[0].train_mask[10:40].all()
        assert wins[1].sed_labels[:40].sum() == 0  # not present there at all

    def test_background_trained_everywhere(self):
        wins = self._windows(517, [])
        for w in wins:
            assert w.train_mask[: w.valid_frames].all()

    def test_every_event_frame_claimed_exactly_once(self):
        # brute-force membership scan over a long clip with many events
        rng = np.random.default_rng(7)
        t = 2500
        labels = np.zeros(t, dtype=int)
        for _ in range(15):
            a = rng.integers(0, t - 60)
            labels[a:a + rng.integers(5, 60)] = rng.integers(1, 4)
        wins = build_overlap_mask(segment_windows(_feat(t), labels))
        for f in np.flatnonzero(labels):
            weight = sum(int(w.train_mask[f - w.window_start_frame])
                         for w in wins
                         if w.window_start_frame <= f
                         < w.window_start_frame + w.valid_frames)
            assert weight == 1, f"frame {f} trained {weight} times"


class TestBalancedSampling:
    def _window(self, pos_frames, t=431):
        labels = np.zeros(t, dtype=int)
        labels[:pos_frames] = 1
        return segment_windows(_feat(t), labels)[0]

    def test_oversampling_count(self):
        windows = [self._window(50)] + [self._window(0) for _ in range(9)]
        order = balanced_sample_indices(windows, seed=0)
        assert order.count(0) == 78  # ceil(9*431/50)
        assert sorted(set(order)) == list(range(10))

    def test_already_balanced_identity(self):
        windows = [self._window(431), self._window(431)]
        order = balanced_sample_indices(windows, seed=0)
        assert sorted(order) == [0, 1]

    def test_deterministic(self):
        windows = [self._window(10)] + [self._window(0) for _ in range(4)]
        assert balanced_sample_indices(windows, 5) == \
            balanced_sample_indices(windows, 5)
        assert balanced_sample_indices(windows, 5) != \
            balanced_sample_indices(windows, 6)

    def test_no_pos_frames(self):
        with pytest.raises(ValidationError):
            balanced_sample_indices([self._window(0)], 0)
