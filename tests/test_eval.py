import itertools

import numpy as np
import pytest

from fsed.errors import ValidationError
from fsed.evaluate import Event, EventList, decode_events, fscore, match_events

DT = 256 / 22050


def events(*pairs):
    return EventList("c", [Event(a, b) for a, b in pairs])


class TestDecodeEvents:
    def test_all_zero(self):
        assert decode_events(np.zeros(100), DT).events == []

    def test_single_run_times(self):
        probs = np.zeros(100)
        probs[10:20] = 1.0
        (ev,) = decode_events(probs, DT).events
        assert ev.onset_s == pytest.approx(10 * DT)
        assert ev.offset_s == pytest.approx(20 * DT)

    def test_nearby_runs_merged(self):
        probs = np.zeros(100)
        probs[10:20] = 1.0
        probs[22:32] = 1.0  # 2-frame gap << 0.1 s
        decoded = decode_events(probs, DT).events
        assert len(decoded) == 1
        assert decoded[0].offset_s == pytest.approx(32 * DT)

    def test_distant_runs_kept_apart(self):
        probs = np.zeros(200)
        probs[10:25] = 1.0
        probs[100:115] = 1.0
        assert len(decode_events(probs, DT).events) == 2

    def test_short_events_dropped(self):
        probs = np.zeros(100)
        probs[10:14] = 1.0  # 4 frames ~ 0.046 s < 0.06 s
        assert decode_events(probs, DT, median_width=1).events == []

    def test_median_filter_removes_spikes(self):
        probs = np.zeros(100)
        probs[50] = 1.0  # isolated spike
        assert decode_events(probs, DT).events == []

    def test_offset_applied(self):
        probs = np.zeros(50)
        probs[0:20] = 1.0
        (ev,) = decode_events(probs, DT, offset_s=5.0).events
        assert ev.onset_s == pytest.approx(5.0)

    def test_out_of_range_probs(self):
        with pytest.raises(ValidationError):
            decode_events(np.array([0.5, 1.5]), DT)

    def test_idempotent_on_decoded_indicator(self):
        rng = np.random.default_rng(0)
        probs = (rng.uniform(0, 1, 400) > 0.7).astype(float)
        first = decode_events(probs, DT).events
        indicator = np.zeros(400)
        for ev in first:
            a = int(round(ev.onset_s / DT))
            b = int(round(ev.offset_s / DT))
            indicator[a:b] = 1.0
        second = decode_events(indicator, DT).events
        assert [(e.onset_s, e.offset_s) for e in second] == \
            [(e.onset_s, e.offset_s) for e in first]


class TestMatchEvents:
    def test_identical(self):
        ev = events((0, 1), (2, 3), (5, 6))
        assert match_events(ev, ev) == (3, 0, 0)

    def test_empty_pred(self):
        assert match_events(events(), events((0, 1), (2, 3), (4, 5))) == (0, 0, 3)

    def test_iou_boundary(self):
        # IoU = 0.5 / 1.5 = 0.333 >= 0.3
        assert match_events(events((0, 1)), events((0.5, 1.5))) == (1, 0, 0)
        # IoU = 0.2 / 1.8 = 0.111 < 0.3
        assert match_events(events((0, 1)), events((0.8, 1.8))) == (0, 1, 1)

    def test_one_to_one(self):
        pred = events((0, 1), (0.1, 1.1))
        ref = events((0, 1))
        assert match_events(pred, ref) == (1, 1, 0)

    def test_symmetry_swaps_fp_fn(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = _random_events(rng)
            b = _random_events(rng)
            tp1, fp1, fn1 = match_events(a, b)
            tp2, fp2, fn2 = match_events(b, a)
            assert (tp1, fp1, fn1) == (tp2, fn2, fp2)

    def test_agrees_with_brute_force_optimum(self):
        rng = np.random.default_rng(2)
        exact = 0
        for _ in range(100):
            pred = _random_events(rng)
            ref = _random_events(rng)
            tp, _, _ = match_events(pred, ref)
            best = _optimal_tp(pred, ref, 0.3)
            assert abs(tp - best) <= 1
            exact += tp == best
        assert exact >= 95


def _random_events(rng, max_events=5):
    n = int(rng.integers(0, max_events + 1))
    out = []
    for _ in range(n):
        a = rng.uniform(0, 8)
        out.append(Event(a, a + rng.uniform(0.1, 2.0)))
    return EventList("c", sorted(out, key=lambda e: e.onset_s))


def _optimal_tp(pred, ref, iou_min):
    """Exhaustive maximum one-to-one matching (tiny instances only)."""
    from fsed.evaluate import _iou

    edges = [(i, j) for i in range(len(pred.events))
             for j in range(len(ref.events))
             if _iou(pred.events[i], ref.events[j]) >= iou_min]
    best = 0
    for r in range(len(edges), 0, -1):
        for combo in itertools.combinations(edges, r):
            ps = [i for i, _ in combo]
            rs = [j for _, j in combo]
            if len(set(ps)) == r and len(set(rs)) == r:
                return r
    return best


class TestFscore:
    def test_formula(self):
        report = fscore({"a": (1, 0, 1)})
        assert report.precision == 1.0
        assert report.recall == 0.5
        assert report.f_score == pytest.approx(2 / 3)

    def test_all_zero(self):
        assert fscore({"a": (0, 0, 0)}).f_score == 0.0

    def test_perfect(self):
        assert fscore({"a": (2, 0, 0)}).f_score == 1.0

    def test_micro_average_pools_counts(self):
        report = fscore({"a": (1, 1, 0), "b": (3, 0, 2)})
        assert (report.tp, report.fp, report.fn) == (4, 1, 2)
        assert report.precision == pytest.approx(4 / 5)
        assert report.recall == pytest.approx(4 / 6)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            fscore({"a": (1, -1, 0)})

