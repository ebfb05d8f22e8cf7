"""Acceptance gate: ten system-level criteria, one printed verdict each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they complete. Criterion 8 performs two full synthetic benchmark runs and
dominates the runtime.
"""

import dataclasses
import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

import fsed.autodiff as ad
import fsed.fewshot as fs
import fsed.model as M
from fsed.dsp import FrameFeatures, pcen
from fsed.evaluate import Event, EventList, match_events, _iou
from fsed.framing import (ClassMap, build_overlap_mask, label_frames,
                          segment_windows)
from fsed.gradcheck import run_gradient_suite
from fsed.ingest import AnnotationEvent, RunConfig


def _verdict(number, title, ok):
    print(f"ACCEPTANCE {number:>2} {title}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({title}) failed"


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_gradient_suite():
    t0 = time.monotonic()
    results = run_gradient_suite(n_seeds=10)
    elapsed = time.monotonic() - t0
    required = {"conv2d", "batchnorm2d", "linear", "relu", "maxpool2d",
                "layer_norm", "multi_head_attention",
                "transformer_encoder_layer", "masked_softmax_ce"}
    ok = (required <= set(results)
          and all(err < 1e-4 for err in results.values())
          and elapsed < 120)
    _verdict(1, "gradient suite < 1e-4, 10 seeds, < 2 min", ok)


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_pcen_oracle():
    cfg = RunConfig()
    rng = np.random.default_rng(0xACC2)
    worst = 0.0
    for _ in range(50):
        E = rng.uniform(0, 10, (rng.integers(2, 30), rng.integers(1, 6)))
        got = pcen(FrameFeatures(E, 0.01), cfg).values
        s, a = cfg.pcen_s, cfg.pcen_alpha
        d, r, eps = cfg.pcen_delta, cfg.pcen_r, cfg.pcen_eps
        want = np.empty_like(E)
        for band in range(E.shape[1]):
            m = E[0, band]
            for t in range(E.shape[0]):
                if t > 0:
                    m = (1 - s) * m + s * E[t, band]
                want[t, band] = (E[t, band] / (eps + m) ** a + d) ** r - d**r
        worst = max(worst, float(np.abs(got - want).max()))
    s1 = dataclasses.replace(cfg, pcen_s=1.0)
    const = pcen(FrameFeatures(np.ones((4, 2)), 0.01), s1).values
    ok = worst < 1e-10 and abs(const[0, 0] - 0.31784) < 1e-4
    _verdict(2, "PCEN matches scalar oracle; 0.31784 closed form", ok)


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_time_filter_aug():
    spec = RunConfig()
    rng = np.random.default_rng(0xACC3)
    window = np.ones((431, 8))
    ok = True
    for _ in range(25):
        out = fs.time_filter_aug(window, spec, rng)
        ok &= bool(np.all(out >= 0.50119 - 1e-5) and np.all(out <= 2.51189 + 1e-5))
    ident = fs.time_filter_aug(rng.uniform(0, 1, (431, 8)), spec, rng,
                               knots=np.full(7, 6.0 / 14.0))
    ramp = fs.time_filter_aug(np.ones((3, 1)), RunConfig(aug_zones=1, aug_min_zone=3),
                              rng, knots=np.array([0.0, 1.0]))[:, 0]
    base = rng.uniform(0, 1, (431, 8))
    ident2 = fs.time_filter_aug(base, spec, rng, knots=np.full(7, 6.0 / 14.0))
    ok &= bool(np.max(np.abs(ident2 - base)) < 1e-12)
    ok &= np.allclose(ramp, [0.50119, 1.12202, 2.51189], atol=1e-5)
    del ident
    _verdict(3, "TimeFilterAug bounds, identity knots, (0,.5,1) ramp", ok)


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_masking_semantics():
    rng = np.random.default_rng(0xACC4)
    ok = True
    # exact zero loss delta and zero gradient at masked frames
    for _ in range(10):
        t = int(rng.integers(4, 40))
        logits = ad.Tensor(rng.normal(size=(t, 3)), requires_grad=True)
        labels = rng.integers(0, 3, t)
        mask = rng.integers(0, 2, t)
        loss = ad.masked_softmax_ce(logits, labels, mask)
        loss.backward()
        ok &= bool(np.all(logits.grad[mask == 0] == 0.0))
        bumped = logits.data.copy()
        bumped[mask == 0] += rng.normal(0, 100, size=(3,))
        l2 = ad.masked_softmax_ce(ad.Tensor(bumped), labels, mask)
        ok &= float(loss.data) == float(l2.data)
    # overlap-once: brute-force scan over synthetic annotations
    cm = ClassMap.from_names(["a", "b"])
    period = 256 / 22050
    events = []
    cursor = 0.5
    while cursor < 55:
        dur = float(rng.uniform(0.1, 1.5))
        events.append(AnnotationEvent(cursor, cursor + dur,
                                      ["a", "b"][int(rng.integers(2))]))
        cursor += dur + float(rng.uniform(0.2, 1.0))
    t_total = int(60 / period)
    labels = label_frames(t_total, period, events, cm)
    feats = rng.uniform(0, 1, (t_total, 4))
    windows = build_overlap_mask(segment_windows(feats, labels))
    for f in np.flatnonzero(labels):
        weight = sum(int(w.train_mask[f - w.window_start_frame])
                     for w in windows
                     if w.window_start_frame <= f
                     < w.window_start_frame + w.valid_frames)
        ok &= weight == 1
    # pad frames never train
    ok &= all(not w.train_mask[w.valid_frames:].any() for w in windows)
    _verdict(4, "masked frames: zero loss delta/gradient; overlap-once", ok)


# -- 5 ----------------------------------------------------------------------

def test_criterion_05_similarity_semantics():
    rng = np.random.default_rng(0xACC5)
    ok = True
    for _ in range(50):
        emb = rng.normal(size=(int(rng.integers(1, 40)), 16))
        c = rng.normal(size=16)
        sims, score = fs.query_similarity(emb, c / np.linalg.norm(c))
        ok &= bool(np.all(sims >= -1 - 1e-12) and np.all(sims <= 1 + 1e-12))
        ok &= score == sims.max()
    for _ in range(20):
        v = rng.normal(size=16)
        center = fs.pos_center([v])
        _, score = fs.query_similarity(v[None, :], center)
        ok &= abs(score - 1.0) < 1e-9
    # NEG selection == brute-force argmin on 100 instances
    from fsed.framing import WindowBatch

    for _ in range(100):
        n = int(rng.integers(1, 15))
        windows = [WindowBatch(features=np.full((4, 2), float(i)),
                               sed_labels=np.zeros(4, dtype=int),
                               sfbc_labels=np.zeros(4, dtype=int),
                               train_mask=np.ones(4, dtype=int),
                               window_start_frame=0)
                   for i in range(n)]
        scores = rng.uniform(-1, 1, n).round(4).tolist()
        pool = fs.reconstruct_negatives(windows, scores, 1, [])
        best = min(range(n), key=lambda i: (scores[i], i))
        ok &= bool(np.all(pool[0] == best))
    _verdict(5, "cosine similarity bounds/self-sim; NEG argmin", ok)


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_window_geometry():
    cfg = RunConfig()
    period = cfg.hop / cfg.sample_rate
    span = cfg.win_frames * period
    shift = cfg.shift_frames * period
    ok = (cfg.win_frames == 431 and cfg.shift_frames == 86
          and abs(span - 5.004) <= period
          and abs(shift - 0.999) <= period)
    wins = segment_windows(np.zeros((517, 4)), np.zeros(517, dtype=int))
    ok &= [w.window_start_frame for w in wins] == [0, 86]
    _verdict(6, "431/86 window geometry; T=517 -> 2 windows", ok)


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_optimizer_schedule():
    p = ad.Tensor(1.0, requires_grad=True)
    p.grad = np.array(1.0)
    ad.Adam({"p": p}, lr=0.1).step()
    closed_form = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8)
    ok = abs(float(p.data) - closed_form) < 1e-9
    ok &= ad.steplr(1e-4, 0) == 1e-4
    ok &= ad.steplr(1e-4, 10) == 5e-5
    ok &= ad.steplr(1e-4, 25) == 2.5e-5
    _verdict(7, "Adam first step 1e-9; steplr exact", ok)


# -- 8 ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_08_end_to_end_benchmark(tmp_path):
    t0 = time.monotonic()
    for name in ("run1", "run2"):
        proc = subprocess.run(
            [sys.executable, "-m", "fsed.cli", "bench",
             "--out", str(tmp_path / name), "--seed", "7"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
    elapsed = time.monotonic() - t0
    bytes1 = (tmp_path / "run1" / "results.json").read_bytes()
    bytes2 = (tmp_path / "run2" / "results.json").read_bytes()
    rows = {r["name"]: r for r in json.loads(bytes1)["rows"]}
    full_f = rows["full"]["f"]
    # threshold pinned from the first verified run (F = 1.0); 0.80 floor
    ok = bytes1 == bytes2 and full_f >= 0.80 and elapsed / 2 < 20 * 60
    print(f"    bench: full-system F={full_f:.3f}, "
          f"{elapsed / 2:.0f} s per run, deterministic={bytes1 == bytes2}")
    _verdict(8, "bench --seed 7 deterministic, F >= 0.80, < 20 min", ok)


# -- 9 ----------------------------------------------------------------------

def _optimal_tp(pred, ref, iou_min):
    edges = [(i, j) for i in range(len(pred.events))
             for j in range(len(ref.events))
             if _iou(pred.events[i], ref.events[j]) >= iou_min]
    for r in range(len(edges), 0, -1):
        for combo in itertools.combinations(edges, r):
            if (len({i for i, _ in combo}) == r
                    and len({j for _, j in combo}) == r):
                return r
    return 0


def test_criterion_09_matching_oracle():
    rng = np.random.default_rng(0xACC9)

    def random_events():
        out = []
        for _ in range(int(rng.integers(0, 6))):
            a = rng.uniform(0, 8)
            out.append(Event(a, a + rng.uniform(0.1, 2.0)))
        return EventList("c", sorted(out, key=lambda e: e.onset_s))

    exact = 0
    ok = True
    for _ in range(100):
        pred, ref = random_events(), random_events()
        tp, _, _ = match_events(pred, ref, 0.3)
        best = _optimal_tp(pred, ref, 0.3)
        ok &= abs(tp - best) <= 1
        exact += tp == best
    ok &= exact >= 95
    print(f"    greedy matching exact on {exact}/100 instances")
    _verdict(9, "greedy matching >= 95% exact, never off by > 1", ok)


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_checkpoint_roundtrip(tmp_path):
    cfg = dataclasses.replace(RunConfig(), channels=4, embed_dim=4, heads=2,
                              ffn_dim=8, mel_bands=16, win_frames=32,
                              shift_frames=8)
    model = M.ModelParams(cfg, n_classes=2, seed=11)
    rng = np.random.default_rng(0xACC0)
    center = rng.normal(size=2 * cfg.embed_dim)
    tm = fs.TaskModel(model=model, sfbc_center=center[:cfg.embed_dim], cfg=cfg)
    ctx = fs.TaskContext(features=rng.uniform(0, 1, (100, 16)),
                         frame_period_s=256 / 22050, pos_ranges=[],
                         neg_ranges=[], query_start_frame=0)
    ctx.query_windows = fs._query_windows(ctx.features, 0, cfg)
    before = fs.detect(tm, ctx)

    path = tmp_path / "task.ckpt"
    model.save(path)
    reloaded = M.ModelParams.from_checkpoint(path, cfg)
    tm2 = fs.TaskModel(model=reloaded, sfbc_center=tm.sfbc_center, cfg=cfg)
    after = fs.detect(tm2, ctx)
    ok = before.tobytes() == after.tobytes()
    _verdict(10, "checkpoint round-trip -> bit-identical probabilities", ok)
