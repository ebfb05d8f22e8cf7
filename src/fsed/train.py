"""Multitask pretraining on base classes, with KFold support.

Each window contributes one optimizer step per event class present in it
(sequential target-class selection); background-only windows take an
SED-only step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as M
from .dsp import extract_features
from .errors import ValidationError
from .evaluate import ScoreReport
from .framing import (ClassMap, WindowBatch, balanced_sample_indices,
                      build_overlap_mask, label_frames, segment_windows)
from .ingest import AudioClip, AnnotationEvent, RunConfig


@dataclass
class TrainPlan:
    epochs: int = 100
    kfold: int = 5
    seed: int = 0
    max_steps_per_epoch: int = 0  # 0 = no cap

    def __post_init__(self):
        if self.epochs <= 0 or self.kfold < 1:
            raise ValidationError("epochs > 0 and kfold >= 1 required")


@dataclass
class ClipWindows:
    """Windowed, labeled, overlap-masked material from one clip."""

    clip_id: str
    windows: list[WindowBatch] = field(default_factory=list)


def prepare_clip(clip: AudioClip, events: list[AnnotationEvent],
                 class_map: ClassMap, cfg: RunConfig, clip_id: str) -> ClipWindows:
    feats = extract_features(clip, cfg)
    labels = label_frames(len(feats.values), feats.frame_period_s, events, class_map)
    windows = segment_windows(feats.values, labels, cfg.win_frames,
                              cfg.shift_frames)
    return ClipWindows(clip_id, build_overlap_mask(windows))


def prepare_corpus(items: list[tuple[AudioClip, list[AnnotationEvent], str]],
                   class_map: ClassMap, cfg: RunConfig) -> list[ClipWindows]:
    """Window every clip; with cfg.speed_perturb, adds 0.9x/1.1x variants
    with annotation times rescaled accordingly."""
    from .dsp import speed_perturb

    factors = (0.9, 1.0, 1.1) if cfg.speed_perturb else (1.0,)
    corpus = []
    for clip, events, clip_id in items:
        for factor in factors:
            varied, scale = speed_perturb(clip, factor)
            scaled = [AnnotationEvent(e.onset_s * scale, e.offset_s * scale,
                                      e.label) for e in events]
            suffix = "" if factor == 1.0 else f"@{factor}"
            corpus.append(prepare_clip(varied, scaled, class_map, cfg,
                                       clip_id=f"{clip_id}{suffix}"))
    return corpus


def multitask_loss(sed_logits, sfbc_logits, sed_labels, sfbc_labels, mask):
    """(l1, l2, l_total): masked CE on classes, masked CE on fore/background,
    and their sum. Pass sfbc_logits=None to skip the SFBC term."""
    l1 = ad.masked_softmax_ce(sed_logits, sed_labels, mask)
    if sfbc_logits is None:
        return l1, None, l1
    l2 = ad.masked_softmax_ce(sfbc_logits, sfbc_labels, mask)
    return l1, l2, ad.add(l1, l2)


def window_step(model: M.ModelParams, clip_windows: list[WindowBatch],
                win_index: int, optimizer: ad.Adam, lr: float,
                cfg: RunConfig) -> list[tuple[float, float]]:
    """All optimizer steps for one window: one per event class present.

    Returns (l1, l2) pairs; l2 is nan for SED-only steps.
    """
    w = clip_windows[win_index]
    target_len = len(w.sed_labels)
    present = sorted(int(c) for c in np.unique(w.sed_labels) if c != 0)
    results = []

    def run(target_class):
        optimizer.zero_grad()
        emb = M.backbone_forward(model, w.features, training=True)
        sed_logits = M.sed_forward(model, emb, target_len)
        sfbc_logits = None
        if cfg.multitask and target_class is not None:
            tc_idx = M.select_tc_window(clip_windows, target_class, win_index)
            tw = clip_windows[tc_idx]
            tc_feats = M.tc_vector(tw.features, tw.sed_labels, target_class)
            tc_emb = M.backbone_forward(model, tc_feats, training=True)
            tc_mask = M.reduce_pos_mask(tw.sed_labels, target_class,
                                        tc_emb.shape[0])
            sfbc_logits = M.sfbc_forward(model, emb, tc_emb, tc_mask, target_len,
                                         use_transformer=cfg.use_transformer)
        l1, l2, total = multitask_loss(sed_logits, sfbc_logits, w.sed_labels,
                                       w.sfbc_labels, w.train_mask)
        total.backward()
        optimizer.step(lr=lr)
        results.append((float(l1.data), float(l2.data) if l2 is not None
                        else float("nan")))

    if present:
        for target_class in present:
            run(target_class)
    else:
        run(None)
    return results


def pretrain_epoch(model: M.ModelParams, corpus: list[ClipWindows],
                   optimizer: ad.Adam, cfg: RunConfig, plan: TrainPlan,
                   epoch: int) -> dict:
    """One balanced-sampled epoch; returns mean losses and the step count."""
    flat = [(ci, wi) for ci, cw in enumerate(corpus)
            for wi in range(len(cw.windows))]
    all_windows = [corpus[ci].windows[wi] for ci, wi in flat]
    order = balanced_sample_indices(all_windows, seed=plan.seed * 100003 + epoch)
    if plan.max_steps_per_epoch:
        order = order[:plan.max_steps_per_epoch]
    lr = ad.steplr(cfg.lr_pretrain, epoch, cfg.gamma, cfg.step_size)
    l1s, l2s = [], []
    for idx in order:
        ci, wi = flat[idx]
        for l1, l2 in window_step(model, corpus[ci].windows, wi, optimizer,
                                  lr, cfg):
            l1s.append(l1)
            if not np.isnan(l2):
                l2s.append(l2)
    l1m = float(np.mean(l1s)) if l1s else 0.0
    l2m = float(np.mean(l2s)) if l2s else 0.0
    return {"epoch": epoch, "l1": l1m, "l2": l2m, "l_total": l1m + l2m,
            "steps": len(l1s)}


def holdout_frame_f(model: M.ModelParams, corpus: list[ClipWindows]) -> float:
    """Frame-level foreground F-score of the SED branch on holdout windows."""
    counts = ScoreReport()
    for cw in corpus:
        for w in cw.windows:
            emb = M.backbone_forward(model, w.features, training=False)
            logits = M.sed_forward(model, emb, len(w.sed_labels))
            pred_fg = logits.data.argmax(axis=1) != 0
            ref_fg = w.sfbc_labels.astype(bool)
            valid = np.arange(len(ref_fg)) < w.valid_frames
            counts.tp += int(np.sum(pred_fg & ref_fg & valid))
            counts.fp += int(np.sum(pred_fg & ~ref_fg & valid))
            counts.fn += int(np.sum(~pred_fg & ref_fg & valid))
    return counts.f_score


def kfold_split(clip_ids: list, k: int, seed: int) -> list[tuple[list, list]]:
    """Clip-level K-fold partitions, deterministic by seed, sizes within 1."""
    if len(clip_ids) < k:
        raise ValidationError(f"need >= {k} clips for {k}-fold, got {len(clip_ids)}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF01D]))
    order = list(clip_ids)
    rng.shuffle(order)
    folds = [order[i::k] for i in range(k)]
    out = []
    for i in range(k):
        holdout = folds[i]
        train = [c for j, f in enumerate(folds) if j != i for c in f]
        out.append((train, holdout))
    return out


def train_fold(corpus: list[ClipWindows], holdout: list[ClipWindows],
               cfg: RunConfig, plan: TrainPlan, seed: int,
               log_rows: list | None = None) -> M.ModelParams:
    """Train one fold; returns the model holding its best epoch's weights
    (highest holdout F, else lowest loss; the earliest on a tie)."""
    n_classes = 1 + max((int(w.sed_labels.max()) for cw in corpus
                         for w in cw.windows), default=0)
    model = M.ModelParams(cfg, n_classes=max(n_classes, 2), seed=seed)
    optimizer = ad.Adam(model.parameters(), lr=cfg.lr_pretrain)
    best_metric, best_state = -np.inf, None
    for epoch in range(plan.epochs):
        stats = pretrain_epoch(model, corpus, optimizer, cfg, plan, epoch)
        metric = holdout_frame_f(model, holdout) if holdout else -stats["l_total"]
        if metric > best_metric:
            best_metric, best_state = metric, model.snapshot()
        if log_rows is not None:
            log_rows.append({**stats, "holdout_f": metric if holdout else ""})
    model.load_arrays(best_state)
    return model


def pretrain(corpus: list[ClipWindows], cfg: RunConfig, plan: TrainPlan,
             out_dir=None) -> list[M.ModelParams]:
    """Full pretraining: K folds when possible, else a single model.

    Writes per-fold checkpoints and a metrics CSV under out_dir when given.
    """
    by_id = {cw.clip_id: cw for cw in corpus}
    models = []
    log_rows: list[dict] = []
    if plan.kfold > 1 and len(corpus) >= plan.kfold:
        splits = kfold_split(sorted(by_id), plan.kfold, plan.seed)
    else:
        splits = [(sorted(by_id), [])]
    for fold, (train_ids, holdout_ids) in enumerate(splits):
        model = train_fold([by_id[i] for i in train_ids],
                           [by_id[i] for i in holdout_ids],
                           cfg, plan, seed=plan.seed * 7919 + fold,
                           log_rows=log_rows)
        models.append(model)
        if out_dir is not None:
            model.save(f"{out_dir}/fold{fold}.ckpt")
    if out_dir is not None and log_rows:
        with open(f"{out_dir}/metrics.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(log_rows[0]))
            writer.writeheader()
            writer.writerows(log_rows)
    return models
