"""Task adaptation: support reconstruction, TimeFilterAug, two-branch
fine-tuning with pseudo-labels, and final detection.

Everything here operates on one few-shot task with a private copy of the
pretrained weights, seeded end to end.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as M
from .dsp import extract_features
from .errors import TaskError, ValidationError
from .framing import WindowBatch
from .ingest import AudioClip, RunConfig, SupportTask


# ---------------------------------------------------------------------------
# Task context
# ---------------------------------------------------------------------------

@dataclass
class TaskContext:
    """Frame-domain view of one few-shot task."""

    features: np.ndarray          # [T x mel] PCEN of the whole clip
    frame_period_s: float
    pos_ranges: list[tuple[int, int]]   # 5 shot frame ranges [a, b)
    neg_ranges: list[tuple[int, int]]
    query_start_frame: int
    query_windows: list[WindowBatch] = field(default_factory=list)
    # blocks 0-1 output of each query window, valid for models whose
    # M.prefix_fingerprint is prefix_key (see cache_prefixes)
    query_prefixes: list[np.ndarray] = field(default_factory=list)
    prefix_key: bytes = b""

    def cache_prefixes(self, model: M.ModelParams) -> None:
        """Run blocks 0-1 over every query window once and keep the output."""
        self.query_prefixes = [M.backbone_prefix(model, w.features).data
                               for w in self.query_windows]
        self.prefix_key = M.prefix_fingerprint(model)

    def prefixes(self, model: M.ModelParams):
        """Blocks 0-1 output per query window under `model`: the cache when
        it was made with the same blocks 0-1 weights and BN statistics,
        otherwise computed one window at a time."""
        if self.prefix_key == M.prefix_fingerprint(model):
            return self.query_prefixes
        return (M.backbone_prefix(model, w.features).data
                for w in self.query_windows)


def _time_to_frames(onset_s, offset_s, period) -> tuple[int, int]:
    # frame i belongs iff its center (i + 0.5) * period lies in [onset, offset)
    a = math.ceil(onset_s / period - 0.5)
    b = math.ceil(offset_s / period - 0.5)
    return max(0, a), max(0, b)


def build_task_context(clip: AudioClip, task: SupportTask,
                       cfg: RunConfig) -> TaskContext:
    feats = extract_features(clip, cfg)
    period = feats.frame_period_s
    t = len(feats.values)
    pos = []
    for ev in task.pos_events:
        a, b = _time_to_frames(ev.onset_s, ev.offset_s, period)
        if b <= a:
            b = a + 1  # sub-frame shots keep at least one frame
        pos.append((a, min(b, t)))
    neg = []
    for ev in task.neg_intervals:
        a, b = _time_to_frames(ev.onset_s, ev.offset_s, period)
        if b > a:
            neg.append((a, min(b, t)))
    q = min(t - 1, _time_to_frames(task.query_start_s, task.query_start_s + 1,
                                   period)[0])
    ctx = TaskContext(features=feats.values, frame_period_s=period,
                      pos_ranges=pos, neg_ranges=neg, query_start_frame=q)
    ctx.query_windows = _query_windows(feats.values, q, cfg)
    return ctx


def _query_windows(features, start_frame, cfg) -> list[WindowBatch]:
    from .framing import segment_windows

    region = features[start_frame:]
    if len(region) == 0:
        return []
    labels = np.zeros(len(region), dtype=np.int64)
    windows = segment_windows(region, labels, cfg.win_frames, cfg.shift_frames,
                              source_id="query")
    for w in windows:
        w.window_start_frame += start_frame
    return windows


# ---------------------------------------------------------------------------
# Support reconstruction (class center, similarity, NEG augmentation)
# ---------------------------------------------------------------------------

def shot_embedding(model: M.ModelParams, features: np.ndarray,
                   frame_range: tuple[int, int], cfg: RunConfig) -> np.ndarray:
    """Embed a 5s context window around one shot, masked-mean over its
    POS-covered reduced frames."""
    a, b = frame_range
    t = len(features)
    win = cfg.win_frames
    start = max(0, min(a - (win - (b - a)) // 2, t - win))
    stop = min(t, start + win)
    window = features[start:stop]
    if len(window) < win:
        window = np.concatenate([window, np.repeat(window[-1:],
                                                   win - len(window), axis=0)])
    emb = M.backbone_forward(model, window, training=False).data
    lo = max(0, (a - start) // M.TIME_REDUCTION)
    hi = min(emb.shape[0], -(-(b - start) // M.TIME_REDUCTION))
    hi = max(hi, lo + 1)
    mask = np.zeros(emb.shape[0])
    mask[lo:hi] = 1.0
    return ad.masked_mean_rows(emb, mask).data


def pos_center(shot_embs: list[np.ndarray]) -> np.ndarray:
    """L2-normalized mean of the per-shot embeddings."""
    center = np.mean(np.asarray(shot_embs), axis=0)
    norm = np.linalg.norm(center)
    if norm == 0:
        raise TaskError("degenerate task: zero-norm class center")
    return center / norm


def query_similarity(emb: np.ndarray, center: np.ndarray) -> tuple[np.ndarray, float]:
    """Per reduced-frame cosine similarity to the center, and the window
    score (max over frames)."""
    norms = np.linalg.norm(emb, axis=1)
    unit = emb / np.maximum(norms, 1e-12)[:, None]
    sims = unit @ center
    sims[norms == 0] = 0.0
    return sims, float(sims.max()) if len(sims) else 0.0


def reconstruct_negatives(query_windows: list[WindowBatch], scores: list[float],
                          quota: int, annotated_neg: list[np.ndarray]
                          ) -> list[np.ndarray]:
    """NEG material pool: annotated gaps plus the lowest-scoring query
    windows (ties broken by earlier index)."""
    pool = [seg for seg in annotated_neg if len(seg)]
    if query_windows:
        order = sorted(range(len(scores)), key=lambda i: (scores[i], i))
        for i in order[:quota]:
            w = query_windows[i]
            pool.append(w.features[: w.valid_frames])
    return pool


# ---------------------------------------------------------------------------
# Support window synthesis
# ---------------------------------------------------------------------------

@dataclass
class ReconstructedSupports:
    support1: list[WindowBatch]
    support2: list[WindowBatch]


def _neg_stream(rng, pool: list[np.ndarray], n_frames: int) -> np.ndarray:
    """Concatenate random NEG snippets into exactly n_frames of material."""
    if n_frames <= 0:
        return np.zeros((0, pool[0].shape[1] if pool else 0))
    if not pool:
        raise TaskError("empty NEG pool")
    parts, have = [], 0
    while have < n_frames:
        seg = pool[int(rng.integers(len(pool)))]
        if len(seg) > 1:
            a = int(rng.integers(0, len(seg) - 1))
            b = int(rng.integers(a + 1, len(seg) + 1))
            seg = seg[a:b]
        parts.append(seg)
        have += len(seg)
    stream = np.concatenate(parts)
    start = int(rng.integers(0, len(stream) - n_frames + 1))
    return stream[start:start + n_frames]


def build_supports(pos_shots: list[np.ndarray], neg_pool: list[np.ndarray],
                   count: int, seed: int, win: int = 431) -> ReconstructedSupports:
    """Synthesize support windows: one randomly placed POS shot each, NEG
    material elsewhere. Deterministic by seed."""
    if not pos_shots:
        raise TaskError("no POS shots")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5109]))

    def make(n):
        out = []
        for _ in range(n):
            shot_i = int(rng.integers(len(pos_shots)))
            shot = pos_shots[shot_i]
            if len(shot) > win:
                shot = shot[:win]
            offset = int(rng.integers(0, win - len(shot) + 1))
            left = _neg_stream(rng, neg_pool, offset)
            right = _neg_stream(rng, neg_pool, win - offset - len(shot))
            feats = np.concatenate([left, shot, right])
            labels = np.zeros(win, dtype=np.int64)
            labels[offset:offset + len(shot)] = 1
            out.append(WindowBatch(
                features=feats, sed_labels=labels, sfbc_labels=labels.copy(),
                train_mask=np.ones(win, dtype=np.int64), window_start_frame=0,
                source_id="support",
                provenance={"shot": shot_i, "offset": offset, "length": len(shot)},
            ))
        return out

    return ReconstructedSupports(support1=make(count), support2=make(count))


# ---------------------------------------------------------------------------
# TimeFilterAug
# ---------------------------------------------------------------------------

@dataclass
class AugSpec:
    zones: int = 6
    min_zone: int = 48
    db_low: float = -6.0
    db_high: float = 8.0

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "AugSpec":
        return cls(zones=cfg.aug_zones, min_zone=cfg.aug_min_zone,
                   db_low=cfg.aug_db_low, db_high=cfg.aug_db_high)


def time_filter_aug(window: np.ndarray, spec: AugSpec, rng,
                    knots: np.ndarray | None = None) -> np.ndarray:
    """Piecewise-linear dB gain over random time zones.

    Gain factors g_0..g_m are uniform in [0,1]; within each zone the factor
    ramps linearly between consecutive knots (endpoints inclusive), mapped to
    dB as db_low + (db_high - db_low) * g and applied as 10^(dB/20).
    """
    n = len(window)
    m = min(spec.zones, n // spec.min_zone)
    if m < 1:
        return window.copy()
    extra = n - m * spec.min_zone
    lengths = spec.min_zone + rng.multinomial(extra, np.full(m, 1.0 / m))
    if knots is None:
        knots = rng.uniform(0.0, 1.0, m + 1)
    else:
        knots = np.asarray(knots, dtype=np.float64)
        if len(knots) != m + 1:
            raise ValidationError(f"need {m + 1} knots, got {len(knots)}")
    alpha = np.concatenate([np.linspace(knots[i], knots[i + 1], lengths[i])
                            for i in range(m)])
    beta = spec.db_low + (spec.db_high - spec.db_low) * alpha
    return window * (10.0 ** (beta / 20.0))[:, None]


# ---------------------------------------------------------------------------
# Fine-tuning
# ---------------------------------------------------------------------------

# parameter-name prefixes each fine-tuning stage trains; the rest is frozen
SED_TRAINABLE = ("block2.", "block3.", "decoder_sed.", "decoder_bin.")
SFBC_TRAINABLE = ("decoder_sfbc.",)


@dataclass
class TaskModel:
    """Fine-tuned weights plus the SFBC conditioning center for one task."""

    model: M.ModelParams
    sfbc_center: np.ndarray | None
    cfg: RunConfig
    FLAGS = ("multitask", "use_transformer")  # RunConfig flags it records

    def save(self, path) -> None:
        """The model's state, `sfbc_center` if any, and the branch flags."""
        arrays = self.model.state_arrays()
        if self.sfbc_center is not None:
            arrays["sfbc_center"] = self.sfbc_center
        hyper = self.model.hyper()
        hyper.update({k: getattr(self.cfg, k) for k in self.FLAGS})
        ad.save_checkpoint(path, arrays, hyper)

    @classmethod
    def load(cls, path, cfg: RunConfig) -> "TaskModel":
        """Read a `save` file; architecture and branch flags override `cfg`."""
        arrays, hyper = ad.load_checkpoint(path)
        cfg = dataclasses.replace(
            cfg, **{k: bool(hyper.get(k, True)) for k in cls.FLAGS})
        model = M.ModelParams.from_arrays(arrays, hyper, cfg, path)
        return cls(model=model, sfbc_center=arrays.get("sfbc_center"),
                   cfg=model.cfg)


def clone_model(model: M.ModelParams) -> M.ModelParams:
    copy = M.ModelParams(model.cfg, model.n_classes, seed=0)
    copy.load_arrays(model.snapshot())
    return copy


def _trainable(model: M.ModelParams, prefixes: tuple[str, ...]
               ) -> dict[str, ad.Tensor]:
    """Freeze every parameter outside `prefixes` (prunes backward work too)
    and return the trainable ones."""
    params = model.parameters()
    for k, p in params.items():
        p.requires_grad = k.startswith(prefixes)
    return {k: p for k, p in params.items() if p.requires_grad}


def graft_background_row(model: M.ModelParams, center: np.ndarray,
                         mode: str = "pos_center") -> None:
    """Replace the class-0 weights of the SED decoder.

    pos_center: use the normalized POS class center. binary_row: use the
    binary classifier's POS-class weights.
    """
    if mode == "pos_center":
        row = center
    elif mode == "binary_row":
        row = model.decoder_bin.w.data[:, 1]
    else:
        raise ValidationError(f"unknown graft mode {mode!r}")
    model.decoder_sed.w.data[:, 0] = row
    model.decoder_sed.b.data[0] = 0.0


def _binary_ce(model, window_feats, labels, mask, win_len):
    emb = M.backbone_forward(model, window_feats, training=False)
    logits = M.bin_forward(model, emb, win_len)
    return ad.masked_softmax_ce(logits, labels, mask), emb


def _mean_loss(losses: list[ad.Tensor]) -> ad.Tensor:
    """Sum left to right, then scale by 1/len."""
    total = losses[0]
    for l in losses[1:]:
        total = ad.add(total, l)
    return ad.mul(total, 1.0 / len(losses))


def finetune_sed(model: M.ModelParams, supports: ReconstructedSupports,
                 base_windows: list[WindowBatch], cfg: RunConfig,
                 seed: int) -> None:
    """Step 1 of SED fine-tuning: binary POS/NEG training on reconstructed
    supports, jointly with the mixed multi-class task; TimeFilterAug kicks in
    at cfg.aug_start_iter."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5ED1]))
    pool = supports.support1 + supports.support2
    optimizer = ad.Adam(_trainable(model, SED_TRAINABLE), lr=cfg.lr_sed)
    aug = AugSpec.from_config(cfg)
    win = cfg.win_frames
    for it in range(cfg.iters):
        optimizer.zero_grad()
        losses = []
        for _ in range(cfg.finetune_batch):
            w = pool[int(rng.integers(len(pool)))]
            feats = w.features
            if cfg.use_aug and it >= cfg.aug_start_iter:
                feats = time_filter_aug(feats, aug, rng)
            l_bin, emb = _binary_ce(model, feats, w.sfbc_labels, w.train_mask, win)
            losses.append(l_bin)
            # mixed multi-class task: support POS frames count as class 0
            sed_logits = M.sed_forward(model, emb, win)
            losses.append(ad.masked_softmax_ce(
                sed_logits, np.zeros(win, dtype=np.int64), w.sfbc_labels))
        if base_windows:
            bw = base_windows[int(rng.integers(len(base_windows)))]
            emb = M.backbone_forward(model, bw.features, training=False)
            sed_logits = M.sed_forward(model, emb, win)
            mask = bw.train_mask * (bw.sed_labels != 0)
            if mask.any():
                losses.append(ad.masked_softmax_ce(sed_logits, bw.sed_labels, mask))
        _mean_loss(losses).backward()
        optimizer.step()


def positive_prob(logits: np.ndarray) -> np.ndarray:
    """POS column of the row-wise softmax of [T x 2] logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return (e / e.sum(axis=1, keepdims=True))[:, 1]


def _bin_probs(model: M.ModelParams, prefix: np.ndarray, win: int) -> np.ndarray:
    emb = M.backbone_suffix(model, prefix)
    return positive_prob(M.bin_forward(model, emb, win).data)


def pseudo_label_refine(model: M.ModelParams, query_windows: list[WindowBatch],
                        cfg: RunConfig, seed: int,
                        prefixes: list[np.ndarray]) -> dict:
    """Self-training on confident query frames (p >= hi is POS, p <= lo is
    NEG, the rest masked out). Returns per-cycle statistics.

    Blocks 0-1 are not trained here, so every pass starts from `prefixes`,
    each query window's blocks 0-1 output (as `TaskContext.cache_prefixes`
    makes them).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x95E0]))
    stats = {"cycles_run": 0, "cycles_skipped": 0}
    win = cfg.win_frames
    trainable = _trainable(model, SED_TRAINABLE)
    for _ in range(cfg.pseudo_cycles):
        labeled = []
        for w, prefix in zip(query_windows, prefixes):
            p = _bin_probs(model, prefix, win)
            labels = (p >= cfg.pseudo_hi).astype(np.int64)
            mask = ((p >= cfg.pseudo_hi) | (p <= cfg.pseudo_lo)).astype(np.int64)
            mask &= (np.arange(win) < w.valid_frames)
            if mask.any():
                labeled.append((prefix, labels, mask))
        if not labeled:
            stats["cycles_skipped"] += 1
            continue
        optimizer = ad.Adam(trainable, lr=cfg.lr_sed)
        for _ in range(cfg.pseudo_iters):
            optimizer.zero_grad()
            prefix, labels, mask = labeled[int(rng.integers(len(labeled)))]
            logits = M.bin_forward(model, M.backbone_suffix(model, prefix), win)
            loss = ad.masked_softmax_ce(logits, labels, mask)
            loss.backward()
            optimizer.step()
        stats["cycles_run"] += 1
    return stats


def _sfbc_center_from_support1(model: M.ModelParams,
                               supports: ReconstructedSupports) -> np.ndarray | None:
    embs = []
    for w in supports.support1:
        tc = M.tc_vector(w.features, w.sed_labels, 1)
        emb = M.backbone_forward(model, tc, training=False).data
        mask = M.reduce_pos_mask(w.sed_labels, 1, emb.shape[0])
        if not mask.any():
            continue
        embs.append(ad.masked_mean_rows(emb, mask).data)
    if not embs:
        return None
    return np.mean(embs, axis=0)


def finetune_sfbc(model: M.ModelParams, supports: ReconstructedSupports,
                  cfg: RunConfig, seed: int) -> np.ndarray | None:
    """Train the SFBC decoder on Support2 against the Support1 POS center;
    backbone and transformer stay frozen. Returns the center, or None when
    Support1 provides no POS material (branch skipped)."""
    center = _sfbc_center_from_support1(model, supports)
    if center is None or not supports.support2:
        return None
    win = cfg.win_frames
    params = _trainable(model, SFBC_TRAINABLE)
    # everything upstream of the decoder is frozen: precompute token features
    precomputed = []
    for w in supports.support2:
        emb = M.backbone_forward(model, w.features, training=False)
        tokens = M.sfbc_tokens(model, emb, center, cfg.use_transformer)
        precomputed.append((tokens.data, w.sfbc_labels, w.train_mask))
    optimizer = ad.Adam(params, lr=cfg.lr_sfbc)
    for _ in range(cfg.iters):
        optimizer.zero_grad()
        losses = []
        for tokens, labels, mask in precomputed:
            logits = M.sfbc_decode(model, tokens, win)
            losses.append(ad.masked_softmax_ce(logits, labels, mask))
        _mean_loss(losses).backward()
        optimizer.step()
    return center


# ---------------------------------------------------------------------------
# Orchestration + detection
# ---------------------------------------------------------------------------

def adapt(pretrained: M.ModelParams, clip: AudioClip, task: SupportTask,
          cfg: RunConfig, seed: int,
          base_windows: list[WindowBatch] | None = None
          ) -> tuple[TaskModel, TaskContext]:
    """Full per-task adaptation pipeline on a private copy of the weights."""
    model = clone_model(pretrained)
    _trainable(model, ())  # inference-only until fine-tuning starts
    ctx = build_task_context(clip, task, cfg)
    # blocks 0-1 stay frozen in eval mode below: scoring, pseudo-label
    # cycles and detect all start from these
    ctx.cache_prefixes(model)
    shots = [shot_embedding(model, ctx.features, r, cfg) for r in ctx.pos_ranges]
    center = pos_center(shots)
    scores = [query_similarity(M.backbone_suffix(model, p).data, center)[1]
              for p in ctx.query_prefixes]
    quota = max(2, math.ceil(cfg.neg_quota_frac * len(ctx.query_windows)))
    neg_pool = reconstruct_negatives(
        ctx.query_windows, scores, quota,
        [ctx.features[a:b] for a, b in ctx.neg_ranges])
    shots_feats = [ctx.features[a:b] for a, b in ctx.pos_ranges]
    supports = build_supports(shots_feats, neg_pool, cfg.support_count,
                              seed=seed, win=cfg.win_frames)
    graft_background_row(model, center, cfg.graft_mode)
    finetune_sed(model, supports, base_windows or [], cfg, seed)
    pseudo_label_refine(model, ctx.query_windows, cfg, seed, ctx.query_prefixes)
    sfbc_center = None
    if cfg.multitask:
        sfbc_center = finetune_sfbc(model, supports, cfg, seed)
    return TaskModel(model=model, sfbc_center=sfbc_center, cfg=cfg), ctx


def detect(task_model: TaskModel, ctx: TaskContext) -> np.ndarray:
    """Frame-level POS probability over the query region.

    Both branch probabilities are averaged per frame; overlapping window
    predictions are averaged per absolute frame.
    """
    model, cfg = task_model.model, task_model.cfg
    win = cfg.win_frames
    t = len(ctx.features)
    acc = np.zeros(t)
    cnt = np.zeros(t)
    for w, prefix in zip(ctx.query_windows, ctx.prefixes(model)):
        emb = M.backbone_suffix(model, prefix)
        p = positive_prob(M.bin_forward(model, emb, win).data)
        if cfg.multitask and task_model.sfbc_center is not None:
            tokens = M.sfbc_tokens(model, emb, task_model.sfbc_center,
                                   cfg.use_transformer)
            p = 0.5 * (p + positive_prob(M.sfbc_decode(model, tokens, win).data))
        n = w.valid_frames
        a = w.window_start_frame
        acc[a:a + n] += p[:n]
        cnt[a:a + n] += 1
    covered = cnt > 0
    probs = np.zeros(t)
    probs[covered] = acc[covered] / cnt[covered]
    return probs[ctx.query_start_frame:]
