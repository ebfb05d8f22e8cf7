"""Windowing of frame features into labeled training batches.

Carries the overlap-dedup training mask (each event frame trains exactly
once across overlapping windows) and duration-balanced sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .ingest import AnnotationEvent


@dataclass
class ClassMap:
    """Class name -> index; index 0 is reserved for background."""

    name_to_index: dict[str, int]

    @classmethod
    def from_names(cls, names) -> "ClassMap":
        return cls({name: i + 1 for i, name in enumerate(sorted(set(names)))})

    def index(self, name: str) -> int:
        try:
            return self.name_to_index[name]
        except KeyError:
            raise ValidationError(f"unknown class {name!r}") from None


@dataclass
class WindowBatch:
    """One training window: features, per-frame labels, and the train mask."""

    features: np.ndarray        # [win x bands]
    sed_labels: np.ndarray      # [win] ints, 0 = background
    sfbc_labels: np.ndarray     # [win] ints in {0,1}
    train_mask: np.ndarray      # [win] ints in {0,1}
    window_start_frame: int
    source_id: str
    pad_frames: int = 0
    provenance: dict = field(default_factory=dict)

    @property
    def valid_frames(self) -> int:
        return len(self.sed_labels) - self.pad_frames


def label_frames(n_frames: int, frame_period_s: float,
                 events: list[AnnotationEvent], class_map: ClassMap) -> np.ndarray:
    """Per-frame class labels; a frame belongs to an event iff its center
    time lies in [onset, offset). Overlaps resolved later-onset-wins."""
    labels = np.zeros(n_frames, dtype=np.int64)
    centers = (np.arange(n_frames) + 0.5) * frame_period_s
    for ev in sorted(events, key=lambda e: e.onset_s):
        idx = class_map.index(ev.label)
        labels[(centers >= ev.onset_s) & (centers < ev.offset_s)] = idx
    return labels


def segment_windows(features: np.ndarray, labels: np.ndarray, win: int = 431,
                    shift: int = 86, source_id: str = "") -> list[WindowBatch]:
    """Slice [T x bands] features into fixed windows starting every `shift`
    frames. A final partial window is right-padded by repeating the last
    frame; padded frames get label 0 and mask 0."""
    if not (win > shift > 0):
        raise ValidationError("need win > shift > 0")
    t = len(features)
    if t == 0:
        raise ValidationError("no frames to window")
    if len(labels) != t:
        raise ValidationError("labels/features length mismatch")
    count = 1 if t <= win else math.ceil((t - win) / shift) + 1
    out = []
    for w in range(count):
        start = w * shift
        stop = min(start + win, t)
        pad = win - (stop - start)
        feats = features[start:stop]
        labs = labels[start:stop]
        if pad:
            feats = np.concatenate([feats, np.repeat(feats[-1:], pad, axis=0)])
            labs = np.concatenate([labs, np.zeros(pad, dtype=labs.dtype)])
        mask = np.ones(win, dtype=np.int64)
        if pad:
            mask[-pad:] = 0
        out.append(WindowBatch(
            features=np.ascontiguousarray(feats, dtype=np.float64),
            sed_labels=labs.astype(np.int64),
            sfbc_labels=(labs != 0).astype(np.int64),
            train_mask=mask,
            window_start_frame=start,
            source_id=source_id,
            pad_frames=pad,
        ))
    return out


def build_overlap_mask(windows: list[WindowBatch]) -> list[WindowBatch]:
    """Mask each event frame into the first window that contains it.

    Background frames keep mask 1 in every window (pad frames stay 0).
    Windows must come from one clip, ordered by start frame.
    """
    claimed: set[int] = set()
    for w in windows:
        for i in range(w.valid_frames):
            if w.sed_labels[i] == 0:
                continue
            f = w.window_start_frame + i
            if f in claimed:
                w.train_mask[i] = 0
            else:
                claimed.add(f)
    return windows


def balanced_sample_indices(windows: list[WindowBatch], seed: int) -> list[int]:
    """Epoch sampling order with POS-window over-sampling.

    Windows containing POS frames are replicated (seeded, with replacement)
    until their total POS-frame count reaches the total frame count of the
    all-background windows, then the whole list is shuffled.
    """
    pos_counts = [int((w.sfbc_labels * w.train_mask).sum()) for w in windows]
    pos_idx = [i for i, c in enumerate(pos_counts) if c > 0]
    if not pos_idx:
        raise ValidationError("corpus has no POS frames; cannot balance")
    neg_total = sum(w.valid_frames for i, w in enumerate(windows)
                    if pos_counts[i] == 0)
    order = list(range(len(windows)))
    pos_total = sum(pos_counts)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA1A]))
    while pos_total < neg_total:
        i = pos_idx[rng.integers(len(pos_idx))]
        order.append(i)
        pos_total += pos_counts[i]
    rng.shuffle(order)
    return [int(i) for i in order]
