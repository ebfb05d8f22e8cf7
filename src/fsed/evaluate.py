"""Frame probabilities -> events, and event-based F-scoring.

Matching follows the bioacoustic few-shot convention: greedy one-to-one
pairing in descending interval-IoU order, TP at IoU >= iou_min, with
micro-averaged precision/recall/F across clips.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import median_filter

from .errors import ValidationError


@dataclass(frozen=True)
class Event:
    onset_s: float
    offset_s: float
    score: float = 1.0


@dataclass
class EventList:
    clip_id: str
    events: list[Event] = field(default_factory=list)


@dataclass
class ScoreReport:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    per_clip: dict = field(default_factory=dict)

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f_score(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def as_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn,
                "precision": self.precision, "recall": self.recall,
                "f": self.f_score}


def decode_events(probs: np.ndarray, frame_period_s: float, threshold=0.5,
                  min_dur_s=0.06, merge_gap_s=0.1, median_width=5,
                  offset_s=0.0, clip_id="") -> EventList:
    """Median filter, threshold, merge nearby runs, drop short events."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.size and (probs.min() < 0 or probs.max() > 1):
        raise ValidationError("probabilities must lie in [0, 1]")
    out = EventList(clip_id=clip_id)
    if probs.size == 0:
        return out
    smooth = median_filter(probs, size=median_width, mode="nearest")
    active = smooth >= threshold
    edges = np.flatnonzero(np.diff(np.r_[0, active.astype(np.int8), 0]))
    runs = list(zip(edges[0::2], edges[1::2]))  # [start, stop) frame runs
    merged = []
    gap_frames = merge_gap_s / frame_period_s
    for a, b in runs:
        if merged and a - merged[-1][1] < gap_frames:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    for a, b in merged:
        onset = a * frame_period_s
        offset = b * frame_period_s
        if offset - onset >= min_dur_s:
            score = float(np.mean(probs[a:b]))
            out.events.append(Event(onset + offset_s, offset + offset_s, score))
    return out


def _iou(a: Event, b: Event) -> float:
    inter = min(a.offset_s, b.offset_s) - max(a.onset_s, b.onset_s)
    if inter <= 0:
        return 0.0
    union = max(a.offset_s, b.offset_s) - min(a.onset_s, b.onset_s)
    return inter / union


def match_events(pred: EventList, ref: EventList,
                 iou_min: float = 0.3) -> tuple[int, int, int]:
    """Greedy one-to-one matching in descending IoU order; (TP, FP, FN)."""
    pairs = []
    for i, p in enumerate(pred.events):
        for j, r in enumerate(ref.events):
            iou = _iou(p, r)
            if iou >= iou_min:
                pairs.append((iou, i, j))
    pairs.sort(key=lambda x: (-x[0], x[1], x[2]))
    used_p, used_r = set(), set()
    tp = 0
    for _, i, j in pairs:
        if i in used_p or j in used_r:
            continue
        used_p.add(i)
        used_r.add(j)
        tp += 1
    return tp, len(pred.events) - tp, len(ref.events) - tp


def fscore(counts_per_clip: dict[str, tuple[int, int, int]]) -> ScoreReport:
    """Micro-average: aggregate counts over clips first, then P/R/F."""
    report = ScoreReport()
    for clip_id, (tp, fp, fn) in counts_per_clip.items():
        if min(tp, fp, fn) < 0:
            raise ValidationError("counts must be non-negative")
        report.tp += tp
        report.fp += fp
        report.fn += fn
        sub = ScoreReport(tp=tp, fp=fp, fn=fn)
        report.per_clip[clip_id] = sub.as_dict()
    return report

