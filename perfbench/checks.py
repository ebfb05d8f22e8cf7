"""Correctness checks on one workload's outputs.

Each check is a property of the outputs or an independent computation
from the input files (read here with the standard library, not with
fsed), so it holds or fails the same way on every run of a seed. Each
function returns a list of failure messages; empty means correct.
"""

from __future__ import annotations

import csv
import math
import wave

import numpy as np

TOL = 1e-9


def pretrain_model(state: dict[str, np.ndarray], epoch_losses: list[float]) -> list[str]:
    """The model's parameters and BN statistics, and the mean loss of each
    epoch run so far, all taken after the same fixed epoch."""
    out = []
    if len(epoch_losses) < 2:
        out.append(f"need two epochs for the loss check, ran {len(epoch_losses)}")
    elif not epoch_losses[-1] < epoch_losses[0]:
        out.append(f"last epoch loss {epoch_losses[-1]:.6f} is not below the "
                   f"first {epoch_losses[0]:.6f}")
    for name, arr in state.items():
        if not np.all(np.isfinite(arr)):
            out.append(f"parameter {name} is not finite")
    return out


def _csv_onsets_offsets(csv_path) -> list[tuple[float, float]]:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = [(float(r["Starttime"]), float(r["Endtime"]))
                for r in csv.DictReader(fh) if r["Q"].strip() == "POS"]
    return sorted(rows)


def expected_query_frames(wav_path, csv_path, hop: int) -> tuple[int, int, float]:
    """(first query frame, query frame count, frame period) from the WAV's
    sample count, the hop and the fifth shot's offset."""
    with wave.open(str(wav_path), "rb") as fh:
        n_samples, rate = fh.getnframes(), fh.getframerate()
    period = hop / rate
    total = 1 + n_samples // hop
    fifth_offset = _csv_onsets_offsets(csv_path)[4][1]
    first = min(total - 1, max(0, math.ceil(fifth_offset / period - 0.5)))
    return first, total - first, period


def greedy_iou_match(pred: list[tuple[float, float]], ref: list[tuple[float, float]],
                     iou_min: float) -> tuple[int, int, int]:
    """(TP, FP, FN) over (onset, offset) pairs: repeatedly pair the
    highest-IoU unpaired (pred, ref) at or above iou_min; ties go to the
    lowest pred index, then the lowest ref index."""
    if not pred or not ref:
        return 0, len(pred), len(ref)
    p, r = np.array(pred, dtype=np.float64), np.array(ref, dtype=np.float64)
    inter = (np.minimum(p[:, None, 1], r[None, :, 1])
             - np.maximum(p[:, None, 0], r[None, :, 0]))
    union = (np.maximum(p[:, None, 1], r[None, :, 1])
             - np.minimum(p[:, None, 0], r[None, :, 0]))
    iou = np.where(inter > 0, inter / np.where(inter > 0, union, 1.0), 0.0)
    live = iou >= iou_min
    tp = 0
    while live.any():
        score = np.where(live, iou, -np.inf)
        i, j = np.unravel_index(np.argmax(score), score.shape)
        live[i, :] = False
        live[:, j] = False
        tp += 1
    return tp, len(pred) - tp, len(ref) - tp


def adapt_task(out: dict, wav_path, csv_path, cfg) -> list[str]:
    fails = []
    probs = out["probs"]
    if not np.all(np.isfinite(probs)):
        fails.append("non-finite frame probability")
    elif probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
        fails.append(f"probability outside [0, 1]: {probs.min()}..{probs.max()}")
    first, count, period = expected_query_frames(wav_path, csv_path, cfg.hop)
    if len(probs) != count:
        fails.append(f"{len(probs)} frame probabilities, expected {count}")
    lo, hi = first * period, (first + count) * period
    events = out["pred"].events
    prev_off = -math.inf
    for e in events:
        if e.onset_s < lo - TOL or e.offset_s > hi + TOL:
            fails.append(f"event {e.onset_s:.4f}-{e.offset_s:.4f} outside query "
                         f"{lo:.4f}-{hi:.4f}")
        if e.onset_s < prev_off - TOL:
            fails.append(f"event at {e.onset_s:.4f} unsorted or overlapping")
        if e.offset_s - e.onset_s < cfg.min_dur_s - TOL:
            fails.append(f"event at {e.onset_s:.4f} shorter than min_dur_s")
        prev_off = e.offset_s
    tp, fp, fn = out["counts"]
    query_rows = _csv_onsets_offsets(csv_path)[5:]
    if tp + fn != len(query_rows):
        fails.append(f"TP+FN={tp + fn}, but the CSV has {len(query_rows)} rows after "
                     f"the fifth shot")
    own = greedy_iou_match([(e.onset_s, e.offset_s) for e in events], query_rows,
                           cfg.iou_min)
    if own != (tp, fp, fn):
        fails.append(f"match_events gave {(tp, fp, fn)}, greedy IoU gives {own}")
    return fails
