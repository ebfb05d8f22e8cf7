"""Desk-scale end-to-end benchmark on the synthetic corpus.

Runs the full pipeline (synthesize, pretrain, per-task adapt, detect,
score) for the full system and an ablation ladder (single-task, no
sequence model, no augmentation). Results are written as a canonical,
byte-stable JSON (results.json) plus a report with wall-clock timings
(report.json); timings are kept out of the canonical file so repeated
runs with the same seed compare equal.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fewshot, train
from .evaluate import EventList, Event, decode_events, fscore, match_events
from .framing import ClassMap
from .ingest import (RunConfig, SynthSpec, make_support_task, read_annotations,
                     read_wav, synth_task_set)


@dataclass
class BenchSpec:
    """Fixed synthetic split plus desk-scale model/training reductions."""

    synth: SynthSpec = field(default_factory=SynthSpec)
    channels: int = 32
    embed_dim: int = 32        # transformer dim 64
    ffn_dim: int = 128
    pretrain_epochs: int = 5
    steps_per_epoch: int = 36
    finetune_iters: int = 32
    aug_start_iter: int = 16
    pseudo_cycles: int = 2
    pseudo_iters: int = 8
    support_count: int = 12
    finetune_batch: int = 3
    base_window_pool: int = 24

    def run_config(self, seed: int, multitask=True, use_transformer=True,
                   use_aug=True) -> RunConfig:
        return RunConfig(
            channels=self.channels, embed_dim=self.embed_dim,
            ffn_dim=self.ffn_dim, iters=self.finetune_iters,
            aug_start_iter=self.aug_start_iter,
            pseudo_cycles=self.pseudo_cycles, pseudo_iters=self.pseudo_iters,
            support_count=self.support_count,
            finetune_batch=self.finetune_batch, kfold=1, seed=seed,
            multitask=multitask, use_transformer=use_transformer,
            use_aug=use_aug, speed_perturb=False)


ROWS = (
    {"name": "single_task", "multitask": False, "transformer": False, "aug": False},
    {"name": "multitask", "multitask": True, "transformer": False, "aug": False},
    {"name": "multitask+transformer", "multitask": True, "transformer": True,
     "aug": False},
    {"name": "full", "multitask": True, "transformer": True, "aug": True},
)


def _score_task(pretrained, wav_path, csv_path, cfg, seed, base_windows):
    clip = read_wav(wav_path)
    events = read_annotations(csv_path)
    task = make_support_task(clip, events)
    task_model, ctx = fewshot.adapt(pretrained, clip, task, cfg, seed,
                                    base_windows=base_windows)
    probs = fewshot.detect(task_model, ctx)
    pred = decode_events(probs, ctx.frame_period_s, cfg.threshold,
                         cfg.min_dur_s, cfg.merge_gap_s, cfg.median_width,
                         offset_s=ctx.query_start_frame * ctx.frame_period_s,
                         clip_id=Path(wav_path).stem)
    ref = EventList(clip_id=Path(wav_path).stem, events=[
        Event(e.onset_s, e.offset_s) for e in events
        if e.onset_s >= task.query_start_s])
    return match_events(pred, ref, cfg.iou_min)


def run_bench(spec: BenchSpec, seed: int, out_dir, full_only: bool = False) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timings = {}
    t0 = time.monotonic()
    manifest = synth_task_set(spec.synth, seed, out_dir / "data")
    timings["synth"] = time.monotonic() - t0
    class_map = ClassMap.from_names(manifest["classes"])

    rows = tuple(r for r in ROWS if r["name"] == "full") if full_only else ROWS

    # every row shares the frontend and framing keys, so one corpus serves all
    t0 = time.monotonic()
    frontend = spec.run_config(seed)
    corpus = [train.prepare_clip(read_wav(wav_path), read_annotations(csv_path),
                                 class_map, frontend, clip_id=Path(wav_path).stem)
              for wav_path, csv_path in manifest["base"]]
    timings["features"] = time.monotonic() - t0
    base_windows = [w for cw in corpus for w in cw.windows
                    if (w.sed_labels != 0).any()][: spec.base_window_pool]

    # pretrained models are shared across rows with the same toggles
    model_cache = {}
    results = []
    for row in rows:
        key = (row["multitask"], row["transformer"])
        cfg = spec.run_config(seed, multitask=row["multitask"],
                              use_transformer=row["transformer"],
                              use_aug=row["aug"])
        if key not in model_cache:
            t0 = time.monotonic()
            plan = train.TrainPlan(epochs=spec.pretrain_epochs, kfold=1,
                                   seed=seed,
                                   max_steps_per_epoch=spec.steps_per_epoch)
            model_cache[key] = train.pretrain(corpus, cfg, plan)[0]
            timings[f"pretrain[{row['name']}]"] = time.monotonic() - t0
        pretrained = model_cache[key]
        counts = {}
        t0 = time.monotonic()
        for i, (wav_path, csv_path) in enumerate(manifest["novel"]):
            counts[Path(wav_path).stem] = _score_task(
                pretrained, wav_path, csv_path, cfg, seed=seed * 31 + i,
                base_windows=base_windows)
        timings[f"finetune[{row['name']}]"] = time.monotonic() - t0
        report = fscore(counts)
        results.append({"toggles": {k: row[k] for k in
                                    ("multitask", "transformer", "aug")},
                        "name": row["name"],
                        "precision": round(report.precision, 6),
                        "recall": round(report.recall, 6),
                        "f": round(report.f_score, 6),
                        "tp": report.tp, "fp": report.fp, "fn": report.fn})

    config_blob = json.dumps(dataclasses.asdict(spec), sort_keys=True)
    canonical = {
        "config_hash": hashlib.sha256(config_blob.encode()).hexdigest()[:16],
        "seed": seed,
        "rows": results,
    }
    (out_dir / "results.json").write_text(
        json.dumps(canonical, indent=2, sort_keys=True) + "\n")
    report = dict(canonical)
    report["timings"] = {k: round(v, 3) for k, v in timings.items()}
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
