"""The three workloads: inputs from the seed, set-up, and the measured loop.

Every input is a WAV/CSV pair written by `fsed.ingest.synth_task_set` from
the workload seed, with the shipped SNR and event density. The program
reads only those files. A run repeats whole rounds of the same operations
until `seconds` have passed, so the share of failed operations does not
depend on the run length:

- pretrain: a round is one pretraining epoch of EPOCH_WINDOWS sampled
  windows; an operation is one optimizer step.
- adapt_short, adapt_long: a round is every task of the workload once; an
  operation is one task, from reading its WAV/CSV to scored events.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import fsed.autodiff as ad
import fsed.evaluate as evaluate
import fsed.fewshot as fewshot
import fsed.framing as framing
import fsed.ingest as ingest
import fsed.model as M
import fsed.train as train
from fsed.bench import BenchSpec
from fsed.errors import FsedError

import checks

HERE = Path(__file__).resolve().parent

# Model size of the program's own `fsed bench` (32 channels, transformer
# dim 64). Adaptation runs fewer iterations than BenchSpec's so that a task
# fits in a run; the SED/pseudo-label/SFBC stage structure is unchanged.
MODEL = BenchSpec()
ADAPT = dict(iters=16, aug_start_iter=8, pseudo_cycles=2, pseudo_iters=4,
             support_count=6, finetune_batch=2)
BASE_WINDOW_POOL = MODEL.base_window_pool

# Set-up pretraining for the adaptation workloads: one epoch of 12 windows.
# Detection quality varies with the seed at any desk-scale size (see
# README); this size keeps set-up near 10 s.
SETUP_PRETRAIN_WINDOWS = 12

# Windows per pretraining epoch (one round of the pretrain workload).
EPOCH_WINDOWS = 8

# The pretrain checks look at these first epochs only, whatever the run's
# length, so that they decide the same way on every run of a seed; later
# epochs are timed, not checked.
CHECKED_EPOCHS = 2

# The base corpus: four classes, 60 s each, with the shipped SNR and event
# density (SynthSpec defaults).
BASE = ingest.SynthSpec(novel_classes=[])

# Adaptation workloads: (tasks, query seconds after the fifth shot). Every
# task's query has this length whatever the seed, so the work per task does
# not move with where the seed put the shots. The lengths sit mid-way
# between window-count steps (431-frame windows every 86 frames), so
# rounding to frames never changes the count: 17.5 s is 1507 frames in 14
# windows, 66.5 s is 5728 frames in 63 windows.
TASKS = {"adapt_short": (2, 17.5), "adapt_long": (1, 66.5)}

# Worst-case seconds per event at the shipped density (gap 5.5 s, event
# 0.6 s); n events always fit in a clip of 6.1 * n + 0.5 s.
EVENT_SPAN_MAX = 6.1


def run_config(seed: int) -> ingest.RunConfig:
    return dataclasses.replace(MODEL.run_config(seed), **ADAPT)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Outcome:
    """What a measured phase hands back to run.py."""

    e2e: dict[str, float]
    attempted: int
    failed: int
    failures: list[str]            # check failures; empty when correct
    digest: str                    # first round's outputs, for traced==untraced
    quality: dict[str, int]        # first round's TP/FP/FN (zeros on pretrain)


def _sha(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


def _base_corpus(manifest, cfg) -> list[train.ClipWindows]:
    class_map = framing.ClassMap.from_names(manifest["classes"])
    return [train.prepare_clip(ingest.read_wav(wav), ingest.read_annotations(csv_path),
                               class_map, cfg, clip_id=Path(wav).stem)
            for wav, csv_path in manifest["base"]]


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

def setup_pretrain(work: Path, seed: int):
    cfg = run_config(seed)
    manifest = ingest.synth_task_set(BASE, seed, work / "base")
    return cfg, _base_corpus(manifest, cfg)


def _expected_steps(corpus, plan, epoch) -> int:
    """One step per event class present in a sampled window, else one, over
    the windows fsed.train.pretrain_epoch samples for this epoch."""
    windows = [w for cw in corpus for w in cw.windows]
    order = framing.balanced_sample_indices(windows, seed=plan.seed * 100003 + epoch)
    order = order[: plan.max_steps_per_epoch]
    return sum(max(1, len(set(windows[i].sed_labels.tolist()) - {0})) for i in order)


def measure_pretrain(state, seed: int, seconds: float) -> Outcome:
    cfg, corpus = state
    n_classes = 1 + max(int(w.sed_labels.max()) for cw in corpus for w in cw.windows)
    model = M.ModelParams(cfg, n_classes=n_classes, seed=seed)
    optimizer = ad.Adam(model.parameters(), lr=cfg.lr_pretrain)
    plan = train.TrainPlan(epochs=1, kfold=1, seed=seed,
                           max_steps_per_epoch=EPOCH_WINDOWS)
    window_s = cfg.win_frames * cfg.frame_period_s
    # seconds per optimizer step, from the previous step's end (or the
    # epoch's start); their median is robust to a burst of outside load
    step_s: list[float] = []
    last = [0.0]
    adam_step = optimizer.step

    def timed_step(*args, **kwargs):
        adam_step(*args, **kwargs)
        now = time.perf_counter()
        step_s.append(now - last[0])
        last[0] = now

    optimizer.step = timed_step
    failures, losses = [], []
    attempted = failed = windows = 0
    digest = ""
    t0 = time.perf_counter()
    epoch = 0
    while epoch < CHECKED_EPOCHS or time.perf_counter() - t0 < seconds:
        expected = _expected_steps(corpus, plan, epoch)
        before = optimizer.step_count
        attempted += expected
        last[0] = time.perf_counter()
        try:
            stats = train.pretrain_epoch(model, corpus, optimizer, cfg, plan, epoch)
        except FsedError:
            failed += expected
            epoch += 1
            continue
        done = optimizer.step_count - before
        windows += EPOCH_WINDOWS
        if epoch < CHECKED_EPOCHS:
            losses.append(stats["l_total"])
            if not (stats["steps"] == done == expected):
                failures.append(f"epoch {epoch}: program reported {stats['steps']} "
                                f"steps, optimizer took {done}, labels give {expected}")
        if epoch == 0:
            digest = _sha([stats["l1"], stats["l2"], stats["steps"]]
                          + [a.tobytes() for _, a in sorted(model.state_arrays().items())])
        if epoch == CHECKED_EPOCHS - 1:
            failures += checks.pretrain_model(model.state_arrays(), losses)
        epoch += 1
    median_step_s = float(np.median(step_s))
    return Outcome(
        e2e={"train_steps_per_s": 1.0 / median_step_s, "op_s": median_step_s,
             "audio_x": windows / len(step_s) * window_s / median_step_s},
        attempted=attempted, failed=failed, failures=failures, digest=digest,
        quality={"tp": 0, "fp": 0, "fn": 0})


# ---------------------------------------------------------------------------
# adapt_short / adapt_long
# ---------------------------------------------------------------------------

def _task_clip(out_dir: Path, seed: int, query_s: float) -> tuple[str, str]:
    """One task's WAV/CSV at the shipped SNR and event density, whose query
    (the fifth shot's offset to the clip's end) lasts query_s.

    A probe clip long enough for five events gives the fifth shot's offset;
    the same seed places the same events in a clip that ends query_s after
    it, with as many query events as always fit.
    """
    probe = ingest.SynthSpec(novel_classes=["n1"], base_duration_s=5.0,
                             novel_duration_s=5 * EVENT_SPAN_MAX + 0.5,
                             novel_pos_count=5)
    shots_csv = ingest.synth_task_set(probe, seed, out_dir / "probe")["novel"][0][1]
    fifth_offset = max(e.offset_s for e in ingest.read_annotations(shots_csv))
    spec = dataclasses.replace(
        probe, novel_duration_s=fifth_offset + query_s,
        novel_pos_count=5 + int((query_s - 0.5) // EVENT_SPAN_MAX))
    wav, csv_path = ingest.synth_task_set(spec, seed, out_dir)["novel"][0]
    return wav, csv_path


def setup_adapt(work: Path, seed: int, workload: str):
    """Synthesize the inputs here; pretrain in a child process, so that its
    peak memory stays out of this process's peak_rss_mb."""
    cfg = run_config(seed)
    manifest = ingest.synth_task_set(BASE, seed, work / "base")
    n_tasks, query_s = TASKS[workload]
    tasks = [_task_clip(work / f"task{i}", seed * 31 + i, query_s)
             for i in range(n_tasks)]
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    ckpt = work / "pretrained.ckpt"
    subprocess.run([sys.executable, str(HERE / "setup_model.py"), str(manifest_path),
                    str(seed), str(ckpt)], check=True)
    pretrained = M.ModelParams.from_checkpoint(ckpt, cfg)
    base_windows = [w for cw in _base_corpus(manifest, cfg) for w in cw.windows
                    if (w.sed_labels != 0).any()][:BASE_WINDOW_POOL]
    return cfg, tasks, pretrained, base_windows


def pretrain_for_setup(manifest_path: Path, seed: int, out: Path) -> None:
    cfg = run_config(seed)
    manifest = json.loads(Path(manifest_path).read_text())
    plan = train.TrainPlan(epochs=1, kfold=1, seed=seed,
                           max_steps_per_epoch=SETUP_PRETRAIN_WINDOWS)
    train.pretrain(_base_corpus(manifest, cfg), cfg, plan)[0].save(out)


class _StepCounter:
    """Counts Adam steps by wrapping Adam.step for the measured phase only."""

    def __enter__(self):
        self.count = 0
        self._orig = orig = ad.Adam.step

        def step(opt, *args, **kwargs):
            self.count += 1
            return orig(opt, *args, **kwargs)

        ad.Adam.step = step
        return self

    def __exit__(self, *exc):
        ad.Adam.step = self._orig


def _run_task(pretrained, cfg, wav, csv_path, seed, base_windows):
    t0 = time.perf_counter()
    clip = ingest.read_wav(wav)
    events = ingest.read_annotations(csv_path)
    task = ingest.make_support_task(clip, events)
    task_model, ctx = fewshot.adapt(pretrained, clip, task, cfg, seed,
                                    base_windows=base_windows)
    t1 = time.perf_counter()
    probs = fewshot.detect(task_model, ctx)
    pred = evaluate.decode_events(
        probs, ctx.frame_period_s, cfg.threshold, cfg.min_dur_s, cfg.merge_gap_s,
        cfg.median_width, offset_s=ctx.query_start_frame * ctx.frame_period_s,
        clip_id=Path(wav).stem)
    t2 = time.perf_counter()
    ref = evaluate.EventList(clip_id=Path(wav).stem, events=[
        evaluate.Event(e.onset_s, e.offset_s) for e in events
        if e.onset_s >= task.query_start_s])
    counts = evaluate.match_events(pred, ref, cfg.iou_min)
    t3 = time.perf_counter()
    return {"task_s": t3 - t0, "detect_s": t2 - t1,
            "query_audio_s": len(probs) * ctx.frame_period_s,
            "probs": probs, "pred": pred, "counts": counts}


def measure_adapt(state, seed: int, seconds: float) -> Outcome:
    cfg, tasks, pretrained, base_windows = state
    results: list[dict | None] = []    # per task run, None where it raised
    failures = []
    t0 = time.perf_counter()
    with _StepCounter() as steps:
        while not results or time.perf_counter() - t0 < seconds:
            for i, (wav, csv_path) in enumerate(tasks):
                try:
                    out = _run_task(pretrained, cfg, wav, csv_path, seed * 31 + i,
                                    base_windows)
                except FsedError:
                    results.append(None)
                    continue
                results.append(out)
                failures += [f"task {i}: {msg}"
                             for msg in checks.adapt_task(out, wav, csv_path, cfg)]
    elapsed = time.perf_counter() - t0
    done = [o for o in results if o is not None]
    first = [o for o in results[:len(tasks)] if o is not None]
    tp, fp, fn = (sum(o["counts"][k] for o in first) for k in range(3))
    digest = _sha([o["probs"].tobytes() for o in first]
                  + [[(e.onset_s, e.offset_s, e.score) for e in o["pred"].events]
                     for o in first]
                  + [o["counts"] for o in first])
    detect_s = sum(o["detect_s"] for o in done)
    return Outcome(
        e2e={"train_steps_per_s": steps.count / elapsed,
             "op_s": float(np.median([o["task_s"] for o in done])) if done else 0.0,
             "audio_x": (sum(o["query_audio_s"] for o in done) / detect_s
                         if detect_s else 0.0)},
        attempted=len(results), failed=len(results) - len(done), failures=failures,
        digest=digest, quality={"tp": tp, "fp": fp, "fn": fn})


WORKLOADS = {
    "pretrain": (setup_pretrain, measure_pretrain),
    "adapt_short": (lambda work, seed: setup_adapt(work, seed, "adapt_short"),
                    measure_adapt),
    "adapt_long": (lambda work, seed: setup_adapt(work, seed, "adapt_long"),
                   measure_adapt),
}
