"""Command-line entry point: the whole pipeline as subcommands.

Logs go to stderr; data goes to files or stdout. Every command honors
--config and --seed. Exit codes: 0 success, 1 pipeline error, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from . import fewshot, gradcheck, train
from .dsp import extract_features, write_features
from .errors import FsedError
from .evaluate import Event, EventList, decode_events, fscore, match_events
from .framing import ClassMap
from .ingest import (RunConfig, SynthSpec, load_config, make_support_task,
                     read_annotations, read_annotations_by_file, read_wav,
                     synth_task_set)
from .model import ModelParams

log = logging.getLogger("fsed")


def _config(args) -> RunConfig:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return load_config(args.config, overrides)


def _task_csv(wav_path: str) -> Path:
    csv_path = Path(wav_path).with_suffix(".csv")
    if not csv_path.exists():
        raise FsedError(f"no annotation CSV next to {wav_path}")
    return csv_path


def cmd_synth_data(args) -> int:
    cfg = _config(args)
    spec = SynthSpec(sample_rate=cfg.sample_rate)
    manifest = synth_task_set(spec, cfg.seed, args.out)
    json.dump(manifest, sys.stdout, indent=2)
    print()
    return 0


def cmd_features(args) -> int:
    cfg = _config(args)
    feats = extract_features(read_wav(args.wav), cfg)
    write_features(args.out, feats)
    log.info("wrote %s frames x %s bands to %s", *feats.values.shape, args.out)
    return 0


def cmd_pretrain(args) -> int:
    cfg = _config(args)
    wavs = sorted(Path(args.data).glob("*.wav"))
    if not wavs:
        raise FsedError(f"no WAV files under {args.data}")
    items, labels = [], set()
    for wav in wavs:
        events = read_annotations(_task_csv(wav))
        labels.update(e.label for e in events)
        items.append((read_wav(wav), events, wav.stem))
    class_map = ClassMap.from_names(labels)
    corpus = train.prepare_corpus(items, class_map, cfg)
    plan = train.TrainPlan(epochs=cfg.iters, kfold=cfg.kfold, seed=cfg.seed,
                           max_steps_per_epoch=cfg.max_steps_per_epoch)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    models = train.pretrain(corpus, cfg, plan, out_dir=args.out)
    log.info("wrote %d fold checkpoint(s) to %s", len(models), args.out)
    return 0


def cmd_finetune(args) -> int:
    cfg = _config(args)
    pretrained = ModelParams.from_checkpoint(args.ckpt, cfg)
    cfg = pretrained.cfg
    clip = read_wav(args.task)
    task = make_support_task(clip, read_annotations(_task_csv(args.task)))
    task_model, _ = fewshot.adapt(pretrained, clip, task, cfg, seed=cfg.seed)
    task_model.save(args.out)
    log.info("wrote task checkpoint %s", args.out)
    return 0


def cmd_detect(args) -> int:
    task_model = fewshot.TaskModel.load(args.task_ckpt, _config(args))
    cfg = task_model.cfg
    clip = read_wav(args.task)
    task = make_support_task(clip, read_annotations(_task_csv(args.task)))
    ctx = fewshot.build_task_context(clip, task, cfg)
    probs = fewshot.detect(task_model, ctx)
    events = decode_events(probs, ctx.frame_period_s, cfg.threshold,
                           cfg.min_dur_s, cfg.merge_gap_s, cfg.median_width,
                           offset_s=ctx.query_start_frame * ctx.frame_period_s)
    name = Path(args.task).name
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("Audiofilename,Starttime,Endtime,Q\n")
        for ev in events.events:
            fh.write(f"{name},{ev.onset_s:.6f},{ev.offset_s:.6f},POS\n")
    log.info("wrote %d events to %s", len(events.events), args.out)
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config(args)
    iou = args.iou if args.iou is not None else cfg.iou_min
    pred = read_annotations_by_file(args.pred)
    ref = read_annotations_by_file(args.ref)
    counts = {}
    for clip_id in sorted(set(pred) | set(ref)):
        plist = EventList(clip_id, [Event(e.onset_s, e.offset_s)
                                    for e in pred.get(clip_id, [])])
        rlist = EventList(clip_id, [Event(e.onset_s, e.offset_s)
                                    for e in ref.get(clip_id, [])])
        counts[clip_id] = match_events(plist, rlist, iou)
    report = fscore(counts)
    header = f"{'clip':<24} {'TP':>4} {'FP':>4} {'FN':>4} {'P':>7} {'R':>7} {'F':>7}"
    print(header, file=sys.stderr)
    for clip_id, row in report.per_clip.items():
        print(f"{clip_id:<24} {row['tp']:>4} {row['fp']:>4} {row['fn']:>4} "
              f"{row['precision']:>7.3f} {row['recall']:>7.3f} {row['f']:>7.3f}",
              file=sys.stderr)
    out = report.as_dict()
    out["per_clip"] = report.per_clip
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def cmd_gradcheck(args) -> int:
    _config(args)  # surface config errors even though the suite is self-seeded
    results = gradcheck.run_gradient_suite()
    ok = True
    for name, err in results.items():
        status = "ok" if err < 1e-4 else "FAIL"
        ok &= err < 1e-4
        print(f"{name:<28} max rel err {err:.3e}  {status}")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    spec = bench_mod.BenchSpec()
    report = bench_mod.run_bench(spec, seed=args.seed if args.seed is not None
                                 else 7, out_dir=args.out,
                                 full_only=args.full_only)
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsed", description="Few-shot frame-level sound event detection")
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=None)
    # accept --config/--seed after the subcommand too
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("synth-data", help="generate the synthetic corpus")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth_data)

    p = sub.add_parser("features", help="dump PCEN features for one WAV")
    p.add_argument("wav")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("pretrain", help="multitask pretraining on base classes")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune", help="adapt to one few-shot task")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--task", required=True, help="task WAV (CSV alongside)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("detect", help="emit detected events for a task")
    p.add_argument("--task-ckpt", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("evaluate", help="score predictions against references")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--iou", type=float, default=None)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("bench", help="end-to-end synthetic benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--full-only", action="store_true",
                   help="skip the ablation rows")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=os.environ.get("FSED_LOG", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FsedError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
