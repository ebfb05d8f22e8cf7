"""Per-layer tracing of fsed from outside the program.

`Tracer.install()` replaces selected public functions of the fsed modules
(and a few methods) with wrappers that record spans, and `restore()` puts
every original back. Spans stay in memory until `metrics()` and `dump()`
read them at the end of the run.

A span is [layer, name, start, end, parent, same_layer_child_s]: `parent`
is the index of the span open when it started (-1 at top level). A span's
self time is its duration minus the time covered by its nearest nested
spans of the same layer, so `fewshot.adapt`'s self time is the work no
wrapped fewshot stage covers (query scoring, clone, graft), even though
model and autodiff spans nest inside it too.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict

import fsed.autodiff as ad

# autodiff ops timed forward (the call) and backward (the node's closure)
OPS = ("conv2d", "batchnorm2d", "maxpool2d", "relu", "matmul", "masked_softmax_ce")

# fewshot stages whose spans make up adapt's children
FEWSHOT_STAGES = ("build_task_context", "shot_embedding", "reconstruct_negatives",
                  "build_supports", "finetune_sed", "pseudo_label_refine",
                  "finetune_sfbc", "detect")


def _training_flag(args, kwargs) -> bool:
    return bool(kwargs.get("training", args[2] if len(args) > 2 else False))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.eval_windows: set[bytes] = set()
        self.epoch_losses: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, name, time.perf_counter(), 0.0, parent, 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        self.stack.pop()
        for anc in reversed(self.stack):
            if self.spans[anc][0] == span[0]:
                self.spans[anc][5] += span[3] - span[2]
                break

    def _wrap(self, layer, name, fn, after=None):
        """Span around `fn`; `name` may be a callable of (args, kwargs);
        `after(args, kwargs, result)` records counts from the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = tracer._open(layer, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch_function(self, module, fname, layer, name=None, after=None):
        """Rebind every fsed module attribute that holds the original, so
        names imported with `from .x import f` are traced as well."""
        orig = getattr(module, fname)
        wrapped = self._wrap(layer, name or fname, orig, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fsed" or mod_name.startswith("fsed.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def _patch_attr(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import fsed.dsp as dsp
        import fsed.evaluate as evaluate
        import fsed.fewshot as fewshot
        import fsed.framing as framing
        import fsed.ingest as ingest
        import fsed.model as model
        import fsed.train as train

        counts = self.counts

        for op in OPS:
            self._patch_function(ad, op, "autodiff", op, self._timed_backward(op))
        self._patch_attr(ad.Tensor, "backward",
                         self._wrap("autodiff", "Tensor.backward", ad.Tensor.backward))
        self._patch_attr(ad.Adam, "step", self._wrap("autodiff", "Adam.step", ad.Adam.step))
        self._patch_attr(ad.TransformerEncoderLayer, "__call__",
                         self._wrap("autodiff", "TransformerEncoderLayer",
                                    ad.TransformerEncoderLayer.__call__))
        init = ad.Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            counts["autodiff.Tensor.nodes"] += 1
            init(tensor, *args, **kwargs)

        self._patch_attr(ad.Tensor, "__init__", counting_init)

        def backbone_name(args, kwargs):
            return ("backbone_forward.train" if _training_flag(args, kwargs)
                    else "backbone_forward.eval")

        def backbone_after(args, kwargs, result):
            if not _training_flag(args, kwargs):
                window = args[1] if len(args) > 1 else kwargs["window"]
                self.eval_windows.add(hashlib.blake2b(window.tobytes(),
                                                      digest_size=16).digest())

        self._patch_function(model, "backbone_forward", "model", backbone_name,
                             backbone_after)
        self._patch_function(model, "sfbc_forward", "model")

        def epoch_after(args, kwargs, stats):
            self.epoch_losses.append(float(stats["l_total"]))

        self._patch_function(train, "window_step", "train")
        self._patch_function(train, "pretrain_epoch", "train", after=epoch_after)

        def pool_after(args, kwargs, pool):
            counts["fewshot.reconstruct_negatives.pool_size"] += len(pool)

        def cycles_after(args, kwargs, stats):
            counts["fewshot.pseudo_label_refine.cycles_run"] += stats["cycles_run"]

        def sfbc_after(args, kwargs, center):
            counts["fewshot.finetune_sfbc.skipped"] += center is None

        after = {"reconstruct_negatives": pool_after,
                 "pseudo_label_refine": cycles_after, "finetune_sfbc": sfbc_after}
        for stage in FEWSHOT_STAGES:
            self._patch_function(fewshot, stage, "fewshot", after=after.get(stage))
        self._patch_function(fewshot, "adapt", "fewshot")

        def features_after(args, kwargs, feats):
            clip = args[0] if args else kwargs["clip"]
            counts["dsp.extract_features.audio_s"] += clip.duration_s

        self._patch_function(dsp, "extract_features", "dsp", after=features_after)
        self._patch_function(framing, "segment_windows", "framing")
        self._patch_function(ingest, "synth_task_set", "ingest")
        self._patch_function(ingest, "read_wav", "ingest")

        def match_after(args, kwargs, result):
            tp, fp, fn = result
            counts["evaluate.tp"] += tp
            counts["evaluate.fp"] += fp
            counts["evaluate.fn"] += fn

        self._patch_function(evaluate, "decode_events", "evaluate")
        self._patch_function(evaluate, "match_events", "evaluate", after=match_after)

    def _timed_backward(self, op):
        tracer = self
        label = f"{op}.bwd"

        def after(args, kwargs, result):
            inner = result._backward
            if inner is None:
                return

            def backward(g):
                idx = tracer._open("autodiff", label)
                try:
                    inner(g)
                finally:
                    tracer._close(idx)

            result._backward = backward

        return after

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[tuple[str, str], dict[str, float]]:
        """(layer, name) -> inclusive seconds, self seconds, calls."""
        out: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for layer, name, start, end, _parent, child_s in self.spans:
            agg = out[(layer, name)]
            agg["s"] += end - start
            agg["self_s"] += end - start - child_s
            agg["calls"] += 1
        return out

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metric values, named as in BENCHMARK.json."""
        tot = self.totals()   # a defaultdict: spans never opened read 0

        def s(layer, name):
            return tot[(layer, name)]["s"]

        def calls(layer, name):
            return tot[(layer, name)]["calls"]

        m: dict[str, float] = {}
        for op in OPS:
            m[f"autodiff.{op}.fwd_s"] = s("autodiff", op)
            m[f"autodiff.{op}.bwd_s"] = s("autodiff", f"{op}.bwd")
            m[f"autodiff.{op}.calls"] = calls("autodiff", op)
        m["autodiff.TransformerEncoderLayer.s"] = s("autodiff", "TransformerEncoderLayer")
        for name in ("Tensor.backward", "Adam.step"):
            m[f"autodiff.{name}.s"] = s("autodiff", name)
            m[f"autodiff.{name}.calls"] = calls("autodiff", name)
        m["autodiff.Tensor.nodes"] = self.counts["autodiff.Tensor.nodes"]
        for mode in ("train", "eval"):
            m[f"model.backbone_forward.{mode}.s"] = s("model", f"backbone_forward.{mode}")
            m[f"model.backbone_forward.{mode}.calls"] = calls(
                "model", f"backbone_forward.{mode}")
        m["model.backbone_forward.eval.distinct_windows"] = len(self.eval_windows)
        m["model.sfbc_forward.s"] = s("model", "sfbc_forward")
        m["train.window_step.s"] = s("train", "window_step")
        m["train.window_step.calls"] = calls("train", "window_step")
        m["train.loss.first_epoch"] = self.epoch_losses[0] if self.epoch_losses else 0.0
        m["train.loss.last_epoch"] = self.epoch_losses[-1] if self.epoch_losses else 0.0
        for stage in FEWSHOT_STAGES:
            m[f"fewshot.{stage}.s"] = s("fewshot", stage)
        m["fewshot.adapt.s"] = s("fewshot", "adapt")
        m["fewshot.adapt.self_s"] = tot[("fewshot", "adapt")]["self_s"]
        for key in ("fewshot.pseudo_label_refine.cycles_run",
                    "fewshot.finetune_sfbc.skipped",
                    "fewshot.reconstruct_negatives.pool_size"):
            m[key] = self.counts[key]
        m["dsp.extract_features.s"] = s("dsp", "extract_features")
        m["dsp.extract_features.audio_s"] = self.counts["dsp.extract_features.audio_s"]
        m["framing.segment_windows.s"] = s("framing", "segment_windows")
        m["ingest.synth_task_set.s"] = s("ingest", "synth_task_set")
        m["ingest.read_wav.s"] = s("ingest", "read_wav")
        m["evaluate.decode_events.s"] = s("evaluate", "decode_events")
        m["evaluate.match_events.s"] = s("evaluate", "match_events")
        for key in ("evaluate.tp", "evaluate.fp", "evaluate.fn"):
            m[key] = self.counts[key]
        return m

    def dump(self, path) -> None:
        """Write the spans of every layer but the autodiff ops in full, and
        the per-(layer, name) totals of all spans."""
        spans = [{"id": i, "layer": l, "name": n, "start": a, "end": b, "parent": p}
                 for i, (l, n, a, b, p, _c) in enumerate(self.spans)
                 if l != "autodiff"]
        totals = [{"layer": l, "name": n, **agg}
                  for (l, n), agg in sorted(self.totals().items())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"totals": totals, "spans": spans}, fh)
