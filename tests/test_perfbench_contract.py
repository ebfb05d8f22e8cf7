"""The names perfbench's tracer patches must exist in fsed.

`perfbench/tracer.py` wraps fsed functions and methods by name from outside
the package; renaming or deleting one breaks `perfbench/run.py --trace 1`
without failing any other test.
"""

import importlib.util
from pathlib import Path

import fsed.autodiff as ad
import fsed.fewshot as fs
import fsed.model as M

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_restore_puts_back():
    targets = [(fs, "detect"), (M, "backbone_forward"), (ad, "conv2d"),
               (ad.Tensor, "backward")]
    originals = [getattr(owner, name) for owner, name in targets]
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        for (owner, name), orig in zip(targets, originals):
            wrapped = getattr(owner, name)
            assert wrapped is not orig, name
            assert wrapped.__wrapped__ is orig, name
    finally:
        tracer.restore()
    for (owner, name), orig in zip(targets, originals):
        assert getattr(owner, name) is orig, name
