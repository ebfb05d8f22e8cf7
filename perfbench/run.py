"""fsed benchmark: one workload at one seed, through fsed's Python API.

Usage (from the repository root):

    python3 perfbench/run.py --workload {pretrain,adapt_short,adapt_long}
        --seed N --seconds S --trace {0,1}

Set-up (inputs from the seed, and for the adaptation workloads a
pretrained model) is timed as setup_s from the start of the process. The
measured phase repeats whole rounds of the workload until S seconds have
passed. With --trace 0 the last line of stdout is a JSON object holding
the end-to-end metrics; with --trace 1 the fsed modules are wrapped from
outside (see tracer.py) and it holds the per-layer metrics instead, and
the spans go to .perfbench-trace/. Lines before it report the BLAS thread
setting, a digest of the first round's outputs (equal in the traced and
the untraced run of a seed) and the first round's TP/FP/FN.
"""

import os
import sys
import time
from pathlib import Path

# One BLAS thread: on this 2-vCPU class of machine it is faster for the
# backbone's GEMMs than two, and steadier. Set before NumPy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402


def _process_age_s() -> float:
    """Seconds since this process started, from Linux /proc (10 ms ticks)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE_AT_IMPORT = _process_age_s()
_T_AT_IMPORT = time.perf_counter()


def process_age_s() -> float:
    return _AGE_AT_IMPORT + time.perf_counter() - _T_AT_IMPORT


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the "end_to_end" or "per_layer" metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pretrain", "adapt_short", "adapt_long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import fsed
    except ImportError as exc:
        print(f"perfbench: cannot import fsed from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(fsed.__file__).resolve().parents:
        print(f"perfbench: fsed resolved outside this checkout: {fsed.__file__}",
              file=sys.stderr)
        return 2

    import numpy as np
    import tracer as tracer_mod
    import workloads

    tracer = None
    if args.trace:
        tracer = tracer_mod.Tracer()
        tracer.install()
    work = ROOT / ".perfbench-out" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    setup, measure = workloads.WORKLOADS[args.workload]
    try:
        state = setup(work, args.seed)
        setup_s = process_age_s()
        outcome = measure(state, args.seed, args.seconds)
        peak = workloads.peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    print(f"env blas_threads={BLAS_THREADS} cpus={os.cpu_count()} "
          f"numpy={np.__version__}")
    print(f"outputs {args.workload} seed={args.seed} digest={outcome.digest}")
    q = outcome.quality
    print(f"quality tp={q['tp']} fp={q['fp']} fn={q['fn']}")
    print(f"memory peak_rss_mb={peak:.1f}")
    for msg in outcome.failures:
        print(f"check failed: {msg}")

    if tracer is None:
        values = {"setup_s": setup_s, **outcome.e2e}
        units = metric_units("end_to_end")
    else:
        trace_dir = ROOT / ".perfbench-trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.json")
        values = tracer.metrics()
        values["evaluate.events_matched"] = q["tp"]
        values["bench.wall_per_op_s"] = outcome.e2e["op_s"]
        values["bench.peak_rss_mb"] = peak
        units = metric_units("per_layer")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": not outcome.failures,
                      "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
