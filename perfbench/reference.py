"""Regenerate the reference figures in perfbench/README.md.

Usage (from the repository root):

    python3 perfbench/reference.py

For each workload in BENCHMARK.json it runs perfbench/run.py once per seed,
one run at a time, in two sets: seeds 1-10, then seeds 11-20. For each set
it prints each end-to-end metric's median, quartiles and spread
(interquartile range over median, as statistics.quantiles(n=4) gives the
quartiles) against the metric's bound, and then each metric's change from
the first set's median to the second's. It also prints the peak RSS of
every run and TP/FP/FN per seed. It then makes one traced run at seed 1,
checks that its outputs digest equals the untraced run's at that seed, and
reports the tracing overhead (wall time per operation and per process,
traced minus untraced) and the per-layer figures. The full report is also
written to .perfbench-out/reference.json.

Exits 1 if a run fails or a check fails, if a set's spread reaches its
bound (setup_s excepted: it is one cold set-up per run, so only its median
is compared), if a median moves between the sets by more than its bound,
if the share of failed operations differs between the sets, or if the
traced outputs differ from the untraced ones.
"""

import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = (list(range(1, 11)), list(range(11, 21)))
TRACE_SEED = SETS[0][0]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = re.search(r"digest=(\S+)", proc.stdout).group(1)
    tp, fp, fn = map(int, re.search(r"quality tp=(\d+) fp=(\d+) fn=(\d+)",
                                    proc.stdout).groups())
    peak = float(re.search(r"peak_rss_mb=(\S+)", proc.stdout).group(1))
    checks = [ln for ln in lines if ln.startswith("check failed")]
    return {"seed": seed, "trace": trace, "wall_s": wall, "digest": digest,
            "tp": tp, "fp": fp, "fn": fn, "peak_rss_mb": peak,
            "check_failures": checks, **result}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def run_set(workload: str, seeds: list[int], seconds: int) -> list[dict]:
    runs = []
    for seed in seeds:
        r = run_once(workload, seed, seconds, 0)
        runs.append(r)
        print(f"{workload} seed={seed} wall={r['wall_s']:.1f}s correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']} "
              f"tp/fp/fn={r['tp']}/{r['fp']}/{r['fn']} "
              f"peak_rss_mb={r['peak_rss_mb']:.0f} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
              flush=True)
        for msg in r["check_failures"]:
            print(f"  {msg}")
    return runs


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    ok = True
    report = {}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [run_set(workload, seeds, seconds) for seeds in SETS]
        for runs in sets:
            ok &= all(r["correct"] for r in runs)
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        ok &= shares[0] == shares[1]
        stats = {}
        print(f"\n{workload}: failed share {shares[0]:.4g} / {shares[1]:.4g}")
        print("  metric             median q1 q3 spread (set 1 | set 2) "
              "median change, bound")
        for m in bench["end_to_end"]:
            s = [summarize([r["metrics"][m["name"]]["value"] for r in runs])
                 for runs in sets]
            change = s[1]["median"] / s[0]["median"] - 1
            flags = []
            if m["name"] != "setup_s" and max(x["spread"] for x in s) >= m["bound"]:
                flags.append("SPREAD >= BOUND")
            if abs(change) > m["bound"]:
                flags.append("MEDIAN MOVED > BOUND")
            ok &= not flags
            stats[m["name"]] = {"sets": s, "median_change": change}
            print(f"  {m['name']:18s} "
                  + " | ".join(f"{x['median']:.4g} {x['q1']:.4g} {x['q3']:.4g} "
                               f"{x['spread']:.3f}" for x in s)
                  + f"  {change:+.3f}, {m['bound']}  {' '.join(flags)}")
        rss = [summarize([r["peak_rss_mb"] for r in runs]) for runs in sets]
        stats["peak_rss_mb (not bounded)"] = {
            "sets": rss, "median_change": rss[1]["median"] / rss[0]["median"] - 1}
        print("  peak_rss_mb (not bounded) "
              + " | ".join(f"{x['median']:.0f} {x['q1']:.0f} {x['q3']:.0f} "
                           f"{x['spread']:.3f}" for x in rss)
              + f"  {rss[1]['median'] / rss[0]['median'] - 1:+.3f}")

        traced = run_once(workload, TRACE_SEED, seconds, 1)
        base = next(r for r in sets[0] if r["seed"] == TRACE_SEED)
        same = traced["digest"] == base["digest"]
        ok &= same and traced["correct"]
        per_op = traced["metrics"]["bench.wall_per_op_s"]["value"]
        untraced_op = base["metrics"]["op_s"]["value"]
        trace = {
            "seed": TRACE_SEED, "outputs_equal": same,
            "overhead_per_op_s": per_op - untraced_op,
            "overhead_per_op": per_op / untraced_op - 1,
            "overhead_wall_s": traced["wall_s"] - base["wall_s"],
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        print(f"  traced seed={TRACE_SEED}: outputs equal={same}, overhead "
              f"{per_op - untraced_op:+.3f} s/op ({per_op / untraced_op - 1:+.1%}), "
              f"process wall {traced['wall_s'] - base['wall_s']:+.1f} s")
        for k, v in traced["metrics"].items():
            print(f"    {k:48s} {v['value']:.4g} {v['unit']}")
        report[workload] = {"sets": sets, "stats": stats, "trace": trace}
        print(flush=True)
    out = ROOT / ".perfbench-out" / "reference.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"report: {out.relative_to(ROOT)}; {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
