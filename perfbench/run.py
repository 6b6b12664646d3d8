"""The afem benchmark: time to a fixed estimator tolerance on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every repetition runs in a fresh
interpreter (rep.py), one after another, with `src` on PYTHONPATH and
BLAS/OpenMP threads pinned to 1, so counts and the output check repeat
exactly.  One untimed set-up child first fills the bytecode caches.

--trace 0 runs a seeded shuffle of two repetitions and fourteen
set-up-only children, then more repetitions while fewer than S seconds
have passed, and reports the end-to-end metrics as medians.  --trace 1
runs two traced repetitions, and more while time remains, and reports the
per-layer metrics; their times are medians over the repetitions and their
counts must repeat exactly.  The metric names and units are those of
BENCHMARK.json.  The seed only permutes the order of the children: the
workloads themselves are fixed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
the environment, every repetition and a readable summary.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from rep import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 2
SETUP_SAMPLES = 16
DEADLINE_S = 165          # a run must end within 180 s
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {trace: {m["name"]: m["unit"] for m in BENCH[key]}
         for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
TIMED_UNITS = ("s", "ns")   # per-layer values that vary from run to run; the rest repeat


def spawn(workload: str, mode: str, smoke: bool, timeout: float):
    """Run rep.py once; its JSON result, or None if it failed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is timed with warm caches
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--mode", mode] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"{workload} {mode}: timed out after {timeout:.0f} s")
        return None
    if proc.returncode != 0:
        print(f"{workload} {mode}: exit code {proc.returncode}\n"
              + "\n".join(proc.stderr.strip().splitlines()[-5:]))
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """All children of one benchmark run, in the order they ran."""
    if trace:
        plan, more = ["trace"] * MIN_REPS, itertools.repeat("trace")
    elif smoke:
        plan, more = ["run"], iter(())
    else:
        plan = ["run"] * MIN_REPS + ["setup"] * (SETUP_SAMPLES - MIN_REPS)
        more = itertools.repeat("run")
    random.Random(seed).shuffle(plan)
    start = perf_counter()
    children = [("warm-up", spawn(workload, "setup", smoke, DEADLINE_S))]
    longest = 0.0
    for i, mode in enumerate(itertools.chain(plan, more)):
        elapsed = perf_counter() - start
        if i >= len(plan) and (elapsed >= seconds or elapsed + longest > DEADLINE_S):
            break
        out = spawn(workload, mode, smoke, DEADLINE_S + 10 - elapsed)
        longest = max(longest, perf_counter() - start - elapsed)
        children.append((mode, out))
        if out is not None and mode != "setup":
            verdict = "; ".join(out["problems"]) or "ok"
            print(f"{workload} {mode}: solve_s {out['solve_s']:.4f} s, nT {out['nT']}, "
                  f"levels {out['levels']}, steps {out['steps']}, check {verdict}")
    return {"workload": workload, "trace": trace, "children": children}


def summarize(run: dict) -> dict:
    """The contract's result object for the children of one run."""
    children = run["children"]
    reps = [(mode, out) for mode, out in children if mode in ("run", "trace")]
    failed = sum(out is None or bool(out["problems"]) for _, out in reps)
    correct = failed == 0 and all(out is not None for _, out in children)
    done = [out for _, out in reps if out]
    metrics = {}
    if not run["trace"] and done:
        values = {
            "setup_s": [out["setup_s"] for mode, out in children[1:] if out],
            "solve_s": [out["solve_s"] for out in done],
            "us_per_cumcost": [1e6 * out["solve_s"] / out["cumcost"] for out in done],
            "peak_rss_mb": [out["peak_rss_mb"] for out in done],
        }
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                   for name, unit in UNITS[False].items()}
    if run["trace"] and done:
        if set(done[0]["layers"]) != set(UNITS[True]):
            print(f"traced layers {sorted(done[0]['layers'])} differ from "
                  f"BENCHMARK.json {sorted(UNITS[True])}")
            correct = False
        for name, unit in UNITS[True].items():
            values = [out["layers"][name] for out in done]
            if unit in TIMED_UNITS:
                value = statistics.median(values)
            else:
                value = values[0]
                if any(v != value for v in values):
                    print(f"{run['workload']}: {name} differs between traced "
                          f"repetitions: {values}")
                    correct = False
            metrics[name] = {"value": value, "unit": unit}
    return {"correct": correct, "attempted": len(reps), "failed": failed,
            "metrics": metrics}


def report(run: dict, result: dict) -> None:
    """Readable summary lines (everything but the final JSON line)."""
    env = next((out["env"] for _, out in run["children"] if out), None)
    print("env " + json.dumps(env))
    head = f"{run['workload']} ({'traced' if run['trace'] else 'untraced'})"
    for name, m in result["metrics"].items():
        print(f"{head} {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{head} failed_frac {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.3g}; output check "
          f"{'PASS' if result['correct'] else 'FAIL'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "afem" / "__init__.py").is_file():
        print(f"no afem sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = summarize(run)
    if not result["metrics"]:
        print("no repetition completed; no metrics to report", file=sys.stderr)
        return 1
    report(run, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
