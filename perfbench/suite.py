"""All workloads in interleaved rounds: medians, spreads and the cost split.

    python3 perfbench/suite.py [--seed 0] [--out FILE]

Round i runs `run.py --trace 0 --seconds <run_seconds of BENCHMARK.json>`
once per workload, in an order permuted by seed + i, so slow phases of a
shared machine hit every workload alike.  Ten such rounds are followed by
two traced rounds.  For each workload and end-to-end metric the report
gives the median, the quartile spread (q3 - q1) / median against the
metric's bound in BENCHMARK.json, and how far the median of the odd rounds
lies from that of the even rounds (two interleaved sets of the same code).
`failed_frac` is failed over attempted repetitions.  The traced rounds
give each layer's time as a share of the traced solve time; their counts
must agree between rounds.  The tracing overhead is the median traced
solve time over the median untraced one.  `cost_flatness`, the max/min
ratio of the us_per_cumcost medians across workloads, is printed, not
gated.  `--out` also writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys

import run
import workloads

BENCH = run.BENCH
RUNS = 10
TRACED_RUNS = 2


def invoke(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}\n"
              + proc.stdout[-2000:] + proc.stderr[-2000:])
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    return result


def spread(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return median, (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which `second` is worse than `first` (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def summarize(names: list, untraced: dict, traced: dict) -> dict:
    summary = {}
    for name in names:
        every = untraced[name] + traced[name]
        attempted = sum(r["attempted"] for r in every)
        failed = sum(r["failed"] for r in every)
        entry = {"correct": all(r["correct"] for r in every),
                 "failed_frac": failed / max(attempted, 1), "metrics": {}}
        for metric in BENCH["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in untraced[name] if r["metrics"]]
            if not values:
                continue
            median, rel = spread(values)
            m = {"median": median, "spread": rel, "bound": metric["bound"],
                 "unit": metric["unit"], "n": len(values)}
            if len(values) >= 4:
                m["odd_vs_even"] = worse_by(statistics.median(values[0::2]),
                                            statistics.median(values[1::2]),
                                            metric["better"])
            entry["metrics"][metric["name"]] = m
        layers = [r["metrics"] for r in traced[name] if r["metrics"]]
        if layers:
            entry["layers"] = {}
            for key in layers[0]:
                values = [lay[key]["value"] for lay in layers]
                unit = layers[0][key]["unit"]
                repeats = unit in run.TIMED_UNITS or len(set(values)) == 1
                entry["layers"][key] = {"median": statistics.median(values),
                                        "unit": unit, "repeats": repeats}
                entry["correct"] &= repeats
            if "solve_s" in entry["metrics"]:
                entry["trace_overhead"] = (entry["layers"]["driver.run_s"]["median"]
                                           / entry["metrics"]["solve_s"]["median"])
        summary[name] = entry
    costs = {n: e["metrics"]["us_per_cumcost"]["median"] for n, e in summary.items()
             if "us_per_cumcost" in e["metrics"]}
    flat = max(costs.values()) / min(costs.values()) if costs else None
    return {"workloads": summary, "cost_flatness": flat}


def report(summary: dict) -> None:
    for name, entry in summary["workloads"].items():
        print(f"\n{name}: output check {'PASS' if entry['correct'] else 'FAIL'}, "
              f"failed_frac {entry['failed_frac']:.3g}")
        for metric, m in entry["metrics"].items():
            odd = f"{m['odd_vs_even']:+.3f}" if "odd_vs_even" in m else "n/a"
            print(f"  {metric:16s} {m['median']:10.4f} {m['unit']:3s} n={m['n']:<3d} "
                  f"spread {m['spread']:.3f} (bound {m['bound']}, third "
                  f"{m['bound'] / 3:.3f})  odd vs even {odd}")
        layers = entry.get("layers")
        if layers:
            total = layers["driver.run_s"]["median"]
            for key, lay in layers.items():
                share = f"{100 * lay['median'] / total:5.1f}%" if lay["unit"] == "s" else ""
                flag = "" if lay["repeats"] else "  DIFFERS"
                print(f"  {key:34s} {lay['median']:14.6g} {lay['unit']:5s} {share}{flag}")
        if "trace_overhead" in entry:
            print(f"  trace overhead (traced / untraced median solve time) "
                  f"{entry['trace_overhead']:.4f}")
    if summary["cost_flatness"] is not None:
        print(f"\ncost_flatness (max/min us_per_cumcost median): "
              f"{summary['cost_flatness']:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS)
    untraced = {name: [] for name in names}
    traced = {name: [] for name in names}
    env = None
    for i in range(RUNS + TRACED_RUNS):
        trace = int(i >= RUNS)
        seed = args.seed + i
        for name in random.Random(seed).sample(names, len(names)):
            result = invoke(name, seed, trace)
            found = result.pop("env", None)
            env = env or found
            (traced if trace else untraced)[name].append(result)
            print(f"round {i} {name} trace={trace}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if not trace), flush=True)
    summary = summarize(names, untraced, traced)
    print("\nenv " + json.dumps(env))
    report(summary)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"env": env, "seconds": BENCH["run_seconds"], "summary": summary,
                       "untraced": untraced, "traced": traced}, fh, indent=1)
    return 0 if all(e["correct"] for e in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
