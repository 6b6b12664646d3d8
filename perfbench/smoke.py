"""The benchmark's own test: every workload at a tiny tolerance, in seconds.

    python3 perfbench/smoke.py

Each workload runs untraced and traced through the same children, output
check, trace cross-checks and result writer as `run.py`, at the smoke
tolerance from workloads.py.  The output check must also reject logs that
are wrong in each way it looks for, and the trace cross-check traces whose
call counts are off.  Exits 0 when everything passes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys

import run
import tracing
import workloads


def check_rejects_bad_runs() -> list:
    """Failures of the output check and the trace cross-check to flag
    deliberately wrong logs and traces."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from afem.driver import AdaptiveConfig, run_adaptive
    from rep import check_output

    spec = workloads.spec("zshape-bulk", smoke=True)
    config = AdaptiveConfig(**spec["config"])
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        log = tracer.wrap(tracing.RUN, run_adaptive)(config)
    missed = []
    if check_output(log, config, spec["reference"]):
        missed.append("a correct log was rejected")
    problems = tracing.cross_check(tracer, log)
    if problems:
        missed.append(f"a correct trace was rejected: {problems}")
    levels = len(log.level_table())
    for span, calls in (("fem.apply_nonlinear", tracer.calls["fem.apply_nonlinear"] + 1),
                        ("algsolver.precond_apply", 0),
                        ("problems.source", 2 * levels + 1),
                        ("mesh.refine", levels)):
        bad = copy.deepcopy(tracer)
        bad.calls[span] = calls
        if not any(p.startswith(span + " calls") for p in tracing.cross_check(bad, log)):
            missed.append(f"no complaint about {calls} {span} calls")
    last, nT = log.records[-1], log.records[-1].nT

    def with_records(records):
        return dataclasses.replace(log, records=records)

    wrong = {  # expected complaint -> (log, reference)
        "exit_reason": (dataclasses.replace(log, exit_reason="budget"), spec["reference"]),
        "non-finite": (with_records(log.records[:-1] + [dataclasses.replace(last, eta=math.nan)]),
                       spec["reference"]),
        "above eta_tol": (with_records(log.records[:-1] + [dataclasses.replace(last, eta=1.0)]),
                          spec["reference"]),
        "rate_vs_n": (with_records([dataclasses.replace(r, eta=r.eta * (r.nT / nT) ** 0.3)
                                    for r in log.records]), spec["reference"]),
        "nT ": (log, dict(spec["reference"], nT=2 * nT)),
    }
    for complaint, (bad_log, reference) in wrong.items():
        problems = check_output(bad_log, config, reference)
        if not any(complaint in p for p in problems):
            missed.append(f"no {complaint!r} complaint, got {problems}")
    return missed


def main() -> int:
    failures = check_rejects_bad_runs()
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            measured = run.measure(name, seed=0, seconds=0, trace=trace, smoke=True)
            result = run.summarize(measured)
            run.report(measured, result)
            print(json.dumps(result))
            if not result["correct"]:
                failures.append(f"{name} trace={int(trace)}: not correct")
    for failure in failures:
        print("SMOKE FAIL " + failure)
    print("smoke: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
