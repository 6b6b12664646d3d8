"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --mode setup|run|trace [--smoke]

Every mode first times set-up: importing afem, building the problem, the
initial mesh, its DofMap and the level-0 preconditioner.  `run` then times
one `run_adaptive` call to the workload's estimator tolerance and checks
its output; `trace` does the same with every layer wrapped by
`tracing.installed`.  The result is one JSON line on standard output.
`run.py` starts this script with the package's `src` on PYTHONPATH and
BLAS threads pinned to 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def check_output(log, config, reference) -> list:
    """Reasons the run's output is wrong; empty when it passes."""
    from afem.experiments import RATE_TOLERANCE, expected_rate, rates_from_log

    problems = []
    if log.exit_reason != "eta_tol":
        problems.append(f"exit_reason {log.exit_reason!r}, expected 'eta_tol'")
    bad = [r.step for r in log.records
           if not all(math.isfinite(v) for v in (r.eta, r.alg_inc, r.pic_inc))]
    if bad:
        problems.append(f"non-finite values at steps {bad[:5]}")
    final = log.final()
    if not final.eta <= config.eta_tol:
        problems.append(f"final eta {final.eta!r} above eta_tol {config.eta_tol}")
    want = expected_rate(config)
    for what, rate in zip(("rate_vs_n", "rate_vs_cost"), rates_from_log(log)):
        if not abs(rate - want) <= RATE_TOLERANCE:
            problems.append(f"{what} {rate:.4f} not within {RATE_TOLERANCE} of {want}")
    landed = {"nT": final.nT, "levels": len(log.level_table())}
    for key, ref in reference.items():
        if not abs(landed[key] / ref - 1.0) <= workloads.BAND:
            problems.append(f"{key} {landed[key]} outside {workloads.BAND:.0%} of {ref}")
    return problems


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    spec = workloads.spec(args.workload, smoke=args.smoke)

    start = perf_counter()
    import afem
    from afem import algsolver, fem, mesh
    from afem.problems import get_problem
    problem = get_problem(spec["config"]["domain"])
    initial = mesh.create_initial(problem.domain)
    dofmap = fem.DofMap.from_mesh(initial)
    algsolver.build_preconditioner([initial], [dofmap])
    out = {"setup_s": perf_counter() - start}

    if not Path(afem.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"afem imported from {afem.__file__}, not from {SRC}")
    out["env"] = environment()
    if args.mode != "setup":
        import tracing
        from afem.driver import AdaptiveConfig, run_adaptive

        config = AdaptiveConfig(**spec["config"])
        tracer = tracing.Tracer() if args.mode == "trace" else None
        run = run_adaptive if tracer is None else tracer.wrap(tracing.RUN, run_adaptive)
        with nullcontext() if tracer is None else tracing.installed(tracer):
            start = perf_counter()
            log = run(config)
            solve_s = perf_counter() - start
        final = log.final()
        out.update(solve_s=solve_s, cumcost=final.cumcost, nT=final.nT,
                   levels=len(log.level_table()), steps=len(log.records),
                   eta=final.eta,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   problems=check_output(log, config, spec["reference"]))
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(tracer, log)
            out["problems"] += tracing.cross_check(tracer, log)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
