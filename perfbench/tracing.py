"""Per-layer spans around the public callables the adaptive driver uses.

The benchmark times each layer from outside: `installed(tracer)` replaces
the names `afem.driver` looks up (and the preconditioner and estimator
methods it calls) with wrappers that record a span per call, and restores
them on exit.  Spans nest (a preconditioner apply runs inside a PCG step,
a source evaluation inside load assembly), so each span name gets an
inclusive time and a self time, which excludes its child spans.  Only
totals are kept; nothing inside the package changes.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

RUN = "driver.run"


class Tracer:
    """Aggregated span times and work counters of one traced run."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []          # [name, seconds covered by child spans]

    def wrap(self, name, func, on_return=None):
        """`func` recording a span `name`; `on_return(counts, args, result)`
        adds work counters after each call."""
        def traced(*args, **kwargs):
            self._stack.append([name, 0.0])
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                _, children = self._stack.pop()
                self.inclusive[name] += seconds
                self.self_time[name] += seconds - children
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += seconds
            if on_return is not None:
                on_return(self.counts, args, result)
            return result
        return traced


def _count_points(counts, args, result):
    counts["source_points"] += math.prod(args[0].shape[:-1])


def _count_refine(counts, args, result):
    mesh, marked = args
    counts["refine_marked"] += len(marked)
    counts["refine_new"] += result.n_triangles - mesh.n_triangles


def _count_mark(counts, args, result):
    counts["marked"] += len(result)
    counts["mark_candidates"] += args[0].mesh.n_triangles


def _count_apply(counts, args, result):
    counts["apply_dofs"] += args[1].size


def _count_extend(counts, args, result):
    counts["precond_levels"] = result.n_levels


@contextmanager
def installed(tracer: Tracer):
    """Route the driver's calls through `tracer` for the `with` block."""
    from afem import algsolver, driver, estimator, fem

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def get_problem(name):
        problem = plain_get_problem(name)
        neumann = problem.neumann and tracer.wrap("problems.neumann", problem.neumann)
        return dataclasses.replace(
            problem, neumann=neumann,
            source=tracer.wrap("problems.source", problem.source, _count_points))

    plain_get_problem = driver.get_problem
    wrap = tracer.wrap
    pre = algsolver.MultilevelPreconditioner
    try:
        patch(driver, "get_problem", get_problem)
        patch(driver, "refine", wrap("mesh.refine", driver.refine, _count_refine))
        patch(fem.DofMap, "from_mesh", staticmethod(wrap("fem.dofmap", fem.DofMap.from_mesh)))
        for attr in ("assemble_laplacian", "assemble_rhs", "apply_nonlinear", "prolongate"):
            patch(driver, attr, wrap("fem." + attr, getattr(driver, attr)))
        patch(driver, "EstimatorData", wrap("estimator.setup", driver.EstimatorData))
        patch(estimator.EstimatorData, "eval_squared",
              wrap("estimator.eval", estimator.EstimatorData.eval_squared))
        patch(driver, "doerfler_mark", wrap("estimator.mark", driver.doerfler_mark, _count_mark))
        patch(algsolver, "init_solver_state",
              wrap("algsolver.init_state", algsolver.init_solver_state))
        patch(algsolver, "pcg_step", wrap("algsolver.pcg", algsolver.pcg_step))
        patch(pre, "apply", wrap("algsolver.precond_apply", pre.apply, _count_apply))
        patch(pre, "extended", wrap("algsolver.precond_extend", pre.extended, _count_extend))
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def layer_metrics(tracer: Tracer, log) -> dict:
    """Per-layer metrics of a traced run, named `<module>.<what>`."""
    t, calls, counts = tracer.inclusive, tracer.calls, tracer.counts
    table = log.level_table()
    return {
        "mesh.refine_s": t["mesh.refine"],
        "mesh.refine_calls": calls["mesh.refine"],
        "mesh.closure_ratio": counts["refine_new"] / max(counts["refine_marked"], 1),
        "fem.dofmap_s": t["fem.dofmap"],
        "fem.assemble_laplacian_s": t["fem.assemble_laplacian"],
        "fem.assemble_rhs_s": t["fem.assemble_rhs"],
        "fem.apply_nonlinear_s": t["fem.apply_nonlinear"],
        "fem.apply_nonlinear_calls": calls["fem.apply_nonlinear"],
        "fem.prolongate_s": t["fem.prolongate"],
        "problems.source_s": t["problems.source"],
        "problems.source_calls": calls["problems.source"],
        "problems.source_points": counts["source_points"],
        "problems.neumann_s": t["problems.neumann"],
        "estimator.setup_s": t["estimator.setup"],
        "estimator.eval_s": t["estimator.eval"],
        "estimator.eval_calls": calls["estimator.eval"],
        "estimator.mark_s": t["estimator.mark"],
        "estimator.marked_frac": counts["marked"] / max(counts["mark_candidates"], 1),
        "algsolver.precond_apply_s": t["algsolver.precond_apply"],
        "algsolver.precond_apply_calls": calls["algsolver.precond_apply"],
        "algsolver.apply_ns_per_dof":
            1e9 * t["algsolver.precond_apply"] / max(counts["apply_dofs"], 1),
        "algsolver.precond_extend_s": t["algsolver.precond_extend"],
        "algsolver.precond_levels": counts["precond_levels"],
        "algsolver.pcg_self_s": tracer.self_time["algsolver.pcg"],
        "algsolver.pcg_steps": calls["algsolver.pcg"],
        "algsolver.init_state_s": t["algsolver.init_state"],
        "driver.run_s": t[RUN],
        "driver.self_s": tracer.self_time[RUN],
        "driver.levels": len(table),
        "driver.picard_iters": sum(row["n_picard"] for row in table),
        "driver.steps": len(log.records),
        "driver.cumcost": log.final().cumcost,
        "driver.max_steps_per_level": max(row["n_steps"] for row in table),
    }


def cross_check(tracer: Tracer, log) -> list:
    """Call counts of the trace against the run log; returns the violations.

    Every solver step is one PCG step and one estimator evaluation; every
    linearization starts one PCG solve and evaluates the nonlinearity once;
    every level after the first is one refinement and one preconditioner
    extension.  A PCG step applies the preconditioner unless its state has
    already converged, which ends the linearization, so at most one step per
    linearization skips it.  The load and the estimator need the source on
    every level, at most once each.
    """
    table = log.level_table()
    levels, steps = len(table), len(log.records)
    picard = sum(row["n_picard"] for row in table)
    calls = tracer.calls
    expect = [  # (what, got, least, most)
        ("algsolver.pcg calls", calls["algsolver.pcg"], steps, steps),
        ("estimator.eval calls", calls["estimator.eval"], steps, steps),
        ("algsolver.init_state calls", calls["algsolver.init_state"], picard, picard),
        ("fem.apply_nonlinear calls", calls["fem.apply_nonlinear"], picard, picard),
        ("mesh.refine calls", calls["mesh.refine"], levels - 1, levels - 1),
        ("algsolver.precond_extend calls", calls["algsolver.precond_extend"],
         levels - 1, levels - 1),
        ("algsolver.precond_apply calls", calls["algsolver.precond_apply"],
         steps - picard, steps),
        ("problems.source calls", calls["problems.source"], levels, 2 * levels),
        ("driver.run calls", calls[RUN], 1, 1),
    ]
    return [f"{what} = {got}, expected " + (f"{least}" if least == most else
                                             f"{least} to {most}")
            for what, got, least, most in expect if not least <= got <= most]
