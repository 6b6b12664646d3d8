"""End-to-end acceptance gate for the adaptive solver.

Every test prints one `criterion N: PASS/FAIL` line to the real stdout so
the verdicts survive pytest's capture, then asserts.  Budgets are sized
for a laptop-class machine; the whole module runs in about a minute.

Criteria 5 and 6 check the paper's two claims about solver steps in the
form the paper proves them, with no constant it does not promise.
Criterion 5 asks that per-level work stay bounded uniformly in the level:
the late levels may need at most three times the steps of the early ones.
It does not compare against a run's median, which is one step when a small
marking parameter yields hundreds of one-step levels.  Criterion 6 asks
for linear convergence of the quasi-error over all solver steps,
Delta_{s+50} <= C_lin q^50 Delta_s, with q fitted to the run.  A fixed
drop per window would be a claim about cost: the quasi-error falls as
cumcost^(-1/2), so a tenfold drop per 50 steps needs a hundredfold growth
of cumcost per window.
"""

import time

import numpy as np
import pytest

from afem.driver import AdaptiveConfig, run_adaptive
from afem.estimator import IndicatorField, doerfler_mark, indicators, total
from afem.experiments import robustness_grid, run_benchmark
from afem.fem import (DofMap, FeFunction, assemble_laplacian, assemble_rhs,
                      energy_functional, energy_norm, prolongate, sample)
from afem.mesh import (MeshHierarchy, closure_cost, create_initial, overlay,
                       refine, uniform_refine)
from afem.problems import get_problem
from oracles import (audit_stop_semantics, brute_force_doerfler_size,
                     geometric_fit_ratio, late_step_growth,
                     max_contraction_ratio, picard_map, random_mesh,
                     window_constant)


def _verdict(capsys, n: int, ok: bool, detail: str) -> str:
    # bypass capture so every criterion leaves one visible line per run;
    # the leading newline keeps it off pytest's progress line
    with capsys.disabled():
        print("\ncriterion %d: %s (%s)"
              % (n, "PASS" if ok else "FAIL", detail), flush=True)
    return detail


def _bench(config):
    return run_benchmark([config], verbose=False)[0]


@pytest.fixture(scope="module")
def z_uniform():
    return _bench(AdaptiveConfig(domain="zshape", theta=1.0,
                                 max_elements=100_000))


@pytest.fixture(scope="module")
def z_adaptive():
    return _bench(AdaptiveConfig(domain="zshape", theta=0.5,
                                 max_elements=100_000, track_error=True))


@pytest.fixture(scope="module")
def grid_results():
    return run_benchmark(robustness_grid(max_elements=40_000))


@pytest.fixture(scope="module")
def l_runs():
    adaptive = _bench(AdaptiveConfig(domain="lshape", theta=0.5,
                                     max_elements=100_000))
    uniform = _bench(AdaptiveConfig(domain="lshape", theta=1.0,
                                    max_elements=450_000))
    return adaptive, uniform


@pytest.fixture(scope="module")
def z_diagnostics():
    return _bench(AdaptiveConfig(domain="zshape", theta=0.5,
                                 max_elements=30_000, diagnostics=True))


def test_criterion_1_zshape_full_refinement_rate(z_uniform, capsys):
    r = z_uniform
    audit_stop_semantics(r.log)
    nT = r.log.final().nT
    ok = (nT >= 100_000 and r.seconds <= 600.0
          and abs(r.rate_vs_n - (-2.0 / 7.0)) <= 0.06)
    detail = _verdict(capsys, 1, ok, "zshape theta=1: rate_vs_n %.4f vs -2/7 "
                      "(tol 0.06), nT=%d, %.1fs" % (r.rate_vs_n, nT, r.seconds))
    assert ok, detail


def test_criterion_2_zshape_adaptive_rates(z_adaptive, capsys):
    r = z_adaptive
    audit_stop_semantics(r.log)
    nT = r.log.final().nT
    ok = (nT >= 100_000 and abs(r.rate_vs_n + 0.5) <= 0.06
          and abs(r.rate_vs_cost + 0.5) <= 0.08)
    detail = _verdict(capsys, 2, ok, "zshape adaptive: rate_vs_n %.4f (tol 0.06), "
                      "rate_vs_cost %.4f (tol 0.08), nT=%d"
                      % (r.rate_vs_n, r.rate_vs_cost, nT))
    assert ok, detail


def test_criterion_3_rate_robust_across_parameters(grid_results, capsys):
    for r in grid_results:
        audit_stop_semantics(r.log)
    worst = max(grid_results, key=lambda r: abs(r.rate_vs_n + 0.5))
    ok = all(abs(r.rate_vs_n + 0.5) <= 0.08 for r in grid_results)
    detail = _verdict(capsys, 3, ok, "%d parameter combinations, worst rate_vs_n "
                      "%.4f from %s (tol 0.08)"
                      % (len(grid_results), worst.rate_vs_n, worst.run_id))
    assert ok, detail


def test_picard_contraction_within_design_bound(grid_results):
    """The abstract's contraction claim: every observed Picard ratio of a
    theta = 0.5 member with lambda_pic >= lambda_alg stays at or below the
    design bound q_pic of the problem's nonlinearity (0.7454 for zshape); a
    level with no ratio passes.  Measured at max_elements = 40000, their
    largest ratios are 0.521, 0.489, 0.491 and 0.398, and lambda_pic = 1 has
    none.  The other members are outside the claim: with an algebraic stop
    looser than the Picard stop (lambda_pic < lambda_alg) the ratios reach
    1.10, 1.75 and 2.15, and theta = 0.9 reaches 0.7478 on one level."""
    runs = [r for r in grid_results
            if r.config.theta == 0.5 and r.config.lambda_pic >= r.config.lambda_alg]
    assert len(runs) == 5
    for r in runs:
        q_pic = get_problem(r.config.domain).nonlinearity.q_pic
        for row in r.log.level_table():
            assert row["pic_ratio"] is None or row["pic_ratio"] <= q_pic, (r.run_id, row)


def test_criterion_4_lshape_rates(l_runs, capsys):
    adaptive, uni = l_runs
    audit_stop_semantics(adaptive.log)
    audit_stop_semantics(uni.log)
    ok = (abs(uni.rate_vs_n + 1.0 / 3.0) <= 0.06
          and abs(adaptive.rate_vs_n + 0.5) <= 0.06
          and abs(adaptive.rate_vs_cost + 0.5) <= 0.06)
    detail = _verdict(capsys, 4, ok, "lshape full: rate_vs_n %.4f vs -1/3; adaptive: "
                      "rate_vs_n %.4f, rate_vs_cost %.4f (tol 0.06)"
                      % (uni.rate_vs_n, adaptive.rate_vs_n,
                         adaptive.rate_vs_cost))
    assert ok, detail


def test_criterion_5_solver_steps_balanced_across_levels(grid_results, capsys):
    # The paper bounds per-level work uniformly in the level, not relative
    # to a run's median: with hundreds of one-step levels the median is 1.
    def growth(r):
        steps = [row["n_steps"] for row in r.log.level_table()]
        return late_step_growth(steps) + (steps[0], r.run_id)

    ratio, early, late, level0, run_id = max(map(growth, grid_results))
    ok = ratio <= 3.0
    detail = _verdict(capsys, 5, ok, "worst late/early max of per-level solver "
                      "steps %.2f from %s (level 0: %d, levels >= 1 early max "
                      "%d, late max %d; limit 3)"
                      % (ratio, run_id, level0, early, late))
    assert ok, detail


# The uniform bound Delta_{s+50} <= C_lin q^50 Delta_s over every window
# from step 100 on, with q the least-squares step ratio.  Within a level
# the quasi-error does not fall exactly geometrically, so C_lin must exceed
# one; 1.5 lets Delta lag the fitted line by ln 1.5 / ln(1/q), about 23
# steps or five levels here.  The measured run gives 0.89; the same
# sequence with a 50-step plateau spliced in at step 150 gives 1.96.
C_LIN = 1.5


def test_criterion_6_quasi_error_decay(z_diagnostics, capsys):
    log = z_diagnostics.log
    audit_stop_semantics(log)
    deltas = [rec.delta for rec in log.records]
    q_lin = geometric_fit_ratio(deltas)
    c_obs, n_windows = window_constant(deltas, q_lin, start=100, width=50)
    ok = q_lin < 1.0 and c_obs is not None and c_obs <= C_LIN
    detail = _verdict(capsys, 6, ok, "geometric step ratio q=%.4f (<1); worst "
                      "50-step ratio / q^50 = %.3f over %d windows (C_lin %.1f)"
                      % (q_lin, c_obs if c_obs is not None else float("nan"),
                         n_windows, C_LIN))
    assert ok, detail


def test_criterion_7_oracle_suite(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    checks = []

    for name in ("zshape", "lshape"):
        problem = get_problem(name)
        nl = problem.nonlinearity
        mesh = random_mesh(problem.domain, rng, rounds=5)
        dofmap = DofMap.from_mesh(mesh)
        assert 0 < dofmap.n_dofs <= 5000
        a = assemble_laplacian(dofmap)
        load = assemble_rhs(dofmap, sample(mesh, problem.source, problem.neumann))

        # the damped linearization contracts at least at its design rate
        q = nl.q_pic
        worst = max_contraction_ratio(nl, dofmap, a, load, rng, n_pairs=8)
        checks.append(worst <= q + 1e-9)

        # flux monotonicity and Lipschitz continuity on random gradients
        p = rng.standard_normal((4000, 2)) * 10 ** rng.uniform(-2, 2, (4000, 1))
        w = rng.standard_normal((4000, 2)) * 10 ** rng.uniform(-2, 2, (4000, 1))
        ap = nl.mu((p * p).sum(1))[:, None] * p
        aw = nl.mu((w * w).sum(1))[:, None] * w
        d2 = ((p - w) ** 2).sum(1)
        mono = ((ap - aw) * (p - w)).sum(1)
        checks.append(bool((mono >= nl.alpha * d2 * (1 - 1e-9)).all()))
        checks.append(bool((((ap - aw) ** 2).sum(1)
                            <= nl.lipschitz ** 2 * d2 * (1 + 1e-9)).all()))

        # the discrete minimizer pins the energy from both sides
        step = picard_map(nl, dofmap, a, load)
        x = np.zeros(dofmap.n_dofs)
        for _ in range(200):
            x = step(x)
        e_min = energy_functional(nl, FeFunction(dofmap, x), load)
        for scale in (1e-3, 1e-1, 1.0):
            v = x + scale * rng.standard_normal(dofmap.n_dofs)
            gap = energy_functional(nl, FeFunction(dofmap, v), load) - e_min
            dist2 = energy_norm(FeFunction(dofmap, v - x)) ** 2
            checks.append(nl.alpha / 2 * dist2 <= gap * (1 + 1e-9) + 1e-12)
            checks.append(gap <= nl.lipschitz / 2 * dist2 * (1 + 1e-9) + 1e-12)

    # refining everywhere shrinks the estimator of a fixed function
    problem = get_problem("zshape")
    nl = problem.nonlinearity
    mesh = uniform_refine(create_initial("z_shape"))
    dofmap = DofMap.from_mesh(mesh)
    a = assemble_laplacian(dofmap)
    load = assemble_rhs(dofmap, sample(mesh, problem.source, problem.neumann))
    step = picard_map(nl, dofmap, a, load)
    x = np.zeros(dofmap.n_dofs)
    for _ in range(80):
        x = step(x)
    u = FeFunction(dofmap, x)
    field = indicators(nl, problem.source, problem.neumann, u)
    fine_dofmap = DofMap.from_mesh(uniform_refine(mesh))
    fine_field = indicators(nl, problem.source, problem.neumann,
                            prolongate(u, fine_dofmap))
    checks.append(total(fine_field) < 1.0 * total(field))

    # ... and perturbing the function moves it only proportionally
    v = FeFunction(dofmap, x + 0.1 * rng.standard_normal(dofmap.n_dofs))
    moved = indicators(nl, problem.source, problem.neumann, v)
    dist = energy_norm(FeFunction(dofmap, v.coeffs - x))
    checks.append(abs(total(moved) - total(field)) <= 50.0 * dist)

    # bulk marking returns a smallest admissible set (brute force)
    for small in (create_initial("z_shape"), create_initial("l_shape"),
                  refine(create_initial("l_shape"), [0, 1])):
        squared = rng.uniform(0.1, 9.0, small.n_triangles)
        for theta in (0.3, 0.5, 0.9):
            marked = doerfler_mark(IndicatorField(small, squared), theta)
            checks.append(len(marked)
                          == brute_force_doerfler_size(squared, theta))
            checks.append(squared[marked].sum()
                          >= theta ** 2 * squared.sum() - 1e-12)

    # refinement bookkeeping: bounded children, closure cost, overlay size
    root = create_initial("l_shape")
    ref = refine(root, np.arange(root.n_triangles))
    counts = np.bincount(ref.parent_of, minlength=root.n_triangles)
    checks.append(2 <= counts.min() and counts.max() <= 4)
    hier = MeshHierarchy(create_initial("z_shape"))
    markings = []
    for _ in range(6):
        n = hier.finest.n_triangles
        marked = rng.choice(n, size=max(1, n // 5), replace=False)
        markings.append(marked)
        hier.refine(marked)
    checks.append(1.0 <= closure_cost(hier, markings) < 10.0)
    a_mesh, b_mesh = root, root
    for _ in range(3):
        a_mesh = refine(a_mesh, rng.choice(a_mesh.n_triangles,
                                           size=a_mesh.n_triangles // 3 + 1,
                                           replace=False))
        b_mesh = refine(b_mesh, rng.choice(b_mesh.n_triangles,
                                           size=b_mesh.n_triangles // 3 + 1,
                                           replace=False))
    merged = overlay(a_mesh, b_mesh, root)
    checks.append(merged.n_triangles <= a_mesh.n_triangles
                  + b_mesh.n_triangles - root.n_triangles)

    # loop bookkeeping of full runs: stopping tests first hold where the
    # loops stopped, counters and costs add up
    for config in (AdaptiveConfig(domain="zshape", max_elements=1500),
                   AdaptiveConfig(domain="square_linear", max_elements=1500),
                   AdaptiveConfig(domain="lshape", theta=1.0,
                                  max_elements=400)):
        audit_stop_semantics(run_adaptive(config))
    checks.append(True)

    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 120.0
    detail = _verdict(capsys, 7, ok, "%d oracle checks, %d failed, %.1fs "
                      "(budget 120s)"
                      % (len(checks), sum(not c for c in checks), elapsed))
    assert ok, detail


def test_criterion_8_estimator_bounds_true_error(z_adaptive, capsys):
    rows = z_adaptive.log.level_table()
    ratios = [row["err"] / row["eta"] for row in rows]
    worst = max(ratios)
    ok = worst <= 1.0
    detail = _verdict(capsys, 8, ok, "max error/estimator over %d levels = %.4f "
                      "(limit 1)" % (len(rows), worst))
    assert ok, detail
