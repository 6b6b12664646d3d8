"""Tests for the nested adaptive loop, its stopping rules, and the run log."""

import dataclasses
import gc
import io
import json
import os
import re
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afem import algsolver, driver, fem
from afem.algsolver import solve_exact
from afem.driver import (AdaptiveConfig, RunLog, StepRecord, algebraic_stop,
                         field_types, picard_stop, quasi_error, run_adaptive)
from afem.fem import (DofMap, FeFunction, apply_nonlinear, assemble_laplacian,
                      assemble_rhs, element_flux, sample)
from afem.mesh import NEUMANN, create_initial, uniform_refine
from afem.problems import get_problem
from golden import GOLDEN, GOLDEN_CONFIGS
from oracles import (audit_stop_semantics, from_scratch_run, geometric_fit_ratio,
                     late_step_growth, max_contraction_ratio, picard_map, same_bits,
                     window_constant)

BASE_COLUMNS = ["l", "k", "j", "step", "nT", "eta", "alg_inc", "pic_inc",
                "cumcost", "alg_stop", "pic_stop"]


def small_problem(name, refines=2):
    problem = get_problem(name)
    mesh = create_initial(problem.domain)
    for _ in range(refines):
        mesh = uniform_refine(mesh)
    dofmap = DofMap.from_mesh(mesh)
    operator = assemble_laplacian(dofmap)
    load = assemble_rhs(dofmap, sample(mesh, problem.source, problem.neumann))
    return problem, dofmap, operator, load


@pytest.fixture(scope="module")
def zshape_run():
    config = AdaptiveConfig(domain="zshape", max_elements=400, track_error=True)
    return config, run_adaptive(config)


def test_stopping_tests_accept_equality():
    assert algebraic_stop(1.0, 1.0, 1.0, 0.5)
    assert not algebraic_stop(1.0 + 1e-9, 1.0, 1.0, 0.5)
    assert picard_stop(0.02, 2.0, 0.01)
    assert not picard_stop(0.02 * (1 + 1e-9), 2.0, 0.01)


def picard_residual(problem, dofmap, load, x):
    """The right-hand side delta (load - N(x)) of the driver's update system."""
    damping = problem.nonlinearity.damping
    flux = element_flux(problem.nonlinearity, dofmap.mesh, FeFunction(dofmap, x).vertex_values())
    return damping * (load - apply_nonlinear(dofmap, flux))


def test_picard_residual_is_load_residual_for_linear_problem():
    # constant unit diffusion: the damped update solves A e = load - A x
    problem, dofmap, operator, load = small_problem("square_linear")
    assert problem.nonlinearity.damping == pytest.approx(1.0)
    x = np.random.default_rng(3).standard_normal(dofmap.n_dofs)
    rhs = picard_residual(problem, dofmap, load, x)
    assert np.allclose(rhs, load - operator @ x, rtol=0, atol=1e-12)


def test_discrete_solution_is_fixed_point():
    problem, dofmap, operator, load = small_problem("zshape")
    step = picard_map(problem.nonlinearity, dofmap, operator, load)
    x = np.zeros(dofmap.n_dofs)
    for _ in range(120):
        x = step(x)
    d = step(x) - x
    assert np.sqrt(d @ (operator @ d)) <= 1e-10
    e = solve_exact(operator, picard_residual(problem, dofmap, load, x))
    assert np.sqrt(e @ (operator @ e)) <= 1e-10


def test_exact_picard_steps_contract():
    rng = np.random.default_rng(7)
    for name in ("zshape", "lshape"):
        problem, dofmap, operator, load = small_problem(name)
        q = problem.nonlinearity.q_pic
        worst = max_contraction_ratio(problem.nonlinearity, dofmap, operator,
                                      load, rng, n_pairs=6)
        assert worst <= q + 1e-9


def test_late_step_growth_flags_growing_work():
    # a cold level 0 and early levels above hundreds of one-step levels is
    # bounded work; a late level needing 4x the early maximum is not
    assert late_step_growth([9, 6, 6, 6] + [1] * 600) == (1 / 6, 6, 1)
    assert late_step_growth([9, 3, 3, 3, 3, 12, 3, 3, 3]) == (4.0, 3, 12)
    with pytest.raises(ValueError):
        late_step_growth([9, 1])


def test_window_constant_flags_plateau():
    # acceptance criterion 6 bounds this constant by C_lin = 1.5
    deltas = 0.98 ** np.arange(215)
    c, n_windows = window_constant(deltas, geometric_fit_ratio(deltas))
    assert n_windows == 65 and c == pytest.approx(1.0)
    stalled = np.concatenate([deltas[:150], np.full(50, deltas[149]),
                              deltas[150:]])
    c, n_windows = window_constant(stalled, geometric_fit_ratio(stalled))
    assert n_windows == 115 and c > 2.0
    assert window_constant(deltas[:150], 0.98) == (None, 0)


def test_adaptive_run_spends_budget(zshape_run):
    config, log = zshape_run
    assert log.exit_reason == "budget"
    assert log.config is config
    assert log.final().nT >= config.max_elements
    assert log.final().eta < log.records[0].eta


def test_adaptive_run_stop_semantics(zshape_run):
    _, log = zshape_run
    audit_stop_semantics(log)


def test_level_table_contraction_columns():
    """alg_ratio: largest alg_inc ratio inside one linearization; pic_ratio:
    largest ratio of successive accepted pic_inc; None without a pair."""
    def rec(l, k, j, alg_inc, pic_inc, alg_stop):
        return StepRecord(l=l, k=k, j=j, step=0, nT=8, eta=1.0, alg_inc=alg_inc,
                          pic_inc=pic_inc, cumcost=0, alg_stop=alg_stop, pic_stop=0)
    log = RunLog(records=[
        rec(0, 1, 1, 1.0, 1.0, 0), rec(0, 1, 2, 0.5, 1.5, 0), rec(0, 1, 3, 0.125, 2.0, 1),
        rec(0, 2, 1, 0.25, 0.25, 0), rec(0, 2, 2, 0.1875, 0.5, 1),
        rec(0, 3, 1, 0.0, 0.0, 0), rec(0, 3, 2, 0.0625, 0.125, 1),
        rec(1, 1, 1, 0.5, 0.5, 1)])
    first, second = log.level_table()
    # 0.5 / 1, 0.125 / 0.5 and 0.1875 / 0.25; the zero increment starts no pair
    assert first["alg_ratio"] == 0.75
    # accepted pic_inc 2.0, 0.5, 0.125
    assert first["pic_ratio"] == 0.25
    assert second["alg_ratio"] is None and second["pic_ratio"] is None


def test_level_table_consistency(zshape_run):
    _, log = zshape_run
    rows = log.level_table()
    assert [row["l"] for row in rows] == list(range(len(rows)))
    assert sum(row["n_steps"] for row in rows) == len(log.records)
    nT = [row["nT"] for row in rows]
    assert nT == sorted(nT)
    assert rows[-1]["cumcost"] == sum(rec.nT for rec in log.records)
    for row in rows:
        assert row["n_picard"] >= 1 and row["max_pcg"] >= 1
        assert row["err"] is not None and row["err"] > 0
    # every marked triangle is bisected at least once, so closure adds at
    # least one triangle per mark; nothing is refined after the last level
    assert [row["n_marked"] for row in rows[:-1]] == log.n_marked
    for row, after in zip(rows, rows[1:]):
        assert row["closure_ratio"] == (after["nT"] - row["nT"]) / row["n_marked"]
        assert row["closure_ratio"] >= 1.0
    assert rows[-1]["n_marked"] is None and rows[-1]["closure_ratio"] is None
    assert all(row["n_marked"] is None for row in RunLog(records=log.records).level_table())
    # the error tracks the estimator downward
    assert rows[-1]["err"] < rows[0]["err"]


def test_run_log_csv_round_trip(zshape_run, tmp_path):
    _, log = zshape_run
    assert log.columns() == BASE_COLUMNS + ["err"]
    text = log.to_csv()
    again = RunLog.from_csv(io.StringIO(text))
    assert again.to_csv() == text
    first, copy = log.records[0], again.records[0]
    assert (copy.l, copy.k, copy.j, copy.step) == (first.l, first.k, first.j,
                                                   first.step)
    assert copy.eta == pytest.approx(first.eta, rel=1e-10)
    assert copy.err == pytest.approx(first.err, rel=1e-10)
    path = tmp_path / "run.csv"
    assert log.to_csv(path) is None
    assert RunLog.from_csv(path).to_csv() == text


_CELLS = {int: st.integers(0, 2 ** 40), float: st.floats(allow_nan=False, allow_infinity=False)}
STEP_RECORDS = st.builds(StepRecord, **{
    name: _CELLS[kind] if name in BASE_COLUMNS else st.none() | _CELLS[kind]
    for name, kind in field_types(StepRecord).items()})


@settings(max_examples=60, deadline=None)
@given(records=st.lists(STEP_RECORDS, max_size=5))
def test_run_log_csv_round_trip_random_records(records):
    """Integers come back exactly, floats as their 12 written digits and
    unset optional cells as None."""
    log = RunLog(records=records)
    text = log.to_csv()
    again = RunLog.from_csv(io.StringIO(text))
    assert again.records == [StepRecord(**{name: float("%.12g" % v) if isinstance(v, float)
                                           else v for name, v in vars(r).items()})
                             for r in records]
    assert again.to_csv() == text


def test_run_log_rejects_garbage():
    with pytest.raises(ValueError):
        RunLog().final()
    with pytest.raises(ValueError):
        RunLog.from_csv(io.StringIO(""))
    with pytest.raises(ValueError):
        RunLog.from_csv(io.StringIO("l,k,banana\n1,1,1\n"))
    # a row one cell short or one cell long
    header, row = ",".join(BASE_COLUMNS), ",".join(["1"] * len(BASE_COLUMNS))
    assert len(RunLog.from_csv(io.StringIO(f"{header}\n{row}\n")).records) == 1
    for bad in (row[:-2], row + ",1"):
        with pytest.raises(ValueError, match="line 3"):
            RunLog.from_csv(io.StringIO(f"{header}\n{row}\n{bad}\n"))
    # a cell that does not parse, named by its line and column
    bad = row.split(",")
    bad[BASE_COLUMNS.index("nT")] = "8x"
    with pytest.raises(ValueError, match=re.escape("CSV line 3, column 'nT': invalid literal "
                                                   "for int() with base 10: '8x'")):
        RunLog.from_csv(io.StringIO(f"{header}\n{row}\n{','.join(bad)}\n"))
    # a column named twice, whose last cell would win
    with pytest.raises(ValueError, match="column 'eta' twice"):
        RunLog.from_csv(io.StringIO(f"{header},eta\n{row},0.25\n"))


def test_diagnostics_columns():
    config = AdaptiveConfig(domain="zshape", max_elements=120, diagnostics=True)
    log = run_adaptive(config)
    assert log.columns() == BASE_COLUMNS + ["err", "delta", "alg_err"]
    for rec in log.records:
        assert rec.alg_err >= 0.0
        assert rec.delta == quasi_error(rec)
        assert rec.delta >= rec.eta
    audit_stop_semantics(log)


def test_linear_problem_needs_at_most_two_linearizations():
    config = AdaptiveConfig(domain="square_linear", max_elements=2000)
    log = run_adaptive(config)
    assert log.exit_reason == "budget"
    assert max(row["n_picard"] for row in log.level_table()) <= 2
    audit_stop_semantics(log)


def test_uniform_refinement_doubles():
    # full marking bisects every element once; the initial edge assignment
    # is compatible, so closure adds nothing and counts double exactly
    config = AdaptiveConfig(domain="lshape", theta=1.0, max_elements=100)
    log = run_adaptive(config)
    assert [row["nT"] for row in log.level_table()] == [6, 12, 24, 48, 96, 192]
    assert log.exit_reason == "budget"
    audit_stop_semantics(log)


def test_estimator_tolerance_exit():
    config = AdaptiveConfig(domain="zshape", eta_tol=1e9)
    log = run_adaptive(config)
    assert log.exit_reason == "eta_tol"
    assert all(rec.l == 0 for rec in log.records)
    audit_stop_semantics(log)


@pytest.mark.parametrize("domain", ["zshape", "lshape", "square_linear"])
def test_full_marking_is_theta_one(domain, monkeypatch):
    # theta = 1 is full refinement: marking every triangle outright leaves
    # the step log byte-identical
    config = AdaptiveConfig(domain=domain, theta=1.0, max_elements=5000)
    plain = run_adaptive(config).to_csv()
    monkeypatch.setattr(driver, "doerfler_mark",
                        lambda field, theta: np.arange(field.mesh.n_triangles))
    assert run_adaptive(config).to_csv() == plain


def test_iteration_guards_raise(monkeypatch):
    # thresholds this small never accept an increment within the guard
    monkeypatch.setattr(driver, "MAX_PICARD_PER_LEVEL", 5)
    with pytest.raises(RuntimeError, match="within 5 iterations"):
        run_adaptive(AdaptiveConfig(domain="zshape", lambda_pic=1e-300))
    monkeypatch.setattr(driver, "MAX_PCG_PER_LINEARIZATION", 1)
    with pytest.raises(RuntimeError, match="within 1 steps"):
        run_adaptive(AdaptiveConfig(domain="zshape", lambda_alg=1e-300))


def test_bad_configuration_raises():
    with pytest.raises(ValueError):
        run_adaptive(AdaptiveConfig(domain="torus"))


@pytest.mark.parametrize("name, value", [
    ("domain", "torus"), ("theta", 0.0), ("theta", -0.5), ("theta", 1.5),
    ("theta", float("nan")), ("lambda_alg", 0.0), ("lambda_alg", -1e-2),
    ("lambda_alg", float("inf")), ("lambda_pic", 0.0), ("lambda_pic", float("nan")),
    ("lambda_pic", float("inf")), ("eta_tol", -1e-3), ("max_elements", 0),
    ("max_elements", 2.5), ("max_elements", 1e5), ("max_elements", True), ("domain", 5),
    ("track_error", 1), ("diagnostics", "off"), ("theta", True), ("theta", "0.5"),
    ("lambda_alg", "1e-2"), ("lambda_pic", False), ("eta_tol", None)])
def test_configuration_rejected_at_construction(name, value):
    with pytest.raises(ValueError):
        AdaptiveConfig(**{name: value})


def test_configuration_fields():
    assert [f.name for f in dataclasses.fields(AdaptiveConfig)] == [
        "domain", "theta", "lambda_alg", "lambda_pic", "max_elements", "eta_tol",
        "track_error", "diagnostics"]


def test_data_sampled_once_per_level(monkeypatch):
    # f sees all volume nodes of the first mesh, then only those of the
    # triangles refinement made: the ones holding a new vertex; g likewise
    # sees the nodes of all Neumann edges, then those of the halves of split
    # ones, and is not called on a level that split no Neumann edge
    calls = Counter()
    points = {"f": [], "g": []}
    meshes = [create_initial("z_shape")]
    plain_get_problem, plain_refine = driver.get_problem, driver.refine

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            points[name].append(args[0].shape[:-1])
            return func(*args)
        return wrapper

    def get_problem(name):
        problem = plain_get_problem(name)
        return dataclasses.replace(problem, source=counted("f", problem.source),
                                   neumann=counted("g", problem.neumann))

    def refine(mesh, marked):
        meshes.append(plain_refine(mesh, marked))
        return meshes[-1]

    monkeypatch.setattr(driver, "get_problem", get_problem)
    monkeypatch.setattr(driver, "refine", refine)
    log = run_adaptive(AdaptiveConfig(domain="zshape", max_elements=500,
                                      track_error=True))
    levels = len(log.level_table())
    assert levels > 5
    made = [meshes[0].n_triangles] + [
        int((m.triangles >= m.n_coarse_vertices).any(axis=1).sum()) for m in meshes[1:]]
    assert points["f"] == [(n, 7) for n in made]
    assert sum(made) < sum(m.n_triangles for m in meshes) / 2
    neumann = [m.boundary_edges[m.boundary_markers == NEUMANN] for m in meshes]
    split = [len(neumann[0])] + [int((e >= m.n_coarse_vertices).any(axis=1).sum())
                                 for e, m in zip(neumann[1:], meshes[1:])]
    assert 0 in split
    assert calls == {"f": levels, "g": levels - split.count(0)}
    assert points["g"] == [(n, 3) for n in split if n]
    assert sum(split) < sum(map(len, neumann)) / 2


@pytest.mark.parametrize("domain", ["zshape", "lshape"])
def test_one_gradient_pass_per_step_and_per_level(monkeypatch, domain):
    """A plain run takes the element gradients once per solver step (the
    flux of x + e, which the estimator reads) and once per level (the flux
    of the level's first iterate), no more: every later linearization's
    residual reads the flux of the step it accepted, and the marking step
    scatters the edge terms of the last evaluation."""
    passes = []
    plain = fem.element_gradients

    def counted(mesh, vertex_values):
        passes.append(mesh.n_triangles)
        return plain(mesh, vertex_values)

    monkeypatch.setattr(fem, "element_gradients", counted)
    log = run_adaptive(AdaptiveConfig(domain=domain, max_elements=2000))
    table = log.level_table()
    assert len(table) > 5 and sum(row["n_picard"] for row in table) > len(table)
    assert len(passes) == len(log.records) + len(table)


@pytest.mark.parametrize("domain", ["zshape", "lshape"])
def test_residual_reads_the_flux_of_the_iterate(monkeypatch, domain):
    """Every linearization's residual, the later ones fed the flux of the
    step they accepted, is bit for bit that of a fresh flux pass at its
    iterate x: the level's first iterate, then x plus each accepted
    update."""
    residuals, updates, starts = [], [], [None]
    plain_apply, plain_prolongate, plain_step = (driver.apply_nonlinear, driver.prolongate,
                                                 algsolver.pcg_step)

    def apply(dofmap, flux):
        residuals.append((dofmap, plain_apply(dofmap, flux)))
        return residuals[-1][1]

    def prolongate(u, dofmap):
        starts.append(plain_prolongate(u, dofmap))
        return starts[-1]

    def step(state, pre):
        state = plain_step(state, pre)
        updates.append(state.iterate.copy())
        return state

    monkeypatch.setattr(driver, "apply_nonlinear", apply)
    monkeypatch.setattr(driver, "prolongate", prolongate)
    monkeypatch.setattr(algsolver, "pcg_step", step)
    nl = get_problem(domain).nonlinearity
    log = run_adaptive(AdaptiveConfig(domain=domain, max_elements=1000))
    calls, starts = iter(residuals), iter(starts)
    later = 0
    for rec, e in zip(log.records, updates, strict=True):
        if rec.j == 1:
            dofmap, r = next(calls)
            if rec.k == 1:
                start = next(starts)
                x = np.zeros(dofmap.n_dofs) if start is None else start.coeffs
            later += rec.k > 1
            values = FeFunction(dofmap, x).vertex_values()
            assert same_bits(r, apply_nonlinear(dofmap, element_flux(nl, dofmap.mesh, values)))
        if rec.alg_stop:
            x = x + e
    assert next(calls, None) is None and later > 5


def calls_per_level(config: AdaptiveConfig) -> float:
    """Python-level calls of `run_adaptive` per level: the "call" and
    "c_call" events of `sys.setprofile` whose calling frame runs code of
    the afem package.  Calls inside numpy and scipy do not count, so the
    number depends on this package's code, not on the library versions."""
    package = str(Path(driver.__file__).parent) + os.sep
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        caller = frame if event == "c_call" else frame.f_back if event == "call" else None
        if caller is not None and caller.f_code.co_filename.startswith(package):
            count += 1

    sys.setprofile(profile)
    try:
        log = run_adaptive(config)
    finally:
        sys.setprofile(None)
    return count / len(log.level_table())


BUDGET_CONFIG = AdaptiveConfig(domain="zshape", theta=0.1, max_elements=1000)
CALLS_PER_LEVEL = 461


def test_calls_per_level_stay_within_budget():
    """A level's fixed cost is mostly Python-level calls: on zshape with
    theta = 0.1 (230 levels to 1000 triangles) the count per level stays
    within 10 % of CALLS_PER_LEVEL, so calls added to the code that runs
    once per level (refine, sample, assembly, the preconditioner's
    extension, the handover) show here.  The count was 652 at commit
    5765fc0, 471 once the per-level passes were merged, and 478.6 before
    the gradient operator became plain arrays for scipy's compiled
    kernels; 460.75 once the mesh, the driver and the preconditioner's
    extension read sizes from shapes instead of properties and len()
    (Python 3.11).  To measure again, print `calls_per_level(BUDGET_CONFIG)`
    with `tests` and `src` on the path, as CI does."""
    assert calls_per_level(BUDGET_CONFIG) <= 1.1 * CALLS_PER_LEVEL


def test_solved_level_released_before_the_next(monkeypatch):
    # only the mesh, its dofmap, u, the samples, the preconditioner and the
    # marked set cross the handover: no stiffness matrix of the solved level
    # lives while `refine` runs, and no mesh of it once the next level's
    # samples have replaced its own and the next level is assembled
    meshes, operators, handovers = [], [], []
    plain_assemble, plain_refine = driver.assemble_laplacian, driver.refine

    def assemble_laplacian(dofmap):
        gc.collect()
        assert not meshes or meshes[-1]() is None, f"mesh of level {len(meshes) - 1} alive"
        meshes.append(weakref.ref(dofmap.mesh))
        operator = plain_assemble(dofmap)
        operators.append(weakref.ref(operator))
        return operator

    def refine(mesh, marked):
        gc.collect()
        assert operators[-1]() is None, f"operator of level {len(operators) - 1} alive"
        handovers.append(len(marked))
        return plain_refine(mesh, marked)

    monkeypatch.setattr(driver, "assemble_laplacian", assemble_laplacian)
    monkeypatch.setattr(driver, "refine", refine)
    log = run_adaptive(AdaptiveConfig(domain="zshape", max_elements=300, diagnostics=True))
    assert log.exit_reason == "budget"
    assert handovers == log.n_marked and len(meshes) == len(handovers) + 1 > 4


def test_non_finite_estimator_ends_the_run(monkeypatch):
    # a source that is NaN at one quadrature node makes the load and the
    # estimator NaN; the run must end at once, not spin until a step guard
    plain_get_problem = driver.get_problem

    def source(points):
        out = np.ones(points.shape[:-1])
        out.flat[0] = np.nan
        return out

    monkeypatch.setattr(driver, "get_problem", lambda name: dataclasses.replace(
        plain_get_problem(name), source=source))
    monkeypatch.setattr(driver, "MAX_PCG_PER_LINEARIZATION", 200)
    log = run_adaptive(AdaptiveConfig(domain="lshape"))
    assert log.exit_reason == "non_finite"
    assert len(log.records) <= 1
    assert np.isnan(log.final().eta)


@pytest.mark.parametrize("domain", ["lshape", "zshape"])
@pytest.mark.parametrize("eta_tol", [0.0, 1e-3])
def test_zero_data_ends_the_run_at_eta_zero(domain, eta_tol, monkeypatch):
    # zero source and zero Neumann data: the solution is 0, the first step
    # finds it exactly, and the run ends on the zero estimator, which is not
    # a tolerance met
    plain_get_problem = driver.get_problem
    monkeypatch.setattr(driver, "get_problem", lambda name: dataclasses.replace(
        plain_get_problem(name), source=lambda points: np.zeros(points.shape[:-1]),
        neumann=None))
    log = run_adaptive(AdaptiveConfig(domain=domain, eta_tol=eta_tol))
    assert log.exit_reason == "eta_zero"
    [rec] = log.records
    assert rec.eta == rec.alg_inc == rec.pic_inc == 0.0


class NegatedPreconditioner:
    """Negative definite, so PCG breaks down at its first step."""

    def apply(self, z):
        return -z

    def extended(self, *level):
        return self


def test_breakdown_ends_the_run(monkeypatch):
    # a breakdown is not convergence: the run must not accept the level
    monkeypatch.setattr(algsolver, "MultilevelPreconditioner",
                        lambda dofmap, operator: NegatedPreconditioner())
    log = run_adaptive(AdaptiveConfig(domain="zshape", max_elements=200))
    assert log.exit_reason == "breakdown"
    assert len(log.records) == 1
    assert log.final().alg_inc == 0.0 and log.final().pic_inc == 0.0


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_step_log_matches_golden(name):
    # the step logs a refactor must leave unchanged; integers match exactly
    # and floats to rtol 1e-10 (the CSV keeps 12 digits).  Entries below
    # 1e-12 of their column's largest value are round-off (e.g. the ~1e-16
    # increment of a second PCG step after an exact coarse solve) and are
    # compared on that absolute scale instead.
    want = RunLog.from_csv(GOLDEN / f"{name}.csv")
    got = run_adaptive(AdaptiveConfig(**GOLDEN_CONFIGS[name]))
    assert got.columns() == want.columns()
    assert len(got.records) == len(want.records)
    for column in got.columns():
        a = np.array([getattr(r, column) for r in got.records])
        b = np.array([getattr(r, column) for r in want.records])
        if field_types(StepRecord)[column] is float:
            np.testing.assert_allclose(a, b, rtol=1e-10,
                                       atol=1e-12 * np.abs(b).max(), err_msg=column)
        else:
            np.testing.assert_array_equal(a, b, err_msg=column)


@pytest.mark.parametrize("config", [
    AdaptiveConfig(domain="zshape", theta=0.5, max_elements=3000),
    AdaptiveConfig(domain="zshape", theta=0.1, max_elements=600),
    AdaptiveConfig(domain="lshape", lambda_alg=1e-4, max_elements=3000),
    AdaptiveConfig(domain="square_linear", track_error=True, max_elements=2000)],
    ids=["zshape", "zshape-fine", "lshape-tight", "square-error"])
def test_carried_state_gives_the_run_built_from_scratch(config):
    """Everything carried from one level to the next (the edge table and
    boundary ids, geometry and new triangles, the samples, the
    preconditioner hierarchy) leaves the step log as a run that rebuilds
    it all on every level has it, field for field."""
    plain, fresh = run_adaptive(config), from_scratch_run(config)
    assert len(plain.records) > 20
    assert fresh.records == plain.records
    assert (fresh.exit_reason, fresh.n_marked) == (plain.exit_reason, plain.n_marked)


def test_benchmark_tracing_hooks_cover_the_driver(monkeypatch):
    # the benchmark times each layer by patching the names the driver
    # calls; a renamed or bypassed name would silently drop out of its split
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import tracing
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        log = tracer.wrap(tracing.RUN, run_adaptive)(
            AdaptiveConfig(domain="zshape", max_elements=500))
    assert tracing.cross_check(tracer, log) == []
    per_layer = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    assert list(tracing.layer_metrics(tracer, log)) == [m["name"] for m in per_layer]
