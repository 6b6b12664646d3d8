"""Residual indicators, marking, and the measured stability/reduction facts."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afem import (DofMap, FeFunction, assemble_laplacian, assemble_rhs,
                  create_initial, doerfler_mark, indicators, total,
                  uniform_refine)
from afem.estimator import EstimatorData, IndicatorField
from afem.fem import energy_norm, prolongate, sample
from afem.nonlinearity import constant_nonlinearity, zshape_nonlinearity
from afem.problems import get_problem

from oracles import (KERNEL_CASES, brute_force_doerfler_size, doerfler_reference,
                     einsum_estimator_moments, einsum_eval_squared, kernel_case,
                     one_triangle, picard_map, random_mesh)


def one(p):
    return np.ones(p.shape[:-1])


def test_hand_value_volume_only():
    # zero function, f = 1, all-Dirichlet square: no jumps, no Neumann term,
    # so eta(T)^2 = |T| * ||f||_{L2(T)}^2 = |T|^2 = 1/4 on both triangles
    mesh = create_initial("unit_square")
    dofmap = DofMap.from_mesh(mesh)
    field = indicators(zshape_nonlinearity(), one, None,
                       FeFunction.zero(dofmap))
    assert np.allclose(field.squared, [0.25, 0.25], atol=1e-15)
    assert field.total == pytest.approx(np.sqrt(0.5), rel=1e-14)
    assert total(field, [0]) == pytest.approx(0.5)
    assert total(field, []) == 0.0
    assert np.allclose(field.values, 0.5)


def test_jump_term_detects_kinks():
    # a function with a kink across the diagonal produces a flux jump there
    mesh = create_initial("unit_square")
    dofmap = DofMap.from_mesh(mesh)
    zero = FeFunction.zero(dofmap)
    nl = constant_nonlinearity(1.0)
    flat = indicators(nl, None, None, zero)
    assert np.allclose(flat.squared, 0.0)
    fine = uniform_refine(mesh)
    fdof = DofMap.from_mesh(fine)
    spike = FeFunction.from_vertex_values(
        fdof, np.eye(fine.n_vertices)[4])  # hat at the diagonal midpoint
    field = indicators(nl, None, None, spike)
    assert field.total > 0.1


def test_estimator_data_matches_indicators():
    problem = get_problem("zshape")
    mesh = random_mesh("z_shape", np.random.default_rng(0), rounds=3)
    dofmap = DofMap.from_mesh(mesh)
    v = FeFunction(dofmap, np.random.default_rng(1).standard_normal(dofmap.n_dofs))
    data = EstimatorData(sample(mesh, problem.source, problem.neumann))
    sq = data.eval_squared(problem.nonlinearity, v.vertex_values())
    field = indicators(problem.nonlinearity, problem.source, problem.neumann, v)
    assert np.allclose(sq, field.squared, rtol=1e-13)
    # repeated evaluation is deterministic
    assert np.allclose(sq, data.eval_squared(problem.nonlinearity,
                                             v.vertex_values()), rtol=0, atol=0)


@pytest.mark.parametrize("domain, seed", KERNEL_CASES)
def test_eval_squared_matches_einsum_oracle(domain, seed):
    problem, _, samples, values = kernel_case(domain, seed)
    nl = problem.nonlinearity
    assert np.array_equal(EstimatorData(samples).eval_squared(nl, values),
                          einsum_eval_squared(samples, problem.source, nl, values))


@pytest.mark.parametrize("domain, seed", KERNEL_CASES)
def test_estimator_moments_match_einsum_oracle(domain, seed):
    problem, _, samples, _ = kernel_case(domain, seed)
    data = EstimatorData(samples)
    f_sq_int, moments = einsum_estimator_moments(samples, problem.source)
    assert np.array_equal(data.volume_sq, samples.mesh.areas * f_sq_int)
    assert (data.neumann is None) == (moments is None) == (domain == "l_shape")
    if moments is not None:
        assert np.array_equal(data.neumann[3], moments[0])
        assert np.array_equal(data.neumann[4], moments[1])


def test_neumann_mismatch_toggle():
    problem = get_problem("zshape")
    mesh = create_initial("z_shape")
    dofmap = DofMap.from_mesh(mesh)
    v = FeFunction.zero(dofmap)
    # v = 0 has zero flux, so the Neumann term is the data alone: with g = None
    # it vanishes, away from the boundary nothing changes
    with_g = indicators(problem.nonlinearity, problem.source, problem.neumann, v)
    without = indicators(problem.nonlinearity, problem.source, None, v)
    assert with_g.total > without.total
    boundary_touchers = np.unique(
        mesh.edges.incident[mesh.edges.is_boundary, 0])
    inner = np.setdiff1d(np.arange(mesh.n_triangles), boundary_touchers)
    assert np.allclose(with_g.squared[inner], without.squared[inner])


def test_indicator_field_validation():
    mesh = create_initial("unit_square")
    with pytest.raises(ValueError):
        IndicatorField(mesh, [1.0])
    with pytest.raises(ValueError):
        IndicatorField(mesh, [1.0, -0.5])


def test_doerfler_target_is_theta_squared_in_floating_point():
    """theta = fl(sqrt(1/2)) squares to just above 1/2 exactly and in floating
    point, so half of four equal indicators falls short: three are marked."""
    theta = float(np.sqrt(0.5))
    assert Fraction(theta) ** 2 > Fraction(1, 2)
    assert theta * theta > 0.5
    fan = random_mesh("l_shape", np.random.default_rng(2), rounds=0)
    field = IndicatorField(fan, [1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    assert doerfler_mark(field, theta).tolist() == [0, 1, 2]
    assert doerfler_reference(field.squared, theta).tolist() == [0, 1, 2]


def test_doerfler_frozen_examples():
    field = IndicatorField(create_initial("unit_square"), [16.0, 9.0])
    assert doerfler_mark(field, 1.0).tolist() == [0, 1]

    fan = random_mesh("l_shape", np.random.default_rng(2), rounds=0)
    assert fan.n_triangles == 6
    field = IndicatorField(fan, [16.0, 9.0, 4.0, 1.0, 0.0, 0.0])
    # theta = 0.5: need 0.25 * 30 = 7.5, the largest alone suffices
    assert doerfler_mark(field, 0.5).tolist() == [0]
    # theta = 0.8: need 19.2, two largest
    assert doerfler_mark(field, 0.8).tolist() == [0, 1]
    # theta = 1 marks every triangle with positive indicator
    assert doerfler_mark(field, 1.0).tolist() == [0, 1, 2, 3]
    # ties resolved by lowest index, stably
    tied = IndicatorField(fan, [1.0, 4.0, 4.0, 0.0, 0.0, 0.0])
    assert doerfler_mark(tied, 0.6).tolist() == [1]
    with pytest.raises(ValueError):
        doerfler_mark(IndicatorField(fan, np.zeros(6)), 0.5)
    with pytest.raises(ValueError):
        doerfler_mark(field, 0.0)
    with pytest.raises(ValueError):
        doerfler_mark(field, 1.5)


def test_doerfler_minimality_brute_force():
    rng = np.random.default_rng(3)
    fan = random_mesh("z_shape", rng, rounds=1)
    n = fan.n_triangles
    assert n <= 15
    for theta in (0.3, 0.5, 0.9):
        for _ in range(6):
            squared = rng.integers(0, 21, size=n).astype(float)
            if squared.sum() == 0:
                squared[0] = 1.0
            field = IndicatorField(fan, squared)
            marked = doerfler_mark(field, theta)
            # criterion met ...
            assert total(field, marked) >= theta * field.total - 1e-12
            # ... by a set of provably minimal cardinality
            assert len(marked) == brute_force_doerfler_size(squared, theta)
            assert np.array_equal(marked, doerfler_reference(squared, theta))


SMALL_MESHES = {"one_triangle": one_triangle(), "unit_square": create_initial("unit_square"),
               "l_shape": create_initial("l_shape"), "z_shape": create_initial("z_shape"),
               "l_shape_refined": uniform_refine(create_initial("l_shape"))}


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(SMALL_MESHES)),
       theta=st.sampled_from([k / 8 for k in range(1, 9)]), data=st.data())
def test_doerfler_mark_is_minimal_on_random_indicators(name, theta, data):
    """Quarter-integer indicators give ties and zeros; with theta in eighths
    every sum is exact, so the brute force's 1e-12 slack decides no case."""
    mesh = SMALL_MESHES[name]
    quarters = data.draw(st.lists(st.integers(0, 8), min_size=mesh.n_triangles,
                                  max_size=mesh.n_triangles))
    assume(any(quarters))
    squared = np.array(quarters) / 4.0
    marked = doerfler_mark(IndicatorField(mesh, squared), theta)
    assert np.array_equal(marked, doerfler_reference(squared, theta))
    assert len(marked) == brute_force_doerfler_size(squared, theta)


def test_doerfler_dropping_smallest_breaks_criterion():
    rng = np.random.default_rng(4)
    mesh = random_mesh("z_shape", rng, rounds=3)
    squared = rng.random(mesh.n_triangles) ** 2
    field = IndicatorField(mesh, squared)
    for theta in (0.2, 0.5, 0.7):
        marked = doerfler_mark(field, theta)
        weakest = marked[np.argmin(squared[marked])]
        rest = marked[marked != weakest]
        assert total(field, rest) < theta * field.total


def _solved_indicator(problem, mesh, n_picard=80):
    dofmap = DofMap.from_mesh(mesh)
    a = assemble_laplacian(dofmap)
    load = assemble_rhs(dofmap, sample(mesh, problem.source, problem.neumann))
    step = picard_map(problem.nonlinearity, dofmap, a, load)
    x = np.zeros(dofmap.n_dofs)
    for _ in range(n_picard):
        x = step(x)
    u = FeFunction(dofmap, x)
    field = indicators(problem.nonlinearity, problem.source, problem.neumann, u)
    return u, field


def test_estimator_stability_measured():
    # |eta(v) - eta(w)| <= C |||v - w|||; the measured constant must be finite
    problem = get_problem("zshape")
    mesh = random_mesh("z_shape", np.random.default_rng(5), rounds=3)
    dofmap = DofMap.from_mesh(mesh)
    data = EstimatorData(sample(mesh, problem.source, problem.neumann))
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10):
        v = rng.standard_normal(dofmap.n_dofs)
        w = v + rng.standard_normal(dofmap.n_dofs) * rng.choice([1e-3, 1.0])
        ev = np.sqrt(data.eval_squared(problem.nonlinearity,
                                       FeFunction(dofmap, v).vertex_values()).sum())
        ew = np.sqrt(data.eval_squared(problem.nonlinearity,
                                       FeFunction(dofmap, w).vertex_values()).sum())
        d = energy_norm(FeFunction(dofmap, v - w))
        worst = max(worst, abs(ev - ew) / d)
    assert np.isfinite(worst)
    assert worst < 50.0  # measured: O(1) constant on this mesh family


def test_estimator_reduction_under_refinement():
    # prolonging the same function to the uniformly refined mesh must shrink
    # the estimator by a definite factor q_red < 1
    problem = get_problem("zshape")
    mesh = uniform_refine(create_initial("z_shape"))
    u, coarse_field = _solved_indicator(problem, mesh)
    fine = uniform_refine(mesh)
    fdof = DofMap.from_mesh(fine)
    uf = prolongate(u, fdof)
    fine_field = indicators(problem.nonlinearity, problem.source,
                            problem.neumann, uf)
    q_red = fine_field.total / coarse_field.total
    assert q_red < 1.0
    assert q_red < 0.9  # comfortably contractive in practice
