"""Residual indicators, marking, and the measured stability/reduction facts."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afem import (DofMap, FeFunction, assemble_laplacian, assemble_rhs,
                  create_initial, doerfler_mark, indicators, refine, total,
                  uniform_refine)
from afem.estimator import EstimatorData, IndicatorField
from afem.fem import (apply_nonlinear, element_flux, element_gradients, energy_norm, prolongate,
                      sample)
from afem.nonlinearity import constant_nonlinearity, zshape_nonlinearity
from afem.problems import get_problem

from oracles import (DIRICHLET_ONLY, KERNEL_CASES, brute_force_doerfler_size,
                     doerfler_reference, einsum_element_gradients, einsum_estimator_moments,
                     einsum_eval_squared, former_eval_squared, kernel_case, one_triangle,
                     picard_map, random_mesh, same_bits)


def one(p):
    return np.ones(p.shape[:-1])


def zero(p):
    return np.zeros(p.shape[:-1])


def test_hand_value_volume_only():
    # zero function, f = 1, all-Dirichlet square: no jumps, no Neumann term,
    # so eta(T)^2 = |T| * ||f||_{L2(T)}^2 = |T|^2 = 1/4 on both triangles
    mesh = create_initial("unit_square")
    dofmap = DofMap.from_mesh(mesh)
    field = indicators(zshape_nonlinearity(), one, None,
                       FeFunction.zero(dofmap))
    assert np.allclose(field.squared, [0.25, 0.25], atol=1e-15)
    assert total(field) == pytest.approx(np.sqrt(0.5), rel=1e-14)
    assert total(field, [0]) == pytest.approx(0.5)
    assert total(field, []) == 0.0
    assert np.allclose(field.values, 0.5)


def test_total_reads_a_subset_as_refine_does():
    # a boolean mask is a mask, not the indices 0 and 1; the subset is
    # checked by the reader refine uses, with its messages
    field = IndicatorField(uniform_refine(create_initial("l_shape")), np.arange(12.0))
    mask = np.arange(12) >= 9
    assert total(field, mask) == pytest.approx(np.sqrt(field.squared[mask].sum()), rel=1e-15)
    assert total(field, list(mask)) == total(field, (9, 10, 11)) == total(field, mask)
    for subset, message in ((mask[1:], "wrong length"), ([12], "out of range"),
                            ([-1], "out of range"), ([0.5], "integer indices")):
        with pytest.raises(ValueError, match=message):
            total(field, subset)
        with pytest.raises(ValueError, match=message):
            refine(field.mesh, subset)


def test_jump_term_detects_kinks():
    # a function with a kink across the diagonal produces a flux jump there
    mesh = create_initial("unit_square")
    dofmap = DofMap.from_mesh(mesh)
    nl = constant_nonlinearity(1.0)
    flat = indicators(nl, zero, None, FeFunction.zero(dofmap))
    assert np.allclose(flat.squared, 0.0)
    fine = uniform_refine(mesh)
    fdof = DofMap.from_mesh(fine)
    spike = FeFunction.from_vertex_values(
        fdof, np.eye(fine.n_vertices)[4])  # hat at the diagonal midpoint
    field = indicators(nl, zero, None, spike)
    assert total(field) > 0.1


def test_estimator_data_matches_indicators():
    problem = get_problem("zshape")
    mesh = random_mesh("z_shape", np.random.default_rng(0), rounds=3)
    dofmap = DofMap.from_mesh(mesh)
    v = FeFunction(dofmap, np.random.default_rng(1).standard_normal(dofmap.n_dofs))
    data = EstimatorData(sample(mesh, problem.source, problem.neumann))
    flux = element_flux(problem.nonlinearity, mesh, v.vertex_values())
    sq = data.scatter(data.eval_squared(flux))
    field = indicators(problem.nonlinearity, problem.source, problem.neumann, v)
    assert np.allclose(sq, field.squared, rtol=1e-13)
    # repeated evaluation is deterministic
    again = data.eval_squared(flux)
    assert np.allclose(sq, data.scatter(again), rtol=0, atol=0)
    assert data.eta(again) == pytest.approx(total(field), rel=1e-14, abs=0.0)


def test_index_arrays_are_compact_and_shared():
    """On a root mesh and on refined ones (carried edge tables): the
    connectivity is int32, the edge ends a view of the int64 edge codes;
    the gradient operator's arrays take their data from
    ``gradient_planes`` and their indices from ``triangles`` (int32, not
    copied), with one int32 indptr, and give the einsum oracle's element
    gradients bit for bit; the triangle ids that every estimator evaluation
    reads (interior edges and Neumann owners) are contiguous np.intp."""
    problem, rng = get_problem("zshape"), np.random.default_rng(2)
    mesh = create_initial("z_shape")
    for level in range(4):
        et = mesh.edges
        arrays = [mesh.triangles, mesh.parent_of, et.nodes, et.of_triangle, et.incident]
        for a in arrays + ([] if level == 0 else [mesh.vertex_parents]):
            assert a.dtype == np.int32
        assert et.codes.dtype == np.int64 and np.shares_memory(et.nodes, et.codes)
        assert len(mesh.gradient_operator) == 3
        planes, indices, indptr = mesh.gradient_operator
        assert np.shares_memory(planes, mesh.gradient_planes)
        assert indices.dtype == np.int32 and np.shares_memory(indices, mesh.triangles)
        assert indptr.dtype == np.int32 and indptr.shape == (mesh.n_triangles + 1,)
        values = np.random.default_rng(level).standard_normal(mesh.n_vertices)
        assert same_bits(np.column_stack(element_gradients(mesh, values)),
                         einsum_element_gradients(mesh, values))
        data = EstimatorData(sample(mesh, problem.source, problem.neumann))
        for a in (data.ie_left, data.ie_right, data.neumann.owner):
            assert a.dtype == np.intp and a.flags.c_contiguous
        mesh = refine(mesh, rng.random(mesh.n_triangles) < 0.4)


@pytest.mark.parametrize("domain, seed", KERNEL_CASES)
def test_eval_squared_matches_einsum_oracle(domain, seed):
    problem, _, samples, values = kernel_case(domain, seed)
    nl = problem.nonlinearity
    data = EstimatorData(samples)
    flux = element_flux(nl, samples.mesh, values)
    assert np.array_equal(data.scatter(data.eval_squared(flux)),
                          einsum_eval_squared(samples, problem.source, problem.neumann, nl,
                                              values))


@pytest.mark.parametrize("domain, seed", KERNEL_CASES)
def test_total_and_scatter_match_the_former_indicators(domain, seed):
    """The marking step's scatter of one evaluation's edge terms has the
    bits of the former per-triangle evaluation, and eta, read from the same
    terms by dot products, is the square root of that array's sum up to
    reassociation."""
    problem, _, samples, values = kernel_case(domain, seed)
    nl = problem.nonlinearity
    data = EstimatorData(samples)
    terms = data.eval_squared(element_flux(nl, samples.mesh, values))
    former = former_eval_squared(data, nl, values)
    assert same_bits(data.scatter(terms), former)
    assert data.eta(terms) == pytest.approx(np.sqrt(former.sum()), rel=1e-14, abs=0.0)
    assert terms.neumann.shape == samples.neumann.owner.shape


@pytest.mark.parametrize("domain, seed", KERNEL_CASES)
def test_estimator_moments_match_einsum_oracle(domain, seed):
    problem, _, samples, _ = kernel_case(domain, seed)
    data = EstimatorData(samples)
    # the sampled integrals themselves, not copies or a second integration
    assert data.volume_sq is samples.volume_sq and data.neumann is samples.neumann
    volume_sq, moments = einsum_estimator_moments(samples, problem.source, problem.neumann)
    assert np.array_equal(data.volume_sq, volume_sq)
    assert (len(data.neumann.owner) == 0) == (domain in DIRICHLET_ONLY)
    assert np.array_equal(data.neumann.g_sq_int, moments[0])
    assert np.array_equal(data.neumann.g_int, moments[1])


@pytest.mark.parametrize("domain, seed", [c for c in KERNEL_CASES if c[0] in DIRICHLET_ONLY])
def test_dirichlet_only_meshes_run_the_same_lines(domain, seed):
    """Without Neumann edges an evaluation has no Neumann terms, and eta
    keeps the bits of the former form, which skipped the Neumann lines: the
    root of the volume sum plus the jump dot product alone.  (The scatter's
    bits are those of the oracles on these cases too, see
    `test_eval_squared_matches_einsum_oracle` and
    `test_total_and_scatter_match_the_former_indicators`.)"""
    problem, _, samples, values = kernel_case(domain, seed)
    data = EstimatorData(samples)
    terms = data.eval_squared(element_flux(problem.nonlinearity, samples.mesh, values))
    assert terms.neumann.shape == (0,) and terms.neumann.dtype == np.float64
    assert data.eta(terms) == float(np.sqrt(data.volume_total + terms.jump @ data.ie_weight))


def test_eval_squared_rejects_the_flux_of_another_mesh():
    """The flux of a refined mesh has more triangles than the estimator's
    mesh; read by triangle id it would give some eta, so it is refused, as
    the nonlinear residual refuses it."""
    problem = get_problem("zshape")
    nl = problem.nonlinearity
    mesh = uniform_refine(create_initial("z_shape"))
    fine = uniform_refine(mesh)
    data = EstimatorData(sample(mesh, problem.source, problem.neumann))
    flux = element_flux(nl, fine, np.linspace(0.0, 1.0, fine.n_vertices))
    own = element_flux(nl, mesh, np.linspace(0.0, 1.0, mesh.n_vertices))
    for wrong in (flux, (own[0], flux[1]), (flux[0], own[1]), (own[0][:-1], own[1][:-1])):
        with pytest.raises(ValueError, match="one flux value per triangle"):
            data.eval_squared(wrong)
    with pytest.raises(ValueError):
        apply_nonlinear(DofMap.from_mesh(mesh), flux)
    data.eval_squared(own)


def test_neumann_mismatch_toggle():
    problem = get_problem("zshape")
    mesh = create_initial("z_shape")
    dofmap = DofMap.from_mesh(mesh)
    v = FeFunction.zero(dofmap)
    # v = 0 has zero flux, so the Neumann term is the data alone: with g = None
    # it vanishes, away from the boundary nothing changes
    with_g = indicators(problem.nonlinearity, problem.source, problem.neumann, v)
    without = indicators(problem.nonlinearity, problem.source, None, v)
    assert total(with_g) > total(without)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_indicator_field_rejects_non_finite(bad):
    # NaN compares false with everything: a minimum test alone would pass it,
    # and Doerfler marking would then mark every triangle
    fan = create_initial("l_shape")
    with pytest.raises(ValueError, match="finite"):
        IndicatorField(fan, [bad, 1.0, 1.0, 1.0, 1.0, 1.0])


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
    # theta = 1 when the pairwise total passes the sorted one by an ulp
    squared = np.random.default_rng(0).choice([0.0, 0.1, 0.3, 0.7], size=24)
    assert squared.sum() > np.cumsum(np.sort(squared)[::-1])[-1]
    field = IndicatorField(uniform_refine(uniform_refine(fan)), squared)
    assert doerfler_mark(field, 1.0).tolist() == np.flatnonzero(squared).tolist()
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
            assert total(field, marked) >= theta * total(field) - 1e-12
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


L_SHAPES = [create_initial("l_shape")]   # 6 to 768 triangles
for _ in range(7):
    L_SHAPES.append(uniform_refine(L_SHAPES[-1]))


@settings(max_examples=120, deadline=None)
@given(size=st.integers(0, 7), theta=st.sampled_from([0.1, 0.5, 1.0]),
       values=st.lists(st.sampled_from([0.0, 0.0, 1e-3, 0.1, 0.3, 0.7, 1.0]),
                       min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_doerfler_selection_equals_full_sort(size, theta, values, seed):
    """Few distinct values, zeros among them, give ties at the k-th largest
    value; the non-dyadic ones make the pairwise total and the sorted
    partial sums differ in their last bits."""
    mesh = L_SHAPES[size]
    squared = np.random.default_rng(seed).choice(values, size=mesh.n_triangles)
    assume(squared.any())
    marked = doerfler_mark(IndicatorField(mesh, squared), theta)
    assert np.array_equal(marked, doerfler_reference(squared, theta))
    if theta == 1.0:
        assert np.array_equal(marked, np.flatnonzero(squared))


SPREADS = {"uniform": lambda rng, n: rng.random(n),
           "decaying": lambda rng, n: rng.random(n) ** 8,
           "quarters": lambda rng, n: rng.integers(0, 5, n) / 4.0,
           "one large": lambda rng, n: np.r_[1e3, rng.random(n - 1) * 1e-3]}


@pytest.mark.parametrize("theta", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("spread", SPREADS.values(), ids=SPREADS.keys())
def test_doerfler_selection_equals_full_sort_on_spread_values(spread, theta):
    """6144 indicators, continuous, decaying, tied, or one far above a
    flat tail: the marked set is the full sort's."""
    mesh = L_SHAPES[-1]
    for _ in range(3):
        mesh = uniform_refine(mesh)
    squared = spread(np.random.default_rng(7), mesh.n_triangles)
    marked = doerfler_mark(IndicatorField(mesh, squared), theta)
    assert np.array_equal(marked, doerfler_reference(squared, theta))


def test_doerfler_dropping_smallest_breaks_criterion():
    rng = np.random.default_rng(4)
    mesh = random_mesh("z_shape", rng, rounds=3)
    squared = rng.random(mesh.n_triangles) ** 2
    field = IndicatorField(mesh, squared)
    for theta in (0.2, 0.5, 0.7):
        marked = doerfler_mark(field, theta)
        weakest = marked[np.argmin(squared[marked])]
        rest = marked[marked != weakest]
        assert total(field, rest) < theta * total(field)


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

    def eta(coeffs):
        values = FeFunction(dofmap, coeffs).vertex_values()
        return data.eta(data.eval_squared(element_flux(problem.nonlinearity, mesh, values)))

    worst = 0.0
    for _ in range(10):
        v = rng.standard_normal(dofmap.n_dofs)
        w = v + rng.standard_normal(dofmap.n_dofs) * rng.choice([1e-3, 1.0])
        d = energy_norm(FeFunction(dofmap, v - w))
        worst = max(worst, abs(eta(v) - eta(w)) / d)
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
    q_red = total(fine_field) / total(coarse_field)
    assert q_red < 1.0
    assert q_red < 0.9  # comfortably contractive in practice
