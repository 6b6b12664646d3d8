"""Exact solves, PCG stepping semantics, and the multilevel preconditioner."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from afem import (DofMap, IdentityPreconditioner, assemble_laplacian,
                  build_preconditioner, create_initial, doerfler_mark,
                  init_solver_state, pcg_step, refine, solve_exact,
                  uniform_refine)
from afem.algsolver import factorized
from afem.estimator import IndicatorField

from oracles import (MARKING_KINDS, csr_generation_apply, csr_multilevel_apply,
                     random_marking, random_mesh, regrouped_generations, vertex_generations)


def small_system(seed=0, rounds=3):
    mesh = random_mesh("l_shape", np.random.default_rng(seed), rounds=rounds)
    dofmap = DofMap.from_mesh(mesh)
    a = assemble_laplacian(dofmap)
    rhs = np.random.default_rng(seed + 1).standard_normal(dofmap.n_dofs)
    return mesh, dofmap, a, rhs


def test_solve_exact_matches_spsolve():
    _, _, a, rhs = small_system()
    x = solve_exact(a, rhs)
    assert np.allclose(x, spla.spsolve(a.tocsc(), rhs), rtol=1e-10)
    assert np.linalg.norm(a @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_factorized_empty_system():
    lu = factorized(sp.csr_matrix((0, 0)))
    assert lu(np.zeros(0)).shape == (0,)


def test_pcg_error_monotone_in_energy_norm():
    _, _, a, rhs = small_system(seed=2)
    xstar = solve_exact(a, rhs)
    state = init_solver_state(a, rhs, np.zeros_like(rhs))
    pre = IdentityPreconditioner()
    errs = []
    for _ in range(200):
        state = pcg_step(state, pre)
        d = xstar - state.iterate
        errs.append(np.sqrt(d @ (a @ d)))
        if state.converged:
            break
    assert errs[-1] <= 1e-8 * errs[0]
    pairs = list(zip(errs, errs[1:]))
    assert all(b <= a_ * (1 + 1e-12) for a_, b in pairs)


def test_pcg_increment_and_drift_accounting():
    _, _, a, rhs = small_system(seed=3)
    x0 = np.random.default_rng(4).standard_normal(rhs.size)
    state = init_solver_state(a, rhs, x0)
    pre = IdentityPreconditioner()
    prev = x0
    for _ in range(5):
        state = pcg_step(state, pre)
        inc = state.iterate - prev
        assert state.increment == pytest.approx(
            np.sqrt(inc @ (a @ inc)), rel=1e-9, abs=1e-12)
        drift = state.iterate - x0
        assert state.drift_norm() == pytest.approx(
            np.sqrt(drift @ (a @ drift)), rel=1e-9, abs=1e-12)
        prev = state.iterate


def test_pcg_converged_state_is_a_fixed_point():
    _, _, a, rhs = small_system(seed=5)
    state = init_solver_state(a, rhs, np.zeros_like(rhs))
    pre = IdentityPreconditioner()
    for _ in range(500):
        state = pcg_step(state, pre)
        if state.converged:
            break
    assert state.converged
    again = pcg_step(state, pre)
    assert again.iterations == state.iterations + 1
    assert again.increment == 0.0
    assert np.array_equal(again.iterate, state.iterate)


def test_pcg_zero_rhs_converges_immediately():
    _, _, a, _ = small_system(seed=6)
    state = init_solver_state(a, np.zeros(a.shape[0]), np.zeros(a.shape[0]))
    state = pcg_step(state, IdentityPreconditioner())
    assert state.converged and not state.breakdown
    assert state.increment == 0.0
    assert not state.iterate.any()


@pytest.mark.parametrize("sign, apply", [
    (1.0, lambda z: -z),           # r.z < 0
    (1.0, lambda z: np.nan * z),   # r.z not finite
    (-1.0, lambda z: z),           # p.Ap < 0
])
def test_pcg_breakdown_is_not_convergence(sign, apply):
    _, _, a, rhs = small_system(seed=16)
    x0 = np.ones_like(rhs)
    state = pcg_step(init_solver_state(sign * a, rhs, x0), SimpleNamespace(apply=apply))
    assert state.breakdown and not state.converged
    assert state.increment == 0.0 and state.iterations == 1
    assert np.array_equal(state.iterate, x0)


def test_empty_system_state():
    state = init_solver_state(sp.csr_matrix((0, 0)), np.zeros(0), np.zeros(0))
    assert state.converged
    state = pcg_step(state, IdentityPreconditioner())
    assert state.iterations == 1 and state.increment == 0.0 and not state.breakdown


def test_exact_coarse_preconditioner_converges_in_one_step():
    mesh = uniform_refine(uniform_refine(create_initial("l_shape")))
    dofmap = DofMap.from_mesh(mesh)
    pre = build_preconditioner([mesh], [dofmap])
    assert pre.n_levels == 1
    a = assemble_laplacian(dofmap)
    rhs = np.random.default_rng(7).standard_normal(dofmap.n_dofs)
    xstar = solve_exact(a, rhs)
    state = init_solver_state(a, rhs, np.zeros_like(rhs))
    state = pcg_step(state, pre)
    d = xstar - state.iterate
    assert np.sqrt(d @ (a @ d)) <= 1e-10 * np.sqrt(xstar @ (a @ xstar))


def grow_hierarchy(domain, levels, theta=0.5, seed=8, max_dofs=None):
    """Meshes plus dofmaps from refinements biased to the domain corner,
    stopping before a mesh with more than ``max_dofs`` free vertices."""
    rng = np.random.default_rng(seed)
    meshes = [create_initial(domain)]
    dofmaps = [DofMap.from_mesh(meshes[0])]
    for _ in range(levels):
        mesh = meshes[-1]
        # weight triangles by closeness to the reentrant corner at the origin
        w = 1.0 / (np.linalg.norm(mesh.centroids(), axis=1) ** 2 + 1e-3)
        w *= 1.0 + 0.2 * rng.random(mesh.n_triangles)
        marked = doerfler_mark(IndicatorField(mesh, w), theta)
        fine = refine(mesh, marked)
        dofmap = DofMap.from_mesh(fine)
        if max_dofs is not None and dofmap.n_dofs > max_dofs:
            break
        meshes.append(fine)
        dofmaps.append(dofmap)
    return meshes, dofmaps


def test_multilevel_preconditioner_symmetric_definite():
    meshes, dofmaps = grow_hierarchy("z_shape", 6)
    pre = build_preconditioner(meshes, dofmaps)
    gen, _ = vertex_generations(meshes)
    assert pre.n_levels == gen.max() + 1 < len(meshes)
    n = dofmaps[-1].n_dofs
    rng = np.random.default_rng(9)
    for _ in range(5):
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        assert z1 @ pre.apply(z2) == pytest.approx(z2 @ pre.apply(z1),
                                                   rel=1e-9, abs=1e-11)
        assert z1 @ pre.apply(z1) > 0.0
    # linearity
    y = pre.apply(z1 + 2.5 * z2)
    assert np.allclose(y, pre.apply(z1) + 2.5 * pre.apply(z2), rtol=1e-9)


def test_extended_matches_fresh_build():
    meshes, dofmaps = grow_hierarchy("l_shape", 5, seed=10)
    fresh = build_preconditioner(meshes, dofmaps)
    grown = build_preconditioner(meshes[:1], dofmaps[:1])
    for dofmap in dofmaps[1:]:
        grown = grown.extended(dofmap, assemble_laplacian(dofmap))
    z = np.random.default_rng(11).standard_normal(dofmaps[-1].n_dofs)
    assert np.array_equal(fresh.apply(z), grown.apply(z))


def hierarchy_with_empty_level():
    meshes, _ = grow_hierarchy("z_shape", 3, seed=14)
    meshes.append(refine(meshes[-1], []))
    meshes.append(uniform_refine(meshes[-1]))
    return meshes, [DofMap.from_mesh(m) for m in meshes]


HIERARCHIES = {
    "deep_z_shape": lambda: grow_hierarchy("z_shape", 30, theta=0.1),
    "l_shape_no_coarse_dof": lambda: grow_hierarchy("l_shape", 6),
    "empty_level": hierarchy_with_empty_level,
}


@pytest.mark.parametrize("name", sorted(HIERARCHIES))
def test_vertex_space_apply_equals_csr_oracle(name):
    meshes, dofmaps = HIERARCHIES[name]()
    pre = build_preconditioner(meshes, dofmaps)
    oracle = csr_generation_apply(dofmaps)
    rng = np.random.default_rng(15)
    for _ in range(3):
        z = rng.standard_normal(dofmaps[-1].n_dofs)
        assert np.array_equal(pre.apply(z), oracle(z))


def random_hierarchy(domain, seed, fracs, max_dofs=300):
    """Dofmaps of a random hierarchy and its preconditioner, grown level by
    level as the driver grows it; the first refinement is uniform so the
    finest mesh has free vertices."""
    rng = np.random.default_rng(seed)
    mesh = create_initial(domain)
    dofmaps = [DofMap.from_mesh(mesh)]
    pre = build_preconditioner([mesh], dofmaps)
    for frac in [1.0] + fracs:
        fine = refine(mesh, np.nonzero(rng.random(mesh.n_triangles) < frac)[0])
        dofmap = DofMap.from_mesh(fine)
        if dofmap.n_dofs > max_dofs:
            break
        mesh = fine
        dofmaps.append(dofmap)
        pre = pre.extended(dofmap, assemble_laplacian(dofmap))
    return dofmaps, pre


RANDOM_HIERARCHIES = dict(domain=st.sampled_from(["unit_square", "l_shape", "z_shape"]),
                          seed=st.integers(0, 2 ** 32 - 1),
                          fracs=st.lists(st.floats(0.0, 1.0), max_size=8))


@settings(max_examples=40, deadline=None)
@given(**RANDOM_HIERARCHIES)
def test_preconditioner_is_symmetric_positive_definite(domain, seed, fracs):
    """Dense B from `apply` on small random hierarchies."""
    dofmaps, pre = random_hierarchy(domain, seed, fracs)
    eye = np.eye(dofmaps[-1].n_dofs)
    b = np.column_stack([pre.apply(e) for e in eye])
    assert np.linalg.norm(b - b.T) <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.eigvalsh(0.5 * (b + b.T)).min() > 0.0
    oracle = csr_generation_apply(dofmaps)
    assert np.array_equal(b, np.column_stack([oracle(e) for e in eye]))


@settings(max_examples=40, deadline=None)
@given(**RANDOM_HIERARCHIES)
def test_generation_groups_hold_no_parent_of_their_own(domain, seed, fracs):
    """A child's generation exceeds both parents', so one transfer per
    generation is exact: no vertex of a group is a parent of another."""
    dofmaps, pre = random_hierarchy(domain, seed, fracs, max_dofs=2000)
    gen, parents = vertex_generations([dm.mesh for dm in dofmaps])
    assert np.array_equal(pre.gen, gen)
    new = gen > 0
    assert (gen[new, None] > gen[parents[new]]).all()
    assert len(pre.groups) == gen.max()
    for g, grp in enumerate(pre.groups, start=1):
        assert np.array_equal(grp.children, np.flatnonzero(gen == g))
        assert np.array_equal(grp.parents, parents[grp.children])
        assert not np.isin(grp.parents, grp.children).any()


GENERATION_FIELDS = ("children", "parents", "smooth")
EXTENSIONS = dict(domain=st.sampled_from(["unit_square", "l_shape", "z_shape"]),
                  seed=st.integers(0, 2 ** 32 - 1),
                  kinds=st.lists(st.sampled_from(MARKING_KINDS), min_size=1, max_size=8))


@settings(max_examples=40, deadline=None)
@given(**EXTENSIONS)
def test_extended_generations_match_regrouping(domain, seed, kinds):
    """The generations and Jacobi weights `extended` grows level by level
    equal, array for array and dtype for dtype, those regrouped from
    scratch, and `apply` equals the CSR oracle bit for bit."""
    rng = np.random.default_rng(seed)
    mesh = create_initial(domain)
    dofmaps = [DofMap.from_mesh(mesh)]
    pre = build_preconditioner([mesh], dofmaps)
    for kind in kinds:
        mesh = refine(mesh, random_marking(rng, mesh.n_triangles, kind))
        dofmaps.append(DofMap.from_mesh(mesh))
        operator = assemble_laplacian(dofmaps[-1])
        pre = pre.extended(dofmaps[-1], operator)
        gen, parents = vertex_generations([dm.mesh for dm in dofmaps])
        assert np.array_equal(pre.gen, gen)
        groups, weights = regrouped_generations(gen, parents, dofmaps[-1], operator.diagonal())
        assert len(pre.groups) == len(pre.weights) == len(groups) == len(weights)
        for got, expected in zip(pre.groups, groups):
            for name in GENERATION_FIELDS:
                a, b = getattr(got, name), getattr(expected, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
        for a, b in zip(pre.weights, weights):
            assert a.dtype == b.dtype and np.array_equal(a, b), "weights"
    if dofmaps[-1].n_dofs <= 400:
        oracle = csr_generation_apply(dofmaps)
        z = rng.standard_normal(dofmaps[-1].n_dofs)
        assert np.array_equal(pre.apply(z), oracle(z))


@settings(max_examples=40, deadline=None)
@given(**EXTENSIONS)
def test_extended_keeps_the_generations_that_gain_no_vertices(domain, seed, kinds):
    """Across `extended`, a generation that gains no vertices is the same
    `Generation` object, and one that gains vertices is a new one."""
    rng = np.random.default_rng(seed)
    mesh = create_initial(domain)
    pre = build_preconditioner([mesh], [DofMap.from_mesh(mesh)])
    for kind in kinds:
        mesh = refine(mesh, random_marking(rng, mesh.n_triangles, kind))
        dofmap = DofMap.from_mesh(mesh)
        successor = pre.extended(dofmap, assemble_laplacian(dofmap))
        gained = np.bincount(successor.gen[pre.gen.size:], minlength=len(successor.groups) + 1)
        for g, (old, new) in enumerate(zip(pre.groups, successor.groups), start=1):
            assert (new is old) == (gained[g] == 0), g
        pre = successor


def dense_condition_number(b, a):
    """kappa(B A) for SPD A and B, from the symmetric L^T B L with A = L L^T."""
    low = np.linalg.cholesky(a)
    eig = np.linalg.eigvalsh(low.T @ (0.5 * (b + b.T)) @ low)
    return eig.max() / eig.min()


@pytest.mark.parametrize("theta, seed", [(0.1, 1), (0.1, 2), (0.2, 3), (0.3, 4)])
def test_generation_form_conditions_like_the_level_form(theta, seed):
    """On deep graded hierarchies, splitting by vertex generation conditions
    B A at least nearly as well as splitting by adaptive level."""
    meshes, dofmaps = grow_hierarchy("z_shape", 100, theta=theta, seed=seed, max_dofs=400)
    assert len(meshes) > 20
    a = assemble_laplacian(dofmaps[-1]).toarray()
    eye = np.eye(len(a))
    pre = build_preconditioner(meshes, dofmaps)
    by_level = csr_multilevel_apply(dofmaps)
    kappa = dense_condition_number(np.column_stack([pre.apply(e) for e in eye]), a)
    kappa_level = dense_condition_number(np.column_stack([by_level(e) for e in eye]), a)
    assert kappa <= 1.5 * kappa_level


def test_extended_rejects_a_mismatched_operator():
    meshes, dofmaps = grow_hierarchy("z_shape", 1)
    pre = build_preconditioner(meshes[:1], dofmaps[:1])
    with pytest.raises(ValueError, match="operator shape"):
        pre.extended(dofmaps[1], assemble_laplacian(dofmaps[0]))


def test_non_nested_meshes_rejected():
    meshes, dofmaps = grow_hierarchy("z_shape", 2)
    with pytest.raises(ValueError, match="not nested"):
        build_preconditioner([meshes[0], meshes[2]], [dofmaps[0], dofmaps[2]])


def iterations_to_reduce(a, pre, rhs, factor=1e-8, cap=200):
    xstar = solve_exact(a, rhs)
    state = init_solver_state(a, rhs, np.zeros_like(rhs))
    e0 = np.sqrt(xstar @ (a @ xstar))
    for it in range(1, cap + 1):
        state = pcg_step(state, pre)
        d = xstar - state.iterate
        if np.sqrt(d @ (a @ d)) <= factor * e0:
            return it
    return cap + 1


def test_multilevel_iteration_counts_stay_flat():
    meshes, dofmaps = grow_hierarchy("z_shape", 14, seed=12)
    pre = build_preconditioner(meshes[:1], dofmaps[:1])
    counts = []
    rng = np.random.default_rng(13)
    for mesh, dofmap in zip(meshes[1:], dofmaps[1:]):
        a = assemble_laplacian(dofmap)
        pre = pre.extended(dofmap, a)
        counts.append(iterations_to_reduce(a, pre, rng.standard_normal(dofmap.n_dofs)))
    assert max(counts) <= 45
    # no systematic growth: the last level needs no more than the plateau
    plateau = max(counts[:len(counts) // 2])
    assert counts[-1] <= plateau + 8


def test_identity_preconditioner_is_identity():
    z = np.arange(5.0)
    assert np.array_equal(IdentityPreconditioner().apply(z), z)
