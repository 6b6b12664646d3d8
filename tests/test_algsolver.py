"""Exact solves, PCG stepping semantics, and the multilevel preconditioner."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from afem import (DofMap, IdentityPreconditioner, MultilevelPreconditioner,
                  assemble_laplacian, build_preconditioner, create_initial,
                  doerfler_mark, init_solver_state, pcg_step, refine, solve_exact,
                  uniform_refine)
from afem.algsolver import coarse_inverse, factorized
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


COARSE_SYSTEMS = {"z_shape root": lambda: create_initial("z_shape"),
                  "l_shape twice uniform": lambda: uniform_refine(uniform_refine(
                      create_initial("l_shape"))),
                  "l_shape root": lambda: create_initial("l_shape")}


@pytest.mark.parametrize("name", COARSE_SYSTEMS)
def test_coarse_solve_matches_solve_exact(name):
    """The preconditioner's coarse solve, a product with the dense inverse,
    agrees with the direct sparse solve to 1e-12 relative; a coarse system
    of no dofs solves to an empty vector."""
    dofmap = DofMap.from_mesh(COARSE_SYSTEMS[name]())
    a = assemble_laplacian(dofmap)
    pre = MultilevelPreconditioner(dofmap, a)
    assert coarse_inverse(a).shape == a.shape
    rng = np.random.default_rng(3)
    for _ in range(3):
        rhs = rng.standard_normal(dofmap.n_dofs)
        x = solve_exact(a, rhs)
        y = pre.apply(rhs)
        assert y.shape == (dofmap.n_dofs,)
        assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)
    if name == "z_shape root":
        assert dofmap.n_dofs == 7
        fine = DofMap.from_mesh(uniform_refine(dofmap.mesh))
        grown = pre.extended(fine, assemble_laplacian(fine))
        assert grown._coarse_inverse is pre._coarse_inverse
    if name == "l_shape root":
        assert dofmap.n_dofs == 0


def test_run_path_leaves_the_direct_solver_unimported():
    """An adaptive run imports neither `scipy.sparse.linalg` nor
    `scipy.linalg`; a run with diagnostics imports SuperLU when it asks for
    the exact algebraic error, and logs it finite."""
    script = ("import json, math, sys\n"
              "import afem\n"
              "solvers = ('scipy.sparse.linalg', 'scipy.linalg')\n"
              "afem.run_adaptive(afem.AdaptiveConfig(max_elements=300))\n"
              "plain = [m for m in solvers if m in sys.modules]\n"
              "log = afem.run_adaptive(afem.AdaptiveConfig(max_elements=300, diagnostics=True))\n"
              "print(json.dumps([plain, [m for m in solvers if m in sys.modules],\n"
              "                  all(math.isfinite(r.alg_err) for r in log.records)]))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    plain, diagnosed, finite = json.loads(done.stdout.splitlines()[-1])
    assert plain == []
    assert "scipy.sparse.linalg" in diagnosed and finite


def test_pcg_error_monotone_in_energy_norm():
    _, _, a, rhs = small_system(seed=2, rounds=7)
    xstar = solve_exact(a, rhs)
    state = init_solver_state(a, rhs)
    pre = IdentityPreconditioner()
    errs = []
    for _ in range(200):
        state = pcg_step(state, pre)
        d = xstar - state.iterate
        errs.append(np.sqrt(d @ (a @ d)))
        if state.increment == 0.0:
            break
    assert not state.breakdown
    assert errs[-1] <= 1e-8 * errs[0]
    pairs = list(zip(errs, errs[1:]))
    assert all(b <= a_ * (1 + 1e-12) for a_, b in pairs)


def test_pcg_increment_and_update_norm_accounting():
    # a positive definite but nonsymmetric preconditioner loses the Galerkin
    # orthogonality e.r = 0, so e.rhs is not the squared energy norm there
    _, _, a, rhs = small_system(seed=3, rounds=7)
    nonsymmetric = SimpleNamespace(apply=lambda z: z + 0.5 * np.roll(z, 1))
    for pre in (IdentityPreconditioner(), nonsymmetric):
        state = init_solver_state(a, rhs)
        assert not state.iterate.any() and np.array_equal(state.residual, rhs)
        prev = state.iterate
        for _ in range(5):
            state = pcg_step(state, pre)
            inc = state.iterate - prev
            assert state.increment == pytest.approx(
                np.sqrt(inc @ (a @ inc)), rel=1e-9, abs=1e-12)
            e = state.iterate
            assert state.norm() == pytest.approx(np.sqrt(e @ (a @ e)), rel=1e-9, abs=1e-12)
            assert state.residual == pytest.approx(rhs - a @ e, rel=1e-9, abs=1e-12)
            prev = state.iterate


def assert_fixed_point(state, precond, steps=2):
    """``steps`` further PCG steps from ``state`` move nothing: increment
    0, no breakdown, the iterate and the residual unchanged."""
    for _ in range(steps):
        again = pcg_step(state, precond)
        assert again.iterations == state.iterations + 1
        assert again.increment == 0.0 and not again.breakdown
        assert np.array_equal(again.iterate, state.iterate)
        assert np.array_equal(again.residual, state.residual)
        state = again


def test_pcg_converged_state_is_a_fixed_point():
    # stepped on, r.r underflows to zero: r.z = 0 is convergence
    _, _, a, rhs = small_system(seed=5, rounds=7)
    state = init_solver_state(a, rhs)
    pre = IdentityPreconditioner()
    for _ in range(500):
        state = pcg_step(state, pre)
        if state.increment == 0.0:
            break
    assert state.increment == 0.0 and not state.breakdown
    assert_fixed_point(state, pre)


def test_pcg_zero_rhs_converges_immediately():
    _, dofmap, a, _ = small_system(seed=6)
    start = init_solver_state(a, np.zeros(a.shape[0]))
    for pre in (IdentityPreconditioner(), build_preconditioner([dofmap.mesh], [dofmap])):
        assert_fixed_point(start, pre)


@pytest.mark.parametrize("sign, apply", [
    (1.0, lambda z: -z),           # r.z < 0
    (1.0, lambda z: np.nan * z),   # r.z not finite
    (-1.0, lambda z: z),           # p.Ap < 0
])
def test_pcg_breakdown_is_not_convergence(sign, apply):
    # the update of the solve started at x0 = 1
    _, _, a, rhs = small_system(seed=16, rounds=7)
    x0 = np.ones_like(rhs)
    state = pcg_step(init_solver_state(sign * a, rhs - sign * a @ x0),
                     SimpleNamespace(apply=apply))
    assert state.breakdown
    assert state.increment == 0.0 and state.iterations == 1
    assert not state.iterate.any()
    again = pcg_step(state, SimpleNamespace(apply=apply))
    assert again.breakdown and again.increment == 0.0 and not again.iterate.any()


def test_empty_system_state():
    # the l_shape root has no free vertex: the driver's first level there
    dofmap = DofMap.from_mesh(create_initial("l_shape"))
    assert dofmap.n_dofs == 0
    operator = assemble_laplacian(dofmap)
    start = init_solver_state(operator, np.zeros(0))
    for pre in (IdentityPreconditioner(), MultilevelPreconditioner(dofmap, operator)):
        assert_fixed_point(start, pre)


def test_exact_coarse_preconditioner_converges_in_one_step():
    mesh = uniform_refine(uniform_refine(create_initial("l_shape")))
    dofmap = DofMap.from_mesh(mesh)
    pre = build_preconditioner([mesh], [dofmap])
    assert pre.n_levels == 1
    a = assemble_laplacian(dofmap)
    rhs = np.random.default_rng(7).standard_normal(dofmap.n_dofs)
    xstar = solve_exact(a, rhs)
    state = init_solver_state(a, rhs)
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
    with pytest.raises(ValueError, match="operator shape"):
        MultilevelPreconditioner(dofmaps[0], assemble_laplacian(dofmaps[1]))


def test_non_nested_meshes_rejected():
    meshes, dofmaps = grow_hierarchy("z_shape", 2)
    with pytest.raises(ValueError, match="not nested"):
        build_preconditioner([meshes[0], meshes[2]], [dofmaps[0], dofmaps[2]])
    for lists in (([], []), (meshes[:1], dofmaps[:2])):
        with pytest.raises(ValueError, match="need matching, nonempty mesh and dofmap lists"):
            build_preconditioner(*lists)


def iterations_to_reduce(a, pre, rhs, factor=1e-8, cap=200):
    xstar = solve_exact(a, rhs)
    state = init_solver_state(a, rhs)
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
