"""Assembly, quadrature, nonlinear operator application, and prolongation."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from afem import (DIRICHLET, DofMap, FeFunction, NEUMANN, apply_nonlinear,
                  assemble_laplacian, assemble_rhs, create_initial,
                  energy_norm, interpolate, prolongate, refine,
                  uniform_refine)
from afem import fem
from afem.algsolver import solve_exact
from afem.mesh import Mesh
from afem.estimator import EstimatorData
from afem.fem import (EDGE_QUAD_W, EDGE_QUAD_X, TRI_QUAD_BARY, TRI_QUAD_W,
                      _volume_moments, element_flux, element_gradients, energy_error_vs_exact,
                      energy_functional, sample, triangle_quad_points)
from afem.nonlinearity import constant_nonlinearity, zshape_nonlinearity
from afem.problems import get_problem
from scipy.sparse import _sparsetools

from oracles import (DIRICHLET_ONLY, KERNEL_CASES, MARKING_KINDS, add_at_apply_nonlinear,
                     einsum_apply_nonlinear, einsum_assemble_laplacian, einsum_assemble_rhs,
                     einsum_element_gradients, einsum_triangle_quad_points, kernel_case,
                     loop_volume_moments, norm_edge_frames, one_triangle, picard_map,
                     random_marking, random_mesh, random_root, same_bits,
                     stacked_hat_gradients, sum_stiffness_diagonal)


def zero_source(points):
    return np.zeros(points.shape[:-1])


def neumann_square():
    base = create_initial("unit_square")
    return Mesh(base.vertices, base.triangles, base.boundary_edges,
                [NEUMANN] * 4)


def test_element_stiffness_reference_triangle():
    dofmap = DofMap.from_mesh(one_triangle())
    a = assemble_laplacian(dofmap).toarray()
    expected = np.array([[1.0, -0.5, -0.5],
                         [-0.5, 0.5, 0.0],
                         [-0.5, 0.0, 0.5]])
    assert np.allclose(a, expected, atol=1e-15)


def test_hat_gradients_partition_of_unity():
    mesh = random_mesh("z_shape", np.random.default_rng(0), rounds=3)
    g = mesh.gradient_planes
    assert np.allclose(g.sum(axis=2), 0.0, atol=1e-13)
    # gradient of the linear function x + 2y is (1, 2) on every element
    gx, gy = element_gradients(mesh, mesh.vertices @ np.array([1.0, 2.0]))
    assert np.allclose(gx, 1.0) and np.allclose(gy, 2.0)


@pytest.mark.parametrize("domain, seed", KERNEL_CASES)
def test_element_gradients_match_einsum_oracle(domain, seed):
    _, dofmap, _, values = kernel_case(domain, seed)
    mesh = dofmap.mesh
    gx, gy = element_gradients(mesh, values)
    grads = einsum_element_gradients(mesh, values)
    assert np.array_equal(np.column_stack([gx, gy]), grads)
    # the energy norm sums the same squares as the former short-axis sum
    w = FeFunction.from_vertex_values(dofmap, values)
    assert energy_norm(w) == float(np.sqrt(((grads ** 2).sum(axis=1) * mesh.areas).sum()))


def test_element_gradients_reject_values_of_another_length():
    """The compiled matvec reads one value per vertex without a bounds
    check, so values of another length raise before it runs."""
    mesh = uniform_refine(create_initial("l_shape"))
    for n in (mesh.n_vertices - 1, mesh.n_vertices + 1, 0):
        with pytest.raises(ValueError, match="one value per vertex"):
            element_gradients(mesh, np.zeros(n))
    with pytest.raises(ValueError, match="one value per vertex"):
        element_gradients(mesh, np.zeros((mesh.n_vertices, 1)))


@settings(max_examples=60, deadline=None)
@given(domain=st.sampled_from(["unit_square", "l_shape", "z_shape"]),
       seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.lists(st.sampled_from(MARKING_KINDS), max_size=6))
def test_gradient_operator_holds_the_hat_gradients(domain, seed, kinds):
    """On an affine image of a root refined at random, with the hat
    gradients carried across the levels: the operator's data are the hat
    gradient planes, equal to a fresh computation and to the (nT, 3, 2)
    oracle, its indices are the triangles (int32) and one indptr serves the
    x and the y matrix, nothing copied, all read-only; the gradients are
    bitwise the CSR matrices' matvecs and the einsum oracle."""
    rng = np.random.default_rng(seed)
    mesh = random_root(domain, rng)
    for kind in kinds:
        mesh = refine(mesh, random_marking(rng, mesh.n_triangles, kind))
    n = mesh.n_triangles
    fresh = Mesh(mesh.vertices, mesh.triangles, mesh.boundary_edges, mesh.boundary_markers)
    planes = mesh.gradient_planes
    assert planes.shape == (2, n, 3)
    assert np.array_equal(planes, fresh.gradient_planes)
    assert np.array_equal(planes, stacked_hat_gradients(mesh).transpose(2, 0, 1))
    assert not planes.flags.writeable
    assert len(mesh.gradient_operator) == 3
    data, indices, indptr = mesh.gradient_operator
    assert data.shape == (2, 3 * n) and np.shares_memory(data, planes)
    assert np.array_equal(data, planes.reshape(2, -1))
    assert indices.dtype == np.int32 and np.shares_memory(indices, mesh.triangles)
    assert np.array_equal(indices, mesh.triangles.ravel())
    assert indptr.dtype == np.int32 and np.array_equal(indptr, np.arange(0, 3 * n + 1, 3))
    assert not any(a.flags.writeable for a in (data, indices, indptr))
    values = rng.standard_normal(mesh.n_vertices)
    gx, gy = element_gradients(mesh, values)
    ops = [sp.csr_matrix((d, indices, indptr), shape=(n, mesh.n_vertices)) for d in data]
    assert same_bits(np.concatenate([gx, gy]), np.concatenate([op @ values for op in ops]))
    assert same_bits(np.column_stack([gx, gy]), einsum_element_gradients(mesh, values))


class KernelRecorder:
    """Stands in for scipy's `_sparsetools` module: forwards each call and
    records its name and arguments, arrays copied after the call."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        kernel = getattr(_sparsetools, name)

        def call(*args):
            kernel(*args)
            self.calls.append((name, [a.copy() if isinstance(a, np.ndarray) else a
                                      for a in args]))
        return call


@pytest.mark.parametrize("domain, seed", KERNEL_CASES)
def test_direct_kernels_equal_the_public_operators(domain, seed, monkeypatch):
    """Each of the private scipy kernels that fem calls gives the bits of
    the public operator it stands for, on the arguments fem passes: a
    ``csr_matvec`` those of ``csr_matrix((data, indices, indptr)) @ v``, a
    ``csc_matvec`` those of its transpose's ``.T @ w``, and ``coo_tocsr``
    the data, indices and indptr of the COO constructor's ``tocsr()``, its
    matrix canonical as that one is.  So a scipy whose kernels changed
    fails here, not in a run."""
    problem, dofmap, _, values = kernel_case(domain, seed)
    mesh = dofmap.mesh
    recorder = KernelRecorder()
    monkeypatch.setattr(fem, "_sparsetools", recorder)
    flux = element_flux(problem.nonlinearity, mesh, values)
    r = apply_nonlinear(dofmap, flux)
    a = assemble_laplacian(dofmap)
    assert [name for name, _ in recorder.calls] == ["csr_matvec"] * 2 + ["csc_matvec"] * 2 \
        + ["coo_tocsr"]
    planes = []
    for name, args in recorder.calls:
        if name == "coo_tocsr":
            n_row, n_col, nnz, rows, cols, vals, indptr, indices, data = args
            ref = sp.coo_matrix((vals[:nnz], (rows[:nnz], cols[:nnz])),
                                shape=(n_row, n_col)).tocsr()
            assert same_bits(data, ref.data) and same_bits(indices, ref.indices)
            assert same_bits(indptr, ref.indptr)
            assert a.has_canonical_format and ref.has_canonical_format
            assert same_bits(a.data, data) and same_bits(a.indices, indices)
            continue
        n_row, n_col, indptr, indices, data, x, y = args
        if name == "csr_matvec":
            op = sp.csr_matrix((data, indices, indptr), shape=(n_row, n_col))
        else:
            op = sp.csr_matrix((data, indices, indptr), shape=(n_col, n_row)).T
            planes.append(y)
        assert same_bits(y, op @ x)
    # what fem returns is made of the recorded results
    assert same_bits(r, (planes[0] + planes[1])[dofmap.free_vertices])


@pytest.mark.parametrize("domain, seed", KERNEL_CASES)
def test_triangle_quad_points_match_einsum_oracle(domain, seed):
    mesh = kernel_case(domain, seed)[1].mesh
    assert np.array_equal(triangle_quad_points(mesh), einsum_triangle_quad_points(mesh))


@pytest.mark.parametrize("domain, seed", KERNEL_CASES)
def test_stiffness_matches_einsum_oracle(domain, seed):
    dofmap = kernel_case(domain, seed)[1]
    a, ref = assemble_laplacian(dofmap), einsum_assemble_laplacian(dofmap)
    assert np.array_equal(a.indices, ref.indices) and np.array_equal(a.indptr, ref.indptr)
    # off-diagonals are sums of two terms, equal in any order; the diagonal
    # is summed per vertex in triangle order, as `sum_stiffness_diagonal`
    ref.setdiag(sum_stiffness_diagonal(dofmap))
    assert np.array_equal(a.data, ref.data)
    assert (a != a.T).nnz == 0


@pytest.mark.parametrize("domain, seed", KERNEL_CASES)
def test_element_flux_matches_einsum_oracle(domain, seed):
    problem, dofmap, _, values = kernel_case(domain, seed)
    grads = einsum_element_gradients(dofmap.mesh, values)
    mu = np.asarray(problem.nonlinearity.mu((grads ** 2).sum(axis=1)))
    fx, fy = element_flux(problem.nonlinearity, dofmap.mesh, values)
    assert np.array_equal(np.column_stack([fx, fy]), mu[:, None] * grads)


@pytest.mark.parametrize("domain, seed", KERNEL_CASES)
def test_apply_nonlinear_matches_transposed_oracle(domain, seed):
    """Bit for bit the sums of the transposed association: per coordinate,
    the area-weighted flux times the hat gradients added into the vertices
    in triangle order, then the x and the y sums added."""
    problem, dofmap, _, values = kernel_case(domain, seed)
    flux = element_flux(problem.nonlinearity, dofmap.mesh, values)
    assert np.array_equal(apply_nonlinear(dofmap, flux), add_at_apply_nonlinear(dofmap, flux))


@pytest.mark.parametrize("domain, seed", KERNEL_CASES)
def test_apply_nonlinear_matches_einsum_oracle(domain, seed):
    """The former einsum, which sums the x and y products per triangle
    first, agrees up to rounding: to 1e-13 of the largest entry."""
    problem, dofmap, _, values = kernel_case(domain, seed)
    r = apply_nonlinear(dofmap, element_flux(problem.nonlinearity, dofmap.mesh, values))
    ref = einsum_apply_nonlinear(problem.nonlinearity, FeFunction.from_vertex_values(dofmap, values))
    assert np.allclose(r, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("domain, seed", KERNEL_CASES)
def test_assemble_rhs_matches_einsum_oracle(domain, seed):
    problem, dofmap, samples, _ = kernel_case(domain, seed)
    assert np.array_equal(assemble_rhs(dofmap, samples),
                          einsum_assemble_rhs(dofmap, samples, problem.source,
                                              problem.neumann))


def test_triangle_quadrature_degree_five():
    # exact monomial integrals over the reference triangle:
    # int x^a y^b = a! b! / (a + b + 2)!
    mesh = one_triangle()
    xq = triangle_quad_points(mesh)[0]
    for a in range(6):
        for b in range(6 - a):
            exact = (math.factorial(a) * math.factorial(b)
                     / math.factorial(a + b + 2))
            approx = 0.5 * (TRI_QUAD_W * xq[:, 0] ** a * xq[:, 1] ** b).sum()
            assert approx == pytest.approx(exact, rel=1e-13), (a, b)
    assert TRI_QUAD_W.sum() == pytest.approx(1.0)
    assert np.allclose(TRI_QUAD_BARY.sum(axis=1), 1.0)


def test_edge_quadrature_degree_five():
    for k in range(6):
        approx = (EDGE_QUAD_W * EDGE_QUAD_X ** k).sum()
        assert approx == pytest.approx(1.0 / (k + 1), rel=1e-14), k


def test_rhs_volume_term():
    mesh = neumann_square()
    dofmap = DofMap.from_mesh(mesh)
    rhs = assemble_rhs(dofmap, sample(mesh, lambda p: np.ones(p.shape[:-1])))
    # each vertex collects |T|/3 from every incident triangle
    expected = np.zeros(mesh.n_vertices)
    for t, tri in enumerate(mesh.triangles):
        expected[tri] += mesh.areas[t] / 3.0
    assert np.allclose(rhs, expected[dofmap.free_vertices], atol=1e-15)
    assert rhs.sum() == pytest.approx(1.0)  # integral of 1 over the square
    with pytest.raises(ValueError, match="samples were taken on a different mesh"):
        assemble_rhs(DofMap.from_mesh(uniform_refine(mesh)),
                     sample(mesh, lambda p: np.ones(p.shape[:-1])))


def test_rhs_neumann_term():
    mesh = neumann_square()
    dofmap = DofMap.from_mesh(mesh)
    rhs = assemble_rhs(dofmap, sample(
        mesh, zero_source, lambda p, n: np.ones(np.broadcast(p[..., 0], n[..., 0]).shape)))
    # each unit boundary edge contributes h/2 = 1/2 to both endpoints, and
    # every corner of the square touches two boundary edges
    expected = np.array([1.0, 1.0, 1.0, 1.0, 0.0])[:mesh.n_vertices]
    assert np.allclose(rhs, expected[dofmap.free_vertices])
    assert rhs.sum() == pytest.approx(4.0)  # perimeter


def test_neumann_edge_normals():
    mesh = create_initial("z_shape")
    nm = sample(mesh, zero_source).neumann
    edges, lengths, normals = nm.edges, nm.lengths, nm.normals
    assert len(edges) == 8
    assert np.allclose(lengths, np.linalg.norm(
        mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]], axis=1))
    assert np.allclose((normals ** 2).sum(axis=1), 1.0)
    for e, n in zip(edges, normals):
        a, b = mesh.vertices[e]
        if np.isclose(a[0], 1.0) and np.isclose(b[0], 1.0):
            assert np.allclose(n, [1.0, 0.0])
        if np.isclose(a[1], -1.0) and np.isclose(b[1], -1.0):
            assert np.allclose(n, [0.0, -1.0])
    assert len(sample(create_initial("unit_square"), zero_source).neumann.edges) == 0


@pytest.mark.parametrize("domain", DIRICHLET_ONLY)
def test_no_neumann_edge_gives_zero_rows(domain):
    """A Dirichlet-only mesh, root or refined from samples, has Neumann
    samples of zero rows with the dtypes and trailing shapes of a z_shape
    mesh's, and never calls g, not even with zero points."""
    calls = []

    def g(points, normals):
        calls.append(points.shape)
        return smooth_flux(points, normals)

    rng = np.random.default_rng(11)
    want = sample(random_mesh("z_shape", rng, rounds=2), smooth_source, smooth_flux).neumann
    mesh = create_initial(domain)
    samples = sample(mesh, smooth_source, g)
    for _ in range(4):
        for got, expected in zip(samples.neumann, want):
            assert got.dtype == expected.dtype
            assert got.shape == (0,) + expected.shape[1:]
        assert samples.neumann.owner.flags.c_contiguous
        mesh = refine(mesh, rng.random(mesh.n_triangles) < 0.5)
        samples = sample(mesh, smooth_source, g, previous=samples)
    assert calls == []


def test_apply_nonlinear_hand_value():
    # w = x has |grad w|^2 = 1 everywhere, so the nonlinear residual is the
    # plain stiffness action scaled by mu(1) = 2 + 2^(-1/2)
    mesh = one_triangle()
    dofmap = DofMap.from_mesh(mesh)
    w = FeFunction(dofmap, [0.0, 1.0, 0.0])
    r = apply_nonlinear(dofmap, element_flux(zshape_nonlinearity(), mesh, w.vertex_values()))
    mu = 2.0 + 2.0 ** -0.5
    assert np.allclose(r, mu * np.array([-0.5, 0.5, 0.0]), atol=1e-15)


def test_apply_nonlinear_linear_case():
    mesh = random_mesh("l_shape", np.random.default_rng(1), rounds=3)
    dofmap = DofMap.from_mesh(mesh)
    a = assemble_laplacian(dofmap)
    coeffs = np.random.default_rng(2).standard_normal(dofmap.n_dofs)
    r = apply_nonlinear(dofmap, element_flux(constant_nonlinearity(3.5), mesh,
                                             FeFunction(dofmap, coeffs).vertex_values()))
    assert np.allclose(r, 3.5 * (a @ coeffs), rtol=1e-12, atol=1e-13)


def test_dofmap_partition():
    mesh = random_mesh("z_shape", np.random.default_rng(3), rounds=2)
    dofmap = DofMap.from_mesh(mesh)
    free = set(dofmap.free_vertices.tolist())
    fixed = set(mesh.boundary_edges[mesh.boundary_markers == DIRICHLET].ravel().tolist())
    assert free | fixed == set(range(mesh.n_vertices))
    assert not free & fixed
    for v in range(mesh.n_vertices):
        d = dofmap.dof_of_vertex[v]
        assert (d == -1) == (v in fixed)
        if d >= 0:
            assert dofmap.free_vertices[d] == v


def test_fe_function_round_trip():
    mesh = uniform_refine(uniform_refine(create_initial("l_shape")))
    dofmap = DofMap.from_mesh(mesh)
    assert dofmap.n_dofs > 0
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal(dofmap.n_dofs)
    u = FeFunction(dofmap, coeffs)
    again = FeFunction.from_vertex_values(dofmap, u.vertex_values())
    assert np.allclose(again.coeffs, coeffs)
    vals = u.vertex_values()
    assert np.allclose(vals[dofmap.dof_of_vertex < 0], 0.0)
    with pytest.raises(ValueError):
        FeFunction(dofmap, coeffs[:-1])
    with pytest.raises(ValueError):
        FeFunction(dofmap, np.full(dofmap.n_dofs, np.nan))


def test_prolongation_preserves_function():
    mesh = random_mesh("l_shape", np.random.default_rng(5), rounds=2)
    dofmap = DofMap.from_mesh(mesh)
    u = FeFunction(dofmap, np.random.default_rng(6).standard_normal(dofmap.n_dofs))
    fine = refine(mesh, [0, 1, 2])
    fine_dofmap = DofMap.from_mesh(fine)
    uf = prolongate(u, fine_dofmap)
    # same piecewise linear function: per-child gradient equals the parent
    # gradient, and the energy norm is preserved exactly
    gc = np.column_stack(element_gradients(mesh, u.vertex_values()))
    gf = np.column_stack(element_gradients(fine, uf.vertex_values()))
    assert np.allclose(gf, gc[fine.parent_of], atol=1e-12)
    assert energy_norm(uf) == pytest.approx(energy_norm(u), rel=1e-13)
    # values survive at the surviving vertices
    assert np.allclose(uf.vertex_values()[:mesh.n_vertices], u.vertex_values())
    with pytest.raises(ValueError):
        prolongate(u, dofmap)
    # a refinement of another root with the same vertex count
    square = create_initial("unit_square")
    other = Mesh(2.0 * square.vertices + 1.0, square.triangles, square.boundary_edges,
                 square.boundary_markers)
    fine = DofMap.from_mesh(refine(other, [0, 1]))
    prolongate(FeFunction.zero(DofMap.from_mesh(other)), fine)
    with pytest.raises(ValueError):
        prolongate(FeFunction.zero(DofMap.from_mesh(square)), fine)


@settings(max_examples=40, deadline=None)
@given(domain=st.sampled_from(["unit_square", "l_shape", "z_shape"]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_prolongate_is_exact_under_random_marking(domain, seed, data):
    rng = np.random.default_rng(seed)
    mesh = random_mesh(domain, rng, rounds=3)
    marked = data.draw(st.sets(st.integers(0, mesh.n_triangles - 1), min_size=1))
    fine = refine(mesh, sorted(marked))
    dofmap = DofMap.from_mesh(mesh)
    u = FeFunction(dofmap, rng.standard_normal(dofmap.n_dofs))
    uf = prolongate(u, DofMap.from_mesh(fine))
    assert np.array_equal(uf.vertex_values()[:mesh.n_vertices], u.vertex_values())
    gc = np.column_stack(element_gradients(mesh, u.vertex_values()))
    gf = np.column_stack(element_gradients(fine, uf.vertex_values()))
    assert np.allclose(gf, gc[fine.parent_of], rtol=0.0, atol=1e-12)
    assert energy_norm(uf) == pytest.approx(energy_norm(u), rel=1e-12)


def smooth_source(points):
    x, y = points[..., 0], points[..., 1]
    return np.cos(3.0 * x + 0.5) * np.exp(y) + x * y * y


def smooth_flux(points, normals):
    x, y = points[..., 0], points[..., 1]
    return np.sin(2.0 * x - y) * normals[..., 0] + np.exp(x * y) * normals[..., 1]


SAMPLED = ("f_phi", "volume_sq")


@settings(max_examples=60, deadline=None)
@given(domain=st.sampled_from(["unit_square", "l_shape", "z_shape"]),
       seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.lists(st.sampled_from(MARKING_KINDS), min_size=1, max_size=8))
def test_carried_arrays_match_fresh_computation(domain, seed, kinds):
    """What `refine` and `sample` gather from the parent for copied
    triangles and unsplit Neumann edges, the areas and hat gradients
    included, is bitwise what a fresh computation on the same mesh gives."""
    rng = np.random.default_rng(seed)
    mesh = create_initial(domain)
    samples = sample(mesh, smooth_source, smooth_flux)
    for kind in kinds:
        mesh = refine(mesh, random_marking(rng, mesh.n_triangles, kind))
        samples = sample(mesh, smooth_source, smooth_flux, previous=samples)
        fresh = Mesh(mesh.vertices, mesh.triangles, mesh.boundary_edges, mesh.boundary_markers)
        assert np.array_equal(mesh.areas, fresh.areas)
        assert np.array_equal(mesh.gradient_planes, fresh.gradient_planes)
        want = sample(fresh, smooth_source, smooth_flux)
        for name in SAMPLED:
            assert np.array_equal(getattr(samples, name), getattr(want, name)), name
        assert (len(samples.neumann.edges) == 0) == (domain != "z_shape")
        for got, expected in zip(samples.neumann, want.neumann):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 40),
       zeros=st.floats(0.0, 1.0), scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e150]))
def test_volume_moments_match_loop_oracle(seed, n, zeros, scale):
    """The products f_q w_q taken for all nodes at once give the bits of
    the former loop, signed zeros included (a triangle where f is -0.0 at
    every node)."""
    rng = np.random.default_rng(seed)
    fq = scale * rng.standard_normal((n, 7))
    fq[rng.random((n, 7)) < zeros] = -0.0
    fq[::3] = -0.0
    areas = rng.random(n) + 1e-3
    got, want = _volume_moments(fq, areas), loop_volume_moments(fq, areas)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kinds=st.lists(st.sampled_from(MARKING_KINDS),
                                                        min_size=1, max_size=5))
def test_edge_frames_match_norm_oracle(seed, kinds):
    """Lengths and normals of Neumann edges (computed or carried) and of
    interior edges, as the sums of the two squared coordinates, equal bit
    for bit those of np.linalg.norm and np.column_stack; prolongation
    takes the former mean of the two parent values bit for bit as well."""
    rng = np.random.default_rng(seed)
    mesh = random_root("z_shape", rng)
    samples = sample(mesh, smooth_source, smooth_flux)
    for kind in kinds:
        coarse, mesh = mesh, refine(mesh, random_marking(rng, mesh.n_triangles, kind))
        samples = sample(mesh, smooth_source, smooth_flux, previous=samples)
        nm = samples.neumann
        centroids = mesh.vertices[mesh.triangles[nm.owner]].mean(axis=1)
        length, normal = norm_edge_frames(mesh.vertices, nm.edges, centroids)
        assert same_bits(nm.lengths, length) and same_bits(nm.normals, normal)
        est = EstimatorData(samples)
        inner = mesh.edges.nodes[~mesh.edges.is_boundary]
        tang = mesh.vertices[inner[:, 1]] - mesh.vertices[inner[:, 0]]
        assert same_bits(est.ie_length, np.linalg.norm(tang, axis=1))
        dofmap = DofMap.from_mesh(coarse)
        u = FeFunction(dofmap, rng.standard_normal(dofmap.n_dofs))
        vals = np.empty(mesh.n_vertices)
        vals[:coarse.n_vertices] = u.vertex_values()
        vals[coarse.n_vertices:] = vals[mesh.vertex_parents].mean(axis=1)
        fine = DofMap.from_mesh(mesh)
        assert same_bits(prolongate(u, fine).coeffs, vals[fine.free_vertices])


def test_sample_gathers_only_from_the_parent_samples():
    root = create_initial("l_shape")
    parent, aunt = refine(root, [0]), refine(root, [2])  # same counts, other vertex
    child = refine(parent, [0])
    points = []

    def f(p):
        points.append(p.shape[:-1])
        return smooth_source(p)

    want = sample(child, smooth_source)
    new = int((child.triangles >= child.n_coarse_vertices).any(axis=1).sum())
    for previous, evaluated in ((sample(parent, smooth_source), new),
                                (None, child.n_triangles)):
        points.clear()
        got = sample(child, f, previous=previous)
        assert points == [(evaluated, 7)]
        for name in SAMPLED:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    # samples of any other mesh are an error, not a reason to sample afresh
    for other in (root, aunt, child):
        points.clear()
        with pytest.raises(ValueError, match="not taken on the parent mesh"):
            sample(child, f, previous=sample(other, smooth_source))
        assert points == []


def test_energy_norm_matches_operator():
    mesh = random_mesh("z_shape", np.random.default_rng(7), rounds=3)
    dofmap = DofMap.from_mesh(mesh)
    a = assemble_laplacian(dofmap)
    v = FeFunction(dofmap, np.random.default_rng(8).standard_normal(dofmap.n_dofs))
    assert np.sqrt(v.coeffs @ (a @ v.coeffs)) == pytest.approx(energy_norm(v), rel=1e-12)


def test_energy_functional_two_sided_bound():
    # E(v) - E(u) is squeezed between (alpha/2) and (L/2) times |||v - u|||^2
    # at the discrete minimizer u
    problem = get_problem("zshape")
    nl = problem.nonlinearity
    mesh = uniform_refine(uniform_refine(create_initial("z_shape")))
    dofmap = DofMap.from_mesh(mesh)
    a = assemble_laplacian(dofmap)
    load = assemble_rhs(dofmap, sample(mesh, problem.source, problem.neumann))
    step = picard_map(nl, dofmap, a, load)
    x = np.zeros(dofmap.n_dofs)
    for _ in range(250):
        x = step(x)
    u = FeFunction(dofmap, x)
    e_min = energy_functional(nl, u, load)
    rng = np.random.default_rng(9)
    for scale in (1e-3, 0.1, 1.0, 10.0):
        v = FeFunction(dofmap, x + scale * rng.standard_normal(dofmap.n_dofs))
        d2 = energy_norm(FeFunction(dofmap, v.coeffs - x)) ** 2
        gap = energy_functional(nl, v, load) - e_min
        assert gap >= 0.5 * nl.alpha * d2 * (1.0 - 1e-9) - 1e-13
        assert gap <= 0.5 * nl.lipschitz * d2 * (1.0 + 1e-9) + 1e-13


def test_galerkin_solution_is_near_best():
    problem = get_problem("square_linear")
    mesh = create_initial("unit_square")
    for _ in range(5):
        mesh = uniform_refine(mesh)
    dofmap = DofMap.from_mesh(mesh)
    a = assemble_laplacian(dofmap)
    rhs = assemble_rhs(dofmap, sample(mesh, problem.source))
    uh = FeFunction(dofmap, solve_exact(a, rhs))
    best = interpolate(dofmap, problem.exact.value)
    err_uh = energy_error_vs_exact(uh, problem.exact.gradient)
    err_best = energy_error_vs_exact(best, problem.exact.gradient)
    assert err_uh <= err_best
    assert err_uh >= 0.5 * err_best  # same order: no superconvergence fluke


def test_energy_error_exact_for_linear_solution():
    mesh = neumann_square()
    dofmap = DofMap.from_mesh(mesh)
    v = interpolate(dofmap, lambda p: p[..., 0] + 2.0 * p[..., 1])
    err = energy_error_vs_exact(
        v, lambda p: np.broadcast_to([1.0, 2.0], p.shape).copy())
    assert err == pytest.approx(0.0, abs=1e-13)


def test_energy_functional_requires_antiderivative():
    nl = zshape_nonlinearity()
    bare = type(nl)(name="bare", mu=nl.mu, dmu_dt=nl.dmu_dt,
                    antiderivative=None, alpha=nl.alpha,
                    lipschitz=nl.lipschitz, gamma1=nl.gamma1, gamma2=nl.gamma2)
    mesh = one_triangle()
    dofmap = DofMap.from_mesh(mesh)
    with pytest.raises(ValueError):
        energy_functional(bare, FeFunction.zero(dofmap), np.zeros(3))
