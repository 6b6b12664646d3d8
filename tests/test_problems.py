"""Benchmark problem data: exact solutions, sources, and error evaluation."""

import numpy as np
import pytest

from afem import (DofMap, ZSHAPE_BETA, create_initial, get_problem,
                  interpolate, uniform_refine, zshape_exact)
from afem.fem import energy_error_vs_exact, interpolate as _interp
from afem.problems import ErrorData, ExactSolution

BETA = ZSHAPE_BETA


def polar(p):
    p = np.asarray(p, dtype=float)
    return np.hypot(p[..., 0], p[..., 1]), np.arctan2(p[..., 1], p[..., 0])


def sample_points(rng, n=40, r_lo=0.25, r_hi=0.85):
    """Points inside the Z-shape, away from the corner and the slit."""
    r = rng.uniform(r_lo, r_hi, n)
    phi = rng.uniform(-0.8 * np.pi, 0.8 * np.pi, n)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def polar_fan_integral(p1, p2, direction_profile, homogeneity, n_gauss=240):
    """Integral over the triangle (0, p1, p2) of r^h * profile(angle).

    Independent oracle for corner elements: in polar coordinates the
    radial part integrates in closed form, leaving a smooth 1D integral
    int profile(phi) R(phi)^(h+2) / (h+2) dphi with R the distance from
    the origin to the far edge in direction phi.
    """
    phi1 = np.arctan2(p1[1], p1[0])
    phi2 = np.arctan2(p2[1], p2[0])
    if phi2 < phi1:
        phi2 += 2.0 * np.pi
    edge = np.asarray(p2, dtype=float) - np.asarray(p1, dtype=float)
    normal = np.array([edge[1], -edge[0]])
    normal /= np.linalg.norm(normal)
    c = normal @ p1
    xs, ws = np.polynomial.legendre.leggauss(n_gauss)
    phi = 0.5 * (phi2 - phi1) * xs + 0.5 * (phi1 + phi2)
    w = 0.5 * (phi2 - phi1) * ws
    direction = np.column_stack([np.cos(phi), np.sin(phi)])
    radius = c / (direction @ normal)
    h = homogeneity
    return float((w * direction_profile(direction)
                  * radius ** (h + 2.0) / (h + 2.0)).sum())


def test_zshape_exact_values():
    exact = zshape_exact()
    assert exact.value(np.array([1.0, 0.0])) == pytest.approx(1.0)
    # vanishes on the slit rays phi = +/- 7 pi / 8
    for sign in (+1.0, -1.0):
        p = np.array([-0.5, sign * 0.5 * (np.sqrt(2.0) - 1.0)])
        assert exact.value(p) == pytest.approx(0.0, abs=1e-14)
    # scaling: u(s x) = s^beta u(x)
    x = np.array([0.3, 0.4])
    assert exact.value(2.0 * x) == pytest.approx(
        2.0 ** BETA * exact.value(x), rel=1e-13)


def test_zshape_gradient_consistent():
    exact = zshape_exact()
    rng = np.random.default_rng(0)
    pts = sample_points(rng)
    h = 1e-6
    for d in range(2):
        e = np.zeros(2)
        e[d] = h
        fd = (exact.value(pts + e) - exact.value(pts - e)) / (2.0 * h)
        assert np.allclose(exact.gradient(pts)[:, d], fd, rtol=1e-6, atol=1e-9)
    # |grad u|^2 has the closed form beta^2 r^(2 beta - 2)
    r, _ = polar(pts)
    assert np.allclose(exact.gradient_sq(pts), BETA ** 2 * r ** (2 * BETA - 2),
                       rtol=1e-12)
    assert np.allclose(exact.gradient_sq(pts),
                       (exact.gradient(pts) ** 2).sum(axis=1), rtol=1e-12)
    assert exact.singular_degree == pytest.approx(BETA - 1.0)


def test_zshape_source_is_divergence_of_flux():
    # -div( mu(|grad u|^2) grad u ) must reproduce the stated source term
    problem = get_problem("zshape")
    exact = problem.exact
    nl = problem.nonlinearity

    def flux(p):
        return nl.mu(exact.gradient_sq(p))[..., None] * exact.gradient(p)

    rng = np.random.default_rng(1)
    pts = sample_points(rng, n=60)
    h = 1e-5
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    div = ((flux(pts + ex)[:, 0] - flux(pts - ex)[:, 0])
           + (flux(pts + ey)[:, 1] - flux(pts - ey)[:, 1])) / (2.0 * h)
    f = problem.source(pts)
    assert np.allclose(-div, f, rtol=2e-4, atol=1e-8)
    # the source is genuinely nonzero (the problem is not manufactured to 0)
    assert np.abs(f).min() > 1e-3


def test_zshape_neumann_flux():
    problem = get_problem("zshape")
    exact = problem.exact
    nl = problem.nonlinearity
    pts = np.column_stack([np.ones(5), np.linspace(-0.9, 0.9, 5)])
    normals = np.broadcast_to([1.0, 0.0], pts.shape)
    g = problem.neumann(pts, normals)
    expected = nl.mu(exact.gradient_sq(pts)) * exact.gradient(pts)[:, 0]
    assert np.allclose(g, expected, rtol=1e-12)


def test_problem_catalog():
    z = get_problem("zshape")
    assert z.domain == "z_shape" and z.exact is not None
    assert get_problem("Z-Shape").name == "zshape"
    l = get_problem("lshape")
    assert l.exact is None and l.neumann is None
    pts = np.zeros((3, 2))
    assert np.allclose(l.source(pts), 1.0)
    for alias in ("square_linear", "unit_square", "squareLinear"):
        assert get_problem(alias).name == "square_linear"
    with pytest.raises(ValueError):
        get_problem("torus")


def test_error_data_matches_generic_quadrature_without_singularity():
    problem = get_problem("square_linear")
    mesh = uniform_refine(uniform_refine(create_initial("unit_square")))
    dofmap = DofMap.from_mesh(mesh)
    v = interpolate(dofmap, problem.exact.value)
    data = ErrorData(mesh, problem.exact)
    direct = energy_error_vs_exact(v, problem.exact.gradient)
    assert data.error(v.vertex_values()) == pytest.approx(direct, rel=1e-11)
    assert data.error(np.zeros(mesh.n_vertices)) > 0


def test_corner_elements_use_exact_radial_integration():
    # independent oracle: integrate in polar coordinates about the corner,
    # radial part in closed form, angular part by dense 1D Gauss
    exact = zshape_exact()
    mesh = create_initial("z_shape")
    data = ErrorData(mesh, exact)
    tri = mesh.triangles[0]
    local = int(np.nonzero((mesh.vertices[tri] == 0.0).all(axis=1))[0][0])
    p1 = mesh.vertices[tri[(local + 1) % 3]]
    p2 = mesh.vertices[tri[(local + 2) % 3]]
    oracle = polar_fan_integral(p1, p2, exact.gradient_sq, 2.0 * BETA - 2.0)
    assert data._e0[0] == pytest.approx(oracle, rel=1e-10)
    # and componentwise for the gradient integral (homogeneity beta - 1)
    oracle_g = [polar_fan_integral(p1, p2,
                                   lambda q, d=d: exact.gradient(q)[..., d],
                                   BETA - 1.0)
                for d in range(2)]
    assert np.allclose(data._gint[0], oracle_g, rtol=1e-10)


def test_exact_solution_energy_value():
    # |||u*|||^2 over the whole Z-shape, all eight fan elements via the
    # radial closed form; cross-checked against the polar oracle above
    exact = zshape_exact()
    mesh = create_initial("z_shape")
    data = ErrorData(mesh, exact)
    norm = data.error(np.zeros(mesh.n_vertices))
    assert norm ** 2 == pytest.approx(1.8185486, abs=2e-6)
    total = 0.0
    for tri in mesh.triangles:
        local = int(np.nonzero((mesh.vertices[tri] == 0.0).all(axis=1))[0][0])
        total += polar_fan_integral(mesh.vertices[tri[(local + 1) % 3]],
                                    mesh.vertices[tri[(local + 2) % 3]],
                                    exact.gradient_sq, 2.0 * BETA - 2.0)
    assert norm ** 2 == pytest.approx(total, rel=1e-10)
    # on the fan mesh every element touches the corner, so the value is
    # radial-form exact; on refined meshes the elements one ring out use the
    # generic rule on a steep integrand, costing a few 1e-6 relative
    fine = uniform_refine(uniform_refine(mesh))
    fine_norm = ErrorData(fine, exact).error(np.zeros(fine.n_vertices))
    assert fine_norm == pytest.approx(norm, rel=2e-5)


def test_interpolation_error_decreases():
    problem = get_problem("zshape")
    mesh = create_initial("z_shape")
    errs = []
    for _ in range(4):
        dofmap = DofMap.from_mesh(mesh)
        v = _interp(dofmap, problem.exact.value)
        errs.append(ErrorData(mesh, problem.exact).error(v.vertex_values()))
        mesh = uniform_refine(mesh)
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_error_data_rejects_non_integrable_gradient():
    exact = zshape_exact()
    bad = ExactSolution(value=exact.value, gradient=exact.gradient,
                        gradient_sq=exact.gradient_sq,
                        singular_point=(0.0, 0.0), singular_degree=-1.0)
    with pytest.raises(ValueError):
        ErrorData(create_initial("z_shape"), bad)
