"""Benchmark boundary value problems for the adaptive solver.

Each problem bundles a domain name, a scalar diffusion nonlinearity, the
volume source, optional Neumann data, and (when available) the exact
solution.  The flagship case is a corner singularity on the Z-shaped
domain with an exact solution of the form r^beta cos(beta phi), which the
nonlinear operator maps to computable volume and flux data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fem import TRI_QUAD_W, element_gradients, triangle_quad_points
from .nonlinearity import (Nonlinearity, constant_nonlinearity,
                           lshape_nonlinearity, zshape_nonlinearity)

# opening angle of the Z-shape slit sector is 7*pi/4
ZSHAPE_BETA = 4.0 / 7.0


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form solution with the pieces error computation needs.

    ``singular_point``, if set, marks a corner where the gradient behaves
    like distance^singular_degree: gradient(p + s v) = s^deg gradient(p + v)
    for s > 0.  Error integration exploits this on elements touching p.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    gradient_sq: Callable[[np.ndarray], np.ndarray]
    singular_point: Optional[tuple] = None
    singular_degree: float = 0.0


@dataclass(frozen=True)
class Problem:
    """``uniform_rate``: the estimator's slope versus nT under uniform refinement."""

    name: str
    domain: str
    nonlinearity: Nonlinearity
    source: Callable[[np.ndarray], np.ndarray]
    uniform_rate: float
    neumann: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    exact: Optional[ExactSolution] = None


def _polar(points: np.ndarray):
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    return np.hypot(x, y), np.arctan2(y, x)


def zshape_exact() -> ExactSolution:
    """u(r, phi) = r^beta cos(beta phi) on the Z-shape, beta = 4/7.

    Harmonic, vanishes on the two slit edges phi = +-7pi/8, gradient
    blows up like r^(beta-1) at the reentrant corner.  The arctan2 branch
    cut lies inside the removed sector, so phi is smooth on the domain.
    """
    b = ZSHAPE_BETA

    def value(points):
        r, phi = _polar(points)
        return r ** b * np.cos(b * phi)

    def gradient(points):
        r, phi = _polar(points)
        with np.errstate(divide="ignore"):
            mag = b * r ** (b - 1.0)
        mag = np.where(r > 0.0, mag, 0.0)
        a = (b - 1.0) * phi
        return np.stack([mag * np.cos(a), -mag * np.sin(a)], axis=-1)

    def gradient_sq(points):
        r, phi = _polar(points)
        with np.errstate(divide="ignore"):
            t = b * b * r ** (2.0 * b - 2.0)
        return np.where(r > 0.0, t, 0.0)

    return ExactSolution(value=value, gradient=gradient, gradient_sq=gradient_sq,
                         singular_point=(0.0, 0.0), singular_degree=b - 1.0)


def _zshape_problem() -> Problem:
    nl = zshape_nonlinearity()
    exact = zshape_exact()
    b = ZSHAPE_BETA

    # -div(mu(|grad u|^2) grad u) with mu = 2 + (1+t)^(-1/2) and u harmonic
    # reduces to -mu'(t) grad t . grad u; in the form below all powers of r
    # stay bounded as r -> 0 except the explicit 1/r factor.
    def source(points):
        r, phi = _polar(points)
        denom = r * (r ** (2.0 - 2.0 * b) + b * b) ** 1.5
        with np.errstate(divide="ignore"):
            out = b ** 3 * (b - 1.0) * np.cos(b * phi) / denom
        return np.where(r > 0.0, out, 0.0)

    def neumann(points, normals):
        t = exact.gradient_sq(points)
        flux = nl.mu(t)[..., None] * exact.gradient(points)
        return np.einsum("...d,...d->...", flux, normals)

    return Problem(name="zshape", domain="z_shape", nonlinearity=nl, source=source,
                   uniform_rate=-ZSHAPE_BETA / 2.0, neumann=neumann, exact=exact)


def _lshape_problem() -> Problem:
    def source(points):
        return np.ones(np.asarray(points).shape[:-1])

    return Problem(name="lshape", domain="l_shape", nonlinearity=lshape_nonlinearity(),
                   source=source, uniform_rate=-1.0 / 3.0)


def _square_linear_problem() -> Problem:
    """Poisson on the unit square with u = sin(pi x) sin(pi y)."""

    def value(points):
        pts = np.asarray(points, dtype=float)
        return np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])

    def gradient(points):
        pts = np.asarray(points, dtype=float)
        sx, cx = np.sin(np.pi * pts[..., 0]), np.cos(np.pi * pts[..., 0])
        sy, cy = np.sin(np.pi * pts[..., 1]), np.cos(np.pi * pts[..., 1])
        return np.pi * np.stack([cx * sy, sx * cy], axis=-1)

    def gradient_sq(points):
        g = gradient(points)
        return np.einsum("...d,...d->...", g, g)

    def source(points):
        return 2.0 * np.pi ** 2 * value(points)

    exact = ExactSolution(value=value, gradient=gradient, gradient_sq=gradient_sq)
    return Problem(name="square_linear", domain="unit_square",
                   nonlinearity=constant_nonlinearity(1.0),
                   source=source, uniform_rate=-0.5, exact=exact)


_CATALOG = {
    "zshape": _zshape_problem,
    "lshape": _lshape_problem,
    "square_linear": _square_linear_problem,
}


def get_problem(name: str) -> Problem:
    key = name.replace("-", "").replace("_", "").lower()
    key = {"zshape": "zshape", "lshape": "lshape",
           "squarelinear": "square_linear", "unitsquare": "square_linear"}.get(key)
    if key is None:
        raise ValueError(f"unknown problem {name!r}; know {sorted(_CATALOG)}")
    return _CATALOG[key]()


class ErrorData:
    """Per-mesh cache for the energy distance to an exact solution.

    Expands ||grad(u - v)||^2 into int |grad u|^2 - 2 int grad u . grad v
    + int |grad v|^2 and precomputes the first two element-wise; grad v is
    constant per element, so each evaluation is a few vector reductions.

    Elements touching the singular point get the quadrature replaced by a
    radial closed form: mapping x = p + s (q(t) - p) with q(t) on the
    opposite edge, homogeneity of degree h gives
    int_T F = 2|T|/(2+h) int_0^1 F(q(t)) dt, and the edge integrand is
    smooth, so Gauss quadrature there is essentially exact.
    """

    def __init__(self, mesh, exact: ExactSolution):
        self.mesh = mesh
        pts = triangle_quad_points(mesh)
        areas = mesh.areas
        e0 = areas * np.einsum("tq,q->t", exact.gradient_sq(pts), TRI_QUAD_W)
        gint = areas[:, None] * np.einsum("tqd,q->td", exact.gradient(pts),
                                          TRI_QUAD_W)
        if exact.singular_point is not None:
            p = np.asarray(exact.singular_point, dtype=float)
            hit = ((mesh.vertices - p) ** 2).sum(axis=1) < 1e-28
            tri_hit = hit[mesh.triangles]
            deg = exact.singular_degree
            if 2.0 * deg <= -2.0:
                raise ValueError("gradient is not square integrable")
            xs, ws = np.polynomial.legendre.leggauss(12)
            ts, tw = 0.5 * (xs + 1.0), 0.5 * ws
            for t in np.nonzero(tri_hit.any(axis=1))[0]:
                local = int(np.nonzero(tri_hit[t])[0][0])
                idx = mesh.triangles[t]
                p1 = mesh.vertices[idx[(local + 1) % 3]]
                p2 = mesh.vertices[idx[(local + 2) % 3]]
                q = np.outer(1.0 - ts, p1) + np.outer(ts, p2)
                det = 2.0 * areas[t]
                e0[t] = det / (2.0 * deg + 2.0) * (tw @ exact.gradient_sq(q))
                gint[t] = det / (deg + 2.0) * (tw @ exact.gradient(q))
        self._e0 = e0
        self._e0_total = float(e0.sum())
        self._gint = gint

    def error(self, vertex_values: np.ndarray) -> float:
        """Energy norm of (exact - piecewise linear with these vertex values)."""
        gx, gy = element_gradients(self.mesh, vertex_values)
        err2 = (self._e0_total - 2.0 * float((self._gint * np.column_stack([gx, gy])).sum())
                + float((self.mesh.areas * (gx * gx + gy * gy)).sum()))
        return float(np.sqrt(max(err2, 0.0)))
