"""Residual a posteriori error estimator and Doerfler marking.

For a discrete function v the indicator of triangle T is

    eta(T)^2 = |T| ||f + div(mu(|grad v|^2) grad v)||_{L2(T)}^2
             + |T|^(1/2) ||jump of mu(|grad v|^2) grad v . n||_{L2(inner edges of T)}^2
             + |T|^(1/2) ||g - mu(|grad v|^2) grad v . n||_{L2(Neumann edges of T)}^2

For piecewise affine v the divergence vanishes and the flux is constant
per element, so the volume term reduces to the f integral and edge terms
are exact.  The data enter as `fem.Samples`, taken once per mesh and shared
with the load vector; without Neumann edges they have zero Neumann rows.

An evaluation (`EstimatorData.eval_squared`) maps a flux (`fem.element_flux`)
to the squared edge terms, one per interior and per Neumann edge.
The stopping tests need only eta, the square root of the sum of all
indicators: the sum of the volume terms, which is fixed per mesh, plus
two dot products of the edge terms with fixed weights, sqrt|T_l| +
sqrt|T_r| for an interior edge and sqrt|T| of its triangle for a Neumann
edge (`EstimatorData.eta`).  Only marking needs the indicators per
triangle; `EstimatorData.scatter` sums the same terms onto the triangles.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .fem import FeFunction, Samples, element_flux, sample
from .mesh import Mesh, edge_frame, pair_ends, triangle_subset
from .nonlinearity import Nonlinearity


@dataclass(frozen=True)
class IndicatorField:
    """Per-triangle indicators eta(T) on a fixed mesh."""

    mesh: Mesh
    squared: np.ndarray

    def __post_init__(self):
        sq = np.asarray(self.squared, dtype=float).reshape(-1)
        if sq.shape[0] != self.mesh.n_triangles:
            raise ValueError("need one squared indicator per triangle")
        if not np.logical_and.reduce((sq >= 0.0) & (sq < np.inf)):
            raise ValueError("squared indicators must be finite and nonnegative")
        sq.setflags(write=False)
        object.__setattr__(self, "squared", sq)

    @property
    def values(self) -> np.ndarray:
        return np.sqrt(self.squared)


def total(field: IndicatorField, subset=None) -> float:
    """sqrt of the sum of squared indicators over a triangle subset, read by
    `mesh.triangle_subset` (all triangles by default)."""
    sq = field.squared if subset is None else field.squared[triangle_subset(field.mesh, subset)]
    return float(np.sqrt(sq.sum()))


EdgeTerms = namedtuple("EdgeTerms", "jump neumann")
EdgeTerms.__doc__ = """The squared edge terms of one evaluation: ``jump``,
length times the squared jump of the normal flux, per interior edge of
`EstimatorData` (its ``ie_left`` order), and ``neumann``, the squared
L2 mismatch of g and the normal flux, per Neumann edge (empty without
Neumann edges)."""


class EstimatorData:
    """Mesh- and data-dependent precomputations for indicator evaluation.

    Everything that does not depend on the argument function is prepared
    once: the interior edge topology and normals from the mesh, and, as
    `sample` integrated them, the volume data integral per element and the
    Neumann data integrals per edge; then the weights of `eta` (see the
    module docstring).  `eval_squared` then costs a handful of vectorized
    passes over the edges of a given flux.
    """

    def __init__(self, samples: Samples):
        mesh = self.mesh = samples.mesh
        et = mesh.edges
        # row gathers by take, several times faster than fancy indexing;
        # triangle ids as contiguous np.intp, read uncast on every evaluation
        interior = (et.incident[:, 1] >= 0).nonzero()[0]
        self.ie_left, self.ie_right = et.incident.take(interior, axis=0).T.astype(
            np.intp, order="C")
        self.ie_length, self.ie_normal = edge_frame(mesh.vertices,
                                                    pair_ends(et.codes.take(interior)))

        # the volume term |T| ||f||^2_{L2(T)} per element and the Neumann
        # data integrals per edge, as sampled
        self.volume_sq, self.neumann = samples.volume_sq, samples.neumann
        # the weights of eta; scatter recomputes sqrt|T| itself
        sqrt_areas = np.sqrt(mesh.areas)
        self.volume_total = np.add.reduce(self.volume_sq)
        self.ie_weight = sqrt_areas.take(self.ie_left) + sqrt_areas.take(self.ie_right)
        self.neumann_weight = sqrt_areas.take(self.neumann.owner)

    def eval_squared(self, flux) -> EdgeTerms:
        """The squared edge terms (`EdgeTerms`) of the P1 function whose
        per-triangle flux is ``flux`` = ``(fx, fy)`` (`fem.element_flux`);
        raises ValueError unless both have one entry per triangle."""
        fx, fy = flux
        if fx.shape != self.mesh.areas.shape or fy.shape != fx.shape:
            raise ValueError("need one flux value per triangle of the mesh")
        left, right = self.ie_left, self.ie_right
        # gathers by take, faster than fancy indexing; numpy reuses the
        # temporaries, and the square and the lengths go in place
        jump = ((fx.take(left) - fx.take(right)) * self.ie_normal[0]
                + (fy.take(left) - fy.take(right)) * self.ie_normal[1])
        jump *= jump
        jump *= self.ie_length
        nm = self.neumann
        owner = nm.owner
        c = fx.take(owner) * nm.normals[:, 0] + fy.take(owner) * nm.normals[:, 1]
        mismatch = nm.g_sq_int - 2.0 * c * nm.g_int + c ** 2 * nm.lengths
        return EdgeTerms(jump, np.maximum(mismatch, 0.0))

    def eta(self, terms: EdgeTerms) -> float:
        """sqrt of the sum of the squared indicators whose edge terms are
        ``terms``: the volume sum plus the dot products of the edge terms
        with their weights."""
        sq = self.volume_total + terms.jump @ self.ie_weight
        sq += terms.neumann @ self.neumann_weight
        return float(np.sqrt(sq))

    def scatter(self, terms: EdgeTerms) -> np.ndarray:
        """The squared indicators per triangle, (nT,), whose edge terms are
        ``terms``: each term summed onto the triangles of its edge, times
        sqrt|T|, plus the volume term."""
        n = self.mesh.n_triangles
        edge_sq = np.zeros(n)
        edge_sq += np.bincount(self.ie_left, weights=terms.jump, minlength=n)
        edge_sq += np.bincount(self.ie_right, weights=terms.jump, minlength=n)
        edge_sq += np.bincount(self.neumann.owner, weights=terms.neumann, minlength=n)
        return self.volume_sq + np.sqrt(self.mesh.areas) * edge_sq


def indicators(nl: Nonlinearity, f, g, v: FeFunction) -> IndicatorField:
    """Residual indicators of v for data (f, g); see the module docstring."""
    data = EstimatorData(sample(v.mesh, f, g))
    flux = element_flux(nl, v.mesh, v.vertex_values())
    return IndicatorField(v.mesh, data.scatter(data.eval_squared(flux)))


def doerfler_mark(field: IndicatorField, theta: float) -> np.ndarray:
    """Smallest set M with theta^2 * eta^2 <= sum of eta(T)^2 over M.

    Greedy by decreasing squared indicator, ties broken by triangle index;
    the returned indices are sorted ascending.  Only the k largest values
    are sorted, until their partial sums reach the target theta * theta *
    sq.sum() in floating point: theta = fl(sqrt(0.5)) squares to just above
    one half, so four equal indicators need three marks.  theta = 1 marks
    every positive indicator.  When they fall short, k grows by the deficit
    over the mean of the other n - k values: that many of the largest of
    those cover it, so the next round ends the search, up to rounding.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    sq = field.squared
    total_sq = sq.sum()
    if not total_sq > 0.0:
        raise ValueError("estimator is zero; nothing to mark")
    target = theta * theta * total_sq
    n, k = len(sq), 1 + len(sq) // 64
    while True:
        # the k largest values, decreasing: a prefix of all
        top = np.partition(sq, n - k)[n - k:]
        top.sort()
        top = top[::-1]
        csum = top.cumsum()
        if csum[-1] >= target or k == n:
            break
        k = min(n, k + int(np.ceil((target - csum[-1]) / (total_sq - csum[-1]) * (n - k))))
    # a pairwise total may pass the sorted one by an ulp (at theta = 1)
    count = int(csum.searchsorted(min(target, csum[-1]))) + 1
    # every value above the count-th largest, and the lowest indices of its ties
    marked = sq > top[count - 1]
    marked[(sq == top[count - 1]).nonzero()[0][:count - np.count_nonzero(marked)]] = True
    return marked.nonzero()[0]
