"""Lowest-order conforming finite elements on triangle meshes.

Assembly of the Laplace stiffness matrix, of load vectors with volume and
Neumann data, and of the nonlinear operator application, plus energy norm,
energy functional, prolongation between nested meshes, and the energy-norm
distance to a known gradient field.  Functions are piecewise affine and
vanish on the Dirichlet boundary; coefficient vectors run over the free
(non-Dirichlet) vertices only.

Volume integrands are approximated with the symmetric 7-point rule of
degree 5, edge integrands with 3-point Gauss, everywhere a data or
nonlinear integrand appears; polynomial integrands are thereby exact.
`sample` evaluates the problem data at these nodes once per mesh and keeps,
of the volume data, only the per-triangle integrals that the load vector
and the estimator read.  Given the samples of the parent mesh it evaluates
f only on the new triangles and g only on the halves of split Neumann
edges: the integrals of a copied triangle and the lengths, normals and g
values of an unsplit Neumann edge are gathered from the parent's samples,
and each edge's owning triangle is read from the edge table that `refine`
carried; ``g`` is not called on a level where no Neumann edge was split.
The load vector and the estimator both integrate the same `Samples`.

The element gradients of a P1 function are one sparse matvec with
`Mesh.gradient_operator`, whose data are the hat gradients themselves: the
compiled loop sums ``0 + g0 v0 + g1 v1 + g2 v2`` per row without fused
multiply-adds, the operand order of the einsum oracle in the tests, so the
result is bitwise equal to it.
The other element kernels are explicit sums over the 2 coordinates and the
3 vertices, faster than `einsum`; each keeps the operand order of the einsum
it replaced, so results are bitwise equal to the einsum oracles as well.
The stiffness matrix is assembled over the edge graph: one sum per edge of
`Mesh.edges` and one per vertex, in triangle order, give its n + 2 n_edges
entries (rather than 9 per triangle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import DIRICHLET, Mesh, copied_triangles
from .nonlinearity import Nonlinearity

_A5 = (6.0 + np.sqrt(15.0)) / 21.0
_B5 = (6.0 - np.sqrt(15.0)) / 21.0
_WA = (155.0 + np.sqrt(15.0)) / 1200.0
_WB = (155.0 - np.sqrt(15.0)) / 1200.0
# degree-5 rule: barycentric nodes and weights normalized to sum 1
TRI_QUAD_BARY = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [_A5, _A5, 1 - 2 * _A5],
    [_A5, 1 - 2 * _A5, _A5],
    [1 - 2 * _A5, _A5, _A5],
    [_B5, _B5, 1 - 2 * _B5],
    [_B5, 1 - 2 * _B5, _B5],
    [1 - 2 * _B5, _B5, _B5],
])
TRI_QUAD_W = np.array([9 / 40, _WA, _WA, _WA, _WB, _WB, _WB])

_G3 = 0.5 * np.sqrt(3.0 / 5.0)
EDGE_QUAD_X = np.array([0.5 - _G3, 0.5, 0.5 + _G3])  # on the unit interval
EDGE_QUAD_W = np.array([5 / 18, 8 / 18, 5 / 18])

def triangle_quad_points(mesh: Mesh, rows=slice(None)) -> np.ndarray:
    """Physical coordinates of the volume quadrature nodes, (nT, 7, 2), of
    all triangles or of those selected by ``rows``."""
    p = mesh.vertices[mesh.triangles[rows]][:, :, None, :]
    out = TRI_QUAD_BARY[:, 0, None] * p[:, 0]
    for i in (1, 2):
        out += TRI_QUAD_BARY[:, i, None] * p[:, i]
    return out


@dataclass(frozen=True)
class DofMap:
    """Numbering of the free (non-Dirichlet) vertices, found with a mask."""

    mesh: Mesh
    free_vertices: np.ndarray
    dof_of_vertex: np.ndarray

    @classmethod
    def from_mesh(cls, mesh: Mesh) -> "DofMap":
        free = np.ones(mesh.n_vertices, dtype=bool)
        free[mesh.dirichlet_vertices()] = False
        free = np.flatnonzero(free)
        dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
        dof[free] = np.arange(free.size)
        dof.setflags(write=False)
        free.setflags(write=False)
        return cls(mesh=mesh, free_vertices=free, dof_of_vertex=dof)

    @property
    def n_dofs(self) -> int:
        return self.free_vertices.size


@dataclass
class FeFunction:
    """Piecewise affine function, zero on the Dirichlet boundary."""

    dofmap: DofMap
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if self.coeffs.size != self.dofmap.n_dofs:
            raise ValueError("coefficient count does not match the free vertex count")
        if self.coeffs.size and not np.isfinite(self.coeffs).all():
            raise ValueError("non-finite coefficient")

    @property
    def mesh(self) -> Mesh:
        return self.dofmap.mesh

    @classmethod
    def zero(cls, dofmap: DofMap) -> "FeFunction":
        return cls(dofmap, np.zeros(dofmap.n_dofs))

    @classmethod
    def from_vertex_values(cls, dofmap: DofMap, values) -> "FeFunction":
        values = np.asarray(values, dtype=float).reshape(-1)
        return cls(dofmap, values[dofmap.free_vertices])

    def vertex_values(self) -> np.ndarray:
        v = np.zeros(self.mesh.n_vertices)
        v[self.dofmap.free_vertices] = self.coeffs
        return v

    def copy(self) -> "FeFunction":
        return FeFunction(self.dofmap, self.coeffs.copy())


def interpolate(dofmap: DofMap, func) -> FeFunction:
    """Vertex interpolant of a callable on points (values at Dirichlet
    vertices are discarded, i.e. assumed zero)."""
    return FeFunction(dofmap, np.asarray(func(dofmap.mesh.vertices[dofmap.free_vertices])))


def element_gradients(mesh: Mesh, vertex_values: np.ndarray):
    """Per-triangle gradient ``(gx, gy)`` of a P1 function from vertex values:
    one matvec with `Mesh.gradient_operator`."""
    g = mesh.gradient_operator @ vertex_values
    return g[:mesh.n_triangles], g[mesh.n_triangles:]


def assemble_laplacian(dofmap: DofMap) -> sp.csr_matrix:
    """Stiffness matrix of the Laplacian on the free vertices (CSR, SPD)."""
    mesh, n = dofmap.mesh, dofmap.n_dofs
    gx, gy = mesh.gradient_planes
    a = mesh.areas[:, None]
    i, j = [1, 2, 0], [2, 0, 1]  # the ends of the edge opposite local vertex k
    off = np.bincount(mesh.edges.of_triangle.ravel(), minlength=mesh.edges.n_edges,
                      weights=(gx[:, i] * gx[:, j] * a + gy[:, i] * gy[:, j] * a).ravel())
    diag = np.bincount(mesh.triangles.ravel(), weights=((gx ** 2 + gy ** 2) * a).ravel(),
                       minlength=mesh.n_vertices)
    lo, hi = dofmap.dof_of_vertex[mesh.edges.nodes.T]
    keep = (lo >= 0) & (hi >= 0)
    lo, hi, off, d = lo[keep], hi[keep], off[keep], np.arange(n)
    return sp.csr_matrix((np.concatenate([diag[dofmap.free_vertices], off, off]),
                          (np.concatenate([d, lo, hi]), np.concatenate([d, hi, lo]))),
                         shape=(n, n))


def apply_nonlinear(nl: Nonlinearity, w: FeFunction) -> np.ndarray:
    """Vector of <mu(|grad w|^2) grad w, grad phi_i> over the free vertices."""
    mesh = w.mesh
    hx, hy = mesh.gradient_planes
    gx, gy = element_gradients(mesh, w.vertex_values())
    ma = (np.asarray(nl.mu(gx ** 2 + gy ** 2)) * mesh.areas)[:, None]
    # this product order keeps the bits of the former einsum
    contrib = ma * hx * gx[:, None] + ma * hy * gy[:, None]
    r = np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                    minlength=mesh.n_vertices)
    return r[w.dofmap.free_vertices]


@dataclass(frozen=True)
class Samples:
    """Problem data at the quadrature nodes of one mesh.

    ``f_phi`` (nT, 3) and ``f_sq`` (nT,) hold, per triangle, the integrals
    of f against the three hat functions (the load) and of f^2 (the
    estimator's volume term), from f at the 7 volume nodes; both are None
    without volume data.  ``neumann`` is None without Neumann edges, else
    ``(edges, lengths, normals, owner, gq)``: endpoints (nN, 2), lengths,
    outward unit normals, the owning triangle, and g at the 3 nodes of each
    edge.
    """

    mesh: Mesh
    f_phi: np.ndarray | None
    f_sq: np.ndarray | None
    neumann: tuple | None


def sample(mesh: Mesh, f, g=None, previous: Samples | None = None) -> Samples:
    """Evaluate ``f(points)`` and ``g(points, normals)`` at the quadrature
    nodes, each once.

    ``f`` maps (..., 2) point arrays to values; ``g`` additionally receives
    the outward unit normal (broadcast per edge).  Without ``g`` the Neumann
    data is zero.  When ``previous`` holds the samples of the same ``f`` and
    ``g`` on the mesh that ``mesh`` was refined from, what did not change is
    gathered from it: the volume data of copied triangles (``f_phi`` and
    ``f_sq``) and the lengths, normals and ``g`` values of unsplit Neumann
    edges.  ``f`` then sees only the nodes of the new triangles and ``g``
    only those of the halves of split edges, and is not called when no
    Neumann edge was split; any other ``previous`` is ignored.
    """
    if previous is not None and not _is_parent(previous.mesh, mesh):
        previous = None
    volume = (None, None) if f is None else _volume_samples(mesh, f, previous)
    sel = mesh.boundary_markers != DIRICHLET
    if not sel.any():
        return Samples(mesh, *volume, None)
    return Samples(mesh, *volume, _neumann_samples(mesh, g, sel, previous))


def _is_parent(parent: Mesh, mesh: Mesh) -> bool:
    """Whether ``mesh`` was refined from ``parent``: one level finer, with
    the triangle count ``parent_of`` implies and with ``parent``'s vertices
    as its coarse vertices (the vertex set fixes a newest-vertex bisection
    mesh of a given root)."""
    return parent.level + 1 == mesh.level and parent.n_vertices == mesh.n_coarse_vertices \
        and (not mesh.n_triangles or mesh.parent_of[-1] + 1 == parent.n_triangles) \
        and np.array_equal(parent.vertices, mesh.vertices[:parent.n_vertices])


def _volume_samples(mesh: Mesh, f, previous: Samples | None) -> tuple:
    """``f_phi`` and ``f_sq`` of `Samples`, gathered from the parent mesh's
    samples ``previous`` for the copied triangles."""
    if previous is None or previous.f_phi is None:
        return _volume_moments(np.asarray(f(triangle_quad_points(mesh))), mesh.areas)
    new = np.flatnonzero(~copied_triangles(mesh.parent_of))
    fq = np.asarray(f(triangle_quad_points(mesh, new)))
    out = tuple(np.take(a, mesh.parent_of, axis=0) for a in (previous.f_phi, previous.f_sq))
    for a, fresh in zip(out, _volume_moments(fq, mesh.areas[new])):
        a[new] = fresh
    return out


def _neumann_samples(mesh: Mesh, g, sel: np.ndarray, previous: Samples | None) -> tuple:
    """``Samples.neumann`` of the boundary edges selected by ``sel``; the
    rows of unsplit edges are gathered from the parent mesh's samples
    ``previous`` and the rest are computed."""
    edges = mesh.boundary_edges[sel]
    owner = mesh.edges.incident[mesh.boundary_ids[sel], 0]
    if previous is None or previous.neumann is None:
        fresh = np.arange(len(edges))
        lengths, normals = np.empty(len(edges)), np.empty((len(edges), 2))
        gq = np.empty((len(edges), EDGE_QUAD_X.size))
    else:
        # `refine` puts the halves (a, m), (m, b) of a split edge in its
        # place; m is new, so each second half shifts the parent rows by one
        second = edges[:, 0] >= mesh.n_coarse_vertices
        from_parent = np.arange(len(edges)) - np.cumsum(second)
        _, lengths, normals, _, gq = previous.neumann
        lengths, normals, gq = (np.take(a, from_parent, axis=0) for a in (lengths, normals, gq))
        fresh = np.flatnonzero(second | (edges[:, 1] >= mesh.n_coarse_vertices))
    a = mesh.vertices[edges[fresh, 0]]
    b = mesh.vertices[edges[fresh, 1]]
    tang = b - a
    lengths[fresh] = length = np.linalg.norm(tang, axis=1)
    normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / length[:, None]
    # orient away from the owning triangle
    outward = (a + b) / 2 - mesh.vertices[mesh.triangles[owner[fresh]]].mean(axis=1)
    normal[(normal * outward).sum(axis=1) < 0] *= -1.0
    normals[fresh] = normal
    if g is None:
        gq[fresh] = 0.0
    elif fresh.size:
        pts = a[:, None, :] + EDGE_QUAD_X[None, :, None] * tang[:, None, :]
        gq[fresh] = np.asarray(g(pts, normal[:, None, :]))
    return edges, lengths, normals, owner, gq


def _volume_moments(fq: np.ndarray, areas: np.ndarray) -> tuple:
    """Per-triangle integrals of f against the hat functions, (n, 3), and of
    f^2, (n,), from f at the volume nodes and the triangle areas."""
    f_phi = np.zeros((len(fq), 3))
    for q, (w, bary) in enumerate(zip(TRI_QUAD_W, TRI_QUAD_BARY)):
        f_phi += fq[:, q, None] * w * bary * areas[:, None]
    return f_phi, np.einsum("tq,q,t->t", fq ** 2, TRI_QUAD_W, areas)


def assemble_rhs(dofmap: DofMap, samples: Samples) -> np.ndarray:
    """Load vector: the sampled volume and Neumann data integrated against
    the nodal basis."""
    mesh = dofmap.mesh
    if samples.mesh is not mesh:
        raise ValueError("samples were taken on a different mesh")
    rhs_v = np.zeros(mesh.n_vertices)
    if samples.f_phi is not None:
        rhs_v += np.bincount(mesh.triangles.ravel(), weights=samples.f_phi.ravel(),
                             minlength=mesh.n_vertices)
    if samples.neumann is not None:
        edges, lengths, _, _, gq = samples.neumann
        w0 = lengths * np.einsum("q,nq->n", EDGE_QUAD_W * (1.0 - EDGE_QUAD_X), gq)
        w1 = lengths * np.einsum("q,nq->n", EDGE_QUAD_W * EDGE_QUAD_X, gq)
        np.add.at(rhs_v, edges[:, 0], w0)
        np.add.at(rhs_v, edges[:, 1], w1)
    return rhs_v[dofmap.free_vertices]


def energy_norm(v: FeFunction, operator: sp.csr_matrix | None = None) -> float:
    """H^1 seminorm ||grad v||; uses the assembled stiffness when given."""
    if operator is not None:
        return float(np.sqrt(max(v.coeffs @ (operator @ v.coeffs), 0.0)))
    gx, gy = element_gradients(v.mesh, v.vertex_values())
    return float(np.sqrt(((gx ** 2 + gy ** 2) * v.mesh.areas).sum()))


def energy_functional(nl: Nonlinearity, v: FeFunction, rhs: np.ndarray) -> float:
    """E(v) = sum_T |T| M(|grad v|_T^2) / 2 - F(v) with M the antiderivative
    of mu; minimized exactly by the discrete solution."""
    if nl.antiderivative is None:
        raise ValueError("nonlinearity has no antiderivative")
    mesh = v.mesh
    gx, gy = element_gradients(mesh, v.vertex_values())
    m = np.asarray(nl.antiderivative(gx ** 2 + gy ** 2))
    return float(0.5 * (m * mesh.areas).sum() - rhs @ v.coeffs)


def prolongate(coarse: FeFunction, fine_dofmap: DofMap) -> FeFunction:
    """Exact re-representation on a one-level refinement (energy norm and
    pointwise values are preserved)."""
    fine = fine_dofmap.mesh
    cmesh = coarse.mesh
    if fine.vertex_parents is None or fine.n_coarse_vertices != cmesh.n_vertices:
        raise ValueError("target mesh is not a one-level refinement of the source mesh")
    vals = np.empty(fine.n_vertices)
    vals[:cmesh.n_vertices] = coarse.vertex_values()
    vals[cmesh.n_vertices:] = vals[fine.vertex_parents].mean(axis=1) \
        if fine.vertex_parents.size else 0.0
    return FeFunction.from_vertex_values(fine_dofmap, vals)


def energy_error_vs_exact(v: FeFunction, grad_exact) -> float:
    """||grad u - grad v|| for a known gradient field, by element quadrature.

    ``grad_exact`` maps (..., 2) points to (..., 2) gradients.
    """
    mesh = v.mesh
    xq = triangle_quad_points(mesh)
    ge = np.asarray(grad_exact(xq))
    gv = np.column_stack(element_gradients(mesh, v.vertex_values()))
    diff = ge - gv[:, None, :]
    err2 = np.einsum("tq,q,t->", (diff ** 2).sum(axis=2), TRI_QUAD_W, mesh.areas)
    return float(np.sqrt(max(err2, 0.0)))
