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
`sample` evaluates the problem data at these nodes once per mesh and keeps
only the integrals that the load vector and the estimator read: per
triangle, those of f against the three hat functions and |T| times that of
f^2; per Neumann edge, those of g against the hat functions of its two
endpoints, of g and of g^2.  Given the samples of the parent mesh it
evaluates f only on the new triangles and g only on the halves of split
Neumann edges: the integrals of a copied triangle and the lengths, normals
and integrals of an unsplit Neumann edge are gathered from the parent's
samples, the new triangles are the mesh's `Mesh.new_triangles`, and each
edge's owning triangle is read from the edge table that `refine` carried;
nothing of the Neumann edges is computed, and ``g`` is not called, on a
level where no Neumann edge was split.  Edge lengths add the two squared
coordinates, as `np.linalg.norm` does, without its reduction over rows of
two.  The load vector and the estimator both read the same `Samples`.

The element gradients of a P1 function are two sparse matvecs, with the x
and y matrices of `Mesh.gradient_operator`, whose data are the hat gradients
and whose indices the mesh's triangles, not copies: the compiled loop sums
``0 + g0 v0 + g1 v1 + g2 v2`` per row without fused multiply-adds, the
operand order of the einsum oracle in the tests, so the result is bitwise
equal to it.
The other element kernels are explicit sums over the 2 coordinates and the
3 vertices, faster than `einsum`; each keeps the operand order of the einsum
it replaced, so results are bitwise equal to the einsum oracles as well.
The stiffness matrix is assembled over the edge graph: one sum per edge of
`Mesh.edges` and one per vertex, in triangle order, give its n + 2 n_edges
entries (rather than 9 per triangle).  They are handed to the CSR
conversion as entries below the diagonal, the diagonal, then entries above
it, each in edge order, so every row arrives sorted and scipy needs no sort.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import DIRICHLET, EDGE_ENDS, Mesh
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
# the weights against the hat functions of an edge's start and end vertex
_EDGE_W_START = EDGE_QUAD_W * (1.0 - EDGE_QUAD_X)
_EDGE_W_END = EDGE_QUAD_W * EDGE_QUAD_X
_TURN = np.array([1.0, -1.0])


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
        free[mesh.boundary_edges[mesh.boundary_markers == DIRICHLET]] = False
        free = free.nonzero()[0]
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
        if not np.logical_and.reduce(np.isfinite(self.coeffs)):
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


def interpolate(dofmap: DofMap, func) -> FeFunction:
    """Vertex interpolant of a callable on points (values at Dirichlet
    vertices are discarded, i.e. assumed zero)."""
    return FeFunction(dofmap, np.asarray(func(dofmap.mesh.vertices[dofmap.free_vertices])))


def element_gradients(mesh: Mesh, vertex_values: np.ndarray):
    """Per-triangle gradient ``(gx, gy)`` of a P1 function from vertex values:
    one matvec with each matrix of `Mesh.gradient_operator`."""
    gx, gy = mesh.gradient_operator
    return gx @ vertex_values, gy @ vertex_values


def assemble_laplacian(dofmap: DofMap) -> sp.csr_matrix:
    """Stiffness matrix of the Laplacian on the free vertices (CSR, SPD)."""
    mesh, n = dofmap.mesh, dofmap.n_dofs
    gx, gy = mesh.gradient_planes
    a = mesh.areas[:, None]
    i, j = EDGE_ENDS
    off = np.bincount(mesh.edges.of_triangle.ravel(), minlength=mesh.edges.n_edges,
                      weights=(gx[:, i] * gx[:, j] * a + gy[:, i] * gy[:, j] * a).ravel())
    diag = np.bincount(mesh.triangles.ravel(), weights=((gx ** 2 + gy ** 2) * a).ravel(),
                       minlength=mesh.n_vertices)
    lo, hi = dofmap.dof_of_vertex.take(mesh.edges.nodes.T)
    keep = (lo >= 0) & (hi >= 0)
    lo, hi, off, d = lo[keep], hi[keep], off[keep], np.arange(n)
    # edges are in (lo, hi) order, so row r receives its columns below r,
    # then r, then those above r, each ascending: the CSR conversion keeps
    # that order and finds the matrix canonical, with no sort
    return sp.csr_matrix((np.concatenate((off, diag[dofmap.free_vertices], off)),
                          (np.concatenate((hi, d, lo), dtype=np.int32),
                           np.concatenate((lo, d, hi), dtype=np.int32))),
                         shape=(n, n))


def apply_nonlinear(nl: Nonlinearity, w: FeFunction) -> np.ndarray:
    """Vector of <mu(|grad w|^2) grad w, grad phi_i> over the free vertices."""
    mesh = w.mesh
    hx, hy = mesh.gradient_planes
    gx, gy = element_gradients(mesh, w.vertex_values())
    ma = (np.asarray(nl.mu(gx ** 2 + gy ** 2)) * mesh.areas)[:, None]
    # this product order keeps the bits of the former einsum; for peak
    # memory one (nT, 3) term at a time, and none left for the scatter
    contrib = ma * hx
    contrib *= gx[:, None]
    term = ma * hy
    term *= gy[:, None]
    contrib += term
    del gx, gy, ma, term
    r = np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                    minlength=mesh.n_vertices)
    return r[w.dofmap.free_vertices]


NeumannSamples = namedtuple("NeumannSamples",
                            "edges owner lengths normals g_phi g_int g_sq_int")


@dataclass(frozen=True)
class Samples:
    """Integrals of the problem data on one mesh.

    ``f_phi`` (nT, 3) holds, per triangle, the integrals of f against the
    three hat functions (the load), and ``volume_sq`` (nT,) |T| times the
    integral of f^2 (the estimator's volume term), from f at the 7 volume
    nodes.  ``neumann`` is None without Neumann edges, else `NeumannSamples`
    with fields ``edges``, endpoints (nN, 2); ``owner``, the owning triangle
    (np.intp, which the estimator gathers by on every evaluation);
    ``lengths``; ``normals``, outward unit; and, from g at the 3 nodes of
    each edge, the integrals of g against the hat functions of its two
    endpoints ``g_phi`` (nN, 2), of g ``g_int`` and of g^2 ``g_sq_int``.
    """

    mesh: Mesh
    f_phi: np.ndarray
    volume_sq: np.ndarray
    neumann: NeumannSamples | None


def sample(mesh: Mesh, f, g=None, previous: Samples | None = None) -> Samples:
    """Integrate ``f(points)`` and ``g(points, normals)`` by quadrature,
    evaluating each once per node.

    ``f`` maps (..., 2) point arrays to values; ``g`` additionally receives
    the outward unit normal (broadcast per edge).  Without ``g`` the Neumann
    data is zero.  When ``previous`` holds the samples of the same ``f`` and
    ``g`` on the mesh that ``mesh`` was refined from (`Mesh.refines`), what
    did not change is gathered from it: the integrals of copied triangles
    and the lengths, normals and integrals of unsplit Neumann edges.  ``f``
    then sees only the nodes of the new triangles and ``g`` only those of
    the halves of split edges, and is not called when no Neumann edge was
    split; any other ``previous`` is ignored.
    """
    if previous is not None and not mesh.refines(previous.mesh):
        previous = None
    volume = _volume_samples(mesh, f, previous)
    sel = (mesh.boundary_markers != DIRICHLET).nonzero()[0]
    if not sel.size:
        return Samples(mesh, *volume, None)
    return Samples(mesh, *volume, _neumann_samples(mesh, g, sel, previous))


def _volume_samples(mesh: Mesh, f, previous: Samples | None) -> tuple:
    """``f_phi`` and ``volume_sq`` of `Samples`, gathered from the parent
    mesh's samples ``previous`` for the copied triangles."""
    if previous is None:
        return _volume_moments(np.asarray(f(triangle_quad_points(mesh))), mesh.areas)
    new = mesh.new_triangles
    fq = np.asarray(f(triangle_quad_points(mesh, new)))
    f_phi = previous.f_phi.take(mesh.parent_of, axis=0)
    volume_sq = previous.volume_sq.take(mesh.parent_of)
    f_phi[new], volume_sq[new] = _volume_moments(fq, mesh.areas[new])
    return f_phi, volume_sq


def _neumann_samples(mesh: Mesh, g, sel: np.ndarray, previous: Samples | None) -> NeumannSamples:
    """``Samples.neumann`` of the boundary edges ``sel``; the rows of
    unsplit edges are gathered from the parent mesh's samples ``previous``
    and only the rest are computed."""
    edges = mesh.boundary_edges[sel]
    owner = mesh.edges.incident[mesh.boundary_ids[sel], 0].astype(np.intp)
    if previous is None or previous.neumann is None:
        return NeumannSamples(edges, owner, *_edge_integrals(mesh, g, edges, owner))
    # `refine` puts the halves (a, m), (m, b) of a split edge in its place;
    # m is new, so each second half shifts the parent rows by one
    n_coarse = mesh.n_coarse_vertices
    second = edges[:, 0] >= n_coarse
    from_parent = np.arange(len(edges)) - second.cumsum()
    p = previous.neumann
    rows = [a.take(from_parent, axis=0)
            for a in (p.lengths, p.normals, p.g_phi, p.g_int, p.g_sq_int)]
    fresh = (second | (edges[:, 1] >= n_coarse)).nonzero()[0]
    if fresh.size:
        for a, computed in zip(rows, _edge_integrals(mesh, g, edges[fresh], owner[fresh])):
            a[fresh] = computed
    return NeumannSamples(edges, owner, *rows)


def _edge_integrals(mesh: Mesh, g, edges: np.ndarray, owner: np.ndarray) -> tuple:
    """Lengths, outward unit normals, ``g_phi``, ``g_int`` and ``g_sq_int``
    (see `Samples`) of the boundary ``edges`` with owning triangles
    ``owner``, from g at the 3 nodes of each edge (zero without ``g``)."""
    a = mesh.vertices[edges[:, 0]]
    b = mesh.vertices[edges[:, 1]]
    tang = b - a
    # the Euclidean norm, as np.linalg.norm computes it, and the turned
    # tangent (t_y, -t_x)
    sq = tang * tang
    length = np.sqrt(sq[:, 0] + sq[:, 1])
    normal = tang[:, ::-1] * _TURN / length[:, None]
    # orient away from the owning triangle
    outward = (a + b) / 2 - mesh.vertices[mesh.triangles[owner]].mean(axis=1)
    side = normal * outward
    normal[side[:, 0] + side[:, 1] < 0] *= -1.0
    gq = np.zeros((len(edges), EDGE_QUAD_X.size))
    if g is not None:
        pts = a[:, None, :] + EDGE_QUAD_X[None, :, None] * tang[:, None, :]
        gq[:] = g(pts, normal[:, None, :])
    g_phi = np.empty((len(edges), 2))
    g_phi[:, 0] = length * np.einsum("q,nq->n", _EDGE_W_START, gq)
    g_phi[:, 1] = length * np.einsum("q,nq->n", _EDGE_W_END, gq)
    return (length, normal, g_phi, length * np.einsum("q,nq->n", EDGE_QUAD_W, gq),
            length * np.einsum("q,nq->n", EDGE_QUAD_W, gq ** 2))


def _volume_moments(fq: np.ndarray, areas: np.ndarray) -> tuple:
    """Per-triangle integrals of f against the hat functions, (n, 3), and
    |T| times the integral of f^2, (n,), from f at the volume nodes and the
    triangle areas."""
    # the term of node q is ((f_q w_q) bary_q) |T|, summed from 0 in node
    # order; one (n, 3) term at a time, for peak memory
    fw, a = fq * TRI_QUAD_W, areas[:, None]
    f_phi = np.zeros((len(fq), 3))
    for q, bary in enumerate(TRI_QUAD_BARY):
        f_phi += fw[:, q, None] * bary * a
    return f_phi, areas * np.einsum("tq,q,t->t", fq ** 2, TRI_QUAD_W, areas)


def assemble_rhs(dofmap: DofMap, samples: Samples) -> np.ndarray:
    """Load vector: the sampled integrals of the volume and Neumann data
    against the nodal basis, scattered to the vertices."""
    mesh = dofmap.mesh
    if samples.mesh is not mesh:
        raise ValueError("samples were taken on a different mesh")
    rhs_v = np.bincount(mesh.triangles.ravel(), weights=samples.f_phi.ravel(),
                        minlength=mesh.n_vertices)
    nm = samples.neumann
    if nm is not None:
        for k in (0, 1):
            np.add.at(rhs_v, nm.edges[:, k], nm.g_phi[:, k])
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
    """Exact re-representation on a one-level refinement, a mesh that
    `Mesh.refines` the source mesh (energy norm and pointwise values are
    preserved); raises ValueError on any other mesh."""
    fine = fine_dofmap.mesh
    cmesh = coarse.mesh
    if not fine.refines(cmesh):
        raise ValueError("target mesh is not a one-level refinement of the source mesh")
    vals = np.zeros(fine.n_vertices)
    vals[coarse.dofmap.free_vertices] = coarse.coeffs
    ends = vals[fine.vertex_parents]
    vals[cmesh.n_vertices:] = 0.5 * (ends[:, 0] + ends[:, 1])
    return FeFunction(fine_dofmap, vals[fine_dofmap.free_vertices])


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
