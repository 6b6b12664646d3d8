"""Lowest-order conforming finite elements on triangle meshes.

Assembly of the Laplace stiffness matrix and of load vectors with volume
and Neumann data, the discrete flux and the nonlinear residual it gives,
plus energy norm, energy functional, prolongation between nested meshes,
and the energy-norm distance to a known gradient field.  Functions are
piecewise affine and vanish on the Dirichlet boundary; coefficient vectors
run over the free (non-Dirichlet) vertices only.

Volume integrands are approximated with the symmetric 7-point rule of
degree 5, edge integrands with 3-point Gauss, everywhere a data or
nonlinear integrand appears; polynomial integrands are thereby exact.
`sample` evaluates the problem data at these nodes once per mesh and keeps
only the integrals that the load vector and the estimator read: per
triangle, those of f against the three hat functions and |T| times that of
f^2; per Neumann edge, those of g against the hat functions of its two
endpoints, of g and of g^2 (zero rows without Neumann edges).  Given the
samples of the parent mesh it evaluates f only on the new triangles and g
only on the halves of split Neumann edges: the integrals of a copied
triangle and the lengths, normals and integrals of an unsplit Neumann edge
are gathered from the parent's samples, the new triangles are the mesh's
`Mesh.new_triangles`, and each edge's owning triangle is read from the edge
table that `refine` carried; nothing of the Neumann edges is computed, and
``g`` is not called, where no Neumann edge is new.  Edge lengths and
normals come from `mesh.edge_frame`, as the estimator's do.  The load
vector and the estimator both read the same `Samples`, on every domain.

The element gradients of a P1 function are two sparse matvecs, with the x
and y matrices of `Mesh.gradient_operator`, whose data are the hat gradients
and whose indices the mesh's triangles, not copies: the compiled loop sums
``0 + g0 v0 + g1 v1 + g2 v2`` per row without fused multiply-adds, the
operand order of the einsum oracle in the tests, so the result is bitwise
equal to it.  `element_flux` scales them by mu into the flux, which the
estimator and the nonlinear residual share.  The residual is the transposed
operator on the area-weighted flux, ``hx.T @ (fx |T|) + hy.T @ (fy |T|)``:
each matvec adds ``h_i (f |T|)`` into vertex i from 0 in triangle order, and
the y sum is added to the x sum at the end.  The other element kernels are
explicit sums over the 2 coordinates and the 3 vertices, faster than
`einsum`; each keeps the operand order of the einsum it replaced, so results
are bitwise equal to the einsum oracles as well.  Each numpy pass of them
runs over whole columns of length n (one coordinate of one corner, one
quadrature node or one hat function), not over a short trailing axis of 2, 3
or 7, which numpy walks one triangle at a time.
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

from .mesh import DIRICHLET, EDGE_ENDS, Mesh, corner_planes, edge_frame
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


def triangle_quad_points(mesh: Mesh, rows=slice(None)) -> np.ndarray:
    """Physical coordinates of the volume quadrature nodes, (nT, 7, 2), of
    all triangles or of those selected by ``rows``: a view of an x and a
    y plane, (2, nT, 7), so that each coordinate is one contiguous block.
    The nodes are summed as (7, nT) blocks over the `corner_planes`
    columns, then written into the planes."""
    p = corner_planes(mesh.vertices, mesh.triangles[rows])
    nodes = TRI_QUAD_BARY[:, 0, None] * p[:, 0, None]
    nodes += TRI_QUAD_BARY[:, 1, None] * p[:, 1, None]
    nodes += TRI_QUAD_BARY[:, 2, None] * p[:, 2, None]
    return nodes.transpose(0, 2, 1).copy().transpose(1, 2, 0)


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
    a = mesh.areas
    # the weight of the edge opposite vertex k, column by column
    weights = np.empty((mesh.n_triangles, 3))
    for k, (i, j) in enumerate(zip(*EDGE_ENDS)):
        w = gx[:, i] * gx[:, j]
        w *= a
        wy = gy[:, i] * gy[:, j]
        wy *= a
        w += wy
        weights[:, k] = w
    off = np.bincount(mesh.edges.of_triangle.ravel(), weights=weights.ravel(),
                      minlength=mesh.edges.n_edges)
    diag = np.bincount(mesh.triangles.ravel(), weights=((gx ** 2 + gy ** 2) * a[:, None]).ravel(),
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


def element_flux(nl: Nonlinearity, mesh: Mesh, vertex_values: np.ndarray):
    """Per-triangle flux ``(fx, fy)`` = mu(|grad w|^2) grad w of the P1 function
    w with these vertex values: one gradient pass, scaled in place by mu."""
    gx, gy = element_gradients(mesh, vertex_values)
    mu = np.asarray(nl.mu(gx ** 2 + gy ** 2))
    gx *= mu
    gy *= mu
    return gx, gy


def apply_nonlinear(dofmap: DofMap, flux) -> np.ndarray:
    """Vector of <mu(|grad w|^2) grad w, grad phi_i> over the free vertices
    of ``dofmap``, from the flux ``(fx, fy)`` of w (`element_flux`): the
    transposed gradient operator on the area-weighted flux."""
    hx, hy = dofmap.mesh.gradient_operator
    areas = dofmap.mesh.areas
    r = hx.T @ (flux[0] * areas)
    r += hy.T @ (flux[1] * areas)
    return r[dofmap.free_vertices]


NeumannSamples = namedtuple("NeumannSamples",
                            "edges owner lengths normals g_phi g_int g_sq_int")


@dataclass(frozen=True)
class Samples:
    """Integrals of the problem data on one mesh.

    ``f_phi`` (nT, 3) holds, per triangle, the integrals of f against the
    three hat functions (the load), and ``volume_sq`` (nT,) |T| times the
    integral of f^2 (the estimator's volume term), from f at the 7 volume
    nodes.  ``neumann`` is a `NeumannSamples`, of zero rows without Neumann
    edges, with ``edges``, endpoints (nN, 2); ``owner``, the owning triangle
    (contiguous np.intp, which the estimator gathers by per evaluation);
    ``lengths``; ``normals``, outward unit (nN, 2); and, from g at the 3
    nodes of each edge, the integrals of g against the hat functions of its
    two endpoints ``g_phi`` (nN, 2), of g ``g_int`` and of g^2 ``g_sq_int``.
    """

    mesh: Mesh
    f_phi: np.ndarray
    volume_sq: np.ndarray
    neumann: NeumannSamples


def sample(mesh: Mesh, f, g=None, previous: Samples | None = None) -> Samples:
    """Integrate ``f(points)`` and ``g(points, normals)`` by quadrature,
    evaluating each once per node.

    ``f`` maps (..., 2) point arrays to values; ``g`` additionally receives
    the outward unit normal (broadcast per edge).  Without ``g`` the Neumann
    data is zero.  ``previous``, if given, must hold the samples of the same
    ``f`` and ``g`` on the mesh that ``mesh`` was refined from
    (`Mesh.refines`), else ValueError is raised; what did not change is
    gathered from it: the integrals of copied triangles and the lengths,
    normals and integrals of unsplit Neumann edges.  ``f`` then sees only
    the nodes of the new triangles and ``g`` only those of the halves of
    split edges, and is not called where no Neumann edge is new.
    """
    if previous is not None and not mesh.refines(previous.mesh):
        raise ValueError("previous samples were not taken on the parent mesh")
    sel = (mesh.boundary_markers != DIRICHLET).nonzero()[0]
    return Samples(mesh, *_volume_samples(mesh, f, previous),
                   _neumann_samples(mesh, g, sel, previous))


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
    and only the rest, all rows without ``previous``, are computed."""
    edges = mesh.boundary_edges[sel]
    owner = mesh.edges.incident[mesh.boundary_ids[sel], 0].astype(np.intp)
    n = len(edges)
    if previous is None:
        rows = [np.empty(n), np.empty((n, 2)), np.empty((n, 2)), np.empty(n), np.empty(n)]
        fresh = np.arange(n)
    else:
        # `refine` puts the halves (a, m), (m, b) of a split edge in its
        # place; m is new, so each second half shifts the parent rows by one
        n_coarse = mesh.n_coarse_vertices
        second = edges[:, 0] >= n_coarse
        from_parent = np.arange(n) - second.cumsum()
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
    length, normal = edge_frame(mesh.vertices, edges)
    normal = normal.T
    # orient away from the owning triangle
    outward = (a + b) / 2 - mesh.vertices[mesh.triangles[owner]].mean(axis=1)
    side = normal * outward
    normal[side[:, 0] + side[:, 1] < 0] *= -1.0
    gq = np.zeros((len(edges), EDGE_QUAD_X.size))
    if g is not None:
        pts = a[:, None, :] + EDGE_QUAD_X[None, :, None] * (b - a)[:, None, :]
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
    # the term of node q is ((f_q w_q) bary_q) |T| in column i of f_phi and
    # ((f_q f_q) w_q) |T| in the f^2 integral, each summed in node order
    # (the einsum's order) over (7, n) and (3, n) blocks of long rows
    fq, w = fq.T.copy(), TRI_QUAD_W[:, None]
    fw = fq * w
    f_phi = np.zeros((3, fq.shape[1]))
    for fw_q, bary in zip(fw, TRI_QUAD_BARY[:, :, None]):
        term = fw_q * bary
        term *= areas
        f_phi += term
    fq *= fq
    fq *= w
    fq *= areas
    # the f^2 terms are >= 0, so a sum from the first is one from 0
    return f_phi.T.copy(), areas * np.add.reduce(fq, axis=0)


def assemble_rhs(dofmap: DofMap, samples: Samples) -> np.ndarray:
    """Load vector: the sampled integrals of the volume and Neumann data
    against the nodal basis, scattered to the vertices."""
    mesh = dofmap.mesh
    if samples.mesh is not mesh:
        raise ValueError("samples were taken on a different mesh")
    rhs_v = np.bincount(mesh.triangles.ravel(), weights=samples.f_phi.ravel(),
                        minlength=mesh.n_vertices)
    nm = samples.neumann
    for k in (0, 1):
        np.add.at(rhs_v, nm.edges[:, k], nm.g_phi[:, k])
    return rhs_v[dofmap.free_vertices]


def energy_norm(v: FeFunction) -> float:
    """H^1 seminorm ||grad v||, from the element gradients."""
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
