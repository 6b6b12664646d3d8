"""Conforming triangle meshes and newest-vertex bisection.

Triangles follow the newest-vertex convention: the edge opposite the
first-listed vertex is the refinement edge, and bisecting it inserts the
edge midpoint as the newest vertex of both children: ``(z0, z1, z2)`` with
midpoint ``m`` of ``z1 z2`` becomes ``(m, z2, z0)`` and ``(m, z0, z1)``, so
each child inherits one of the parent's other two edges as its refinement
edge.  `refine` produces the coarsest conforming refinement in which every
marked triangle is bisected at least once (closure marks further refinement
edges as needed) by applying that single bisection twice: once to every
triangle whose refinement edge is marked, then once to every child whose
inherited refinement edge is marked, which yields 1 to 4 children.  `overlay`
computes the coarsest common refinement of two meshes grown from the same
root, and `MeshHierarchy` keeps the level bookkeeping that the multilevel
solver relies on.

Vertex indexing is append-only across refinement: vertices of the coarse
mesh keep their indices, midpoints are appended in edge-id order.  Only a
root mesh sorts its vertex pairs to build its `EdgeTable`; `refine` hands
the child a table carried from the parent's (an edge that is not bisected
keeps its row, the new edges are merged in, a copied triangle keeps its
edges), together with the edge id of every boundary edge, so connectivity
costs gathers in proportion to the mesh and a sort only of what changed.
The areas and the hat gradients, stored once as (2, nT, 3) x and y planes,
are likewise gathered for copied triangles and computed for new ones.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

DIRICHLET = 0
NEUMANN = 1

_MARKER_TO_CHAR = {DIRICHLET: "D", NEUMANN: "N"}
_CHAR_TO_MARKER = {"D": DIRICHLET, "N": NEUMANN}


def _pair_codes(pairs: np.ndarray, n_vertices: int) -> np.ndarray:
    """Order-independent integer codes for vertex pairs."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return lo * np.int64(n_vertices) + hi


@dataclass(frozen=True)
class EdgeTable:
    """Unique-edge connectivity of a triangulation.

    Edge ids follow ascending (lo, hi) order.  A root mesh builds its table
    with one sort of the 3 n_triangles vertex-pair codes; `refine` carries
    the parent's table over to the child (`_carried_edge_table`).

    Attributes
    ----------
    nodes : (n_edges, 2) int array, endpoint indices with lo < hi.
    of_triangle : (n_triangles, 3) int array; column k holds the id of the
        edge opposite local vertex k, so column 0 is the refinement edge.
    incident : (n_edges, 2) int array of adjacent triangle ids, -1 padding.
        Column 0 holds the first occurrence of the edge in column-major
        order of ``of_triangle`` (smaller k, then smaller triangle), column
        1 the other one.
    """

    nodes: np.ndarray
    of_triangle: np.ndarray
    incident: np.ndarray

    @property
    def n_edges(self) -> int:
        return self.nodes.shape[0]

    @property
    def is_boundary(self) -> np.ndarray:
        return self.incident[:, 1] < 0


def _build_edge_table(triangles: np.ndarray, n_vertices: int) -> EdgeTable:
    t = np.asarray(triangles, dtype=np.int64)
    n_t = t.shape[0]
    # edge k of a triangle is opposite local vertex k
    pairs = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=0)
    codes = _pair_codes(pairs, n_vertices)
    # an edge's first occurrence gives its first triangle, any other its second
    uniq, first, inverse, counts = np.unique(codes, return_index=True,
                                             return_inverse=True, return_counts=True)
    if len(counts) and counts.max() > 2:
        raise ValueError("non-conforming mesh: an edge is shared by more than two triangles")
    of_triangle = inverse.reshape(3, n_t).T.copy()
    nodes = np.column_stack([uniq // n_vertices, uniq % n_vertices])
    incident = np.full((len(uniq), 2), -1, dtype=np.int64)
    incident[:, 0] = first % n_t
    rest = np.delete(np.arange(len(codes)), first)
    incident[inverse[rest], 1] = rest % n_t
    return EdgeTable(nodes=nodes, of_triangle=of_triangle, incident=incident)


def _carried_edge_table(parent: EdgeTable, bisected: np.ndarray, n_old: int,
                        triangles: np.ndarray, parent_of: np.ndarray,
                        new: np.ndarray, n_vertices: int):
    """The edge table of the mesh `refine` made from a mesh with table
    ``parent``, and the sorted pair codes of its edges.

    An edge that is not ``bisected`` survives with its (lo, hi) row; every
    other edge of the child has a new vertex (index ``n_old`` and up) as
    its hi end and lies on one of the ``new`` (not copied) triangles.  The
    new rows are merged into the sorted survivors, a copied triangle takes
    its parent's ``of_triangle`` row through the old -> new id map, and
    only the new triangles look their edges up.  Equal, array for array,
    to `_build_edge_table` on the child.
    """
    n_v = np.int64(n_vertices)
    survivors = np.flatnonzero(~bisected)
    kept_codes = np.take(parent.nodes[:, 0] * n_v + parent.nodes[:, 1], survivors)
    t = np.take(triangles, new, axis=0)
    pair_codes = _pair_codes(np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]]),
                             n_vertices)
    del t
    # one sort of the new triangles' edges; those with a new vertex are added
    distinct, inverse = np.unique(pair_codes, return_inverse=True)
    added = distinct[distinct % n_v >= n_old]
    at = np.searchsorted(kept_codes, added) + np.arange(len(added))
    n_e = len(kept_codes) + len(added)
    is_added = np.zeros(n_e, dtype=bool)
    is_added[at] = True
    rows = np.flatnonzero(~is_added)
    codes = np.empty(n_e, dtype=np.int64)
    codes[rows], codes[at] = kept_codes, added
    # (n, 2) rows move by np.take, several times faster than a row scatter
    parent_row = np.zeros(n_e, dtype=np.int64)
    parent_row[rows] = survivors
    nodes = np.take(parent.nodes, parent_row, axis=0)
    nodes[at, 0], nodes[at, 1] = added // n_v, added % n_v
    old_to_new = np.full(parent.n_edges, -1, dtype=np.int64)
    old_to_new[survivors] = rows
    of_triangle = np.take(old_to_new, np.take(parent.of_triangle, parent_of, axis=0))
    looked_up = np.searchsorted(codes, distinct)[inverse].reshape(3, -1)
    for k in range(3):
        of_triangle[new, k] = looked_up[k]
    return EdgeTable(nodes=nodes, of_triangle=of_triangle,
                     incident=_incident(of_triangle, n_e)), codes


def _incident(of_triangle: np.ndarray, n_edges: int) -> np.ndarray:
    """``EdgeTable.incident`` from ``of_triangle`` by scatters, no sort;
    every edge must occur in ``of_triangle``."""
    tri = np.arange(len(of_triangle))
    # of repeated indices the last write stays: the backward pass writes
    # the first occurrence in column-major order last, the forward pass the
    # last occurrence
    first, last = np.empty(n_edges, dtype=np.int64), np.empty(n_edges, dtype=np.int64)
    for k in (2, 1, 0):
        first[of_triangle[::-1, k]] = tri[::-1]
    for k in (0, 1, 2):
        last[of_triangle[:, k]] = tri
    # a triangle holds an edge at most once, so first == last marks the
    # edges of one triangle; 3 n_triangles = 2 n_edges - (those) holds
    # exactly when no edge has more than two
    single = first == last
    if 2 * n_edges - np.count_nonzero(single) != 3 * len(of_triangle):
        raise ValueError("non-conforming mesh: an edge is shared by more than two triangles")
    last[single] = -1
    return np.column_stack((first, last))


def _boundary_ids(et: EdgeTable, boundary_edges: np.ndarray) -> np.ndarray:
    """Edge id of each listed boundary edge; raises unless the list holds
    exactly the edges with a single triangle."""
    ids = np.flatnonzero(et.is_boundary)
    listed = np.sort(boundary_edges, axis=1)
    order = np.lexsort((listed[:, 1], listed[:, 0]))
    if len(order) != len(ids) or not np.array_equal(listed[order], et.nodes[ids]):
        raise ValueError("boundary_edges do not match the single-incidence edges")
    out = np.empty(len(ids), dtype=np.int64)
    out[order] = ids
    return out


def _signed_areas(p: np.ndarray) -> np.ndarray:
    """Signed areas of triangles with vertex coordinates p, (n, 3, 2)."""
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _gradient_planes(p: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Hat gradients of triangles with vertex coordinates p, (n, 3, 2), as
    an x plane and a y plane, (2, n, 3)."""
    det = 2.0 * areas
    g = np.empty((2, len(p), 3))
    for i in range(3):
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        g[0, :, i] = -e[:, 1] / det
        g[1, :, i] = e[:, 0] / det
    return g


def copied_triangles(parent_of: np.ndarray) -> np.ndarray:
    """Mask of the triangles `refine` copied from the previous mesh: those
    whose parent has exactly one child.  `_bisect` copies such a row as it
    is, so a value computed from its vertices has the same bits on both
    meshes and can be gathered through ``parent_of`` instead."""
    return np.bincount(parent_of)[parent_of] == 1


class Mesh:
    """Immutable conforming triangulation with a refinement-edge convention.

    Parameters
    ----------
    vertices : (n_vertices, 2) float array.
    triangles : (n_triangles, 3) int array, counterclockwise; the edge
        opposite the first-listed vertex is the refinement edge.
    boundary_edges : (n_boundary, 2) int array of boundary vertex pairs.
    boundary_markers : (n_boundary,) int array, DIRICHLET or NEUMANN.
    level : refinement generation, 0 for a root mesh.
    parent_of : (n_triangles,) indices into the previous mesh (identity for
        a root mesh).
    vertex_parents : (n_new_vertices, 2) endpoint indices of the bisected
        edge that created each appended vertex, or None for a root mesh.
    n_coarse_vertices : vertex count of the previous mesh.

    areas, gradient_planes, edges, boundary_ids : values of
        ``signed_areas()`` and of the properties of those names when the
        caller already has them, as `refine` does: it gathers areas and hat
        gradients of copied triangles from the parent mesh and carries the
        parent's edge table.

    The read-only attribute ``areas`` holds the (positive) triangle areas;
    vertex coordinates must be finite.  ``edges`` (`EdgeTable`),
    ``boundary_ids`` (the edge id of each boundary edge),
    ``gradient_planes`` and ``gradient_operator`` are computed on first use
    unless given, and live as long as the mesh.  The hat gradients are
    stored once, as the planes, which ``gradient_operator`` holds as its
    data.
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_markers,
                 level: int = 0, parent_of=None, vertex_parents=None,
                 n_coarse_vertices: int | None = None, areas=None, gradient_planes=None,
                 edges: EdgeTable | None = None, boundary_ids=None):
        self.vertices = np.array(vertices, dtype=float).reshape(-1, 2)
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertex coordinates must be finite")
        self.triangles = np.array(triangles, dtype=np.int64).reshape(-1, 3)
        self.boundary_edges = np.array(boundary_edges, dtype=np.int64).reshape(-1, 2)
        self.boundary_markers = np.array(boundary_markers, dtype=np.int64).reshape(-1)
        self.level = int(level)
        if parent_of is None:
            parent_of = np.arange(self.triangles.shape[0], dtype=np.int64)
        self.parent_of = np.array(parent_of, dtype=np.int64)
        self.vertex_parents = (None if vertex_parents is None
                               else np.array(vertex_parents, dtype=np.int64).reshape(-1, 2))
        self.n_coarse_vertices = (self.vertices.shape[0] if n_coarse_vertices is None
                                  else int(n_coarse_vertices))
        if self.boundary_markers.shape[0] != self.boundary_edges.shape[0]:
            raise ValueError("need one marker per boundary edge")
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= self.n_vertices):
            raise ValueError("triangle vertex index out of range")
        self.areas = self.signed_areas() if areas is None else np.asarray(areas, dtype=float)
        if not (self.areas > 0.0).all():
            raise ValueError("triangles must be positively oriented and non-degenerate")
        for a in (self.vertices, self.triangles, self.boundary_edges,
                  self.boundary_markers, self.parent_of, self.areas):
            a.setflags(write=False)
        if self.vertex_parents is not None:
            self.vertex_parents.setflags(write=False)
        # given values fill the cached properties
        if gradient_planes is not None:
            gradient_planes.setflags(write=False)
        for name, value in (("gradient_planes", gradient_planes), ("edges", edges),
                            ("boundary_ids", boundary_ids)):
            if value is not None:
                self.__dict__[name] = value

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def signed_areas(self) -> np.ndarray:
        return _signed_areas(self.vertices[self.triangles])

    @cached_property
    def edges(self) -> EdgeTable:
        return _build_edge_table(self.triangles, self.n_vertices)

    @cached_property
    def boundary_ids(self) -> np.ndarray:
        """Edge id of each entry of ``boundary_edges``."""
        return _boundary_ids(self.edges, self.boundary_edges)

    @cached_property
    def gradient_planes(self) -> np.ndarray:
        """Gradients of the three nodal basis functions per triangle, as a
        read-only x plane and y plane, (2, nT, 3)."""
        planes = _gradient_planes(self.vertices[self.triangles], self.areas)
        planes.setflags(write=False)
        return planes

    @cached_property
    def gradient_operator(self) -> sp.csr_matrix:
        """The P1 gradient as a (2 nT, nV) CSR matrix: row t holds the x
        components of the hat gradients of triangle t in the columns of its
        vertices, row nT + t the y components.  Its data array is
        ``gradient_planes``, not a copy; ``indptr`` is 0, 3, 6, ...
        """
        n = self.n_triangles
        index = np.int32 if 6 * n <= np.iinfo(np.int32).max else np.int64
        return sp.csr_matrix(
            (self.gradient_planes.reshape(-1),
             np.concatenate((self.triangles, self.triangles), axis=None, dtype=index),
             np.arange(0, 6 * n + 1, 3, dtype=index)),
            shape=(2 * n, self.n_vertices))

    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, in radians."""
        p = self.vertices[self.triangles]
        angles = np.empty((self.n_triangles, 3))
        for k in range(3):
            u = p[:, (k + 1) % 3] - p[:, k]
            v = p[:, (k + 2) % 3] - p[:, k]
            c = (u * v).sum(axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
            angles[:, k] = np.arccos(np.clip(c, -1.0, 1.0))
        return float(angles.min())

    def dirichlet_vertices(self) -> np.ndarray:
        on = np.zeros(self.n_vertices, dtype=bool)
        on[self.boundary_edges[self.boundary_markers == DIRICHLET]] = True
        return np.flatnonzero(on)

    def validate(self) -> "Mesh":
        """Full conformity audit; raises ValueError on any violation."""
        et = self.edges  # raises if an edge has > 2 incident triangles
        uniq_v = np.unique(self.vertices, axis=0)
        if uniq_v.shape[0] != self.n_vertices:
            raise ValueError("duplicate vertex coordinates")
        used = np.zeros(self.n_vertices, dtype=bool)
        used[self.triangles.ravel()] = True
        if not used.all():
            raise ValueError("unreferenced vertices")
        listed = np.sort(self.boundary_edges, axis=1)
        if len(np.unique(listed, axis=0)) != len(listed):
            raise ValueError("duplicate boundary edge")
        if not np.array_equal(_boundary_ids(et, self.boundary_edges), self.boundary_ids):
            raise ValueError("boundary_ids do not match the boundary edges")
        if not np.isin(self.boundary_markers, (DIRICHLET, NEUMANN)).all():
            raise ValueError("invalid boundary marker")
        return self


def _assign_refinement_edges(vertices, triangles) -> np.ndarray:
    """Rotate triangles so the longest edge (ties: smallest opposite global
    vertex index) is opposite the first-listed vertex."""
    verts = np.asarray(vertices, dtype=float)
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    p = verts[tris]
    d = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
    lsq = (d ** 2).sum(axis=2)  # squared length of edge opposite local vertex k
    n_t = tris.shape[0]
    rows = np.arange(n_t)
    best = np.zeros(n_t, dtype=np.int64)
    for k in (1, 2):
        cur_len = lsq[rows, best]
        cur_opp = tris[rows, best]
        better = (lsq[:, k] > cur_len) | ((lsq[:, k] == cur_len) & (tris[:, k] < cur_opp))
        best[better] = k
    cols = (best[:, None] + np.arange(3)[None, :]) % 3
    return np.take_along_axis(tris, cols, axis=1)


_SLIT_Y = np.sqrt(2.0) - 1.0  # tan(pi/8): where the slit rays meet x = -1


def create_initial(domain: str) -> Mesh:
    """Canonical initial mesh for one of the built-in domains.

    ``z_shape`` is the square (-1,1)^2 with the wedge of opening pi/4 around
    the negative x axis removed; the two slit edges are Dirichlet, the outer
    boundary is Neumann.  ``l_shape`` is (-1,1)^2 minus [0,1]x[-1,0], pure
    Dirichlet.  ``unit_square`` is (0,1)^2 split along the diagonal, pure
    Dirichlet.  Refinement edges are initialized by longest edge with ties
    broken by smallest opposite vertex index.
    """
    key = domain.replace("_", "").replace("-", "").lower()
    if key == "unitsquare":
        verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        tris = [(0, 1, 2), (0, 2, 3)]
        bedges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        marks = [DIRICHLET] * 4
    elif key == "lshape":
        verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0),
                 (-1.0, 1.0), (-1.0, 0.0), (-1.0, -1.0), (0.0, -1.0)]
        tris = [(0, i, i + 1) for i in range(1, 7)]
        bedges = [(i, (i + 1) % 8) for i in range(8)]
        marks = [DIRICHLET] * 8
    elif key == "zshape":
        verts = [(0.0, 0.0), (-1.0, -_SLIT_Y), (-1.0, -1.0), (0.0, -1.0),
                 (1.0, -1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0),
                 (-1.0, 1.0), (-1.0, _SLIT_Y)]
        tris = [(0, i, i + 1) for i in range(1, 9)]
        bedges = [(i, (i + 1) % 10) for i in range(10)]
        marks = [NEUMANN] * 10
        marks[0] = DIRICHLET   # slit edge (0, 1)
        marks[9] = DIRICHLET   # slit edge (9, 0)
    else:
        raise ValueError(f"unknown domain {domain!r}")
    tris = _assign_refinement_edges(verts, tris)
    return Mesh(verts, tris, bedges, marks)


def _bisect(triangles: np.ndarray, mids: np.ndarray):
    """One round of single bisections, children in place of their parent.

    Each triangle ``(z0, z1, z2)`` with ``mids >= 0`` is replaced by
    ``(m, z2, z0)`` and ``(m, z0, z1)``, where ``m`` is its entry of ``mids``,
    the new vertex on the refinement edge ``z1 z2``; the first child's
    refinement edge is the parent's ``z2 z0``, the second's is ``z0 z1``.
    Returns the new triangles and the index each one came from.
    """
    cut = mids >= 0
    origin = np.repeat(np.arange(len(triangles)), 1 + cut)
    out = np.take(triangles, origin, axis=0)
    rows = np.flatnonzero(cut)
    first = rows + np.arange(len(rows))  # slot of each cut triangle's first child
    t = np.take(triangles, rows, axis=0)
    out[first, 0] = out[first + 1, 0] = mids[rows]
    out[first, 1:] = t[:, [2, 0]]
    out[first + 1, 1:] = t[:, :2]
    return out, origin


def refine(mesh: Mesh, marked) -> Mesh:
    """Coarsest conforming refinement bisecting every marked triangle.

    ``marked`` is a boolean mask or integer triangle indices.  The closure
    loop marks the refinement edge of any triangle with a hanging node until
    the result is conforming.  The children come from one rule applied twice
    (`_bisect`): round 1 bisects each triangle whose refinement edge is
    marked, round 2 bisects each child whose own refinement edge is marked
    (the parent's edge opposite ``z1`` for the first child, opposite ``z2``
    for the second).  So a triangle has 1 to 4 children, in place of the
    parent; a split boundary edge ``(a, b)`` becomes ``(a, m), (m, b)``.
    Only the new triangles get their areas and hat gradients computed; those
    of copied triangles (`copied_triangles`) are gathered from ``mesh``,
    ``gradient_planes`` only if ``mesh`` has computed its own.  The child's
    edge table and boundary edge ids come from those of ``mesh``
    (`_carried_edge_table`), not from a sort.
    """
    n_t = mesh.n_triangles
    marked = np.asarray(marked if isinstance(marked, np.ndarray) else list(marked))
    if marked.dtype == bool:
        if marked.shape != (n_t,):
            raise ValueError("boolean mark array has wrong length")
    else:
        if marked.size and marked.dtype.kind not in "iu":
            raise ValueError("marked triangles must be a boolean mask or integer indices")
        marked = marked.astype(np.int64)
        if marked.size and (marked.min() < 0 or marked.max() >= n_t):
            raise ValueError("marked triangle index out of range")

    et = mesh.edges
    marked_edge = np.zeros(et.n_edges, dtype=bool)
    marked_edge[et.of_triangle[marked, 0]] = True
    while True:  # closure: hanging nodes force refinement-edge marks
        em = marked_edge[et.of_triangle]
        need = ~em[:, 0] & (em[:, 1] | em[:, 2])
        if not need.any():
            break
        marked_edge[et.of_triangle[need, 0]] = True

    n_old = mesh.n_vertices
    bis_edges = np.flatnonzero(marked_edge)
    edge_to_new = np.full(et.n_edges, -1, dtype=np.int64)
    edge_to_new[bis_edges] = n_old + np.arange(len(bis_edges))
    vertex_parents = np.take(et.nodes, bis_edges, axis=0)
    vertices = np.vstack([mesh.vertices, mesh.vertices[vertex_parents].mean(axis=1)])

    mids = edge_to_new[et.of_triangle]
    once, from_parent = _bisect(mesh.triangles, mids[:, 0])
    second = np.zeros(len(once), dtype=bool)
    second[1:] = from_parent[1:] == from_parent[:-1]
    twice, from_once = _bisect(once, mids[from_parent, 1 + second])
    parent_of = from_parent[from_once]
    del mids, once, from_parent, second, from_once  # freed before the edge table: peak memory
    new = np.flatnonzero(~copied_triangles(parent_of))
    edges, codes = _carried_edge_table(et, marked_edge, n_old, twice, parent_of, new,
                                       len(vertices))

    bmids = edge_to_new[mesh.boundary_ids]
    split = bmids >= 0
    keep = np.repeat(np.arange(len(split)), 1 + split)
    bedges = mesh.boundary_edges[keep]
    first = np.flatnonzero(split)
    first += np.arange(len(first))
    bedges[first, 1] = bedges[first + 1, 0] = bmids[split]
    boundary_ids = np.searchsorted(codes, _pair_codes(bedges, len(vertices)))

    # areas and (once computed on the parent) hat gradients: gathered
    # through parent_of, then computed afresh on the new triangles
    p = vertices[twice[new]]
    areas = np.take(mesh.areas, parent_of)
    areas[new] = _signed_areas(p)
    planes = None
    if "gradient_planes" in vars(mesh):
        planes = np.take(mesh.gradient_planes, parent_of, axis=1)
        planes[:, new] = _gradient_planes(p, areas[new])
    return Mesh(vertices, twice, bedges, mesh.boundary_markers[keep], level=mesh.level + 1,
                parent_of=parent_of, vertex_parents=vertex_parents,
                n_coarse_vertices=n_old, areas=areas, gradient_planes=planes,
                edges=edges, boundary_ids=boundary_ids)


def uniform_refine(mesh: Mesh) -> Mesh:
    """Refine with every triangle marked."""
    return refine(mesh, np.arange(mesh.n_triangles))


def locate(mesh: Mesh, points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Containing triangle for each point, by brute-force barycentric tests.

    Intended for small meshes (overlay bookkeeping, tests); cost is
    O(n_points * n_triangles).  Raises ValueError if a point lies outside.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    p = mesh.vertices[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    d = points[:, None, :] - p[None, :, 0, :]
    lam1 = (d[..., 0] * e2[None, :, 1] - d[..., 1] * e2[None, :, 0]) / det
    lam2 = (e1[None, :, 0] * d[..., 1] - e1[None, :, 1] * d[..., 0]) / det
    inside = (lam1 >= -tol) & (lam2 >= -tol) & (lam1 + lam2 <= 1 + tol)
    found = inside.any(axis=1)
    if not found.all():
        raise ValueError("point outside the mesh")
    return inside.argmax(axis=1)


def _check_descends_from(mesh: Mesh, root: Mesh, what: str) -> None:
    host = locate(root, mesh.centroids())
    ratio = root.areas[host] / mesh.areas
    depth = np.log2(ratio)
    if np.abs(depth - np.rint(depth)).max() > 1e-6 or depth.min() < -1e-6:
        raise ValueError(f"{what} is not a bisection refinement of the root mesh")


def overlay(a: Mesh, b: Mesh, root: Mesh) -> Mesh:
    """Coarsest common refinement of two meshes grown from the same root.

    Works by replay: any triangle of the current mesh that is strictly
    coarser than the triangle of ``b`` covering the same spot gets marked and
    bisected; closure stays inside the target because the union of two
    conforming bisection forests is conforming.  Terminates after at most
    the bisection depth of ``b`` rounds.
    """
    _check_descends_from(a, root, "first mesh")
    _check_descends_from(b, root, "second mesh")
    current = a
    for _ in range(128):
        host = locate(b, current.centroids())
        ratio = current.areas / b.areas[host]
        depth = np.log2(ratio)
        if np.abs(depth - np.rint(depth)).max() > 1e-6:
            raise ValueError("meshes do not belong to the same bisection forest")
        mark = np.rint(depth) >= 1
        if not mark.any():
            return current
        current = refine(current, np.nonzero(mark)[0])
    raise ValueError("overlay did not terminate; inputs are not compatible refinements")


class MeshHierarchy:
    """Nested sequence of meshes produced by successive refinement."""

    def __init__(self, initial: Mesh):
        self.levels: list[Mesh] = [initial]

    @property
    def finest(self) -> Mesh:
        return self.levels[-1]

    def append(self, mesh: Mesh) -> None:
        if mesh.n_coarse_vertices != self.finest.n_vertices:
            raise ValueError("mesh does not refine the current finest level")
        self.levels.append(mesh)

    def refine(self, marked) -> Mesh:
        new = refine(self.finest, marked)
        self.levels.append(new)
        return new

    @property
    def new_vertices_per_level(self) -> list[np.ndarray]:
        """Index ranges of the vertices created at each level (empty at 0)."""
        out = [np.empty(0, dtype=np.int64)]
        for mesh in self.levels[1:]:
            out.append(np.arange(mesh.n_coarse_vertices, mesh.n_vertices, dtype=np.int64))
        return out


def closure_cost(hierarchy, markings) -> float:
    """Ratio (#T_final - #T_0) / sum of marked-set sizes over the history."""
    levels = hierarchy.levels if isinstance(hierarchy, MeshHierarchy) else list(hierarchy)
    markings = list(markings)
    if not markings:
        raise ValueError("empty markings history")
    if len(levels) != len(markings) + 1:
        raise ValueError("need one marking per refinement step")
    total_marked = sum(len(m) for m in markings)
    if total_marked == 0:
        raise ValueError("markings are all empty")
    return (levels[-1].n_triangles - levels[0].n_triangles) / total_marked


def write_text(mesh: Mesh, target) -> None:
    """Write a mesh in the plain-text exchange format.

    Layout: ``vertices N`` then N lines ``x y`` (17 significant digits),
    ``triangles M`` then M lines ``i j k`` (refinement edge opposite vertex
    i), ``boundary B`` then B lines ``i j D|N``.  Indices are 0-based.
    """
    def _dump(f):
        f.write(f"vertices {mesh.n_vertices}\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.17g} {y:.17g}\n")
        f.write(f"triangles {mesh.n_triangles}\n")
        for i, j, k in mesh.triangles:
            f.write(f"{i} {j} {k}\n")
        f.write(f"boundary {len(mesh.boundary_edges)}\n")
        for (i, j), marker in zip(mesh.boundary_edges, mesh.boundary_markers):
            f.write(f"{i} {j} {_MARKER_TO_CHAR[int(marker)]}\n")

    if hasattr(target, "write"):
        _dump(target)
    else:
        with open(target, "w") as f:
            _dump(f)


def read_text(source) -> Mesh:
    """Read a mesh written by `write_text`; returns a level-0 mesh."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source) as f:
            lines = f.read().splitlines()
    pos = 0

    def _section(name):
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise ValueError(f"missing '{name}' section")
        head = lines[pos].split()
        if len(head) != 2 or head[0] != name:
            raise ValueError(f"expected '{name} N' header, got {lines[pos]!r}")
        pos += 1
        return int(head[1])

    def _rows(count):
        nonlocal pos
        out = []
        for _ in range(count):
            while pos < len(lines) and not lines[pos].strip():
                pos += 1
            if pos >= len(lines):
                raise ValueError("truncated mesh file")
            out.append(lines[pos].split())
            pos += 1
        return out

    n_v = _section("vertices")
    verts = np.array([[float(a), float(b)] for a, b in _rows(n_v)], dtype=float).reshape(-1, 2)
    n_t = _section("triangles")
    tris = np.array([[int(a), int(b), int(c)] for a, b, c in _rows(n_t)],
                    dtype=np.int64).reshape(-1, 3)
    n_b = _section("boundary")
    bedges, bmarks = [], []
    for i, j, mk in _rows(n_b):
        if mk not in _CHAR_TO_MARKER:
            raise ValueError(f"unknown boundary marker {mk!r}")
        bedges.append((int(i), int(j)))
        bmarks.append(_CHAR_TO_MARKER[mk])
    return Mesh(verts, tris, np.array(bedges, dtype=np.int64).reshape(-1, 2),
                np.array(bmarks, dtype=np.int64))
