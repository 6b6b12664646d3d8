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
inherited refinement edge is marked, which yields 1 to 4 children.  Only
the bisected triangles' rows are built, all in one gather from a table of
the six possible children (`_CHILDREN`); every other row is copied.
`overlay` computes the coarsest common refinement of two meshes grown from
the same root, and `MeshHierarchy` keeps the level bookkeeping that the
multilevel solver relies on.

Vertex indexing is append-only across refinement: vertices of the coarse
mesh keep their indices, midpoints are appended in edge-id order.  Only a
root mesh sorts its vertex pairs to build its `EdgeTable`; `refine` hands
the child a table carried from the parent's (an edge that is not bisected
keeps its row, the new edges are merged in, a copied triangle keeps its
edges), together with the edge id of every boundary edge, so connectivity
costs gathers in proportion to the mesh and a sort only of what changed.
Every mesh holds its areas and hat gradients, stored once as (2, nT, 3) x
and y planes: a root mesh computes them when built, from the three edge
vectors at once, and `refine` gathers those of copied triangles and
computes those of new ones; `Mesh.new_triangles` lists the latter, for
`fem.sample`.  A mesh is complete when built, with no lazy attribute: its
edge table, boundary edge ids and gradient operator exist from
construction, so a root mesh whose edge has three triangles or whose
boundary list is wrong raises at once.  `Mesh.refines` is the one test of
whether a mesh was refined from another.

`refine` and `Mesh.__init__` run once per level, on meshes of a few hundred
triangles in a deep adaptive run, where each numpy call costs more than
its arithmetic.  So they make few calls: array methods (``a.take``,
``a.nonzero()``) rather than the ``np.*`` wrappers, ufunc reductions with
``axis=None`` rather than ``a.all()`` or ``a.min()``, no reduction over a
short last axis (numpy loops over its rows one by one), and gathers and
scatters by np.intp indices (int32 indices are cast on every use).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

DIRICHLET = 0
NEUMANN = 1
_INT32_MAX = np.iinfo(np.int32).max  # connectivity is 32-bit

_MARKER_TO_CHAR = {DIRICHLET: "D", NEUMANN: "N"}
_CHAR_TO_MARKER = {c: m for m, c in _MARKER_TO_CHAR.items()}


# the ends of the edge opposite local vertex k, k = 0, 1, 2
EDGE_ENDS = np.array([1, 2, 0]), np.array([2, 0, 1])


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
    the parent's table over to the child (`_carried_edge_table`).  Like the
    mesh's connectivity, all three arrays are int32.

    Attributes
    ----------
    nodes : (n_edges, 2) endpoint indices with lo < hi.
    of_triangle : (n_triangles, 3); column k holds the id of the edge
        opposite local vertex k, so column 0 is the refinement edge.
    incident : (n_edges, 2) adjacent triangle ids, -1 padding.
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
    t = np.asarray(triangles)
    # edge k of a triangle is opposite local vertex k
    pairs = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=0)
    uniq, inverse = np.unique(_pair_codes(pairs, n_vertices), return_inverse=True)
    of_triangle = inverse.reshape(3, len(t)).T.astype(np.int32, order="C")
    nodes = np.column_stack([uniq // n_vertices, uniq % n_vertices]).astype(np.int32)
    return EdgeTable(nodes=nodes, of_triangle=of_triangle,
                     incident=_incident(of_triangle, len(uniq)))


def _carried_edge_table(parent: EdgeTable, of_triangle: np.ndarray, bisected: np.ndarray,
                        n_old: int, parent_of: np.ndarray, new: np.ndarray,
                        children: np.ndarray, n_vertices: int):
    """The edge table of the mesh `refine` made from a mesh with table
    ``parent`` (whose ``of_triangle`` is also given as np.intp), and the
    sorted pair codes of its edges.

    An edge that is not ``bisected`` survives with its (lo, hi) row; every
    other edge of the child has a new vertex (index ``n_old`` and up) as
    its hi end and lies on one of the ``new`` triangles, whose vertices are
    ``children``.  The new rows are merged into the sorted survivors, a
    copied triangle takes its parent's ``of_triangle`` row through the
    old -> new id map, and only the new triangles look their edges up.
    Equal, array for array, to `_build_edge_table` on the child.
    """
    n_v = np.int64(n_vertices)
    surviving = ~bisected
    kept = parent.nodes.take(surviving.nonzero()[0], axis=0)
    kept_codes = kept[:, 0] * n_v
    kept_codes += kept[:, 1]
    # column k: the edge opposite local vertex k of each new triangle
    ends = children[:, EDGE_ENDS[0]], children[:, EDGE_ENDS[1]]
    hi = np.maximum(*ends)
    new_codes = np.minimum(*ends) * n_v + hi
    # the distinct ones with a new vertex are added, merged in sorted order
    added = sorted_unique(new_codes[hi >= n_old])
    n_e = len(kept_codes) + len(added)
    at = kept_codes.searchsorted(added) + np.arange(len(added))
    is_kept = np.ones(n_e, dtype=bool)
    is_kept[at] = False
    # 1-D masked copies, several times faster than scatters; each (lo, hi)
    # row moves as one 64-bit word
    codes = np.empty(n_e, dtype=np.int64)
    codes[is_kept], codes[at] = kept_codes, added
    nodes = np.empty((n_e, 2), dtype=np.int32)
    nodes.view(np.int64).reshape(-1)[is_kept] = kept.view(np.int64).reshape(-1)
    nodes[at, 0], nodes[at, 1] = added // n_v, added % n_v
    old_to_new = np.empty(parent.n_edges, dtype=np.int32)
    old_to_new[surviving] = is_kept.nonzero()[0]
    of_triangle = old_to_new.take(of_triangle.take(parent_of, axis=0))
    of_triangle[new] = codes.searchsorted(new_codes)
    return EdgeTable(nodes=nodes, of_triangle=of_triangle,
                     incident=_incident(of_triangle, n_e)), codes


def _incident(of_triangle: np.ndarray, n_edges: int) -> np.ndarray:
    """``EdgeTable.incident`` from ``of_triangle`` by scatters, no sort;
    every edge must occur in ``of_triangle``."""
    cols = of_triangle.T.astype(np.intp)  # scatters by int32 indices cast them each time
    tri = np.arange(len(of_triangle), dtype=np.int32)
    incident = np.empty((n_edges, 2), dtype=np.int32)
    first, last = incident[:, 0], incident[:, 1]
    # of repeated indices the last write stays: the backward pass writes
    # the first occurrence in column-major order last, the forward pass the
    # last occurrence
    for k in (2, 1, 0):
        first[cols[k, ::-1]] = tri[::-1]
    for k in (0, 1, 2):
        last[cols[k]] = tri
    # a triangle holds an edge at most once, so first == last marks the
    # edges of one triangle; 3 n_triangles = 2 n_edges - (those) holds
    # exactly when no edge has more than two
    single = first == last
    if 2 * n_edges - np.count_nonzero(single) != 3 * len(of_triangle):
        raise ValueError("non-conforming mesh: an edge is shared by more than two triangles")
    last[single] = -1
    return incident


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


def _geometry(p: np.ndarray) -> tuple:
    """Areas, (n,), and hat gradients as an x plane and a y plane, (2, n,
    3), of triangles with vertex coordinates p, (n, 3, 2); raises unless
    every triangle is positively oriented and non-degenerate.  The hat
    gradient of vertex i is the edge opposite it, p[i + 2] - p[i + 1]
    (indices mod 3), turned by -90 degrees and divided by twice the area."""
    e = p[:, EDGE_ENDS[1]] - p[:, EDGE_ENDS[0]]
    # e[:, 2] = p1 - p0, and e[:, 1] = p0 - p2 is exactly -(p2 - p0)
    areas = 0.5 * (e[:, 2, 1] * e[:, 1, 0] - e[:, 2, 0] * e[:, 1, 1])
    if not np.logical_and.reduce(areas > 0.0):
        raise ValueError("triangles must be positively oriented and non-degenerate")
    det = (2.0 * areas)[:, None]
    g = np.empty((2, len(p), 3))
    np.negative(e[:, :, 1], out=g[0])
    g[0] /= det
    np.divide(e[:, :, 0], det, out=g[1])
    return areas, g


def _indices(a, bound: int, what: str, dtype=np.int32) -> np.ndarray:
    """``a`` as a new array of ``dtype``, once every entry of the input (not
    yet wrapped by the cast) is checked to lie in [0, bound)."""
    a = np.asarray(a)
    if a.size and (np.minimum.reduce(a, axis=None) < 0
                   or np.maximum.reduce(a, axis=None) >= bound):
        raise ValueError(f"{what} index out of range")
    return a.astype(dtype)


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of an integer array, flattened, by one stable sort,
    which on a sorted run plus a short tail beats the hash table numpy
    uses."""
    a = np.sort(a, axis=None, kind="stable")
    keep = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def copied_triangles(parent_of: np.ndarray) -> np.ndarray:
    """Mask of the triangles `refine` copied from the previous mesh: those
    whose parent has exactly one child.  `refine` copies such a row as it
    is, so a value computed from its vertices has the same bits on both
    meshes and can be gathered through ``parent_of`` instead."""
    return np.bincount(parent_of)[parent_of] == 1


class Mesh:
    """Immutable conforming triangulation with a refinement-edge convention.

    Parameters
    ----------
    vertices : (n_vertices, 2) float array.
    triangles : (n_triangles, 3) int array, counterclockwise, at least one
        row; the edge opposite the first-listed vertex is the refinement edge.
    boundary_edges : (n_boundary, 2) int array of boundary vertex pairs.
    boundary_markers : (n_boundary,) int array, DIRICHLET or NEUMANN.
    level : refinement generation, 0 for a root mesh.
    parent_of : (n_triangles,) indices into the previous mesh (identity for
        a root mesh).
    vertex_parents : (n_new_vertices, 2) endpoint indices of the bisected
        edge that created each appended vertex, or None for a root mesh;
        the endpoints are coarse vertices, those before the appended ones.

    geometry, edges, boundary_ids, new_triangles : ``(areas,
        gradient_planes)`` and the values of the attributes ``edges``,
        ``boundary_ids`` and ``new_triangles`` when the caller already has
        them, as `refine` does: it gathers the geometry of copied triangles
        from the parent mesh, carries its edge table and knows which
        triangles it built.

    A mesh is complete when built: the read-only ``areas`` (positive),
    ``gradient_planes`` (the hat gradients as x and y planes, (2, nT, 3)),
    ``edges`` (`EdgeTable`) and ``boundary_ids`` (the edge id of each
    boundary edge) are computed at construction unless given, as is
    ``new_triangles``, the indices of the triangles that are not copies of
    a triangle of the mesh this one was refined from (`copied_triangles`;
    all of a root mesh's), and so is
    ``gradient_operator``, the P1 gradient as two (nT, nV) CSR matrices of
    x and of y components: row t holds the hat gradients of triangle t in
    the columns of its vertices.  Nothing is copied: their data are the
    planes, their indices ``triangles`` itself (int32), and they share one
    ``indptr``, 0, 3, 6, ...  ``n_coarse_vertices`` is derived from
    ``vertex_parents``.  Vertex coordinates must be finite, boundary vertex
    indices in range and markers DIRICHLET or NEUMANN; no edge may have
    more than two triangles, and the boundary edges must be exactly the
    edges of one triangle.  The connectivity (``triangles``, ``parent_of``,
    ``vertex_parents``, `EdgeTable`) is int32, so n_vertices and 3
    n_triangles + 1 must fit in int32; indices are range-checked before the
    cast, which would wrap them.
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_markers,
                 level: int = 0, parent_of=None, vertex_parents=None, geometry=None,
                 edges: EdgeTable | None = None, boundary_ids=None, new_triangles=None):
        self.vertices = np.array(vertices, dtype=float).reshape(-1, 2)
        if not np.logical_and.reduce(np.isfinite(self.vertices), axis=None):
            raise ValueError("vertex coordinates must be finite")
        self.triangles = _indices(triangles, self.n_vertices, "triangle vertex").reshape(-1, 3)
        if not self.n_triangles:
            raise ValueError("a mesh needs at least one triangle")
        if max(self.n_vertices, 3 * self.n_triangles + 1) > _INT32_MAX:
            raise ValueError("too many vertices or triangles for 32-bit indices")
        self.boundary_edges = _indices(boundary_edges, self.n_vertices, "boundary vertex",
                                       np.int64).reshape(-1, 2)
        self.boundary_markers = np.array(boundary_markers, dtype=np.int64).reshape(-1)
        if not np.logical_and.reduce((self.boundary_markers == DIRICHLET)
                                     | (self.boundary_markers == NEUMANN)):
            raise ValueError("boundary markers must be DIRICHLET or NEUMANN")
        self.level = int(level)
        self.parent_of = (np.arange(self.n_triangles, dtype=np.int32) if parent_of is None
                          else _indices(parent_of, self.n_triangles, "parent triangle"))
        if vertex_parents is not None:  # parents are coarse vertices
            vertex_parents = np.reshape(vertex_parents, (-1, 2))
            vertex_parents = _indices(vertex_parents, self.n_vertices - len(vertex_parents),
                                      "vertex parent")
        self.vertex_parents = vertex_parents
        if self.boundary_markers.shape[0] != self.boundary_edges.shape[0]:
            raise ValueError("need one marker per boundary edge")
        if new_triangles is None:
            new_triangles = (~copied_triangles(self.parent_of)).nonzero()[0] \
                if vertex_parents is not None else np.arange(self.n_triangles)
        self.new_triangles = new_triangles
        self.areas, self.gradient_planes = (_geometry(self.vertices[self.triangles])
                                            if geometry is None else geometry)
        self.edges = (_build_edge_table(self.triangles, self.n_vertices) if edges is None
                      else edges)
        self.boundary_ids = (_boundary_ids(self.edges, self.boundary_edges)
                             if boundary_ids is None else boundary_ids)
        for a in (self.vertices, self.triangles, self.boundary_edges, self.boundary_markers,
                  self.parent_of, self.new_triangles, self.areas, self.gradient_planes,
                  self.boundary_ids) + (() if vertex_parents is None else (vertex_parents,)):
            a.setflags(write=False)
        # the y matrix shares the x matrix's indices and indptr
        gx = sp.csr_matrix((self.gradient_planes[0].reshape(-1), self.triangles.reshape(-1),
                            np.arange(0, 3 * self.n_triangles + 1, 3, dtype=np.int32)),
                           shape=(self.n_triangles, self.n_vertices))
        gy = sp.csr_matrix(gx)
        gy.data = self.gradient_planes[1].reshape(-1)
        self.gradient_operator = gx, gy

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_coarse_vertices(self) -> int:
        """Vertex count of the mesh this one was refined from: the vertices
        before those ``vertex_parents`` appended (all, for a root mesh)."""
        return self.n_vertices - (0 if self.vertex_parents is None else len(self.vertex_parents))

    def refines(self, coarse: "Mesh") -> bool:
        """Whether `refine` made this mesh from ``coarse``: not a root mesh,
        one level finer, with ``coarse``'s vertex count as its coarse
        vertex count, the triangle count that ``parent_of`` implies, and
        ``coarse``'s vertices as its first vertices (the vertex set fixes a
        newest-vertex bisection mesh of a given root)."""
        n = coarse.n_vertices
        return self.vertex_parents is not None and self.level == coarse.level + 1 \
            and self.n_coarse_vertices == n \
            and self.parent_of[-1] + 1 == coarse.n_triangles \
            and np.logical_and.reduce(coarse.vertices == self.vertices[:n], axis=None)

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

    def validate(self) -> "Mesh":
        """Full conformity audit; raises ValueError on any violation."""
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
        if not np.array_equal(_boundary_ids(self.edges, self.boundary_edges),
                              self.boundary_ids):
            raise ValueError("boundary_ids do not match the boundary edges")
        return self


def _assign_refinement_edges(vertices, triangles) -> np.ndarray:
    """Rotate triangles so the longest edge (ties: smallest opposite global
    vertex index) is opposite the first-listed vertex."""
    verts = np.asarray(vertices, dtype=float)
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    p = verts[tris]
    d = p[:, EDGE_ENDS[1]] - p[:, EDGE_ENDS[0]]
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


# A bisected triangle (z0, z1, z2) with new vertices (m0, m1, m2) on its
# edges (m1, m2 where those are bisected too) has as children, in order, the
# rows of _CHILDREN (columns of [z0 z1 z2 m0 m1 m2]) whose edge of
# _CHILD_EDGE is bisected exactly when _CHILD_IF is True: (m0, z2, z0) or
# its halves (m1, z0, m0), (m1, m0, z2); then (m0, z0, z1) or its halves
# (m2, z1, m0), (m2, m0, z0).
_CHILDREN = np.array([(3, 2, 0), (4, 0, 3), (4, 3, 2), (3, 0, 1), (5, 1, 3), (5, 3, 0)])
_CHILD_EDGE = [1, 1, 1, 2, 2, 2]
_CHILD_IF = np.array([False, True, True, False, True, True])


def triangle_subset(mesh: Mesh, marked) -> np.ndarray:
    """``marked``, a subset of ``mesh``'s triangles from an array or any
    sequence: a boolean mask of length n_triangles as it is, or indices as
    int64, checked to lie in [0, n_triangles); raises ValueError otherwise."""
    n_t = mesh.n_triangles
    marked = np.asarray(marked if isinstance(marked, np.ndarray) else list(marked))
    if marked.dtype == bool:
        if marked.shape != (n_t,):
            raise ValueError("boolean mark array has wrong length")
        return marked
    if marked.size and marked.dtype.kind not in "iu":
        raise ValueError("marked triangles must be a boolean mask or integer indices")
    marked = marked.astype(np.int64)
    if marked.size and (marked.min() < 0 or marked.max() >= n_t):
        raise ValueError("marked triangle index out of range")
    return marked


def refine(mesh: Mesh, marked) -> Mesh:
    """Coarsest conforming refinement bisecting every marked triangle.

    ``marked`` is a triangle subset, read by `triangle_subset`.  The closure
    loop marks the refinement edge of any triangle with a hanging node until
    the result is conforming.  The children come from one rule applied twice:
    a triangle ``(z0, z1, z2)`` whose refinement edge is marked becomes
    ``(m, z2, z0)`` and ``(m, z0, z1)``, with ``m`` the new vertex on ``z1
    z2``, and each child whose own refinement edge is marked (the parent's
    edge opposite ``z1`` for the first child, opposite ``z2`` for the second)
    is bisected by the same rule.  So a triangle has 1 to 4 children, in
    place of the parent; only the bisected triangles' rows are built, the
    others are copied.  A split boundary edge ``(a, b)`` becomes ``(a, m),
    (m, b)``.  Only the new triangles get their areas and hat gradients
    computed; those of copied triangles are gathered from ``mesh``.  The
    child's edge table and boundary edge ids come from those of ``mesh``
    (`_carried_edge_table`), not from a sort.
    """
    n_t = mesh.n_triangles
    marked = triangle_subset(mesh, marked)
    et = mesh.edges
    of_triangle = et.of_triangle.astype(np.intp)  # gathers by int32 indices cast them each time
    marked_edge = np.zeros(et.n_edges, dtype=bool)
    marked_edge[of_triangle[marked, 0]] = True
    while True:  # closure: hanging nodes force refinement-edge marks
        em = marked_edge[of_triangle]
        hanging = of_triangle[:, 0][~em[:, 0] & (em[:, 1] | em[:, 2])]
        if not hanging.size:
            break
        marked_edge[hanging] = True

    # the new vertices, one per bisected edge in edge order
    n_old = mesh.n_vertices
    bisected_edges = marked_edge.nonzero()[0]
    vertex_parents = et.nodes.take(bisected_edges, axis=0)
    ends = mesh.vertices[vertex_parents]
    vertices = np.concatenate((mesh.vertices, 0.5 * (ends[:, 0] + ends[:, 1])))

    # em is conforming: a triangle's edges 1 and 2 are marked only with its
    # refinement edge; a bisected triangle has 2 + (those) children
    bisected = em[:, 0].nonzero()[0]
    flags = em.take(bisected, axis=0)
    n_children = 2 + flags[:, 1] + flags[:, 2].astype(np.intp)
    counts = np.ones(n_t, dtype=np.intp)
    counts[bisected] = n_children
    parent_of = np.arange(n_t).repeat(counts)
    new = em[:, 0].repeat(counts).nonzero()[0]  # the children of bisected triangles
    corners = np.concatenate((mesh.triangles.take(bisected, axis=0),
                              n_old + bisected_edges.searchsorted(
                                  of_triangle.take(bisected, axis=0))), axis=1)
    children = corners[:, _CHILDREN][flags[:, _CHILD_EDGE] == _CHILD_IF]
    triangles = mesh.triangles.take(parent_of, axis=0)
    triangles[new] = children
    edges, codes = _carried_edge_table(et, of_triangle, marked_edge, n_old, parent_of, new,
                                       children, len(vertices))

    split = marked_edge[mesh.boundary_ids]
    keep = np.arange(len(split)).repeat(1 + split)
    bedges = mesh.boundary_edges[keep]
    first = split.nonzero()[0]
    first += np.arange(len(first))
    bedges[first, 1] = bedges[first + 1, 0] = \
        n_old + bisected_edges.searchsorted(mesh.boundary_ids[split])
    boundary_ids = codes.searchsorted(_pair_codes(bedges, len(vertices)))

    # areas and hat gradients: gathered through parent_of, then computed
    # afresh on the new triangles
    areas = mesh.areas.take(parent_of)
    planes = mesh.gradient_planes.take(parent_of, axis=1)
    areas[new], planes[:, new] = _geometry(vertices[children])
    return Mesh(vertices, triangles, bedges, mesh.boundary_markers[keep], level=mesh.level + 1,
                parent_of=parent_of, vertex_parents=vertex_parents, geometry=(areas, planes),
                edges=edges, boundary_ids=boundary_ids, new_triangles=new)


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
        if not mesh.refines(self.finest):
            raise ValueError("mesh does not refine the current finest level")
        self.levels.append(mesh)

    def refine(self, marked) -> Mesh:
        new = refine(self.finest, marked)
        self.levels.append(new)
        return new


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
    """Read a mesh written by `write_text`; returns a level-0 mesh.

    A header, count or row that does not read, and a non-blank line after
    the boundary section, raise ValueError naming the 1-based line.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source) as f:
            text = f.read()
    lines = ((n, line.strip()) for n, line in enumerate(text.splitlines(), 1) if line.strip())

    def parse(n, line, what, kinds):
        """The fields of line ``n``, one read by each of ``kinds``."""
        fields = line.split()
        if len(fields) != len(kinds):
            raise ValueError(f"line {n}: {what} {line!r} has {len(fields)} fields, "
                             f"not {len(kinds)}")
        try:
            return [kind(field) for kind, field in zip(kinds, fields)]
        except ValueError as exc:
            raise ValueError(f"line {n}: {what} {line!r}: {exc}") from None

    def section(name, kinds):
        """The rows of section ``name``, each read by ``kinds``."""
        n, head = next(lines, (0, None))
        if head is None:
            raise ValueError(f"missing '{name}' section")
        fields = head.split()
        if len(fields) != 2 or fields[0] != name:
            raise ValueError(f"line {n}: expected '{name} N' header, got {head!r}")
        [count] = parse(n, fields[1], f"'{name}' count", (int,))
        if count < 0:
            raise ValueError(f"line {n}: negative '{name}' count {count}")
        rows = []
        for _ in range(count):
            # an exhausted generator stays exhausted: a short file ends in None
            n, line = next(lines, (0, None))
            if line is None:
                raise ValueError("truncated mesh file")
            rows.append(parse(n, line, f"'{name}' row", kinds))
        return rows

    def marker(char):
        if char not in _CHAR_TO_MARKER:
            raise ValueError(f"unknown boundary marker {char!r}")
        return _CHAR_TO_MARKER[char]

    verts = np.array(section("vertices", (float, float)), dtype=float).reshape(-1, 2)
    tris = np.array(section("triangles", (int, int, int)), dtype=np.int64).reshape(-1, 3)
    boundary = np.array(section("boundary", (int, int, marker)), dtype=np.int64).reshape(-1, 3)
    extra = next(lines, None)
    if extra is not None:
        raise ValueError(f"line {extra[0]}: {extra[1]!r} after the boundary section")
    return Mesh(verts, tris, boundary[:, :2], boundary[:, 2])
