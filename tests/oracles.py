"""Shared independent oracles used by the unit and acceptance tests.

Everything here recomputes expected behavior from first principles
(brute force, dense linear algebra, closed forms) so the library is
checked against code that does not share its shortcuts.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from unittest import mock

import numpy as np
import scipy.sparse as sp

from afem import (DIRICHLET, NEUMANN, AdaptiveConfig, DofMap, FeFunction,
                  apply_nonlinear, assemble_laplacian, create_initial, doerfler_mark,
                  driver, refine)
from afem.algsolver import Generation, MultilevelPreconditioner, coarse_inverse, solve_exact
from afem.estimator import EstimatorData
from afem.fem import (EDGE_QUAD_W, EDGE_QUAD_X, TRI_QUAD_BARY, TRI_QUAD_W,
                      Samples, element_flux, element_gradients, sample)
from afem.mesh import EdgeTable, Mesh
from afem.problems import get_problem
from afem.driver import RunLog, algebraic_stop, picard_stop
from afem.nonlinearity import Nonlinearity


def random_mesh(domain: str, rng: np.random.Generator, rounds: int = 4,
                frac: float = 0.3):
    """A small unstructured-looking mesh from random marked refinements."""
    mesh = create_initial(domain)
    for _ in range(rounds):
        n = mesh.n_triangles
        marked = rng.choice(n, size=max(1, int(frac * n)), replace=False)
        mesh = refine(mesh, marked)
    return mesh


def random_root(domain: str, rng: np.random.Generator) -> Mesh:
    """The root mesh of ``domain`` moved by a random affine map of positive
    determinant: the same triangles and boundary on other coordinates."""
    root = create_initial(domain)
    while True:
        a = rng.standard_normal((2, 2))
        if np.linalg.det(a) > 0.1:
            break
    return Mesh(root.vertices @ a.T + rng.standard_normal(2), root.triangles,
                root.boundary_edges, root.boundary_markers)


def random_marking(rng: np.random.Generator, n_t: int, kind: str):
    """A marking of ``n_t`` triangles: none, all, one, or a random subset."""
    return {"empty": [], "full": np.arange(n_t), "single": [rng.integers(n_t)],
            "subset": rng.choice(n_t, size=rng.integers(1, n_t + 1), replace=False)}[kind]


MARKING_KINDS = ["empty", "full", "single", "subset"]


def one_triangle() -> Mesh:
    """Reference right triangle with free (Neumann) boundary everywhere: no
    interior edge."""
    return Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)],
                [(0, 1), (1, 2), (2, 0)], [NEUMANN] * 3)


def edge_ids(et: EdgeTable, pairs) -> np.ndarray:
    """Ids of the given vertex pairs in ``et``, by dictionary lookup;
    raises KeyError if a pair is not an edge."""
    index = {(int(a), int(b)): e for e, (a, b) in enumerate(et.nodes.tolist())}
    return np.array([index[min(a, b), max(a, b)] for a, b in np.asarray(pairs).tolist()],
                    dtype=np.int64)


def case_table_refine(mesh: Mesh, marked) -> Mesh:
    """`afem.mesh.refine` in its former case-table form: the four child
    patterns of Funken, Praetorius and Wissgott's refineNVB (b1, b2a, b2b,
    b3), an empty-marking shortcut and a branch for meshes without boundary
    edges.  Coarsest conforming refinement bisecting every marked triangle.

    Marked triangles have their refinement edge bisected; the closure loop
    marks the refinement edge of any triangle with a hanging node until the
    result is conforming.  A triangle ends up with 2, 3 or 4 children
    depending on how many of its edges were bisected.

    Parameters
    ----------
    marked : iterable of triangle indices or boolean mask.
    """
    n_t = mesh.n_triangles
    marked = np.asarray(list(marked) if not isinstance(marked, np.ndarray) else marked)
    if marked.dtype == bool:
        if marked.shape != (n_t,):
            raise ValueError("boolean mark array has wrong length")
        mask = marked.copy()
    else:
        mask = np.zeros(n_t, dtype=bool)
        if marked.size:
            idx = marked.astype(np.int64)
            if idx.min() < 0 or idx.max() >= n_t:
                raise ValueError("marked triangle index out of range")
            mask[idx] = True
    if not mask.any():
        return Mesh(mesh.vertices, mesh.triangles, mesh.boundary_edges,
                    mesh.boundary_markers, level=mesh.level + 1,
                    parent_of=np.arange(n_t), vertex_parents=np.empty((0, 2), np.int64))

    et = mesh.edges
    marked_edge = np.zeros(et.n_edges, dtype=bool)
    marked_edge[et.of_triangle[mask, 0]] = True
    while True:  # closure: hanging nodes force refinement-edge marks
        em = marked_edge[et.of_triangle]
        need = ~em[:, 0] & (em[:, 1] | em[:, 2])
        if not need.any():
            break
        marked_edge[et.of_triangle[need, 0]] = True
    em = marked_edge[et.of_triangle]

    bis_edges = np.nonzero(marked_edge)[0]
    edge_to_new = np.full(et.n_edges, -1, dtype=np.int64)
    edge_to_new[bis_edges] = mesh.n_vertices + np.arange(len(bis_edges))
    midpoints = mesh.vertices[et.nodes[bis_edges]].mean(axis=1)
    new_vertices = np.vstack([mesh.vertices, midpoints])

    z0, z1, z2 = mesh.triangles[:, 0], mesh.triangles[:, 1], mesh.triangles[:, 2]
    m = edge_to_new[et.of_triangle[:, 0]]
    ma = edge_to_new[et.of_triangle[:, 1]]
    mb = edge_to_new[et.of_triangle[:, 2]]
    counts = 1 + em.sum(axis=1)
    offs = np.concatenate([[0], np.cumsum(counts)])
    children = np.empty((offs[-1], 3), dtype=np.int64)

    sel = ~em[:, 0]
    children[offs[:-1][sel]] = mesh.triangles[sel]
    # bisect the refinement edge; children may be bisected again at their
    # own refinement edges (the parent's remaining marked edges)
    b1 = em[:, 0] & ~em[:, 1] & ~em[:, 2]
    o = offs[:-1][b1]
    children[o] = np.column_stack([m[b1], z2[b1], z0[b1]])
    children[o + 1] = np.column_stack([m[b1], z0[b1], z1[b1]])
    b2a = em[:, 0] & em[:, 1] & ~em[:, 2]
    o = offs[:-1][b2a]
    children[o] = np.column_stack([ma[b2a], z0[b2a], m[b2a]])
    children[o + 1] = np.column_stack([ma[b2a], m[b2a], z2[b2a]])
    children[o + 2] = np.column_stack([m[b2a], z0[b2a], z1[b2a]])
    b2b = em[:, 0] & ~em[:, 1] & em[:, 2]
    o = offs[:-1][b2b]
    children[o] = np.column_stack([m[b2b], z2[b2b], z0[b2b]])
    children[o + 1] = np.column_stack([mb[b2b], z1[b2b], m[b2b]])
    children[o + 2] = np.column_stack([mb[b2b], m[b2b], z0[b2b]])
    b3 = em.all(axis=1)
    o = offs[:-1][b3]
    children[o] = np.column_stack([ma[b3], z0[b3], m[b3]])
    children[o + 1] = np.column_stack([ma[b3], m[b3], z2[b3]])
    children[o + 2] = np.column_stack([mb[b3], z1[b3], m[b3]])
    children[o + 3] = np.column_stack([mb[b3], m[b3], z0[b3]])
    parent = np.repeat(np.arange(n_t, dtype=np.int64), counts)

    if mesh.boundary_edges.size:
        bids = edge_ids(et, mesh.boundary_edges)
        split = marked_edge[bids]
        bcounts = np.where(split, 2, 1)
        boffs = np.concatenate([[0], np.cumsum(bcounts)])
        bedges = np.empty((boffs[-1], 2), dtype=np.int64)
        bmarks = np.empty(boffs[-1], dtype=np.int64)
        keep = ~split
        bedges[boffs[:-1][keep]] = mesh.boundary_edges[keep]
        bmarks[boffs[:-1][keep]] = mesh.boundary_markers[keep]
        o = boffs[:-1][split]
        mid = edge_to_new[bids[split]]
        bedges[o] = np.column_stack([mesh.boundary_edges[split, 0], mid])
        bedges[o + 1] = np.column_stack([mid, mesh.boundary_edges[split, 1]])
        bmarks[o] = mesh.boundary_markers[split]
        bmarks[o + 1] = mesh.boundary_markers[split]
    else:
        bedges = np.empty((0, 2), dtype=np.int64)
        bmarks = np.empty(0, dtype=np.int64)

    return Mesh(new_vertices, children, bedges, bmarks, level=mesh.level + 1,
                parent_of=parent, vertex_parents=et.nodes[bis_edges])


# (domain, seed) of the kernel oracle checks: z_shape meshes have Neumann
# edges, l_shape and unit_square meshes are Dirichlet only, None is
# `one_triangle`
KERNEL_CASES = [("z_shape", 0), ("z_shape", 1), ("l_shape", 2), ("l_shape", 3),
                ("unit_square", 5), (None, 4)]
DIRICHLET_ONLY = ("l_shape", "unit_square")


@lru_cache(maxsize=None)
def kernel_case(domain, seed):
    """Problem, dofmap, data samples and random vertex values on a random
    mesh of about 10^4 triangles (or on `one_triangle`)."""
    rng = np.random.default_rng(seed)
    mesh = one_triangle() if domain is None else random_mesh(domain, rng, rounds=12,
                                                               frac=0.5)
    problem = get_problem("lshape" if domain == "l_shape" else "zshape")
    dofmap = DofMap.from_mesh(mesh)
    values = FeFunction(dofmap, rng.standard_normal(dofmap.n_dofs)).vertex_values()
    return problem, dofmap, sample(mesh, problem.source, problem.neumann), values


def stacked_hat_gradients(mesh: Mesh) -> np.ndarray:
    """Hat gradients computed into a (nT, 3, 2) array, point by point, not
    as the (2, nT, 3) planes the mesh stores."""
    p = mesh.vertices[mesh.triangles]
    det = 2.0 * mesh.areas
    g = np.empty((mesh.n_triangles, 3, 2))
    for i in range(3):
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        g[:, i, 0] = -e[:, 1] / det
        g[:, i, 1] = e[:, 0] / det
    return g


# The element kernels in their former `einsum` and short-axis `sum` form.
# The library writes each as an explicit sum or a sparse matvec in the same
# operand order, and the tests require the two forms to agree bit for bit.
# The oracles take the hat gradients as a C-contiguous (nT, 3, 2) array:
# on a strided (nT, 3, 2) view of `Mesh.gradient_planes`, einsum sums in
# another order.

def einsum_element_gradients(mesh: Mesh, vertex_values: np.ndarray) -> np.ndarray:
    """Per-triangle gradient, (nT, 2)."""
    return np.einsum("ti,tid->td", vertex_values[mesh.triangles], stacked_hat_gradients(mesh))


def einsum_triangle_quad_points(mesh: Mesh) -> np.ndarray:
    return np.einsum("qi,tid->tqd", TRI_QUAD_BARY, mesh.vertices[mesh.triangles])


def einsum_assemble_laplacian(dofmap: DofMap) -> sp.csr_matrix:
    mesh = dofmap.mesh
    g = stacked_hat_gradients(mesh)
    k = np.einsum("tid,tjd,t->tij", g, g, mesh.areas)
    dofs = dofmap.dof_of_vertex[mesh.triangles]
    rows = np.repeat(dofs[:, :, None], 3, axis=2)
    cols = np.repeat(dofs[:, None, :], 3, axis=1)
    keep = (rows >= 0) & (cols >= 0)
    a = sp.coo_matrix((k[keep], (rows[keep], cols[keep])),
                      shape=(dofmap.n_dofs, dofmap.n_dofs))
    return a.tocsr()


def sum_stiffness_diagonal(dofmap: DofMap) -> np.ndarray:
    mesh = dofmap.mesh
    g = stacked_hat_gradients(mesh)
    contrib = (g ** 2).sum(axis=2) * mesh.areas[:, None]
    diag_v = np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                         minlength=mesh.n_vertices)
    return diag_v[dofmap.free_vertices]


def einsum_apply_nonlinear(nl: Nonlinearity, w: FeFunction) -> np.ndarray:
    mesh = w.mesh
    g = stacked_hat_gradients(mesh)
    grads = einsum_element_gradients(mesh, w.vertex_values())
    t = (grads ** 2).sum(axis=1)
    mu = np.asarray(nl.mu(t))
    contrib = np.einsum("t,tid,td->ti", mu * mesh.areas, g, grads)
    r = np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                    minlength=mesh.n_vertices)
    return r[w.dofmap.free_vertices]


def add_at_apply_nonlinear(dofmap: DofMap, flux) -> np.ndarray:
    """The residual of the flux ``(fx, fy)`` in the association of the
    library's transposed matvecs: the products h_i (f |T|) added into the
    vertices by `np.add.at` in triangle order, the x products and the y
    products apart, and the two sums added."""
    mesh = dofmap.mesh
    g = stacked_hat_gradients(mesh)
    sums = []
    for d, f in enumerate(flux):
        r = np.zeros(mesh.n_vertices)
        np.add.at(r, mesh.triangles.ravel(), (g[:, :, d] * (f * mesh.areas)[:, None]).ravel())
        sums.append(r)
    return (sums[0] + sums[1])[dofmap.free_vertices]


def neumann_data_at_nodes(samples: Samples, g) -> np.ndarray:
    """g at the 3 nodes of each Neumann edge of ``samples`` (zero for g None),
    (nN, 3), at the points and normals the library evaluates it at."""
    mesh = samples.mesh
    edges, normals = samples.neumann.edges, samples.neumann.normals
    a, b = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
    gq = np.zeros((len(edges), EDGE_QUAD_X.size))
    if g is not None:
        gq[:] = g(a[:, None, :] + EDGE_QUAD_X[None, :, None] * (b - a)[:, None, :],
                  normals[:, None, :])
    return gq


def einsum_assemble_rhs(dofmap: DofMap, samples: Samples, f, g) -> np.ndarray:
    """The load vector of the source ``f`` and the Neumann data ``g`` on
    the Neumann edges of ``samples``."""
    mesh = dofmap.mesh
    fq = f(einsum_triangle_quad_points(mesh))
    contrib = np.einsum("tq,q,qi,t->ti", fq, TRI_QUAD_W, TRI_QUAD_BARY, mesh.areas)
    rhs_v = np.zeros(mesh.n_vertices)
    rhs_v += np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                         minlength=mesh.n_vertices)
    edges, lengths = samples.neumann.edges, samples.neumann.lengths
    gq = neumann_data_at_nodes(samples, g)
    w0 = lengths * np.einsum("q,nq->n", EDGE_QUAD_W * (1.0 - EDGE_QUAD_X), gq)
    w1 = lengths * np.einsum("q,nq->n", EDGE_QUAD_W * EDGE_QUAD_X, gq)
    np.add.at(rhs_v, edges[:, 0], w0)
    np.add.at(rhs_v, edges[:, 1], w1)
    return rhs_v[dofmap.free_vertices]


def einsum_estimator_moments(samples: Samples, f, g):
    """|T| times the integral of the source ``f`` squared per element, and
    the Neumann data moments ``(g_sq_int, g_int)`` of ``g`` per edge (empty
    without Neumann edges)."""
    mesh = samples.mesh
    fq = f(einsum_triangle_quad_points(mesh))
    volume_sq = mesh.areas * np.einsum("tq,q,t->t", fq ** 2, TRI_QUAD_W, mesh.areas)
    lengths = samples.neumann.lengths
    gq = neumann_data_at_nodes(samples, g)
    return volume_sq, (lengths * np.einsum("q,nq->n", EDGE_QUAD_W, gq ** 2),
                       lengths * np.einsum("q,nq->n", EDGE_QUAD_W, gq))


def einsum_eval_squared(samples: Samples, f, g, nl: Nonlinearity,
                        vertex_values: np.ndarray) -> np.ndarray:
    """Squared residual indicators, set-up and evaluation in one pass."""
    mesh = samples.mesh
    et = mesh.edges
    interior = ~et.is_boundary
    nodes = et.nodes[interior]
    ie_left = et.incident[interior, 0]
    ie_right = et.incident[interior, 1]
    tang = mesh.vertices[nodes[:, 1]] - mesh.vertices[nodes[:, 0]]
    ie_length = np.linalg.norm(tang, axis=1)
    ie_normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / ie_length[:, None]
    volume_sq, moments = einsum_estimator_moments(samples, f, g)

    grads = einsum_element_gradients(mesh, vertex_values)
    t = (grads ** 2).sum(axis=1)
    mu = np.asarray(nl.mu(t))
    flux = mu[:, None] * grads
    edge_sq = np.zeros(mesh.n_triangles)
    if ie_left.size:
        jump = ((flux[ie_left] - flux[ie_right]) * ie_normal).sum(axis=1)
        contrib = jump ** 2 * ie_length
        edge_sq += np.bincount(ie_left, weights=contrib, minlength=mesh.n_triangles)
        edge_sq += np.bincount(ie_right, weights=contrib, minlength=mesh.n_triangles)
    nm = samples.neumann
    owner, lengths, normals = nm.owner, nm.lengths, nm.normals
    g_sq_int, g_int = moments
    c = (flux[owner] * normals).sum(axis=1)
    mismatch = g_sq_int - 2.0 * c * g_int + c ** 2 * lengths
    edge_sq += np.bincount(owner, weights=np.maximum(mismatch, 0.0),
                           minlength=mesh.n_triangles)
    return volume_sq + np.sqrt(mesh.areas) * edge_sq


def former_eval_squared(data: EstimatorData, nl: Nonlinearity,
                        vertex_values: np.ndarray) -> np.ndarray:
    """Squared indicators per triangle in the former form of
    `EstimatorData.eval_squared`, which scattered every evaluation's edge
    terms to the triangles: the eta of a step was the sum of this array."""
    mesh = data.mesh
    gx, gy = element_gradients(mesh, vertex_values)
    mu = np.asarray(nl.mu(gx ** 2 + gy ** 2))
    fx, fy = mu * gx, mu * gy
    edge_sq = np.zeros(mesh.n_triangles)
    if data.ie_left.size:
        left, right = data.ie_left, data.ie_right
        jump = ((fx.take(left) - fx.take(right)) * data.ie_normal[0]
                + (fy.take(left) - fy.take(right)) * data.ie_normal[1])
        jump *= jump
        jump *= data.ie_length
        edge_sq += np.bincount(left, weights=jump, minlength=mesh.n_triangles)
        edge_sq += np.bincount(right, weights=jump, minlength=mesh.n_triangles)
    nm = data.neumann
    owner = nm.owner
    c = fx.take(owner) * nm.normals[:, 0] + fy.take(owner) * nm.normals[:, 1]
    mismatch = nm.g_sq_int - 2.0 * c * nm.g_int + c ** 2 * nm.lengths
    edge_sq += np.bincount(owner, weights=np.maximum(mismatch, 0.0),
                           minlength=mesh.n_triangles)
    return data.volume_sq + np.sqrt(mesh.areas) * edge_sq


# The edge table and the free-vertex numbering in their former form: a second
# argsort to find each edge's triangles, and np.unique plus np.setdiff1d for
# the free vertices.  The library derives both with one sort and two masks,
# and the tests require the arrays to be equal, dtype included.

def unique_argsort_edge_table(triangles: np.ndarray, n_vertices: int) -> EdgeTable:
    t = np.asarray(triangles, dtype=np.int64)
    n_t = t.shape[0]
    pairs = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=0)
    # the former pair code, lo * n_vertices + hi
    codes = pairs.min(axis=1) * n_vertices + pairs.max(axis=1)
    uniq, inverse = np.unique(codes, return_inverse=True)
    of_triangle = inverse.reshape(3, n_t).T.copy()
    lo, hi = uniq // n_vertices, uniq % n_vertices
    counts = np.bincount(inverse, minlength=len(uniq))
    if len(counts) and counts.max() > 2:
        raise ValueError("non-conforming mesh: an edge is shared by more than two triangles")
    incident = np.full((len(uniq), 2), -1, dtype=np.int64)
    tri_ids = np.tile(np.arange(n_t, dtype=np.int64), 3)
    order = np.argsort(inverse, kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts)])
    sorted_tris = tri_ids[order]
    incident[:, 0] = sorted_tris[starts[:-1]]
    second = counts == 2
    incident[second, 1] = sorted_tris[starts[:-1][second] + 1]
    return EdgeTable(codes=lo * 2 ** 32 + hi, of_triangle=of_triangle, incident=incident)


def setdiff_dofmap(mesh: Mesh) -> DofMap:
    constrained = np.unique(mesh.boundary_edges[mesh.boundary_markers == DIRICHLET])
    free = np.setdiff1d(np.arange(mesh.n_vertices, dtype=np.int64), constrained)
    dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    dof[free] = np.arange(free.size)
    return DofMap(mesh=mesh, free_vertices=free, dof_of_vertex=dof)


def picard_map(nl: Nonlinearity, dofmap: DofMap, operator, load):
    """One exact damped fixed-point step u -> u + delta A^-1 (F - N(u))."""
    damping = nl.damping

    def step(coeffs: np.ndarray) -> np.ndarray:
        values = FeFunction(dofmap, coeffs).vertex_values()
        flux = element_flux(nl, dofmap.mesh, values)
        rhs = operator @ coeffs + damping * (load - apply_nonlinear(dofmap, flux))
        return solve_exact(operator, rhs)

    return step


def max_contraction_ratio(nl: Nonlinearity, dofmap: DofMap, operator, load,
                          rng: np.random.Generator, n_pairs: int = 12,
                          scale: float = 1.0) -> float:
    """Largest measured |||T u - T v||| / |||u - v||| over random pairs."""
    step = picard_map(nl, dofmap, operator, load)
    worst = 0.0
    n = dofmap.n_dofs
    for _ in range(n_pairs):
        u = scale * rng.standard_normal(n)
        v = scale * rng.standard_normal(n)
        d = u - v
        denom = np.sqrt(d @ (operator @ d))
        e = step(u) - step(v)
        num = np.sqrt(e @ (operator @ e))
        worst = max(worst, num / denom)
    return worst


def brute_force_doerfler_size(squared: np.ndarray, theta: float) -> int:
    """Cardinality of the smallest M with theta * eta <= eta(M).

    The marking criterion compares estimator values, so M must carry a
    theta^2 share of the squared mass.  Exhaustive search over subsets.
    """
    n = len(squared)
    need = theta * theta * squared.sum()
    best = n
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            if squared[list(combo)].sum() >= need - 1e-12 * squared.sum():
                return size
    return best


def audit_stop_semantics(log: RunLog, config: AdaptiveConfig | None = None):
    """Check the recorded loop structure of a run.

    Within each linearization step the algebraic stopping test must first
    hold exactly at the last recorded solver step; within each level the
    linearization test must first hold exactly at the last recorded step
    of the level.  Counters and cumulative cost must be consistent.
    """
    config = config or log.config
    assert config is not None, "need the run configuration for the audit"
    records = log.records
    assert records, "empty run log"
    cum = 0
    for s, rec in enumerate(records, start=1):
        assert rec.step == s, "step counter must enumerate records"
        cum += rec.nT
        assert rec.cumcost == cum, "cumulative cost must sum element counts"
        flag_alg = algebraic_stop(rec.alg_inc, rec.pic_inc, rec.eta,
                                  config.lambda_alg)
        flag_pic = flag_alg and picard_stop(rec.pic_inc, rec.eta,
                                            config.lambda_pic)
        assert bool(rec.alg_stop) == flag_alg, "stored algebraic flag wrong"
        assert bool(rec.pic_stop) == flag_pic, "stored picard flag wrong"
    for prev, rec in zip(records, records[1:]):
        if rec.l == prev.l and rec.k == prev.k:
            assert rec.j == prev.j + 1, "solver steps must count up by one"
            assert not prev.alg_stop, "solver must stop at first success"
        elif rec.l == prev.l:
            assert (rec.k, rec.j) == (prev.k + 1, 1), "linearization restart"
            assert prev.alg_stop, "linearization advances only after stop"
            assert not prev.pic_stop, "level must stop at first success"
        else:
            assert (rec.l, rec.k, rec.j) == (prev.l + 1, 1, 1), "level restart"
            assert prev.alg_stop and prev.pic_stop, "level left too early"
        assert rec.cumcost == prev.cumcost + rec.nT
    last = records[-1]
    assert last.alg_stop and last.pic_stop, "run must end on a stopped level"
    assert last.j >= 1 and last.k >= 1


def geometric_fit_ratio(deltas) -> float:
    """Least-squares one-step decay ratio of a positive sequence."""
    y = np.log(np.asarray(deltas, dtype=float))
    x = np.arange(y.size, dtype=float)
    slope = np.polyfit(x, y, 1)[0]
    return float(np.exp(slope))


def worst_window_ratio(deltas, start: int = 100, width: int = 50):
    """Largest Delta[s+width]/Delta[s] over sliding windows with s >= start.

    Returns (ratio, n_windows); ratio is None when no window fits.
    """
    deltas = np.asarray(deltas, dtype=float)
    n = deltas.size
    worst = None
    count = 0
    for s in range(start, n - width):
        ratio = deltas[s + width] / deltas[s]
        worst = ratio if worst is None else max(worst, ratio)
        count += 1
    return worst, count


def window_constant(deltas, q: float, start: int = 100, width: int = 50):
    """Smallest C with Delta[s+width] <= C q^width Delta[s] for all s >= start.

    This is the constant of the uniform linear-convergence bound
    Delta_{s+n} <= C_lin q_lin^n Delta_s at the fixed window length n=width,
    measured against a given rate q.  Returns (constant, n_windows);
    constant is None when no window fits.
    """
    worst, count = worst_window_ratio(deltas, start=start, width=width)
    return (None if worst is None else worst / q ** width), count


def late_step_growth(steps):
    """Largest per-level step count of the last half of levels >= 1 over
    the largest of the first half.

    Level 0 is left out because it starts from zero rather than from a
    prolonged iterate.  Per-level work bounded uniformly in the level
    keeps the ratio near or below one; work that grows with refinement
    depth drives it up.  Returns (ratio, early_max, late_max).
    """
    counts = np.asarray(steps, dtype=float)[1:]
    if counts.size < 2:
        raise ValueError("need at least three levels")
    half = counts.size // 2
    early, late = counts[:half].max(), counts[half:].max()
    return float(late / early), int(early), int(late)


def doerfler_reference(squared: np.ndarray, theta: float) -> np.ndarray:
    """Greedy reference marking used to cross-check the library: a full
    stable sort, and the target theta^2 times the pairwise ``sum()``, capped
    at the sorted total so that theta = 1 marks the positive indicators."""
    order = np.argsort(-squared, kind="stable")
    csum = np.cumsum(squared[order])
    need = min(theta * theta * squared.sum(), csum[-1])
    k = int(np.searchsorted(csum, need)) + 1
    return np.sort(order[:k])


def _csr_prolongation(coarse_dofmap: DofMap, fine_dofmap: DofMap) -> sp.csr_matrix:
    """Free-dof prolongation for a one-level bisection refinement."""
    fine = fine_dofmap.mesh
    coarse = coarse_dofmap.mesh
    rows, cols, vals = [], [], []
    old = fine_dofmap.free_vertices[fine_dofmap.free_vertices < coarse.n_vertices]
    cdof = coarse_dofmap.dof_of_vertex[old]
    keep = cdof >= 0
    rows.append(fine_dofmap.dof_of_vertex[old[keep]])
    cols.append(cdof[keep])
    vals.append(np.ones(keep.sum()))
    if fine.vertex_parents.size:
        new = np.arange(coarse.n_vertices, fine.n_vertices)
        fdof = fine_dofmap.dof_of_vertex[new]
        for side in (0, 1):
            parent = fine.vertex_parents[:, side]
            pdof = coarse_dofmap.dof_of_vertex[parent]
            keep = (fdof >= 0) & (pdof >= 0)
            rows.append(fdof[keep])
            cols.append(pdof[keep])
            vals.append(np.full(int(keep.sum()), 0.5))
    p = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(fine_dofmap.n_dofs, coarse_dofmap.n_dofs))
    return p.tocsr()


def csr_multilevel_apply(dofmaps):
    """Reference level-form multilevel preconditioner with explicit transfers.

    Builds, per adaptive level, the free-dof CSR prolongation P and its
    transpose, and smooths the vertices created on that level plus their
    edge neighbors with that level's stiffness diagonal.  This is the form
    the library used before it split the hierarchy by vertex generation;
    it stays as the conditioning reference.
    """
    levels = []
    for coarse, fine in zip(dofmaps, dofmaps[1:]):
        p = _csr_prolongation(coarse, fine)
        mesh = fine.mesh
        new_mask = np.zeros(mesh.n_vertices, dtype=bool)
        new_mask[mesh.n_coarse_vertices:] = True
        nodes = mesh.edges.nodes
        touched = new_mask.copy()
        touched[nodes[new_mask[nodes[:, 1]], 0]] = True
        touched[nodes[new_mask[nodes[:, 0]], 1]] = True
        local = fine.dof_of_vertex[np.nonzero(touched)[0]]
        local = local[local >= 0]
        inv_diag = 1.0 / sum_stiffness_diagonal(fine)[local]
        levels.append((p, local, inv_diag))
    return _additive_schwarz(coarse_inverse(assemble_laplacian(dofmaps[0])), levels)


def vertex_generations(meshes):
    """Generation and bisected edge of every vertex of the finest mesh, one
    vertex at a time: 0 and (-1, -1) on the coarsest mesh, else one more
    than the larger generation of the two parents."""
    gen = [0] * meshes[0].n_vertices
    parents = [(-1, -1)] * meshes[0].n_vertices
    for mesh in meshes[1:]:
        for a, b in mesh.vertex_parents.tolist():
            gen.append(1 + max(gen[a], gen[b]))
            parents.append((a, b))
    return np.array(gen), np.array(parents).reshape(-1, 2)


def regrouped_generations(gen: np.ndarray, parents: np.ndarray, fine_dofmap: DofMap,
                          diagonal: np.ndarray) -> tuple:
    """`MultilevelPreconditioner.groups` and ``weights`` in their former
    form, regrouped from scratch: all vertices sorted by generation with one
    stable sort, and the smoothing sets marked on an n_gen x n boolean mask.
    One `Generation` per generation from 1 up, and the Jacobi weights on its
    smoothing set from the free-vertex ``diagonal``."""
    n, n_gen = gen.size, int(gen.max(initial=0))
    order = np.argsort(gen, kind="stable")   # a radix sort: vertices by generation
    counts = np.bincount(gen, minlength=n_gen + 1)
    kids = order[counts[0]:]
    kid_parents = np.take(parents, kids, axis=0)
    ends = np.cumsum(counts[1:]).tolist()
    # smoothing sets: mark each child and both its parents in the row of its
    # generation; the marks come out de-duplicated and sorted
    row = np.repeat(n * np.arange(n_gen), counts[1:])
    mask = np.zeros(n_gen * n, dtype=bool)
    for members in (kids, kid_parents[:, 0], kid_parents[:, 1]):
        mask[row + members] = True
    keys = np.flatnonzero(mask)
    smooth = keys % n
    dofs = fine_dofmap.dof_of_vertex[smooth]
    free = dofs >= 0
    keys, smooth = keys[free], smooth[free]
    inv_diag = 1.0 / diagonal[dofs[free]]
    cuts = np.searchsorted(keys, n * np.arange(n_gen + 1)).tolist()
    groups = tuple(Generation(children=kids[a:b], parents=kid_parents[a:b], smooth=smooth[c:d])
                   for a, b, c, d in zip([0] + ends, ends, cuts, cuts[1:]))
    return groups, tuple(inv_diag[c:d] for c, d in zip(cuts, cuts[1:]))


def csr_generation_apply(dofmaps):
    """Reference generation-form multilevel preconditioner with explicit
    per-generation CSR transfers, in free-vertex spaces.

    The space of generation g holds the free vertices of generation at most
    g, in ascending order.  P_g keeps the older vertices and sets each vertex
    of generation g to the mean of its parents.  Generation g smooths its
    own free vertices and their free parents with the finest stiffness
    diagonal.  Applies the same operator as
    `build_preconditioner(meshes, dofmaps).apply`.
    """
    fine = dofmaps[-1]
    gen, parents = vertex_generations([dm.mesh for dm in dofmaps])
    free = fine.dof_of_vertex >= 0
    spaces = [np.flatnonzero(free & (gen <= g)) for g in range(gen.max() + 1)]
    diag = sum_stiffness_diagonal(fine)
    levels = []
    for g in range(1, len(spaces)):
        position = {v: i for i, v in enumerate(spaces[g - 1].tolist())}
        rows, cols, vals = [], [], []
        smooth = set()
        for i, v in enumerate(spaces[g].tolist()):
            if gen[v] < g:
                rows.append(i), cols.append(position[v]), vals.append(1.0)
                continue
            smooth.add(v)
            for p in parents[v].tolist():
                if free[p]:
                    rows.append(i), cols.append(position[p]), vals.append(0.5)
                    smooth.add(p)
        p = sp.csr_matrix((vals, (rows, cols)), shape=(len(spaces[g]), len(spaces[g - 1])))
        smooth = np.array(sorted(smooth), dtype=np.int64)
        levels.append((p, np.searchsorted(spaces[g], smooth),
                       1.0 / diag[fine.dof_of_vertex[smooth]]))
    return _additive_schwarz(coarse_inverse(assemble_laplacian(dofmaps[0])), levels)


def _additive_schwarz(coarse, levels):
    """z -> y of a multilevel additive Schwarz operator given the dense
    inverse of the coarse operator, the preconditioner's own coarse solve,
    and per level its prolongation, the positions it smooths and their
    inverse diagonal."""
    levels = [(p, p.T.tocsr(), local, inv_diag) for p, local, inv_diag in levels]

    def apply(z: np.ndarray) -> np.ndarray:
        residuals = [np.asarray(z, dtype=float)]
        for _, restriction, _, _ in reversed(levels):
            residuals.append(restriction @ residuals[-1])
        residuals.reverse()
        y = coarse @ residuals[0]
        for (prolongation, _, local, inv_diag), r in zip(levels, residuals[1:]):
            y = prolongation @ y
            y[local] += inv_diag * r[local]
        return y

    return apply


# Kernels in the form they had before the passes that run once per level
# were merged into fewer numpy calls.  The library's forms must give the
# same bits (`same_bits`: dtype, shape and bytes, so -0.0 differs from 0.0).

def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def loop_geometry(p: np.ndarray) -> tuple:
    """Areas and hat-gradient planes of triangles with vertex coordinates
    p, (n, 3, 2), one vertex at a time."""
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    det = 2.0 * areas
    g = np.empty((2, len(p), 3))
    for i in range(3):
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        g[0, :, i] = -e[:, 1] / det
        g[1, :, i] = e[:, 0] / det
    return areas, g


def loop_volume_moments(fq: np.ndarray, areas: np.ndarray) -> tuple:
    """``f_phi`` and ``volume_sq`` from f at the 7 volume nodes, one node
    at a time."""
    f_phi = np.zeros((len(fq), 3))
    for q, (w, bary) in enumerate(zip(TRI_QUAD_W, TRI_QUAD_BARY)):
        f_phi += fq[:, q, None] * w * bary * areas[:, None]
    return f_phi, areas * np.einsum("tq,q,t->t", fq ** 2, TRI_QUAD_W, areas)


def merge_carried_edge_table(parent: EdgeTable, bisected: np.ndarray, n_old: int,
                             triangles: np.ndarray, parent_of: np.ndarray, new: np.ndarray,
                             n_vertices: int) -> tuple:
    """The child's edge ends and ``of_triangle`` from the parent's table:
    np.unique of the new triangles' edges, merged into the survivors by row
    scatters, with the former pair code lo * n_vertices + hi."""
    n_v = np.int64(n_vertices)
    survivors = np.flatnonzero(~bisected)
    kept_codes = np.take(parent.nodes[:, 0] * n_v + parent.nodes[:, 1], survivors)
    t = np.take(triangles, new, axis=0).astype(np.int64)
    pairs = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]])
    pair_codes = pairs.min(axis=1) * n_v + pairs.max(axis=1)
    distinct, inverse = np.unique(pair_codes, return_inverse=True)
    added = distinct[distinct % n_v >= n_old]
    at = np.searchsorted(kept_codes, added) + np.arange(len(added))
    n_e = len(kept_codes) + len(added)
    is_added = np.zeros(n_e, dtype=bool)
    is_added[at] = True
    rows = np.flatnonzero(~is_added)
    codes = np.empty(n_e, dtype=np.int64)
    codes[rows], codes[at] = kept_codes, added
    parent_row = np.zeros(n_e, dtype=np.int64)
    parent_row[rows] = survivors
    nodes = np.take(parent.nodes, parent_row, axis=0)
    nodes[at, 0], nodes[at, 1] = added // n_v, added % n_v
    old_to_new = np.full(parent.n_edges, -1, dtype=np.int32)
    old_to_new[survivors] = rows
    of_triangle = np.take(old_to_new, np.take(parent.of_triangle, parent_of, axis=0))
    looked_up = np.searchsorted(codes, distinct)[inverse].reshape(3, -1)
    for k in range(3):
        of_triangle[new, k] = looked_up[k]
    return nodes, of_triangle


def norm_edge_frames(vertices: np.ndarray, edges: np.ndarray,
                     inside: np.ndarray) -> tuple:
    """Lengths and unit normals of edges, (n, 2) vertex pairs, turned away
    from the points ``inside``, by np.linalg.norm and np.column_stack."""
    a, b = vertices[edges[:, 0]], vertices[edges[:, 1]]
    tang = b - a
    length = np.linalg.norm(tang, axis=1)
    normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / length[:, None]
    normal[(normal * ((a + b) / 2 - inside)).sum(axis=1) < 0] *= -1.0
    return length, normal


def from_scratch_run(config: AdaptiveConfig) -> RunLog:
    """`run_adaptive` with nothing carried from one level to the next: each
    child mesh is rebuilt from its arrays (a fresh edge table, boundary
    ids, geometry and new triangles), the data are sampled afresh on every
    mesh, and each preconditioner extension rebuilds the hierarchy from the
    root over every level's DofMap with freshly assembled stiffness."""
    dofmaps = []  # the DofMap of every mesh refined so far, root first
    extended = MultilevelPreconditioner.extended

    def fresh_refine(mesh, marked):
        dofmaps.append(DofMap.from_mesh(mesh))
        child = refine(mesh, marked)
        return Mesh(child.vertices, child.triangles, child.boundary_edges,
                    child.boundary_markers, level=child.level, parent_of=child.parent_of,
                    vertex_parents=child.vertex_parents)

    def from_root(pre, fine_dofmap, operator):
        levels = dofmaps + [fine_dofmap]
        rebuilt = MultilevelPreconditioner(levels[0], assemble_laplacian(levels[0]))
        for dofmap in levels[1:]:
            rebuilt = extended(rebuilt, dofmap, assemble_laplacian(dofmap))
        return rebuilt

    with mock.patch.object(driver, "refine", fresh_refine), \
            mock.patch.object(driver, "sample", lambda mesh, f, g, _: sample(mesh, f, g)), \
            mock.patch.object(MultilevelPreconditioner, "extended", from_root):
        return driver.run_adaptive(config)
