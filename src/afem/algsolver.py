"""One-step preconditioned conjugate gradients and a multilevel preconditioner.

The preconditioner is a multilevel additive Schwarz operator on the
bisection hierarchy, split by vertex generation (Chen, Nochetto and Xu,
"Optimal multilevel methods for graded bisection grids", Numer. Math.
2012).  A vertex of the coarsest mesh has generation 0; a vertex created
by bisecting an edge, whose endpoints are its parents, has one more than
the larger generation of the two.  The operator is an exact solve on the
coarsest mesh plus, per generation, diagonally scaled corrections on the
free vertices of that generation and their free parents, with the inverse
diagonal of the finest stiffness matrix as weights.  On bisection
hierarchies this keeps the preconditioned condition number bounded, so
the per-step energy norm contraction of PCG is uniform in the mesh size.
A deep adaptive hierarchy has far fewer generations than levels, and an
apply makes one pass per generation.

Parents have a lower generation than their children, so no vertex of a
generation is a parent of another, and the grid transfers run in place in
vertex space: one scatter (restriction) and one gather (prolongation) per
generation, with no transfer matrix stored.  The coarse operator is
factorized once, when the preconditioner is built; `extended(fine_dofmap,
operator)` reuses that factorization, appends the generations of the new
vertices, appends each new vertex to its generation (one stable sort of
the new vertices by generation), rebuilds the smoothing set of only the
generations that gained vertices, and reads the Jacobi weights of every
generation from the new level's operator in one gather.

`pcg_step` advances exactly one iteration and exposes the increment norms
the adaptive driver's stopping tests need; the energy-norm error is
non-increasing from step to step.  An ``r.z`` of exactly zero (an empty
system, or a residual that vanishes to working precision) is convergence;
any other non-positive or non-finite ``r.z`` or ``p.Ap`` is a breakdown,
which ends the adaptive run.  Either way the iterate stays put and the
increment is zero.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import DofMap, assemble_laplacian


class IdentityPreconditioner:
    """No preconditioning; PCG degenerates to plain CG."""

    def apply(self, z: np.ndarray) -> np.ndarray:
        return z


@dataclass(frozen=True)
class Generation:
    """The vertices of one generation and the free vertices smoothed with them."""

    children: np.ndarray             # vertices of this generation, ascending
    parents: np.ndarray              # (n_children, 2) bisected edge of each child
    smooth: np.ndarray               # free vertices among the children and their parents


_EMPTY = Generation(children=np.empty(0, dtype=np.int64), parents=np.empty((0, 2), dtype=np.int64),
                    smooth=np.empty(0, dtype=np.int64))


class MultilevelPreconditioner:
    """Additive Schwarz over the vertex generations (see module docstring).

    Works on one vector over the finest mesh's vertices.  Restriction adds
    half of each child's entry to both of its parents; prolongation sets
    each child to the mean of its parents.  Dirichlet entries are never
    read: a new vertex is Dirichlet only when both parents are.  Built on
    the coarsest level from its assembled stiffness ``coarse_operator``,
    which it factorizes; `extended` adds one refinement level.

    ``gen`` holds the generation of each vertex of the finest mesh (0 on
    the coarsest mesh).  ``groups`` holds one `Generation` per generation
    from 1 up, and ``weights``, parallel to it, the Jacobi weights (inverse
    finest stiffness diagonal) on each generation's smoothing set.
    """

    def __init__(self, coarse_dofmap: DofMap, coarse_operator):
        if coarse_operator.shape != (coarse_dofmap.n_dofs,) * 2:
            raise ValueError("operator shape does not match the free vertex count")
        self._coarse_solve = factorized(coarse_operator)
        self._coarse_free = coarse_dofmap.free_vertices
        n = coarse_dofmap.mesh.n_vertices
        self.gen = np.zeros(n, dtype=np.int16)
        self.groups = self.weights = ()
        self._finest_dofmap = coarse_dofmap

    @property
    def n_levels(self) -> int:
        return len(self.groups) + 1

    def apply(self, z: np.ndarray) -> np.ndarray:
        free = self._finest_dofmap.free_vertices
        r = np.zeros(self.gen.size)
        r[free] = z
        saved = []
        for grp in reversed(self.groups):
            saved.append(r[grp.smooth])
            # add.at sums per parent in ascending child order, the order of a
            # transposed-prolongation matvec; np.bincount would reassociate
            np.add.at(r, grp.parents.ravel(), np.repeat(0.5 * r[grp.children], 2))
        y = np.zeros_like(r)
        y[self._coarse_free] = self._coarse_solve(r[self._coarse_free])
        for grp, w, s in zip(self.groups, self.weights, reversed(saved)):
            p = grp.parents
            y[grp.children] = 0.5 * y[p[:, 0]] + 0.5 * y[p[:, 1]]
            y[grp.smooth] += w * s
        return y[free]

    def extended(self, fine_dofmap: DofMap, operator) -> "MultilevelPreconditioner":
        """Preconditioner for one more refinement level, of stiffness ``operator``."""
        fine = fine_dofmap.mesh
        if fine.vertex_parents is None or fine.n_coarse_vertices != self.gen.size:
            raise ValueError("meshes are not nested by one refinement")
        if operator.shape != (fine_dofmap.n_dofs,) * 2:
            raise ValueError("operator shape does not match the free vertex count")
        new_parents = fine.vertex_parents
        new_gen = 1 + self.gen[new_parents].max(axis=1)
        successor = copy.copy(self)  # shares the coarse factorization
        successor.gen = np.concatenate((self.gen, new_gen))
        successor.groups = groups = _grown(self.groups, self.gen.size, new_gen, new_parents,
                                           fine_dofmap)
        # the weights of all generations in one gather
        smooth = [grp.smooth for grp in groups]
        dof = fine_dofmap.dof_of_vertex[np.concatenate(smooth or [_EMPTY.smooth])]
        inv_diag = 1.0 / operator.diagonal()[dof]
        cuts = np.cumsum([0] + [len(s) for s in smooth]).tolist()
        successor.weights = tuple(inv_diag[a:b] for a, b in zip(cuts, cuts[1:]))
        successor._finest_dofmap = fine_dofmap
        return successor


def _grown(groups: tuple, n_old: int, new_gen: np.ndarray, new_parents: np.ndarray,
           fine_dofmap: DofMap) -> tuple:
    """``groups`` with the vertices ``n_old, n_old + 1, ...`` of generations
    ``new_gen`` and bisected edges ``new_parents`` appended.  New vertices
    have the highest indices, so appending keeps ``children`` ascending;
    a generation that gains no vertices keeps its `Generation`, and only
    one that gains vertices changes its ``smooth`` set."""
    n_gen = max(len(groups), int(new_gen.max(initial=0)))
    order = np.argsort(new_gen, kind="stable")   # a radix sort: new vertices by generation
    ends = np.cumsum(np.bincount(new_gen, minlength=n_gen + 1))
    dof = fine_dofmap.dof_of_vertex
    grown = list(groups) + [_EMPTY] * (n_gen - len(groups))
    for g in np.flatnonzero(ends[1:] > ends[:-1]).tolist():  # generation g + 1 gains
        grp, rows = grown[g], order[ends[g]:ends[g + 1]]
        kids = n_old + rows
        kid_parents = np.take(new_parents, rows, axis=0)
        # the free vertices among the old smoothing set, the new children
        # and their parents, sorted and de-duplicated
        members = np.concatenate((grp.smooth, kids, kid_parents.ravel()))
        smooth = _sorted_unique(members[dof[members] >= 0])
        grown[g] = Generation(children=np.concatenate((grp.children, kids)),
                              parents=np.concatenate((grp.parents, kid_parents)),
                              smooth=smooth)
    return tuple(grown)


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D integer array by one stable sort, which on a
    sorted run plus a short tail beats the hash table numpy uses."""
    a = np.sort(a, kind="stable")
    keep = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def build_preconditioner(meshes, dofmaps) -> MultilevelPreconditioner:
    """Multilevel preconditioner for the finest of a list of nested meshes
    and their DofMaps.  A single-level hierarchy yields the exact inverse."""
    dofmaps = list(dofmaps)
    if len(list(meshes)) != len(dofmaps) or not dofmaps:
        raise ValueError("need matching, nonempty mesh and dofmap lists")
    pre = MultilevelPreconditioner(dofmaps[0], assemble_laplacian(dofmaps[0]))
    for dm in dofmaps[1:]:
        pre = pre.extended(dm, assemble_laplacian(dm))
    return pre


@dataclass(frozen=True)
class SolverState:
    """State of a one-step PCG solve of ``operator @ x = rhs``.

    ``increment`` is the energy norm of the last step, ``drift`` tracks
    x - x0 and operator @ (x - x0) so the energy distance to the initial
    iterate is available without extra matvecs.
    """

    operator: sp.csr_matrix
    iterate: np.ndarray
    residual: np.ndarray
    direction: Optional[np.ndarray]
    rz: float
    drift: np.ndarray
    operator_drift: np.ndarray
    iterations: int
    increment: float
    converged: bool
    breakdown: bool = False

    def drift_norm(self) -> float:
        """Energy norm of iterate - initial iterate."""
        return float(np.sqrt(max(self.drift @ self.operator_drift, 0.0)))


def init_solver_state(operator: sp.csr_matrix, rhs: np.ndarray,
                      x0: np.ndarray) -> SolverState:
    x0 = np.asarray(x0, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    r = rhs - operator @ x0
    n = x0.size
    return SolverState(operator=operator, iterate=x0, residual=r, direction=None, rz=0.0,
                       drift=np.zeros(n), operator_drift=np.zeros(n),
                       iterations=0, increment=0.0, converged=(n == 0))


def pcg_step(state: SolverState, precond) -> SolverState:
    """One PCG iteration; a converged or broken-down state is a fixed point."""
    if state.converged:
        return replace(state, iterations=state.iterations + 1, increment=0.0)
    z = precond.apply(state.residual)
    rz = float(state.residual @ z)
    if not np.isfinite(rz) or rz <= 0.0:
        return replace(state, iterations=state.iterations + 1, increment=0.0,
                       converged=rz == 0.0, breakdown=rz != 0.0)
    if state.direction is None:
        p = z
    else:
        p = z + (rz / state.rz) * state.direction
    ap = state.operator @ p
    pap = float(p @ ap)
    if not np.isfinite(pap) or pap <= 0.0:
        return replace(state, iterations=state.iterations + 1, increment=0.0, breakdown=True)
    alpha = rz / pap
    return replace(state,
                   iterate=state.iterate + alpha * p,
                   residual=state.residual - alpha * ap,
                   direction=p, rz=rz,
                   drift=state.drift + alpha * p,
                   operator_drift=state.operator_drift + alpha * ap,
                   iterations=state.iterations + 1,
                   increment=float(abs(alpha) * np.sqrt(pap)),
                   converged=False)


def factorized(operator: sp.csr_matrix) -> Callable:
    """Reusable direct solver handle (empty systems solve to empty)."""
    if operator.shape[0] == 0:
        return lambda b: np.zeros(0)
    return spla.splu(sp.csc_matrix(operator)).solve


def solve_exact(operator: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    """Direct sparse solve; verifies the residual to 1e-12 relative."""
    rhs = np.asarray(rhs, dtype=float)
    x = factorized(operator)(rhs)
    res = np.linalg.norm(operator @ x - rhs)
    scale = max(np.linalg.norm(rhs), 1e-300)
    row_sum = np.asarray(np.abs(operator).sum(axis=1)).max(initial=0.0)
    if res > 1e-12 * max(scale, np.linalg.norm(x) * row_sum):
        raise ArithmeticError(f"direct solve residual too large: {res:.3e}")
    return x
