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
inverted once, densely, when the preconditioner is built, so the coarse
solve is one matrix-vector product; the inverse takes memory quadratic in
the coarse dof count, so the coarsest mesh is meant to be small.
`extended(fine_dofmap, operator)` shares that inverse, appends the
generations of the new vertices, appends each new vertex to its
generation (one stable sort of the new vertices by generation), rebuilds
the smoothing set of only the generations that gained vertices, and reads
the Jacobi weights of every generation from the new level's operator in
one gather.

`init_solver_state(operator, rhs)` starts a solve at the zero iterate, so
its residual is ``rhs`` itself.  `pcg_step` advances exactly one iteration
and exposes the norms the adaptive driver's stopping tests need: the energy
norm of the last step and, through `SolverState.norm`, of the iterate; the
energy-norm error is non-increasing from step to step.  An ``r.z`` of
exactly zero (an empty system or a zero ``rhs``, or a residual that vanishes
to working precision) is convergence; any other non-positive or non-finite
``r.z`` or ``p.Ap`` is a breakdown, which ends the adaptive run.  Either
way the iterate stays put and the increment is zero, at every later step.

The adaptive loop needs only `scipy.sparse`.  `factorized` and
`solve_exact`, the direct sparse solves of the diagnostics and of the
tests, import SuperLU (`scipy.sparse.linalg`) when first called.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .fem import DofMap, assemble_laplacian
from .mesh import sorted_unique


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
    whose dense inverse it holds (see `coarse_inverse`); `extended` adds one
    refinement level.

    ``gen`` holds the generation of each vertex of the finest mesh (0 on
    the coarsest mesh).  ``groups`` holds one `Generation` per generation
    from 1 up, and ``weights``, parallel to it, the Jacobi weights (inverse
    finest stiffness diagonal) on each generation's smoothing set.  Of the
    finest level it keeps its free vertices, not its `DofMap`, `Mesh` or
    operator, so a solved level is freed before the next is built.
    """

    def __init__(self, coarse_dofmap: DofMap, coarse_operator):
        if coarse_operator.shape != (coarse_dofmap.n_dofs,) * 2:
            raise ValueError("operator shape does not match the free vertex count")
        self._coarse_inverse = coarse_inverse(coarse_operator)
        self._coarse_free = coarse_dofmap.free_vertices
        n = coarse_dofmap.mesh.n_vertices
        self.gen = np.zeros(n, dtype=np.int16)
        self.groups = self.weights = ()
        self._free = coarse_dofmap.free_vertices

    @property
    def n_levels(self) -> int:
        return len(self.groups) + 1

    def apply(self, z: np.ndarray) -> np.ndarray:
        r = np.zeros(self.gen.size)
        r[self._free] = z
        saved = []
        for grp in reversed(self.groups):
            saved.append(r[grp.smooth])
            # add.at sums per parent in ascending child order, the order of a
            # transposed-prolongation matvec; np.bincount would reassociate
            np.add.at(r, grp.parents.ravel(), (0.5 * r[grp.children]).repeat(2))
        y = np.zeros_like(r)
        y[self._coarse_free] = self._coarse_inverse @ r[self._coarse_free]
        for grp, w, s in zip(self.groups, self.weights, reversed(saved)):
            half = 0.5 * y[grp.parents]
            y[grp.children] = half[:, 0] + half[:, 1]
            y[grp.smooth] += w * s
        return y[self._free]

    def extended(self, fine_dofmap: DofMap, operator) -> "MultilevelPreconditioner":
        """Preconditioner for one more refinement level, of stiffness ``operator``."""
        fine = fine_dofmap.mesh
        if fine.vertex_parents is None or fine.n_coarse_vertices != self.gen.size:
            raise ValueError("meshes are not nested by one refinement")
        if operator.shape != (fine_dofmap.n_dofs,) * 2:
            raise ValueError("operator shape does not match the free vertex count")
        new_parents = fine.vertex_parents
        new_gen = 1 + np.maximum.reduce(self.gen[new_parents], axis=1)
        successor = copy.copy(self)  # shares the coarse inverse
        successor.gen = np.concatenate((self.gen, new_gen))
        successor.groups = groups = _grown(self.groups, self.gen.size, new_gen, new_parents,
                                           fine_dofmap)
        # the weights of all generations in one gather
        smooth = [grp.smooth for grp in groups]
        dof = fine_dofmap.dof_of_vertex[np.concatenate(smooth or [_EMPTY.smooth])]
        inv_diag = 1.0 / operator.diagonal()[dof]
        cuts = list(itertools.accumulate([s.shape[0] for s in smooth], initial=0))
        successor.weights = tuple(inv_diag[a:b] for a, b in zip(cuts, cuts[1:]))
        successor._free = fine_dofmap.free_vertices
        return successor


def _grown(groups: tuple, n_old: int, new_gen: np.ndarray, new_parents: np.ndarray,
           fine_dofmap: DofMap) -> tuple:
    """``groups`` with the vertices ``n_old, n_old + 1, ...`` of generations
    ``new_gen`` and bisected edges ``new_parents`` appended.  New vertices
    have the highest indices, so appending keeps ``children`` ascending;
    a generation that gains no vertices keeps its `Generation`, and only
    one that gains vertices changes its ``smooth`` set."""
    n_gen = max(len(groups), int(np.maximum.reduce(new_gen, initial=0)))
    order = new_gen.argsort(kind="stable")   # a radix sort: new vertices by generation
    ends = np.bincount(new_gen, minlength=n_gen + 1).cumsum()
    dof = fine_dofmap.dof_of_vertex
    grown = list(groups) + [_EMPTY] * (n_gen - len(groups))
    for g in (ends[1:] > ends[:-1]).nonzero()[0].tolist():  # generation g + 1 gains
        grp, rows = grown[g], order[ends[g]:ends[g + 1]]
        kids = n_old + rows
        kid_parents = new_parents.take(rows, axis=0)
        # the free vertices among the old smoothing set, the new children
        # and their parents, sorted and de-duplicated
        members = np.concatenate((grp.smooth, kids, kid_parents.ravel()))
        smooth = sorted_unique(members[dof[members] >= 0])
        grown[g] = Generation(children=np.concatenate((grp.children, kids)),
                              parents=np.concatenate((grp.parents, kid_parents)),
                              smooth=smooth)
    return tuple(grown)


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
    """State of a one-step PCG solve of ``operator @ x = rhs`` started at 0.

    ``increment`` is the energy norm of the last step, zero once ``r.z`` is
    zero (convergence) or after a ``breakdown``.  The residual is updated as
    ``rhs - operator @ iterate``, so `norm` reads the energy norm of the
    iterate, ``sqrt(iterate . (rhs - residual))``, without a matvec.
    """

    operator: sp.csr_matrix
    rhs: np.ndarray
    iterate: np.ndarray
    residual: np.ndarray
    direction: Optional[np.ndarray]
    rz: float
    iterations: int
    increment: float
    breakdown: bool = False

    def norm(self) -> float:
        """Energy norm of the iterate."""
        return float(np.sqrt(max(self.iterate @ (self.rhs - self.residual), 0.0)))


def init_solver_state(operator: sp.csr_matrix, rhs: np.ndarray) -> SolverState:
    """PCG state at the zero iterate, whose residual is ``rhs`` itself."""
    rhs = np.asarray(rhs, dtype=float)
    return SolverState(operator=operator, rhs=rhs, iterate=np.zeros(rhs.size), residual=rhs,
                       direction=None, rz=0.0, iterations=0, increment=0.0)


def pcg_step(state: SolverState, precond) -> SolverState:
    """One PCG iteration; a converged (``r.z`` = 0) or broken-down state is a fixed point."""
    z = precond.apply(state.residual)
    rz = float(state.residual @ z)
    if not np.isfinite(rz) or rz <= 0.0:
        return replace(state, iterations=state.iterations + 1, increment=0.0,
                       breakdown=rz != 0.0)
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
                   iterations=state.iterations + 1,
                   increment=float(abs(alpha) * np.sqrt(pap)))


def coarse_inverse(operator: sp.csr_matrix) -> np.ndarray:
    """Dense inverse of the coarse operator (0 x 0 for an empty system).
    Its memory is quadratic in the operator's size, so it is meant for the
    few dofs of a coarsest mesh."""
    return np.linalg.inv(operator.toarray())


def factorized(operator: sp.csr_matrix) -> Callable:
    """Reusable direct solver handle (empty systems solve to empty)."""
    if operator.shape[0] == 0:
        return lambda b: np.zeros(0)
    import scipy.sparse.linalg as spla  # SuperLU, only where a direct solve is asked for
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
