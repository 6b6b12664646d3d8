"""One-step preconditioned conjugate gradients and a multilevel preconditioner.

The preconditioner is a local multilevel additive Schwarz operator on the
bisection hierarchy: an exact solve on the coarsest level plus, per finer
level, diagonally scaled corrections on the vertices created at that level
and their edge neighbors.  On shape-regular bisection hierarchies this
keeps the preconditioned condition number bounded, so the per-step energy
norm contraction of PCG is uniform in the mesh size.  The grid transfers
run in place in vertex space on `Mesh.vertex_parents` and the append-only
vertex numbering, touching per level only the new vertices and the
smoothed set, so no transfer matrix is stored.  The coarse operator is
factorized once, when the preconditioner is built; `extended(fine_dofmap,
operator)` reuses that factorization and reads the new level's diagonal
from its assembled operator.

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
class _Level:
    n_coarse: int                    # vertex count of the coarser mesh
    parents: np.ndarray              # (n_new, 2) bisected edge of each new vertex
    local: np.ndarray                # free vertices smoothed on this level
    inv_diag: np.ndarray             # inverse stiffness diagonal on `local`


class MultilevelPreconditioner:
    """Additive Schwarz over the refinement hierarchy (see module docstring).

    Works on one vector over the finest mesh's vertices.  Restriction adds
    half of each new vertex's entry to both of its parents; prolongation
    sets each new vertex to the mean of its parents.  Dirichlet entries are
    never read: a new vertex is Dirichlet only when both parents are.
    Built on the coarsest level from its assembled stiffness
    ``coarse_operator``, which it factorizes; `extended` adds one level.
    """

    def __init__(self, coarse_dofmap: DofMap, coarse_operator):
        if coarse_operator.shape != (coarse_dofmap.n_dofs,) * 2:
            raise ValueError("operator shape does not match the free vertex count")
        self._coarse_solve = factorized(coarse_operator)
        self._coarse_free = coarse_dofmap.free_vertices
        self._levels = ()
        self._finest_dofmap = coarse_dofmap

    @property
    def n_levels(self) -> int:
        return len(self._levels) + 1

    def apply(self, z: np.ndarray) -> np.ndarray:
        free = self._finest_dofmap.free_vertices
        r = np.zeros(self._finest_dofmap.mesh.n_vertices)
        r[free] = z
        saved = []
        for lev in reversed(self._levels):
            saved.append(r[lev.local])
            new = r[lev.n_coarse:lev.n_coarse + len(lev.parents)]
            # add.at sums per parent in ascending child order, the order of a
            # transposed-prolongation matvec; np.bincount would reassociate
            np.add.at(r, lev.parents.ravel(), np.repeat(0.5 * new, 2))
        y = np.zeros_like(r)
        y[self._coarse_free] = self._coarse_solve(r[self._coarse_free])
        for lev, s in zip(self._levels, reversed(saved)):
            p = lev.parents
            y[lev.n_coarse:lev.n_coarse + len(p)] = 0.5 * y[p[:, 0]] + 0.5 * y[p[:, 1]]
            y[lev.local] += lev.inv_diag * s
        return y[free]

    def extended(self, fine_dofmap: DofMap, operator) -> "MultilevelPreconditioner":
        """Preconditioner for one more refinement level, of stiffness ``operator``."""
        lev = _make_level(self._finest_dofmap.mesh.n_vertices, fine_dofmap, operator)
        successor = copy.copy(self)  # shares the coarse factorization
        successor._levels = self._levels + (lev,)
        successor._finest_dofmap = fine_dofmap
        return successor


def _make_level(n_coarse: int, fine_dofmap: DofMap, operator) -> _Level:
    fine = fine_dofmap.mesh
    if fine.vertex_parents is None or fine.n_coarse_vertices != n_coarse:
        raise ValueError("meshes are not nested by one refinement")
    if operator.shape != (fine_dofmap.n_dofs,) * 2:
        raise ValueError("operator shape does not match the free vertex count")
    new_mask = np.zeros(fine.n_vertices, dtype=bool)
    new_mask[n_coarse:] = True
    nodes = fine.edges.nodes
    touched = new_mask.copy()
    touched[nodes[new_mask[nodes[:, 1]], 0]] = True
    touched[nodes[new_mask[nodes[:, 0]], 1]] = True
    local = np.nonzero(touched & (fine_dofmap.dof_of_vertex >= 0))[0]
    return _Level(n_coarse=n_coarse, parents=fine.vertex_parents, local=local,
                  inv_diag=1.0 / operator.diagonal()[fine_dofmap.dof_of_vertex[local]])


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
