"""One-step preconditioned conjugate gradients and a multilevel preconditioner.

The preconditioner is a local multilevel additive Schwarz operator on the
bisection hierarchy: an exact solve on the coarsest level plus, per finer
level, diagonally scaled corrections on the vertices created at that level
and their edge neighbors.  On shape-regular bisection hierarchies this
keeps the preconditioned condition number bounded, so the per-step energy
norm contraction of PCG is uniform in the mesh size.

`pcg_step` advances exactly one iteration and exposes the increment norms
the adaptive driver's stopping tests need; the energy-norm error is
non-increasing from step to step.  Breakdown (zero residual or zero
curvature) is treated as having reached a fixed point: the iterate stays
put and the increment is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import DofMap, assemble_laplacian, stiffness_diagonal
from .mesh import Mesh


class IdentityPreconditioner:
    """No preconditioning; PCG degenerates to plain CG."""

    def apply(self, z: np.ndarray) -> np.ndarray:
        return z


@dataclass(frozen=True)
class _Level:
    prolongation: sp.csr_matrix      # free dofs, coarse -> fine
    restriction: sp.csr_matrix       # transpose, precomputed
    local_dofs: np.ndarray           # smoothing set on this level
    inv_diag: np.ndarray             # inverse stiffness diagonal on the set


class MultilevelPreconditioner:
    """Additive Schwarz over the refinement hierarchy (see module docstring)."""

    def __init__(self, coarse_solve: Callable, levels: tuple,
                 finest_dofmap: DofMap):
        self._coarse_solve = coarse_solve
        self._levels = levels
        self._finest_dofmap = finest_dofmap

    @property
    def n_levels(self) -> int:
        return len(self._levels) + 1

    def apply(self, z: np.ndarray) -> np.ndarray:
        residuals = [np.asarray(z, dtype=float)]
        for lev in reversed(self._levels):
            residuals.append(lev.restriction @ residuals[-1])
        residuals.reverse()
        y = self._coarse_solve(residuals[0])
        for lev, r in zip(self._levels, residuals[1:]):
            y = lev.prolongation @ y
            if lev.local_dofs.size:
                y[lev.local_dofs] += lev.inv_diag * r[lev.local_dofs]
        return y

    def extended(self, fine_dofmap: DofMap) -> "MultilevelPreconditioner":
        """Preconditioner for the hierarchy with one more refinement level."""
        lev = _make_level(self._finest_dofmap, fine_dofmap)
        return MultilevelPreconditioner(self._coarse_solve, self._levels + (lev,),
                                        fine_dofmap)


def _vertex_prolongation(coarse_dofmap: DofMap, fine_dofmap: DofMap) -> sp.csr_matrix:
    """Free-dof prolongation for a one-level bisection refinement."""
    fine = fine_dofmap.mesh
    coarse = coarse_dofmap.mesh
    if fine.vertex_parents is None or fine.n_coarse_vertices != coarse.n_vertices:
        raise ValueError("meshes are not nested by one refinement")
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


def _make_level(coarse_dofmap: DofMap, fine_dofmap: DofMap) -> _Level:
    fine = fine_dofmap.mesh
    p = _vertex_prolongation(coarse_dofmap, fine_dofmap)
    new_mask = np.zeros(fine.n_vertices, dtype=bool)
    new_mask[fine.n_coarse_vertices:] = True
    nodes = fine.edges.nodes
    touched = new_mask.copy()
    touched[nodes[new_mask[nodes[:, 1]], 0]] = True
    touched[nodes[new_mask[nodes[:, 0]], 1]] = True
    local = fine_dofmap.dof_of_vertex[np.nonzero(touched)[0]]
    local = local[local >= 0]
    diag = stiffness_diagonal(fine_dofmap)
    inv_diag = 1.0 / diag[local] if local.size else np.empty(0)
    return _Level(prolongation=p, restriction=p.T.tocsr(),
                  local_dofs=local, inv_diag=inv_diag)


def build_preconditioner(meshes, dofmaps) -> MultilevelPreconditioner:
    """Multilevel preconditioner for the finest level of a hierarchy.

    ``meshes`` may be a MeshHierarchy or a list of nested meshes; ``dofmaps``
    the matching DofMaps.  A single-level hierarchy yields the exact inverse.
    """
    levels = meshes.levels if hasattr(meshes, "levels") else list(meshes)
    dofmaps = list(dofmaps)
    if len(levels) != len(dofmaps) or not levels:
        raise ValueError("need matching, nonempty mesh and dofmap lists")
    coarse = dofmaps[0]
    pre = MultilevelPreconditioner(factorized(assemble_laplacian(coarse)), (), coarse)
    for dm in dofmaps[1:]:
        pre = pre.extended(dm)
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
        return replace(state, iterations=state.iterations + 1, increment=0.0, converged=True)
    if state.direction is None:
        p = z
    else:
        p = z + (rz / state.rz) * state.direction
    ap = state.operator @ p
    pap = float(p @ ap)
    if not np.isfinite(pap) or pap <= 0.0:
        return replace(state, iterations=state.iterations + 1, increment=0.0, converged=True)
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
