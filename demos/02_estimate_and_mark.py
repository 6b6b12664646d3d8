"""
Error indicators and bulk marking
=================================

Solve the quasilinear model problem on a coarse mesh by damped fixed-point
iteration, attach a residual indicator to every triangle, and mark a
smallest set carrying a theta share of the total.  The indicators pile up
at the re-entrant corner, which is exactly where the marking concentrates.
"""

import numpy as np

from afem.algsolver import solve_exact
from afem.estimator import doerfler_mark, indicators, total
from afem.fem import (DofMap, FeFunction, apply_nonlinear, assemble_laplacian,
                      assemble_rhs, element_flux, sample)
from afem.mesh import create_initial, uniform_refine
from afem.problems import get_problem

problem = get_problem("zshape")
nl = problem.nonlinearity

mesh = create_initial("z_shape")
for _ in range(4):
    mesh = uniform_refine(mesh)
dofmap = DofMap.from_mesh(mesh)
a = assemble_laplacian(dofmap)
load = assemble_rhs(dofmap, sample(mesh, problem.source, problem.neumann))

# the damped iteration u <- u + delta A^-1 (F - N(u)) contracts with a
# mesh-independent factor, so a handful of steps is plenty here
delta = nl.damping
x = np.zeros(dofmap.n_dofs)
for k in range(30):
    flux = element_flux(nl, mesh, FeFunction(dofmap, x).vertex_values())
    x += solve_exact(a, delta * (load - apply_nonlinear(dofmap, flux)))
u = FeFunction(dofmap, x)

field = indicators(nl, problem.source, problem.neumann, u)
print("mesh: %d triangles, estimator total %.4f"
      % (mesh.n_triangles, total(field)))

# indicators concentrate where the solution is singular
r = np.linalg.norm(mesh.centroids(), axis=1)
near = r < 0.25
print("corner share: %4.1f%% of elements carry %4.1f%% of the squared mass"
      % (100 * near.mean(), 100 * field.squared[near].sum()
         / field.squared.sum()))

for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
    marked = doerfler_mark(field, theta)
    print("theta=%.1f marks %4d of %d elements  (eta(M)/eta = %.3f)"
          % (theta, len(marked), mesh.n_triangles,
             total(field, marked) / total(field)))
