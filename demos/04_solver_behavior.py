"""
Why the inner solver needs a multilevel preconditioner
======================================================

A contractive linear solver with a mesh-independent rate is what makes
the total work scale linearly in the cumulative number of elements.  The
multilevel preconditioner (exact solve on the coarsest mesh, additive
Schwarz over the vertex generations: each generation smooths its vertices
and their parents, the endpoints of the edge they bisect) delivers that;
plain CG does not, as the growing iteration counts below show.  The
hierarchy below has 30 refinement levels but far fewer generations.
"""

import numpy as np

from afem.algsolver import (IdentityPreconditioner, build_preconditioner,
                            init_solver_state, pcg_step)
from afem.driver import AdaptiveConfig, run_adaptive
from afem.estimator import doerfler_mark, indicators
from afem.fem import (DofMap, assemble_laplacian, assemble_rhs, interpolate,
                      sample)
from afem.mesh import create_initial, refine
from afem.problems import get_problem


def steps_to_tol(operator, rhs, pre, tol=1e-8):
    state = init_solver_state(operator, rhs)
    norm0 = None
    while True:
        state = pcg_step(state, pre)
        if norm0 is None:
            norm0 = max(state.increment, 1e-300)
        if state.increment <= tol * norm0 or state.iterations > 400:
            return state.iterations


# grow a corner-refined hierarchy like the adaptive driver would
problem = get_problem("zshape")
m0 = create_initial("z_shape")
meshes, dofmaps = [m0], [DofMap.from_mesh(m0)]
weight = lambda pts: 1.0 / (np.linalg.norm(pts, axis=-1) + 0.02)
for _ in range(30):
    w = interpolate(dofmaps[-1], weight)
    field = indicators(problem.nonlinearity, problem.source, problem.neumann,
                       w)
    meshes.append(refine(meshes[-1], doerfler_mark(field, 0.9)))
    dofmaps.append(DofMap.from_mesh(meshes[-1]))

# multilevel counts level off; unpreconditioned counts keep climbing
pre = build_preconditioner(meshes[:1], dofmaps[:1])
print("%3s %8s %12s %10s" % ("lvl", "dofs", "multilevel", "plain CG"))
for i in range(1, len(meshes)):
    a = assemble_laplacian(dofmaps[i])
    pre = pre.extended(dofmaps[i], a)
    if i % 3 and i != len(meshes) - 1:
        continue
    rhs = assemble_rhs(dofmaps[i], sample(meshes[i], problem.source, problem.neumann))
    print("%3d %8d %12d %10d"
          % (i, dofmaps[i].n_dofs, steps_to_tol(a, rhs, pre),
             steps_to_tol(a, rhs, IdentityPreconditioner())))
print("%d refinement levels, %d vertex generations" % (len(meshes) - 1, pre.n_levels - 1))

# inside the adaptive driver the solver never iterates to a fixed
# tolerance: it stops once its increment is small against the estimator,
# which takes a handful of steps per linearization at every level
log = run_adaptive(AdaptiveConfig(domain="zshape", max_elements=5000))
per_level = [row["n_steps"] for row in log.level_table()]
print("\nadaptive run: solver steps per level min/median/max = %d/%d/%d"
      % (min(per_level), int(np.median(per_level)), max(per_level)))
