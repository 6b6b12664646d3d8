"""Adaptive P1 finite elements for strongly monotone quasilinear problems.

The package couples newest-vertex-bisection mesh adaptivity with a damped
fixed-point linearization and a multilevel-preconditioned conjugate
gradient solver, all three loops driven by one residual error estimator.
`run_adaptive` executes the full loop; the submodules expose the pieces
(meshes, assembly, estimation, marking, solvers) for standalone use.
"""

from .algsolver import (IdentityPreconditioner, MultilevelPreconditioner,
                        build_preconditioner, init_solver_state, pcg_step,
                        solve_exact)
from .driver import (AdaptiveConfig, RunLog, StepRecord, quasi_error,
                     run_adaptive)
from .estimator import (EstimatorData, IndicatorField, doerfler_mark,
                        indicators, total)
from .experiments import (RunResult, expected_rate, fit_rate,
                          parse_sweep_spec, robustness_grid, run_benchmark)
from .fem import (DofMap, FeFunction, apply_nonlinear, assemble_laplacian, assemble_rhs,
                  element_flux, energy_norm, interpolate, prolongate, sample)
from .mesh import (DIRICHLET, NEUMANN, Mesh, create_initial, overlay, refine,
                   uniform_refine)
from .nonlinearity import (Nonlinearity, constant_nonlinearity,
                           lshape_nonlinearity, zshape_nonlinearity)
from .problems import (ErrorData, ExactSolution, Problem, ZSHAPE_BETA,
                       get_problem, zshape_exact)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig", "DIRICHLET", "DofMap", "ErrorData", "EstimatorData",
    "ExactSolution", "FeFunction", "IdentityPreconditioner",
    "IndicatorField", "Mesh", "MultilevelPreconditioner",
    "NEUMANN", "Nonlinearity", "Problem", "RunLog", "RunResult",
    "StepRecord", "ZSHAPE_BETA", "apply_nonlinear", "assemble_laplacian",
    "assemble_rhs", "build_preconditioner", "constant_nonlinearity",
    "create_initial", "doerfler_mark", "element_flux", "energy_norm",
    "expected_rate", "fit_rate", "get_problem", "indicators",
    "init_solver_state", "interpolate", "lshape_nonlinearity", "overlay",
    "parse_sweep_spec", "pcg_step", "prolongate", "quasi_error",
    "refine", "robustness_grid", "run_adaptive", "run_benchmark",
    "sample", "solve_exact", "total", "uniform_refine", "zshape_exact",
    "zshape_nonlinearity",
]
