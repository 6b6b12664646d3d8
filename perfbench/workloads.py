"""The benchmark's fixed adaptive workloads.

Each workload is one `AdaptiveConfig` that runs until the estimator falls
to `eta_tol`.  Every `eta_tol` sits mid-gap between two consecutive level
estimators, so a last-digit change in the arithmetic cannot move the level
the run stops on.  `max_elements` is four times the landing size and is
only a safety cap.  `reference` records where the run lands (final element
count and number of levels); the output check accepts a result within
`BAND` of it.  `smoke` is a small tolerance that sends the same workload
through the same code in a few seconds.

Why these three (see README.md for the measured split):

- zshape-bulk: per-level setup dominates (assembly, load, estimator
  setup, refinement); the hierarchy is shallow and PCG work is light.
- zshape-fine: theta=0.1 gives a deep hierarchy of ~470 levels, so
  preconditioner apply and extension, which grow as O(levels x N), and
  the per-level setup paid on every level dominate; the worst
  microseconds per unit of cumulative cost.
- lshape-tight: lambda_alg=1e-4 gives ~36 PCG steps per level on a
  shallow hierarchy, so per-step estimator evaluation and preconditioner
  apply dominate; it is also the Dirichlet-only problem without an exact
  solution (no Neumann path).
"""

BAND = 0.2

WORKLOADS = {
    "zshape-bulk": {
        "config": {"domain": "zshape", "theta": 0.5, "lambda_alg": 1e-2,
                   "lambda_pic": 1e-2},
        "eta_tol": 0.054, "reference": {"nT": 108620, "levels": 54},
        "smoke": {"eta_tol": 0.353, "reference": {"nT": 2556, "levels": 31}},
    },
    "zshape-fine": {
        "config": {"domain": "zshape", "theta": 0.1, "lambda_alg": 1e-2,
                   "lambda_pic": 1e-2},
        "eta_tol": 0.1708, "reference": {"nT": 10084, "levels": 474},
        "smoke": {"eta_tol": 0.27767, "reference": {"nT": 3806, "levels": 369}},
    },
    "lshape-tight": {
        "config": {"domain": "lshape", "theta": 0.5, "lambda_alg": 1e-4,
                   "lambda_pic": 1e-2},
        "eta_tol": 0.0208, "reference": {"nT": 102400, "levels": 58},
        "smoke": {"eta_tol": 0.09998, "reference": {"nT": 4258, "levels": 37}},
    },
}


def spec(name: str, smoke: bool = False) -> dict:
    """Run parameters of a workload: `config` kwargs and `reference` band."""
    w = WORKLOADS[name]
    tol, ref = (w["smoke"]["eta_tol"], w["smoke"]["reference"]) if smoke \
        else (w["eta_tol"], w["reference"])
    config = dict(w["config"], eta_tol=tol, max_elements=4 * ref["nT"])
    return {"config": config, "reference": ref}
