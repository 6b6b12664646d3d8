"""Scalar diffusion nonlinearities mu(|grad u|^2) and their constants.

The operator u -> -div(mu(|grad u|^2) grad u) is strongly monotone with
constant alpha and Lipschitz continuous with constant L in the H^1 seminorm
provided alpha <= mu(t) + 2 t d mu/dt (t) <= L for all t >= 0.  The
built-in nonlinearities attain these bounds exactly;
`check_monotonicity_bounds` re-measures them on a sampling grid.  mu does
not depend on the point, so the flux of a piecewise affine function is
constant per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Nonlinearity:
    """Diffusion coefficient bundle.

    ``mu(t)`` and ``dmu_dt(t)`` take the gradient modulus squared ``t`` (any
    array) and broadcast over it.  ``antiderivative`` is
    M(s) = integral of mu(t) dt over [0, s], used by the energy
    functional; M(0) = 0.  ``alpha`` and ``lipschitz`` are the monotonicity
    and Lipschitz constants, ``gamma1 <= mu <= gamma2`` the plain bounds.
    """

    name: str
    mu: Callable
    dmu_dt: Callable
    antiderivative: Optional[Callable]
    alpha: float
    lipschitz: float
    gamma1: float
    gamma2: float

    @property
    def damping(self) -> float:
        """Step size alpha / L^2."""
        return self.alpha / self.lipschitz ** 2

    @property
    def q_pic(self) -> float:
        """Contraction factor sqrt(1 - alpha^2 / L^2)."""
        ratio = self.alpha / self.lipschitz
        return math.sqrt(1.0 - ratio * ratio)


def zshape_nonlinearity() -> Nonlinearity:
    """mu(t) = 2 + (1 + t)^(-1/2); alpha = 2, L = 3 (attained at t -> inf, 0)."""
    return Nonlinearity(
        name="zshape",
        mu=lambda t: 2.0 + 1.0 / np.sqrt(1.0 + t),
        dmu_dt=lambda t: -0.5 * (1.0 + t) ** -1.5,
        antiderivative=lambda s: 2.0 * s + 2.0 * (np.sqrt(1.0 + s) - 1.0),
        alpha=2.0,
        lipschitz=3.0,
        gamma1=2.0,
        gamma2=3.0,
    )


# Extrema of mu(t) + 2 t mu'(t) for the logarithmic coefficient, from
# high-resolution minimization: min 0.9582898011.. at t ~= 25.29, max
# 1.5423438173.. at t ~= 0.618.  alpha is rounded down and L up so the pair
# encloses the true range.
LSHAPE_ALPHA = 0.9582898
LSHAPE_LIPSCHITZ = 1.54234382


def lshape_nonlinearity() -> Nonlinearity:
    """mu(t) = 1 + ln(1 + t)/(1 + t); alpha ~= 0.9582898, L ~= 1.5423438."""
    return Nonlinearity(
        name="lshape",
        mu=lambda t: 1.0 + np.log1p(t) / (1.0 + t),
        dmu_dt=lambda t: (1.0 - np.log1p(t)) / (1.0 + t) ** 2,
        antiderivative=lambda s: s + 0.5 * np.log1p(s) ** 2,
        alpha=LSHAPE_ALPHA,
        lipschitz=LSHAPE_LIPSCHITZ,
        gamma1=1.0,
        gamma2=1.0 + 1.0 / math.e,
    )


def constant_nonlinearity(value: float = 1.0) -> Nonlinearity:
    """mu identically constant; the linear Laplace-type case alpha = L."""
    return Nonlinearity(
        name=f"constant({value:g})",
        mu=lambda t: np.full_like(np.asarray(t, dtype=float), value),
        dmu_dt=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        antiderivative=lambda s: value * s,
        alpha=value,
        lipschitz=value,
        gamma1=value,
        gamma2=value,
    )


def check_monotonicity_bounds(nl: Nonlinearity, t_max: float = 1e8,
                              n_samples: int = 20000, tol: float = 1e-9) -> dict:
    """Sample mu(t) + 2 t mu'(t) on [0, t_max] and verify alpha, L enclose it.

    Returns {"min": ..., "max": ..., "argmin": ..., "argmax": ...}; raises
    ValueError if the sampled range leaves [alpha - tol, L + tol].  The grid
    is log-spaced with t = 0 prepended.
    """
    t = np.concatenate([[0.0], np.geomspace(1e-10, t_max, n_samples)])
    vals = np.asarray(nl.mu(t)) + 2.0 * t * np.asarray(nl.dmu_dt(t))
    lo, hi = float(vals.min()), float(vals.max())
    if not (nl.alpha <= lo + tol and hi <= nl.lipschitz + tol):
        raise ValueError(
            f"monotonicity expression leaves [alpha, L]: range [{lo}, {hi}] "
            f"vs [{nl.alpha}, {nl.lipschitz}]")
    return {"min": lo, "max": hi,
            "argmin": float(t[vals.argmin()]), "argmax": float(t[vals.argmax()])}
