"""Diffusion coefficients: values, derivatives, and monotonicity constants."""

import math

import numpy as np
import pytest

from afem.nonlinearity import (LSHAPE_ALPHA, LSHAPE_LIPSCHITZ,
                               check_monotonicity_bounds, constant_nonlinearity,
                               lshape_nonlinearity, zshape_nonlinearity)


def central_diff(f, t, h=1e-6):
    return (f(t + h) - f(t - h)) / (2.0 * h)


def test_zshape_values():
    nl = zshape_nonlinearity()
    assert nl.mu(0.0) == pytest.approx(3.0)
    assert nl.mu(3.0) == pytest.approx(2.5)
    assert nl.mu(1e12) == pytest.approx(2.0, abs=1e-5)
    assert nl.alpha == 2.0 and nl.lipschitz == 3.0


def test_lshape_values():
    nl = lshape_nonlinearity()
    assert nl.mu(0.0) == pytest.approx(1.0)
    # the coefficient peaks at t = e - 1 with value 1 + 1/e
    assert nl.mu(math.e - 1.0) == pytest.approx(1.0 + 1.0 / math.e)
    assert nl.mu(1e12) == pytest.approx(1.0, abs=1e-9)
    assert nl.alpha == LSHAPE_ALPHA and nl.lipschitz == LSHAPE_LIPSCHITZ


@pytest.mark.parametrize("make", [zshape_nonlinearity, lshape_nonlinearity,
                                  constant_nonlinearity])
def test_derivative_consistency(make):
    nl = make()
    ts = np.array([0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 250.0])
    fd = central_diff(nl.mu, ts)
    assert np.allclose(nl.dmu_dt(ts), fd, rtol=1e-5, atol=1e-9)


@pytest.mark.parametrize("make", [zshape_nonlinearity, lshape_nonlinearity,
                                  constant_nonlinearity])
def test_antiderivative_consistency(make):
    # d/ds M(s) = mu(s) and M(0) = 0
    nl = make()
    assert nl.antiderivative(0.0) == pytest.approx(0.0, abs=1e-14)
    ss = np.array([0.05, 0.3, 1.0, 4.0, 40.0])
    h = 1e-6
    fd = (nl.antiderivative(ss + h) - nl.antiderivative(ss - h)) / (2 * h)
    assert np.allclose(fd, nl.mu(ss), rtol=1e-7)


@pytest.mark.parametrize("make", [zshape_nonlinearity, lshape_nonlinearity,
                                  constant_nonlinearity])
def test_monotonicity_bounds_enclose_samples(make):
    nl = make()
    report = check_monotonicity_bounds(nl)
    assert report["min"] >= nl.alpha - 1e-9
    assert report["max"] <= nl.lipschitz + 1e-9
    # plain coefficient bounds hold on the same grid
    t = np.geomspace(1e-10, 1e8, 2000)
    mu = nl.mu(t)
    assert (mu >= nl.gamma1 - 1e-12).all()
    assert (mu <= nl.gamma2 + 1e-12).all()


def test_monotonicity_violation_detected():
    bad = constant_nonlinearity(1.0)
    bad = type(bad)(name="bad", mu=bad.mu, dmu_dt=bad.dmu_dt,
                    antiderivative=bad.antiderivative, alpha=1.5,
                    lipschitz=2.0, gamma1=1.0, gamma2=1.0)
    with pytest.raises(ValueError):
        check_monotonicity_bounds(bad)


def test_lshape_constants_near_true_extrema():
    # sampled extrema of mu + 2 t mu' sit just inside the declared pair
    nl = lshape_nonlinearity()
    report = check_monotonicity_bounds(nl, n_samples=200000)
    assert report["min"] == pytest.approx(0.9582898011, abs=1e-8)
    assert report["max"] == pytest.approx(1.5423438174, abs=1e-8)
    assert report["argmin"] == pytest.approx(25.29, rel=0.02)
    assert report["argmax"] == pytest.approx(0.618, rel=0.02)


def test_derived_constants():
    z = zshape_nonlinearity()
    assert z.q_pic == pytest.approx(math.sqrt(5.0) / 3.0, abs=1e-15)
    assert z.damping == pytest.approx(2.0 / 9.0, abs=1e-15)

    l = lshape_nonlinearity()
    assert 0.0 < l.q_pic < 1.0
    assert l.q_pic == pytest.approx(
        math.sqrt(1.0 - (LSHAPE_ALPHA / LSHAPE_LIPSCHITZ) ** 2), abs=1e-15)

    c = constant_nonlinearity(2.0)
    assert c.q_pic == 0.0
    assert c.damping == pytest.approx(0.5)
