"""Family invariants: links, cumulants, weights as variances, validation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from signflip import (
    Binomial,
    DesignError,
    Gaussian,
    Poisson,
    build_design,
    family_from_name,
    fit_null,
    flip_test,
)
from oracles import cumulant

FITTING_FAMILIES = [Gaussian(), Poisson(), Binomial(trials=7)]


def _mu_grid(family):
    if family.name == "gaussian":
        return np.linspace(-8.0, 8.0, 33)
    if family.name == "binomial":
        return np.linspace(0.4, 6.6, 25)  # trials = 7
    return np.geomspace(0.05, 40.0, 25)


@pytest.mark.parametrize("family", FITTING_FAMILIES, ids=lambda f: f.name)
def test_link_roundtrip(family):
    mu = _mu_grid(family)
    back = family.inv_link(family.link(mu))
    assert_allclose(back, mu, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "family, etas",
    [
        (Gaussian(), np.linspace(-5, 5, 11)),
        (Poisson(), np.linspace(-5, 5, 11)),
        (Binomial(trials=3), np.linspace(-6, 6, 11)),
    ],
    ids=lambda v: v.name if hasattr(v, "name") else "grid",
)
def test_cumulant_strictly_convex(family, etas):
    assert np.all(family.b_double_prime(etas) > 0)


@pytest.mark.parametrize(
    "family, etas",
    [
        (Gaussian(), np.linspace(-4, 4, 9)),
        (Poisson(), np.linspace(-3, 3, 9)),
        (Binomial(trials=5), np.linspace(-4, 4, 9)),
    ],
    ids=["gaussian", "poisson", "binomial"],
)
def test_mean_is_cumulant_gradient(family, etas):
    # b'(eta) from finite differences of b; wider step for the second
    # difference to keep cancellation error below truncation error
    h = 1e-6
    fd = (cumulant(family, etas + h) - cumulant(family, etas - h)) / (2 * h)
    assert_allclose(family.b_prime(etas), fd, rtol=1e-7, atol=1e-7)
    h2 = 1e-4
    fd2 = (cumulant(family, etas + h2) - 2 * cumulant(family, etas)
           + cumulant(family, etas - h2)) / h2**2
    assert_allclose(family.b_double_prime(etas), fd2, rtol=1e-4, atol=1e-5)


def _sample_var_band(draws):
    """Sample variance and 3 Monte-Carlo standard errors of it."""
    dev2 = (draws - draws.mean()) ** 2
    return dev2.mean(), 3.0 * dev2.std() / np.sqrt(draws.size)


def test_poisson_variance_matches_simulation():
    rng = np.random.default_rng(42)
    mu = 3.0
    draws = rng.poisson(mu, size=100_000).astype(float)
    var, band = _sample_var_band(draws)
    fam = Poisson()
    assert abs(var - fam.b_double_prime(fam.link(mu))) < band


def test_gaussian_variance_matches_simulation():
    rng = np.random.default_rng(43)
    draws = rng.normal(2.0, 1.0, size=100_000)
    var, band = _sample_var_band(draws)
    fam = Gaussian()
    assert abs(var - fam.b_double_prime(fam.link(2.0))) < band


def test_binomial_variance_matches_simulation_on_proportion_scale():
    # spec'd scale: var(y/m) = p(1-p)/m, the count-scale weight over m^2
    rng = np.random.default_rng(44)
    m, p = 5, 0.3
    fam = Binomial(trials=m)
    draws = rng.binomial(m, p, size=100_000) / m
    var, band = _sample_var_band(draws)
    weight = fam.b_double_prime(fam.link(m * p))
    assert abs(var - weight / m**2) < band
    assert_allclose(weight, m * p * (1 - p), rtol=1e-12)


def test_poisson_rejects_bad_responses():
    fam = Poisson()
    with pytest.raises(DesignError):
        fam.validate_response(np.array([1.0, -2.0]))
    with pytest.raises(DesignError):
        fam.validate_response(np.array([1.5, 2.0]))
    fam.validate_response(np.array([0.0, 3.0]))


def test_binomial_rejects_out_of_range_counts():
    fam = Binomial(trials=2)
    with pytest.raises(DesignError):
        fam.validate_response(np.array([0.0, 3.0]))
    fam.validate_response(np.array([0.0, 2.0]))
    with pytest.raises(DesignError):
        Binomial(trials=0)


def test_binomial_trials_length_must_match_response():
    fam = Binomial(trials=np.array([2.0, 3.0, 4.0]))
    fam.validate_response(np.array([0.0, 3.0, 1.0]))
    with pytest.raises(DesignError, match="trials"):
        fam.validate_response(np.array([0.0, 1.0]))
    design = build_design({"x": np.arange(6.0)}, tested=["x"])
    with pytest.raises(DesignError, match="trials"):
        fit_null(np.ones(6), design, Binomial(trials=np.full(4, 2.0)))


@pytest.mark.parametrize("family", FITTING_FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_response_rejected_before_fitting(family, bad):
    design = build_design({"x": np.linspace(-1.0, 1.0, 8)}, tested=["x"])
    y = np.ones(8)
    y[2] = bad
    with pytest.raises(DesignError):
        flip_test(y, design, family, w=16)


def test_family_from_name():
    assert family_from_name("poisson").name == "poisson"
    assert family_from_name("binomial", trials=3).trials == 3
    with pytest.raises(DesignError):
        family_from_name("gamma")
