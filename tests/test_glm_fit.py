"""Null/full IRLS fits against closed forms and an independent oracle."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from signflip import (
    Binomial,
    DesignError,
    DesignMatrix,
    Gaussian,
    NumericalError,
    Poisson,
    build_design,
    fit_full,
    fit_null,
    run_scenario,
    scenario_config,
    warpbreaks,
)
from oracles import textbook_irls_gaussian, textbook_irls_poisson


def test_gaussian_intercept_only_null_is_mean():
    rng = np.random.default_rng(7)
    y = rng.normal(size=25)
    x = rng.normal(size=25)
    design = build_design({"x": x}, tested=["x"], intercept=True)
    nf = fit_null(y, design, Gaussian())
    assert_allclose(nf.coef, [y.mean()], rtol=0, atol=1e-12)
    assert_allclose(nf.mu_hat, np.full(25, y.mean()), atol=1e-12)
    assert nf.converged


def test_warpbreaks_null_fit_equals_tension_group_means():
    # saturated-in-factor Poisson MLE equals group means of the response
    table = warpbreaks()
    y = table["breaks"]
    design = build_design(
        {"wool": table["wool"], "tension": table["tension"]},
        tested=["wool"],
        nuisance=["tension"],
        intercept=True,
    )
    nf = fit_null(y, design, Poisson())
    group_means = {
        lev: y[table["tension"] == lev].mean() for lev in ("L", "M", "H")
    }
    expected = np.asarray([group_means[lev] for lev in table["tension"]])
    assert_allclose(nf.mu_hat, expected, rtol=1e-8)


def test_null_fit_ignores_tested_column_when_null_value_zero():
    rng = np.random.default_rng(11)
    z = rng.normal(size=30)
    y = rng.poisson(np.exp(0.3 + 0.5 * z)).astype(float)
    zero_col = DesignMatrix(
        X=np.column_stack([np.ones(30), z, np.zeros(30)]),
        columns=("(intercept)", "z", "x0"),
        tested=(2,),
        null_value=[0.0],
    )
    real_col = build_design(
        {"z": z, "x": rng.normal(size=30)}, tested=["x"], nuisance=["z"],
        intercept=True,
    )
    fam = Poisson()
    fit_a = fit_null(y, zero_col, fam)
    fit_b = fit_null(y, real_col, fam)
    assert_allclose(fit_a.coef, fit_b.coef, rtol=1e-12)
    assert_allclose(fit_a.deviance, fit_b.deviance, rtol=1e-12)


def test_irls_steps_that_overflow_end_in_a_numerical_error_without_a_warning():
    # a 1e160 response overflowed the gaussian deviance, with 21 warnings,
    # and the error blamed the mean; an offset of 800 overflowed exp
    rng = np.random.default_rng(0)
    x = rng.normal(size=30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        design = build_design({"x": x}, tested=["x"], intercept=True)
        with pytest.raises(NumericalError, match="the deviance is not finite"):
            fit_null(1e160 * rng.normal(size=30), design, Gaussian())
        design = build_design({"x": x}, tested=["x"], intercept=False,
                              offset=np.full(30, 800.0))
        with pytest.raises(NumericalError, match="offset-only predictor"):
            fit_null(np.ones(30), design, Poisson())


def test_irls_trial_steps_that_overflow_are_rejected_without_a_warning():
    # in this scenario a rejected trial step of fit_full, reached through
    # sandwich_wald_test, overflowed Poisson.b_prime with a warning
    config = scenario_config("multivariate", gamma0_latent=4, reps=30, w=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = run_scenario(config)
    assert not curve.failures


def test_irls_that_does_not_converge_is_a_numerical_error(monkeypatch):
    import signflip.glm as glm

    monkeypatch.setattr(glm, "MAX_ITER", 1)
    table = warpbreaks()
    design = build_design({"wool": table["wool"], "tension": table["tension"]},
                          tested=["wool"], nuisance=["tension"], intercept=True)
    with pytest.raises(NumericalError, match="IRLS did not converge in 1 iterations"):
        fit_null(table["breaks"], design, Poisson())


def test_full_fit_of_a_design_with_a_repeated_column_is_refused():
    rng = np.random.default_rng(12)
    x = rng.normal(size=20)
    design = DesignMatrix(X=np.column_stack([np.ones(20), x, x]),
                          columns=("(intercept)", "x", "x again"), tested=(2,),
                          null_value=[0.0])
    with pytest.raises(DesignError, match="rank deficient for the full fit"):
        fit_full(rng.poisson(1.0, size=20).astype(float), design, Poisson())


def test_full_fit_gaussian_equals_ols():
    rng = np.random.default_rng(3)
    x = rng.normal(size=40)
    y = 1.0 + 0.8 * x + rng.normal(size=40)
    design = build_design({"x": x}, tested=["x"], intercept=True)
    ff = fit_full(y, design, Gaussian())
    beta_ols, rss = textbook_irls_gaussian(design.X, y)
    assert_allclose(ff.coef, beta_ols, atol=1e-10)
    assert_allclose(ff.deviance, rss, rtol=1e-12)


def test_full_fit_poisson_all_zero_boundary():
    design = build_design({"x": np.arange(8.0)}, tested=["x"], intercept=True)
    try:
        ff = fit_full(np.zeros(8), design, Poisson())
    except NumericalError:
        return  # error is an accepted outcome for the boundary
    assert ff.mu_hat.max() < 1e-6  # boundary report: fitted means collapse to zero


def test_warpbreaks_full_deviance_matches_textbook_irls():
    table = warpbreaks()
    y = table["breaks"]
    design = build_design(
        {"wool": table["wool"], "tension": table["tension"]},
        tested=["wool"],
        nuisance=["tension"],
        intercept=True,
    )
    ff = fit_full(y, design, Poisson())
    _, dev_oracle = textbook_irls_poisson(design.X, y)
    assert abs(ff.deviance - dev_oracle) < 1e-6


@pytest.mark.parametrize("family_name", ["gaussian", "poisson", "binomial"])
def test_irls_fixed_point_nuisance_score_vanishes(family_name):
    rng = np.random.default_rng(19)
    for case in range(5):
        n = 60
        x = rng.normal(size=n)
        z = rng.normal(size=n)
        eta = 0.2 + 0.4 * z
        if family_name == "gaussian":
            fam, y = Gaussian(), eta + rng.normal(size=n)
        elif family_name == "poisson":
            fam, y = Poisson(), rng.poisson(np.exp(eta)).astype(float)
        else:
            fam, y = Binomial(trials=1), rng.binomial(1, 1 / (1 + np.exp(-eta))).astype(float)
        design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                              intercept=True)
        nf = fit_null(y, design, fam)
        score = design.X_nuisance.T @ (y - nf.mu_hat)
        assert np.max(np.abs(score)) < 1e-6 * np.linalg.norm(y)
        assert np.all(nf.W_hat > 0)


def test_empty_nuisance_null_fit_is_offset_only():
    x = np.array([0.5, -1.0, 2.0, 1.5])
    design = build_design({"x": x}, tested=["x"], intercept=False, null_value=[0.3])
    nf = fit_null(np.array([1.0, 0.0, 2.0, 1.0]), design, Poisson())
    assert nf.coef.size == 0
    assert nf.iterations == 0
    assert_allclose(nf.mu_hat, np.exp(0.3 * x))


def test_binomial_per_observation_trial_counts():
    rng = np.random.default_rng(13)
    n = 50
    m = rng.integers(1, 8, size=n)
    z = rng.normal(size=n)
    p = 1 / (1 + np.exp(-(0.2 + 0.5 * z)))
    y = rng.binomial(m, p).astype(float)
    design = build_design({"x": rng.normal(size=n), "z": z}, tested=["x"],
                          nuisance=["z"], intercept=True)
    fam = Binomial(trials=m)
    nf = fit_null(y, design, fam)
    assert nf.converged
    # weights are m p (1-p) at the fitted means
    p_hat = nf.mu_hat / m
    assert_allclose(nf.W_hat, m * p_hat * (1 - p_hat), rtol=1e-10)
    score = design.X_nuisance.T @ (y - nf.mu_hat)
    assert np.max(np.abs(score)) < 1e-6 * np.linalg.norm(y)


def test_fit_rejects_invalid_response():
    design = build_design({"x": np.arange(5.0)}, tested=["x"], intercept=True)
    with pytest.raises(DesignError):
        fit_null(np.array([0.0, 1.0, -2.0, 1.0, 3.0]), design, Poisson())
