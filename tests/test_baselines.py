"""Classical baseline tests against closed forms, oracles and simulation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from signflip import (
    DesignError,
    Gaussian,
    NumericalError,
    Poisson,
    build_design,
    fit_full,
    one_sample_t,
    parametric_score_test,
    quasi_score_test,
    rao_test,
    sandwich_estimate,
    sandwich_wald_test,
    score_contributions,
    fit_null,
)
from signflip.glm import solve_spd
from oracles import t_two_sided_p_quadrature


# ------------------------------------------------------------------ #
# one-sample t
# ------------------------------------------------------------------ #

def test_t_symmetric_pair_is_null():
    res = one_sample_t(np.array([-1.0, 1.0]), 0.0)
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_t_mean_equal_mu0_is_zero():
    res = one_sample_t(np.array([1.0, 2.0, 3.0]), 2.0)
    assert res.statistic == 0.0


def test_t_frozen_value_and_quadrature_oracle():
    res = one_sample_t(np.array([1.0, 2.0, 3.0]), 0.0)
    assert_allclose(res.statistic, 2.0 * np.sqrt(3.0), rtol=1e-14)
    oracle_p = t_two_sided_p_quadrature(res.statistic, df=2)
    assert_allclose(res.p_value, oracle_p, rtol=1e-9)


def test_t_validation():
    with pytest.raises(DesignError):
        one_sample_t(np.array([1.0]))
    with pytest.raises(NumericalError, match="zero sample variance"):
        one_sample_t(np.array([2.0, 2.0, 2.0]))
    with pytest.raises(DesignError, match="finite"):
        one_sample_t(np.array([1.0, np.nan, 2.0]))


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize(
    "method", ["rao", "parametric", "sandwich", "quasi", "t-test"]
)
def test_alpha_outside_unit_interval_rejected(method, alpha):
    rng = np.random.default_rng(229)
    x, z = rng.normal(size=30), rng.normal(size=30)
    y = rng.poisson(np.exp(0.2 + 0.4 * z)).astype(float)
    design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                          intercept=True)
    fam = Poisson()
    run = {
        "rao": lambda: rao_test(
            score_contributions(y, fit_null(y, design, fam), design, fam),
            alpha=alpha,
        ),
        "parametric": lambda: parametric_score_test(y, design, fam, alpha=alpha),
        "sandwich": lambda: sandwich_wald_test(y, design, fam, alpha=alpha),
        "quasi": lambda: quasi_score_test(y, design, fam, alpha=alpha),
        "t-test": lambda: one_sample_t(y, alpha=alpha),
    }[method]
    with pytest.raises(DesignError, match=r"alpha must be in \(0, 1\)"):
        run()


# ------------------------------------------------------------------ #
# parametric score test
# ------------------------------------------------------------------ #

def test_parametric_zero_residuals_gives_p_one():
    y = np.full(15, 3.0)
    design = build_design({"x": np.arange(15.0)}, tested=["x"], intercept=True)
    for fam in (Gaussian(), Poisson()):
        res = parametric_score_test(y, design, fam)
        assert abs(res.statistic) < 1e-12
        assert res.p_value > 1.0 - 1e-12
        assert not res.reject


def test_parametric_z_squared_equals_chi2_statistic():
    rng = np.random.default_rng(211)
    x, z = rng.normal(size=60), rng.normal(size=60)
    y = rng.poisson(np.exp(0.2 + 0.5 * z)).astype(float)
    design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                          intercept=True)
    fam = Poisson()
    res = parametric_score_test(y, design, fam)
    nf = fit_null(y, design, fam)
    scores = score_contributions(y, nf, design, fam)
    s = scores.nu.sum(axis=0) / np.sqrt(design.n)
    chi2_stat = float(s @ solve_spd(scores.info.i_star, s))
    assert abs(res.statistic**2 - chi2_stat) < 1e-10


def test_parametric_one_sided_tails_sum_to_one():
    rng = np.random.default_rng(223)
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    design = build_design({"x": x}, tested=["x"], intercept=True)
    hi = parametric_score_test(y, design, Gaussian(), "greater")
    lo = parametric_score_test(y, design, Gaussian(), "less")
    assert_allclose(hi.p_value + lo.p_value, 1.0, rtol=1e-12)


def test_parametric_p_uniform_under_correct_model():
    rng = np.random.default_rng(227)
    n, reps = 200, 2000
    pvals = np.empty(reps)
    for r in range(reps):
        x, z = rng.normal(size=n), rng.normal(size=n)
        y = rng.poisson(np.exp(0.1 + 0.5 * z)).astype(float)
        design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                              intercept=True)
        pvals[r] = parametric_score_test(y, design, Poisson()).p_value
    ks = stats.kstest(pvals, "uniform").statistic
    assert ks < 0.05


# ------------------------------------------------------------------ #
# sandwich Wald test
# ------------------------------------------------------------------ #

def test_sandwich_vcov_properties_and_model_based_reduction():
    rng = np.random.default_rng(229)
    x, z = rng.normal(size=50), rng.normal(size=50)
    y = rng.poisson(np.exp(0.3 + 0.4 * z)).astype(float)
    design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                          intercept=True)
    fam = Poisson()
    ff = fit_full(y, design, fam)
    vcov = sandwich_estimate(y, ff, design, fam)
    assert_allclose(vcov, vcov.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(vcov) > -1e-12)

    # explicit-inverse oracle: inv(X'WX) U'U inv(X'WX), U the full-fit scores
    X = design.X
    bread_inv = np.linalg.inv(X.T @ (ff.W_hat[:, None] * X))
    U = X * (y - ff.mu_hat)[:, None]
    assert_allclose(vcov, bread_inv @ (U.T @ U) @ bread_inv, rtol=1e-10)


def test_sandwich_close_to_model_based_under_homoscedasticity():
    rng = np.random.default_rng(233)
    n, reps = 500, 200
    ratios = np.empty(reps)
    for r in range(reps):
        x = rng.normal(size=n)
        y = 0.5 * x + rng.normal(size=n)
        design = build_design({"x": x}, tested=["x"], intercept=True)
        fam = Gaussian()
        ff = fit_full(y, design, fam)
        vcov = sandwich_estimate(y, ff, design, fam)
        X = design.X
        xtwx = X.T @ X
        model_vcov = solve_spd(xtwx, np.eye(2))
        j = design.tested[0]
        ratios[r] = np.sqrt(vcov[j, j]) / np.sqrt(model_vcov[j, j])
    assert abs(ratios.mean() - 1.0) < 0.2


def test_sandwich_p_uniform_under_gaussian_null():
    rng = np.random.default_rng(239)
    n, reps = 1000, 2000
    pvals = np.empty(reps)
    for r in range(reps):
        x = rng.normal(size=n)
        y = rng.normal(size=n)  # independent of x
        design = build_design({"x": x}, tested=["x"], intercept=True)
        pvals[r] = sandwich_wald_test(y, design, Gaussian()).p_value
    ks = stats.kstest(pvals, "uniform").statistic
    assert ks < 0.05


def test_sandwich_tests_null_value_not_zero():
    rng = np.random.default_rng(241)
    n, reps = 400, 300
    rej_true, rej_wrong = 0, 0
    for r in range(reps):
        x = rng.normal(size=n)
        y = 1.0 + 2.0 * x + rng.normal(size=n)
        at_truth = build_design({"x": x}, tested=["x"], intercept=True,
                                null_value=[2.0])
        at_zero = build_design({"x": x}, tested=["x"], intercept=True)
        rej_true += sandwich_wald_test(y, at_truth, Gaussian()).reject
        rej_wrong += sandwich_wald_test(y, at_zero, Gaussian()).reject
    assert 0.02 < rej_true / reps < 0.10  # level holds at the true value
    assert rej_wrong / reps > 0.99        # power against the wrong null


# ------------------------------------------------------------------ #
# quasi-Poisson test
# ------------------------------------------------------------------ #

def test_quasi_dispersion_hook_reduces_to_model_wald():
    # t * sqrt(phi_hat) is the model-based Wald z, phi_hat = Pearson X^2/(n-k)
    rng = np.random.default_rng(251)
    x, z = rng.normal(size=80), rng.normal(size=80)
    y = rng.poisson(np.exp(0.2 + 0.3 * z)).astype(float)
    design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                          intercept=True)
    fam = Poisson()
    res = quasi_score_test(y, design, fam)
    ff = fit_full(y, design, fam)
    X = design.X
    xtwx = X.T @ (ff.W_hat[:, None] * X)
    j = design.tested[0]
    z_model = ff.coef[j] / np.sqrt(solve_spd(xtwx, np.eye(design.k))[j, j])
    phi_hat = np.sum((y - ff.mu_hat) ** 2 / ff.mu_hat) / (design.n - design.k)
    assert_allclose(res.statistic * np.sqrt(phi_hat), z_model, rtol=1e-10)
    # p comes from the t reference on n - k degrees of freedom
    t_model = z_model / np.sqrt(phi_hat)
    assert_allclose(res.p_value, 2 * stats.t(design.n - design.k).sf(abs(t_model)),
                    rtol=1e-12)


def test_quasi_dispersion_estimate_near_one_when_equidispersed():
    rng = np.random.default_rng(257)
    n, reps = 1000, 200
    phis = np.empty(reps)
    fam = Poisson()
    for r in range(reps):
        x, z = rng.normal(size=n), rng.normal(size=n)
        y = rng.poisson(np.exp(0.2 + 0.3 * z)).astype(float)
        design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                              intercept=True)
        ff = fit_full(y, design, fam)
        pearson = np.sum((y - ff.mu_hat) ** 2 / ff.mu_hat)
        phis[r] = pearson / (n - design.k)
    assert abs(phis.mean() - 1.0) < 0.15


def test_quasi_guards():
    rng = np.random.default_rng(263)
    x = rng.normal(size=8)
    y = rng.poisson(2.0, size=8).astype(float)
    design = build_design({"x": x}, tested=["x"], intercept=True)
    with pytest.raises(DesignError, match="poisson"):
        quasi_score_test(y, design, Gaussian())
    small = build_design({"x": np.array([0.0, 1.0])}, tested=["x"],
                         intercept=True)
    with pytest.raises(DesignError, match="n > k"):
        quasi_score_test(np.array([1.0, 2.0]), small, Poisson())
    # duplicated constant column in the nuisance set is rejected up front
    with pytest.raises(DesignError, match="rank deficient"):
        build_design({"x": x, "c": np.ones(8)}, tested=["x"], nuisance=["c"],
                     intercept=True)
