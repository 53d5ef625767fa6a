"""Classical competitor tests.

Parametric (Rao) effective-score test, HC0 sandwich Wald test,
quasi-Poisson Wald test with Pearson dispersion, and the one-sample
t-test.  Everything returns the same TestResult record as the flip
tests, with method tags identifying the procedure.  Tail probabilities
come from scipy.special's ndtr, stdtr and chdtrc, the functions behind
scipy's norm, t and chi2 distributions, so p-values equal theirs bit
for bit without importing scipy's statistics package.
"""

import math

import numpy as np
from scipy.special import chdtrc, ndtr, stdtr

from .engine import TestResult
from .exceptions import DesignError, NumericalError, check_alpha, finite_array
from .glm import (
    fit_full,
    fit_null,
    score_contributions,
    solve_spd,
)

__all__ = [
    "sandwich_estimate",
    "rao_test",
    "parametric_score_test",
    "sandwich_wald_test",
    "quasi_score_test",
    "one_sample_t",
]

_TWO_SIDED = ("two-sided", "two-sided-abs")


def _result(statistic, p, alpha, alternative, method):
    """TestResult that rejects when p <= alpha."""
    return TestResult(statistic=statistic, p_value=p, reject=bool(p <= alpha),
                      alpha=float(alpha), alternative=alternative, method=method)


def _tail_p(stat, alternative, cdf):
    """p-value of stat under a symmetric null with lower-tail function cdf."""
    if alternative == "greater":
        return float(cdf(-stat))
    if alternative == "less":
        return float(cdf(stat))
    if alternative in _TWO_SIDED:
        return float(2.0 * cdf(-abs(stat)))
    raise DesignError(f"unknown alternative {alternative!r}")


def _normal_or_chi2(u, cov, alternative, alpha, method):
    """Refer the d-vector u with covariance cov to its null reference.

    d = 1 gives z = u/sqrt(cov) against the standard normal; d > 1 gives
    u' cov^-1 u against a chi-squared d upper tail (two-sided only).
    """
    d = u.shape[0]
    if d == 1:
        var = float(cov[0, 0])
        if not var > 0:
            raise NumericalError(f"{method} variance is not positive")
        statistic = float(u[0]) / np.sqrt(var)
        p = _tail_p(statistic, alternative, ndtr)
    else:
        if alternative not in _TWO_SIDED:
            raise DesignError(f"the d-dimensional {method} test is two-sided only")
        statistic = float(u @ solve_spd(cov, u))
        # chi2.sf is 1 below 0, where chdtrc gives NaN
        p = float(chdtrc(d, max(statistic, 0.0)))
    return _result(statistic, p, alpha, alternative, method)


def sandwich_estimate(y, full_fit, design, family):
    """HC0 robust covariance matrix of the full-fit coefficients.

    Returns bread^-1 meat bread^-1 with bread X'WX (applied only through
    solves) and meat sum_i u_i u_i', u_i the score contribution rows of
    the full fit.
    """
    X = design.X
    xtwx = X.T @ (full_fit.W_hat[:, None] * X)
    resid = np.asarray(y, dtype=float) - full_fit.mu_hat
    U = X * resid[:, None]
    tmp = solve_spd(xtwx, U.T @ U)       # bread^-1 meat
    vcov = solve_spd(xtwx, tmp.T).T      # bread^-1 meat bread^-1
    return 0.5 * (vcov + vcov.T)


def rao_test(scores, alternative="two-sided", alpha=0.05):
    """Rao score test from the score contributions at the null fit.

    Uses the effective score and effective information of ``scores``
    (a ScoreSet).  For a single tested column the statistic is
    z = S*/sqrt(I*), referred to the standard normal; for d > 1 it is
    S*' (I*)^-1 S* with a chi-squared d upper tail (two-sided only).
    """
    check_alpha(alpha)
    n = scores.nu.shape[0]
    s_star = scores.nu.sum(axis=0) / np.sqrt(n)  # equals the effective score at the MLE
    return _normal_or_chi2(s_star, scores.effective_information(), alternative, alpha,
                           "parametric-score")


def parametric_score_test(y, design, family, alternative="two-sided", alpha=0.05):
    """Fit the null model and run ``rao_test`` on its score contributions."""
    null_fit = fit_null(y, design, family)
    scores = score_contributions(y, null_fit, design, family)
    return rao_test(scores, alternative, alpha)


def sandwich_wald_test(y, design, family, alternative="two-sided", alpha=0.05):
    """Wald test of beta = null_value with the HC0 sandwich covariance.

    d = 1 refers z = (beta_hat - beta0)/se_robust to the standard
    normal; d > 1 uses the quadratic form with a chi-squared d reference
    (two-sided only).
    """
    check_alpha(alpha)
    full_fit = fit_full(y, design, family)
    vcov = sandwich_estimate(y, full_fit, design, family)
    idx = list(design.tested)
    delta = full_fit.coef[idx] - design.null_value
    return _normal_or_chi2(delta, vcov[np.ix_(idx, idx)], alternative, alpha,
                           "sandwich-wald")


def quasi_score_test(y, design, family, alternative="two-sided", alpha=0.05):
    """Quasi-Poisson Wald t-test with Pearson dispersion from the full fit.

    phi_hat = Pearson X^2 / (n - k); the statistic
    t = (beta_hat - beta0) / sqrt(phi_hat * [ (X'WX)^-1 ]_DD) is referred
    to Student's t on n - k degrees of freedom.
    """
    check_alpha(alpha)
    if family.name != "poisson":
        raise DesignError("quasi_score_test requires the poisson family")
    if design.d != 1:
        raise DesignError("quasi_score_test handles a single tested column")
    if design.n <= design.k:
        raise DesignError("quasi dispersion needs n > k")
    full_fit = fit_full(y, design, family)
    y = np.asarray(y, dtype=float)
    # the canonical-link IRLS weight is the variance function V(mu_hat)
    pearson = float(np.sum((y - full_fit.mu_hat) ** 2 / full_fit.W_hat))
    dispersion = pearson / (design.n - design.k)
    if not dispersion > 0:
        raise NumericalError("quasi dispersion estimate is not positive")
    X = design.X
    xtwx = X.T @ (full_fit.W_hat[:, None] * X)
    j = design.tested[0]
    bread_dd = float(solve_spd(xtwx, np.eye(design.k)[j])[j])
    if not bread_dd > 0:
        raise NumericalError("model-based variance of the tested coefficient is not positive")
    se = np.sqrt(dispersion * bread_dd)
    t = float(full_fit.coef[j] - design.null_value[0]) / se
    df = design.n - design.k
    p = _tail_p(t, alternative, lambda x: stdtr(df, x))
    return _result(t, p, alpha, alternative, "quasi-poisson")


def one_sample_t(y, mu0=0.0, alternative="two-sided", alpha=0.05):
    """Student's one-sample t-test of the mean against mu0.

    ``y`` is a 1-d array of finite numbers.  Huge ones can overflow the
    sample sd or the statistic in double precision, which raises
    NumericalError rather than a warning.
    """
    check_alpha(alpha)
    y = finite_array("y", y, ndim=1)
    mu0 = float(finite_array("mu0", mu0, ndim=0))
    n = y.shape[0]
    if n < 2:
        raise DesignError("one_sample_t needs at least two observations")
    with np.errstate(over="ignore", invalid="ignore"):
        s = float(np.std(y, ddof=1))
        if s == 0.0:
            raise NumericalError("zero sample variance")
        t = float(np.sqrt(n) * (np.mean(y) - mu0) / s)
    if not (math.isfinite(s) and math.isfinite(t)):
        raise NumericalError("one_sample_t overflows: the sample sd or the t statistic "
                             "is not finite in double precision")
    p = _tail_p(t, alternative, lambda x: stdtr(n - 1, x))
    return _result(t, p, alpha, alternative, "t-test")
