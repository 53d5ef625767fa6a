"""Classical competitor tests.

Parametric (Rao) effective-score test, HC0 sandwich Wald test,
quasi-Poisson Wald test with Pearson dispersion, and the one-sample
t-test.  Everything returns the same TestResult record as the flip
tests, with method tags identifying the procedure.
"""

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .engine import TestResult
from .exceptions import DesignError, NumericalError
from .glm import (
    fit_full,
    fit_null,
    score_contributions,
    solve_spd,
)

__all__ = [
    "SandwichEstimate",
    "sandwich_estimate",
    "rao_test",
    "parametric_score_test",
    "sandwich_wald_test",
    "quasi_score_test",
    "one_sample_t",
]

_TWO_SIDED = ("two-sided", "two-sided-abs")


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise DesignError("alpha must be in (0, 1)")


def _tail_p(stat, alternative, dist):
    if alternative == "greater":
        return float(dist.sf(stat))
    if alternative == "less":
        return float(dist.cdf(stat))
    if alternative in _TWO_SIDED:
        return float(2.0 * dist.sf(abs(stat)))
    raise DesignError(f"unknown alternative {alternative!r}")


@dataclass(frozen=True)
class SandwichEstimate:
    """HC0 robust covariance pieces for the full-fit coefficients.

    ``xtwx`` is the bread X'WX (applied only through solves), ``meat``
    is the outer-product sum of the full-fit score contributions, and
    ``vcov`` = bread^-1 meat bread^-1.
    """

    xtwx: np.ndarray
    meat: np.ndarray
    vcov: np.ndarray


def sandwich_estimate(y, full_fit, design, family, meat=None):
    """Robust covariance of the full-fit coefficients.

    ``meat`` can be injected (e.g. X'WX reproduces the model-based
    covariance exactly); by default it is sum_i u_i u_i' with u_i the
    score contribution rows of the full fit.
    """
    X = design.X
    W = full_fit.W_hat
    xtwx = X.T @ (W[:, None] * X)
    if meat is None:
        resid = (np.asarray(y, dtype=float) - full_fit.mu_hat)
        resid = resid / family.dispersion(design.n)
        U = X * resid[:, None]
        meat = U.T @ U
    tmp = solve_spd(xtwx, meat)          # bread^-1 meat
    vcov = solve_spd(xtwx, tmp.T).T      # bread^-1 meat bread^-1
    vcov = 0.5 * (vcov + vcov.T)
    return SandwichEstimate(xtwx=xtwx, meat=np.asarray(meat, dtype=float), vcov=vcov)


def rao_test(scores, alternative="two-sided", alpha=0.05):
    """Rao score test from the score contributions at the null fit.

    Uses the effective score and effective information of ``scores``
    (a ScoreSet).  For a single tested column the statistic is
    z = S*/sqrt(I*), referred to the standard normal; for d > 1 it is
    S*' (I*)^-1 S* with a chi-squared d upper tail (two-sided only).
    """
    _check_alpha(alpha)
    n, d = scores.nu.shape
    s_star = scores.nu.sum(axis=0) / np.sqrt(n)  # equals the effective score at the MLE
    i_star = scores.info.i_star
    if d == 1:
        var = float(i_star[0, 0])
        if not var > 0:
            raise NumericalError("effective information is not positive")
        z = float(s_star[0]) / np.sqrt(var)
        p = _tail_p(z, alternative, stats.norm)
        statistic = z
    else:
        if alternative not in _TWO_SIDED:
            raise DesignError(
                "the d-dimensional parametric score test is two-sided only"
            )
        statistic = float(s_star @ solve_spd(i_star, s_star))
        p = float(stats.chi2.sf(statistic, d))
    return TestResult(
        statistic=statistic,
        p_value=p,
        reject=bool(p <= alpha),
        alpha=float(alpha),
        alternative=alternative,
        method="parametric-score",
    )


def parametric_score_test(y, design, family, alternative="two-sided", alpha=0.05):
    """Fit the null model and run ``rao_test`` on its score contributions."""
    null_fit = fit_null(y, design, family)
    scores = score_contributions(y, null_fit, design, family)
    return rao_test(scores, alternative, alpha)


def sandwich_wald_test(y, design, family, alternative="two-sided", alpha=0.05,
                       meat=None):
    """Wald test of beta = null_value with the HC0 sandwich covariance.

    d = 1 refers z = (beta_hat - beta0)/se_robust to the standard
    normal; d > 1 uses the quadratic form with a chi-squared d reference
    (two-sided only).
    """
    _check_alpha(alpha)
    full_fit = fit_full(y, design, family)
    est = sandwich_estimate(y, full_fit, design, family, meat=meat)
    idx = list(design.tested)
    delta = full_fit.coef[idx] - design.null_value
    vdd = est.vcov[np.ix_(idx, idx)]
    if design.d == 1:
        var = float(vdd[0, 0])
        if not var > 0:
            raise NumericalError("sandwich variance of the tested coefficient is not positive")
        z = float(delta[0]) / np.sqrt(var)
        p = _tail_p(z, alternative, stats.norm)
        statistic = z
    else:
        if alternative not in _TWO_SIDED:
            raise DesignError("the d-dimensional sandwich Wald test is two-sided only")
        statistic = float(delta @ solve_spd(vdd, delta))
        p = float(stats.chi2.sf(statistic, design.d))
    return TestResult(
        statistic=statistic,
        p_value=p,
        reject=bool(p <= alpha),
        alpha=float(alpha),
        alternative=alternative,
        method="sandwich-wald",
    )


def quasi_score_test(y, design, family, alternative="two-sided", alpha=0.05,
                     dispersion=None):
    """Quasi-Poisson Wald t-test with Pearson dispersion from the full fit.

    phi_hat = Pearson X^2 / (n - k); the statistic
    t = (beta_hat - beta0) / sqrt(phi_hat * [ (X'WX)^-1 ]_DD) is referred
    to Student's t on n - k degrees of freedom.  ``dispersion`` may be
    injected to pin phi_hat for checks.
    """
    _check_alpha(alpha)
    if family.name != "poisson":
        raise DesignError("quasi_score_test requires the poisson family")
    if design.d != 1:
        raise DesignError("quasi_score_test handles a single tested column")
    if design.n <= design.k:
        raise DesignError("quasi dispersion needs n > k")
    full_fit = fit_full(y, design, family)
    y = np.asarray(y, dtype=float)
    if dispersion is None:
        pearson = float(np.sum((y - full_fit.mu_hat) ** 2 / family.variance(full_fit.mu_hat)))
        dispersion = pearson / (design.n - design.k)
    if not dispersion > 0:
        raise NumericalError("quasi dispersion estimate is not positive")
    X = design.X
    xtwx = X.T @ (full_fit.W_hat[:, None] * X)
    j = design.tested[0]
    unit = np.zeros(design.k)
    unit[j] = 1.0
    bread_dd = float(solve_spd(xtwx, unit)[j])
    if not bread_dd > 0:
        raise NumericalError("model-based variance of the tested coefficient is not positive")
    se = np.sqrt(dispersion * bread_dd)
    t = float(full_fit.coef[j] - design.null_value[0]) / se
    df = design.n - design.k
    p = _tail_p(t, alternative, stats.t(df))
    return TestResult(
        statistic=t,
        p_value=p,
        reject=bool(p <= alpha),
        alpha=float(alpha),
        alternative=alternative,
        method="quasi-poisson",
    )


def one_sample_t(y, mu0=0.0, alternative="two-sided", alpha=0.05):
    """Student's one-sample t-test of the mean against mu0."""
    _check_alpha(alpha)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 2:
        raise DesignError("one_sample_t needs at least two observations")
    if not np.all(np.isfinite(y)):
        raise DesignError("one_sample_t needs finite observations")
    s = float(np.std(y, ddof=1))
    if s == 0.0:
        raise NumericalError("zero sample variance")
    t = float(np.sqrt(n) * (np.mean(y) - mu0) / s)
    p = _tail_p(t, alternative, stats.t(n - 1))
    return TestResult(
        statistic=t,
        p_value=p,
        reject=bool(p <= alpha),
        alpha=float(alpha),
        alternative=alternative,
        method="t-test",
    )
