"""Classical competitor tests.

Parametric (Rao) effective-score test, HC0 sandwich Wald test,
quasi-Poisson Wald test with Pearson dispersion, and the one-sample
t-test.  Everything returns the same TestResult record as the flip
tests, with method tags identifying the procedure.  A d > 1 statistic
is the squared norm of the ``glm.whiten`` row of its d-vector, the
covariance having been checked with ``glm.check_conditioned`` where it
was formed: I* in ``ScoreSet.effective_information``, the sandwich's
tested block in ``sandwich_wald_test``.  Tail probabilities
come from scipy.special's ndtr, stdtr and chdtrc, imported when a test
runs, the functions behind scipy's norm, t and chi2 distributions, so
p-values equal theirs bit for bit without importing scipy.stats.
"""

import math

import numpy as np

from .engine import TestResult
from .exceptions import DesignError, NumericalError, check_alpha, finite_array, one_of
from .glm import (
    check_conditioned,
    check_response,
    fit_full,
    fit_null,
    score_contributions,
    solve_spd,
    whiten,
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
ALTERNATIVES = ("greater", "less", *_TWO_SIDED)


def _result(statistic, p, alpha, alternative, method):
    """TestResult that rejects when p <= alpha."""
    return TestResult(statistic=statistic, p_value=p, reject=bool(p <= alpha),
                      alpha=float(alpha), alternative=alternative, method=method)


def _check_rule(alpha, alternative, method, d=1):
    """Refuse an alpha outside (0, 1), an unknown alternative and a one-sided d > 1 test."""
    check_alpha(alpha)
    one_of("alternative", alternative, ALTERNATIVES)
    if d > 1 and alternative not in _TWO_SIDED:
        raise DesignError(f"the d-dimensional {method} test is two-sided only")


def _tail_p(stat, alternative, cdf):
    """p-value of stat under a symmetric null with lower-tail function cdf."""
    if alternative == "greater":
        return float(cdf(-stat))
    if alternative == "less":
        return float(cdf(stat))
    return float(2.0 * cdf(-abs(stat)))


def _normal_or_chi2(u, cov, alternative, alpha, method):
    """Refer the d-vector u with covariance cov to its null reference.

    d = 1 gives z = u/sqrt(cov) against the standard normal; d > 1 gives
    u' cov^-1 u, the squared norm of ``whiten(cov, u)``, against a
    chi-squared d upper tail (two-sided only).  The caller has checked
    cov with ``check_conditioned`` where it formed it.
    """
    from scipy.special import chdtrc, ndtr
    d = u.shape[0]
    if d == 1:
        statistic = float(u[0]) / math.sqrt(float(cov[0, 0]))
        p = _tail_p(statistic, alternative, ndtr)
    else:
        statistic = float(np.square(whiten(cov, u[None, :])).sum())
        p = float(chdtrc(d, statistic))
    return _result(statistic, p, alpha, alternative, method)


def sandwich_estimate(y, full_fit, design, family):
    """HC0 robust covariance matrix of the full-fit coefficients.

    Returns bread^-1 meat bread^-1 with bread X'WX and meat U'U, U the
    score contribution rows of the full fit, as A A' with A = bread^-1 U'
    from one solve.  ``y`` is checked as the fits check a response.
    """
    X = design.X
    xtwx = X.T @ (full_fit.W_hat[:, None] * X)
    resid = check_response(y, design, family) - full_fit.mu_hat
    A = solve_spd(xtwx, (X * resid[:, None]).T)
    return A @ A.T


def rao_test(scores, alternative="two-sided", alpha=0.05):
    """Rao score test from the score contributions at the null fit.

    Uses the effective score and effective information of ``scores``
    (a ScoreSet).  For a single tested column the statistic is
    z = S*/sqrt(I*), referred to the standard normal; for d > 1 it is
    S*' (I*)^-1 S* with a chi-squared d upper tail (two-sided only).
    """
    _check_rule(alpha, alternative, "parametric-score", scores.nu.shape[1])
    n = scores.nu.shape[0]
    s_star = scores.nu.sum(axis=0) / np.sqrt(n)  # equals the effective score at the MLE
    return _normal_or_chi2(s_star, scores.effective_information(), alternative, alpha,
                           "parametric-score")


def parametric_score_test(y, design, family, alternative="two-sided", alpha=0.05):
    """Fit the null model and run ``rao_test`` on its score contributions."""
    _check_rule(alpha, alternative, "parametric-score", design.d)
    null_fit = fit_null(y, design, family)
    scores = score_contributions(y, null_fit, design, family)
    return rao_test(scores, alternative, alpha)


def sandwich_wald_test(y, design, family, alternative="two-sided", alpha=0.05):
    """Wald test of beta = null_value with the HC0 sandwich covariance.

    d = 1 refers z = (beta_hat - beta0)/se_robust to the standard
    normal; d > 1 uses the quadratic form with a chi-squared d reference
    (two-sided only).
    """
    _check_rule(alpha, alternative, "sandwich-wald", design.d)
    full_fit = fit_full(y, design, family)
    vcov = sandwich_estimate(y, full_fit, design, family)
    idx = list(design.tested)
    delta = full_fit.coef[idx] - design.null_value
    cov = vcov[np.ix_(idx, idx)]
    check_conditioned(cov, "sandwich covariance of the tested coefficients")
    return _normal_or_chi2(delta, cov, alternative, alpha, "sandwich-wald")


def quasi_score_test(y, design, family, alternative="two-sided", alpha=0.05):
    """Quasi-Poisson Wald t-test with Pearson dispersion from the full fit.

    phi_hat = Pearson X^2 / (n - k); the statistic
    t = (beta_hat - beta0) / sqrt(phi_hat * [ (X'WX)^-1 ]_DD) is referred
    to Student's t on n - k degrees of freedom.
    """
    from scipy.special import stdtr
    _check_rule(alpha, alternative, "quasi-poisson")
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
    se = math.sqrt(dispersion * bread_dd)
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
    from scipy.special import stdtr
    _check_rule(alpha, alternative, "t-test")
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
