"""Classical competitor tests.

Parametric (Rao) effective-score test, HC0 sandwich Wald test,
quasi-Poisson Wald test with Pearson dispersion, and the one-sample
t-test.  Everything returns the same TestResult record as the flip
tests, with method tags identifying the procedure.  A d > 1 statistic
is the squared norm of the ``glm.whiten`` row of its d-vector, the
covariance having been checked with ``glm.check_conditioned`` where it
was formed: I* in ``ScoreSet.effective_information``, the sandwich's
tested block in ``sandwich_wald_test``.  Tail probabilities come from
three functions of this module on the ``math`` module alone: the
normal lower tail by erfc, the chi-squared upper tail on integer
degrees of freedom by its finite Poisson sum, and the Student-t lower
tail on integer degrees of freedom by the continued fraction of the
incomplete beta ratio.  Each is within a relative 3e-13 of the exact
value wherever that is at least 1e-300.
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


_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_CF_TINY = 1e-300  # modified Lentz: stands in for a zero denominator
_CF_MAX_TERMS = 10_000  # the fraction needs O(sqrt(df)) terms where it is used


def _norm_cdf(x):
    """Standard normal lower tail at x."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _stirling_rest(z):
    """ln Gamma(z) - (z - 1/2) ln z + z - ln sqrt(2 pi), for z > 0.

    From z = 15 on, five terms of the Stirling series, whose next term is
    below 2e-16 there: lgamma(z) carries an absolute error that grows with
    z, and the tails take differences of it.
    """
    if z < 15.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _LN_SQRT_2PI
    r = 1.0 / (z * z)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / z


def _bd0(v, s):
    """v ln(v/s) + s - v, by its series in (v - s)/(v + s) where v is near s."""
    if abs(v - s) >= 0.1 * (v + s):
        return v * math.log(v / s) + s - v
    u = (v - s) / (v + s)
    total, term, j = (v - s) * u, 2.0 * v * u, 1
    while True:
        term *= u * u
        nxt = total + term / (2 * j + 1)
        if nxt == total:
            return total
        total, j = nxt, j + 1


def _log_poisson(v, s):
    """ln(s^v e^-s / Gamma(v + 1)) for v >= 0 and s > 0."""
    if v == 0:
        return -s
    return -_bd0(v, s) - _stirling_rest(v) - 0.5 * math.log(2.0 * math.pi * v)


def _chi2_sf(k, x):
    """Chi-squared upper tail at x on an integer k >= 2 degrees of freedom.

    With s = x/2 it is the sum of s^v e^-s / Gamma(v + 1) over
    v = h, h + 1, ..., k/2 - 1, h = (k mod 2)/2, plus erfc(sqrt(s)) for odd
    k.  The terms are taken as multiples of the largest, whose log comes
    from ``_log_poisson``; a log through lgamma alone would lose 1.6e-12
    at k = 2000.
    """
    s = 0.5 * x
    if math.isnan(s):
        return s
    if s <= 0:
        return 1.0
    if s == math.inf:
        return 0.0
    h, m = 0.5 * (k % 2), k // 2  # the m terms are v = h, ..., h + m - 1
    top = min(m - 1, max(0, int(s - h)))
    total = term = 1.0
    for j in range(top, 0, -1):  # term(v - 1) = term(v) v / s
        term *= (j + h) / s
        total += term
        if term < 1e-17 * total:
            break
    term = 1.0
    for j in range(top + 1, m):  # term(v + 1) = term(v) s / (v + 1)
        term *= s / (j + h)
        total += term
        if term < 1e-17 * total:
            break
    base = math.erfc(math.sqrt(s)) if k % 2 else 0.0
    return base + math.exp(_log_poisson(top + h, s) + math.log(total))


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta ratio, by modified Lentz.

    I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) times the returned value; it
    converges fast for x < (a + 1)/(a + b + 2).
    """
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= c * d
        if abs(c * d - 1.0) <= 2.0 ** -52:
            return h
    raise NumericalError("the incomplete beta continued fraction did not converge")


def _t_cdf(df, t):
    """Student-t lower tail at t on an integer df >= 1.

    0.5 I_x(df/2, 1/2) with x = df/(df + t^2) for t < 0, and one minus the
    tail at -t for t > 0.  1 - x is formed as t^2/(df + t^2), and the logs
    of x and 1 - x from log(t^2/df), so neither loses digits to a
    subtraction; df = 1 is the Cauchy closed form.
    """
    t = float(t)  # a numpy t^2 past the double range would warn
    if t > 0:
        return 1.0 - _t_cdf(df, -t)
    if not t < 0:
        return t if math.isnan(t) else 0.5
    if df == 1:
        return math.atan2(1.0, -t) / math.pi
    a = 0.5 * df
    q = t * t / df  # 1 - x = q/(1 + q); q is inf past the double range
    ln_q = 2.0 * math.log(-t) - math.log(df)
    if q > 1.0:
        ln_1mx = -math.log1p(1.0 / q)
        ln_x = ln_1mx - ln_q
    else:
        ln_x = -math.log1p(q)
        ln_1mx = ln_x + ln_q
    # ln B(a, 1/2) = ln sqrt(pi) - ln Gamma(a + 1/2) + ln Gamma(a), the gamma
    # difference by Stirling so that it does not cancel at large a
    ln_beta = (0.5 * math.log(math.pi) + 0.5 - a * math.log1p(0.5 / a) - 0.5 * math.log(a)
               + _stirling_rest(a) - _stirling_rest(a + 0.5))
    front = math.exp(a * ln_x + 0.5 * ln_1mx - ln_beta)
    x = 1.0 / (1.0 + q)
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front * _beta_cf(a, 0.5, x) / a
    return 0.5 - front * _beta_cf(0.5, a, q / (1.0 + q))


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
    d = u.shape[0]
    if d == 1:
        statistic = float(u[0]) / math.sqrt(float(cov[0, 0]))
        p = _tail_p(statistic, alternative, _norm_cdf)
    else:
        statistic = float(np.square(whiten(cov, u[None, :])).sum())
        p = _chi2_sf(d, statistic)
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
    bread_dd = float(np.square(whiten(xtwx, np.eye(design.k)[j:j + 1])).sum())
    if not bread_dd > 0:
        raise NumericalError("model-based variance of the tested coefficient is not positive")
    se = math.sqrt(dispersion * bread_dd)
    t = float(full_fit.coef[j] - design.null_value[0]) / se
    df = design.n - design.k
    p = _tail_p(t, alternative, lambda x: _t_cdf(df, x))
    return _result(t, p, alpha, alternative, "quasi-poisson")


def one_sample_t(y, mu0=0.0, alternative="two-sided", alpha=0.05):
    """Student's one-sample t-test of the mean against mu0.

    ``y`` is a 1-d array of finite numbers.  Huge ones can overflow the
    sample sd or the statistic in double precision, which raises
    NumericalError rather than a warning.
    """
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
    p = _tail_p(t, alternative, lambda x: _t_cdf(n - 1, x))
    return _result(t, p, alpha, alternative, "t-test")
