"""Independent reference implementations used as test oracles.

Everything here is deliberately written without the package's fitting
or flip machinery: plain textbook IRLS updates with hand-coded family
formulas, the log-likelihood from the cumulant and normalizer of each
family, brute-force sign enumeration, finite differences, elementwise
information products and quadrature for t tail probabilities.
"""

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, xlogy


def textbook_irls_poisson(X, y, offset=None, tol=1e-12, max_iter=200):
    """Plain Fisher scoring for a log-link Poisson GLM; returns (beta, deviance)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    offset = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
    mu = y + 0.1
    eta = np.log(mu)
    beta = np.zeros(p)
    for _ in range(max_iter):
        w = mu
        z = eta - offset + (y - mu) / mu
        beta_new = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * z))
        eta = offset + X @ beta_new
        mu = np.exp(eta)
        if np.max(np.abs(beta_new - beta)) < tol * (1.0 + np.max(np.abs(beta_new))):
            beta = beta_new
            break
        beta = beta_new
    dev = 2.0 * np.sum(xlogy(y, y) - xlogy(y, mu) - (y - mu))
    return beta, float(dev)


def textbook_irls_gaussian(X, y, offset=None):
    """One-step weighted least squares (exact for the identity link)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    offset = np.zeros(len(y)) if offset is None else np.asarray(offset, dtype=float)
    beta = np.linalg.solve(X.T @ X, X.T @ (y - offset))
    resid = y - offset - X @ beta
    return beta, float(np.sum(resid**2))


def cumulant(family, eta):
    """b(eta), whose derivatives are the family's mean and weight."""
    if family.name == "gaussian":
        return 0.5 * np.square(eta)
    if family.name == "poisson":
        return np.exp(eta)
    return family.trials * np.logaddexp(0.0, eta)


def log_normalizer(family, y):
    """c(y) in the log density y*eta - b(eta) + c(y)."""
    if family.name == "gaussian":
        return -0.5 * np.square(y) - 0.5 * np.log(2.0 * np.pi)
    if family.name == "poisson":
        return -gammaln(np.asarray(y, dtype=float) + 1.0)
    y = np.asarray(y, dtype=float)
    m = family.trials
    return gammaln(m + 1.0) - gammaln(y + 1.0) - gammaln(m - y + 1.0)


def log_likelihood(params, y, design, family):
    """Sum of log densities at the full coefficient vector ``params``.

    ``params`` follows the design column order; the finite-difference
    oracle for the score contributions.
    """
    params = np.asarray(params, dtype=float)
    y = np.asarray(y, dtype=float)
    eta = design.offset + design.X @ params
    return float(np.sum(y * eta - cumulant(family, eta) + log_normalizer(family, y)))


def enumerate_flip_stats(contribs):
    """All 2^n scalar flip statistics, last coordinate flipping fastest."""
    contribs = list(contribs)
    n = len(contribs)
    root_n = math.sqrt(n)
    stats = []
    for signs in itertools.product((1, -1), repeat=n):
        total = math.fsum(s * c for s, c in zip(signs, contribs))
        stats.append(total / root_n)
    return stats


def oracle_reject_greater(values, alpha):
    """Reject iff T_1 > T_(ceil((1-alpha)w)), computed from first principles."""
    w = len(values)
    rank = math.ceil((1.0 - alpha) * w - 1e-9)  # 1-based order statistic
    svals = sorted(values)
    return values[0] > svals[rank - 1]


def oracle_p_greater(values):
    return sum(1 for v in values if v >= values[0]) / len(values)


def fd_gradient(fun, x, h=1e-6):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        grad[j] = (fun(x + step) - fun(x - step)) / (2.0 * h)
    return grad


def info_elementwise(X, W):
    """n^-1 X' diag(W) X computed entry by entry with explicit loops."""
    X = np.asarray(X, dtype=float)
    n, k = X.shape
    out = np.zeros((k, k))
    for r in range(k):
        for c in range(k):
            acc = 0.0
            for i in range(n):
                acc += X[i, r] * W[i] * X[i, c]
            out[r, c] = acc / n
    return out


def t_two_sided_p_quadrature(tstat, df):
    """Two-sided t p-value by direct quadrature of the density."""
    const = math.gamma((df + 1) / 2.0) / (
        math.sqrt(df * math.pi) * math.gamma(df / 2.0)
    )

    def pdf(x):
        return const * (1.0 + x * x / df) ** (-(df + 1) / 2.0)

    tail, _ = quad(pdf, abs(tstat), np.inf)
    return 2.0 * tail
