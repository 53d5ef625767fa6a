"""Constrained GLM fitting, score contributions and Fisher information.

The null fit runs IRLS on the nuisance columns only, with the
hypothesized tested effect absorbed into the offset; the full fit runs
the same IRLS over all columns.  Convergence uses the relative deviance
criterion |dev - dev_old| < tol * (|dev| + 0.1) with step-halving on
deviance increases or invalid means.  All symmetric solves go through a
Cholesky factorization by LAPACK's dpotrf/dpotrs, called directly, and
a quadratic form in an inverse, B A^-1 B', is a sum of squares of the
rows that ``whiten`` returns through the triangular solve dtrtrs.  A
matrix that is not positive definite or not finite raises
NumericalError; explicit matrix inverses are never formed.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .exceptions import DesignError, NumericalError, finite_array

__all__ = [
    "Fit",
    "ScoreSet",
    "InfoBlocks",
    "fit_null",
    "fit_full",
    "score_contributions",
    "information_blocks",
    "cholesky_lower",
    "solve_spd",
    "whiten",
]

MAX_ITER = 100
DEV_TOL = 1e-8
MAX_HALVINGS = 20
COND_LIMIT = 1e12


def cholesky_lower(A):
    """Lower Cholesky factor of A; NumericalError unless finite and positive definite."""
    if not np.isfinite(A).all():
        raise NumericalError("matrix is not positive definite: it holds a NaN or an infinity")
    L, info = dpotrf(A, lower=1)
    if info:
        raise NumericalError(f"matrix is not positive definite: leading minor {info} is not")
    return L


def solve_spd(A, B):
    """Solve A X = B for symmetric positive-definite A by Cholesky.

    LAPACK's dpotrf/dpotrs, as in scipy's cho_factor/cho_solve, without
    their wrappers.  An empty A gives zeros of B's shape.  Raises
    NumericalError when A is not positive definite or A or B not finite.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.size == 0:
        return np.zeros(B.shape)
    if not np.isfinite(B).all():
        raise NumericalError("right-hand side holds a NaN or an infinity")
    return dpotrs(cholesky_lower(A), B, lower=1)[0]


def whiten(A, B):
    """Rows of B times L^-T, where A = L L' by Cholesky.

    Row i of the result has squared norm B[i] A^-1 B[i]', so a quadratic
    form in A^-1 becomes a sum of squares.  L comes from
    ``cholesky_lower`` and the triangular solve L X' = B' from LAPACK's
    dtrtrs.  Raises NumericalError when A is not positive definite or A
    or B not finite.
    """
    B = np.asarray(B, dtype=float)
    if not np.isfinite(B).all():
        raise NumericalError("right-hand side holds a NaN or an infinity")
    X, info = dtrtrs(cholesky_lower(A), B.T, lower=1)
    if info:
        raise NumericalError(f"triangular solve failed: dtrtrs info {info}")
    return X.T


def _check_conditioned(M, what):
    """Raise NumericalError unless symmetric M is positive definite.

    Its condition number must also be at most COND_LIMIT.  An empty M
    passes.
    """
    if M.size:
        evals = np.linalg.eigvalsh(M)
        if evals[0] <= 0 or evals[-1] / evals[0] > COND_LIMIT:
            raise NumericalError(f"{what} is numerically singular")


@dataclass(frozen=True)
class Fit:
    """Converged IRLS fit.

    ``coef`` holds the fitted coefficients: the nuisance block for
    ``fit_null`` (tested effect fixed at its null value), every design
    column for ``fit_full``.  ``W_hat`` are the IRLS weights b''(eta) at
    the fit, which for a canonical link are also the response variances.
    """

    coef: np.ndarray
    mu_hat: np.ndarray
    W_hat: np.ndarray
    deviance: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class InfoBlocks:
    """Partitioned average information n^-1 X'WX.

    ``I11`` is d x d for the tested coordinates, ``I12`` is
    (k-d) x d (nuisance rows, tested columns) and ``I22`` is the
    nuisance block.  ``proj`` is the (k-d) x d projection I22^-1 I12
    (zero rows without nuisance columns), computed by a factorization
    solve, and ``i_star`` the effective information I11 - I12' proj.
    """

    I11: np.ndarray
    I12: np.ndarray
    I22: np.ndarray
    proj: np.ndarray
    i_star: np.ndarray


@dataclass(frozen=True)
class ScoreSet:
    """Per-observation score contributions at the null fit.

    ``nu`` holds the tested columns x_i (y_i - mu_i), row per
    observation; ``nu_nuis`` the nuisance columns.  ``info`` carries the
    information blocks evaluated at the same fit.  This is everything the
    flip tests and the Rao test read from the null model, so one null fit
    serves all of them.
    """

    nu: np.ndarray
    nu_nuis: np.ndarray
    info: InfoBlocks

    def effective_information(self):
        """I*, checked to be invertible before anyone inverts it.

        With k > n columns the information n^-1 X'WX has rank at most n,
        so I* is singular by rank: DesignError naming d, k and n.
        Otherwise I* gets the condition check of the nuisance block.
        """
        n, d = self.nu.shape
        k = d + self.nu_nuis.shape[1]
        if k > n:
            raise DesignError(
                f"the effective information of d={d} tested columns is singular: "
                f"the design has k={k} columns for n={n} observations"
            )
        _check_conditioned(self.info.i_star, "effective information")
        return self.info.i_star


def _irls(X, y, family, offset):
    """IRLS for a canonical-link GLM; returns the Fit.

    Works for zero-column X (nothing to fit: the linear predictor is the
    offset).  Raises NumericalError on non-convergence or when
    step-halving cannot produce a valid mean.
    """
    p = X.shape[1]
    if p == 0:
        eta = offset.astype(float).copy()
        mu = np.asarray(family.b_prime(eta), dtype=float)
        if not family.valid_mean(mu):
            raise NumericalError("offset-only predictor leaves the valid mean range")
        W = np.asarray(family.b_double_prime(eta), dtype=float)
        return Fit(np.zeros(0), mu, W, family.deviance(y, mu), 0, True)

    mu = np.asarray(family.initial_mean(y), dtype=float)
    eta = np.asarray(family.link(mu), dtype=float)
    dev = family.deviance(y, mu)
    coef = None

    for it in range(1, MAX_ITER + 1):
        W = np.asarray(family.b_double_prime(eta), dtype=float)
        z = (eta - offset) + (y - mu) / W
        Wz = W * z
        A = X.T @ (W[:, None] * X)
        rhs = X.T @ Wz
        coef_new = solve_spd(A, rhs)

        base = coef if coef is not None else np.zeros(p)
        step = coef_new - base
        t = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            coef_try = base + t * step
            eta_try = offset + X @ coef_try
            mu_try = np.asarray(family.b_prime(eta_try), dtype=float)
            if family.valid_mean(mu_try) and np.all(np.isfinite(eta_try)):
                dev_try = family.deviance(y, mu_try)
                # fight deviance increases only once a previous iterate
                # exists; after the smallest step, accept what is valid
                no_increase = dev_try <= dev + 1e-10 * (abs(dev) + 1.0)
                if np.isfinite(dev_try) and (
                    coef is None or no_increase or t <= 2.0**-MAX_HALVINGS
                ):
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            raise NumericalError(
                "IRLS step-halving failed: fitted mean left the valid range"
            )

        coef, eta, mu = coef_try, eta_try, mu_try
        dev_old, dev = dev, dev_try
        if abs(dev - dev_old) < DEV_TOL * (abs(dev) + 0.1):
            W = np.asarray(family.b_double_prime(eta), dtype=float)
            return Fit(coef, mu, W, dev, it, True)

    raise NumericalError(f"IRLS did not converge in {MAX_ITER} iterations")


def _response(y, design, family):
    """``y`` as a finite float n-vector that ``family`` accepts as its response."""
    y = finite_array("response", y)
    if y.shape != (design.n,):
        raise DesignError(f"response has shape {y.shape}, expected ({design.n},)")
    family.validate_response(y)
    return y


def fit_null(y, design, family):
    """Maximize the likelihood over the nuisance block under the null.

    The tested effect ``X_tested @ null_value`` is folded into the
    offset, so only the nuisance coefficients (including any intercept)
    are estimated.  At convergence the nuisance score sums vanish.
    """
    y = _response(y, design, family)
    return _irls(design.X_nuisance, y, family, design.fitting_offset)


def fit_full(y, design, family):
    """Maximize the likelihood over all design columns."""
    y = _response(y, design, family)
    if np.linalg.matrix_rank(design.X) < design.k:
        raise DesignError("design matrix is rank deficient for the full fit")
    return _irls(design.X, y, family, design.offset)


def information_blocks(null_fit, design):
    """Partition n^-1 X' W X by (tested, nuisance) and form I*.

    Raises NumericalError when the nuisance block is numerically
    singular (condition estimate above 1e12).
    """
    W = null_fit.W_hat
    n = design.n
    XD = design.X_tested
    Z = design.X_nuisance
    WXD = W[:, None] * XD
    I11 = XD.T @ WXD / n
    I12 = Z.T @ WXD / n
    I22 = Z.T @ (W[:, None] * Z) / n
    _check_conditioned(I22, "nuisance information block")
    proj = solve_spd(I22, I12)
    return InfoBlocks(I11=I11, I12=I12, I22=I22, proj=proj, i_star=I11 - I12.T @ proj)


def score_contributions(y, null_fit, design, family):
    """Per-observation scores for the tested and nuisance coordinates.

    Row i is x_i (y_i - mu_i) restricted to the respective column
    block, evaluated at the null fit (canonical link).
    """
    y = _response(y, design, family)
    resid = y - null_fit.mu_hat
    nu = design.X_tested * resid[:, None]
    nu_nuis = design.X_nuisance * resid[:, None]
    info = information_blocks(null_fit, design)
    return ScoreSet(nu=nu, nu_nuis=nu_nuis, info=info)
