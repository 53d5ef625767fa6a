"""Constrained GLM fitting, score contributions and Fisher information.

The null fit runs IRLS on the nuisance columns only, with the
hypothesized tested effect absorbed into the offset; the full fit runs
the same IRLS over all columns.  Convergence uses the relative deviance
criterion |dev - dev_old| < tol * (|dev| + 0.1) with step-halving on
deviance increases, invalid means or deviances that are not finite.  A
fit runs with numpy's overflow and invalid-value warnings off: a trial
step whose mean or deviance overflows is one of these, and its checks
reject it.  ``information_blocks`` refuses a tested column in the span
of the nuisance columns with DesignError, or with NumericalError where
only the fit's weights put it there.  Every symmetric matrix that is
solved is first checked by numpy.linalg's Cholesky factorization, and a
quadratic form in an inverse, B A^-1 B', is a sum of squares of the
rows that ``whiten`` returns by solving with the Cholesky factor.  A
matrix that is not positive definite or not finite, or a solve that
meets an exact zero pivot, raises NumericalError; explicit matrix
inverses are never formed.  A covariance that a test inverts is checked
by ``check_conditioned`` where it is formed.
"""

from dataclasses import dataclass, replace

import numpy as np

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
    "check_conditioned",
    "check_response",
]

MAX_ITER = 100
DEV_TOL = 1e-8
MAX_HALVINGS = 20
COND_LIMIT = 1e12


def cholesky_lower(A):
    """Lower Cholesky factor of A; NumericalError unless finite and positive definite."""
    if not np.isfinite(A).all():
        raise NumericalError("matrix is not positive definite: it holds a NaN or an infinity")
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise NumericalError("matrix is not positive definite") from None


def solve_spd(A, B):
    """Solve A X = B for symmetric positive-definite A.

    ``cholesky_lower`` checks A, then one ``numpy.linalg.solve`` solves
    it.  An empty A gives zeros of B's shape.  Raises NumericalError when
    A is not positive definite or A or B not finite.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.size == 0:
        return np.zeros(B.shape)
    if not np.isfinite(B).all():
        raise NumericalError("right-hand side holds a NaN or an infinity")
    cholesky_lower(A)
    return _solve(A, B)


def whiten(A, B):
    """Rows of B times L^-T, where A = L L' by Cholesky.

    Row i of the result has squared norm B[i] A^-1 B[i]', so a quadratic
    form in A^-1 becomes a sum of squares.  L comes from
    ``cholesky_lower`` and X from one ``numpy.linalg.solve`` of
    L X' = B'.  X is returned in row order, as B is given: the flip
    engine reads it in blocks of rows.  Raises NumericalError when A is
    not positive definite or A or B not finite.
    """
    B = np.asarray(B, dtype=float)
    if not np.isfinite(B).all():
        raise NumericalError("right-hand side holds a NaN or an infinity")
    return np.ascontiguousarray(_solve(cholesky_lower(A), B.T).T)


def _solve(A, B):
    """``numpy.linalg.solve``; NumericalError where its LU solve meets a zero pivot.

    ``cholesky_lower`` can pass a rank-deficient matrix on rounding.
    """
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        raise NumericalError("matrix is not positive definite: it is singular") from None


def check_conditioned(M, what):
    """Raise NumericalError unless symmetric M is finite and positive definite.

    Its condition number must also be at most COND_LIMIT.  An empty M
    passes.
    """
    if not np.isfinite(M).all():
        raise NumericalError(f"{what} holds a NaN or an infinity")
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
        check_conditioned(self.info.i_star, "effective information")
        return self.info.i_star


@np.errstate(over="ignore", invalid="ignore")
def _irls(X, y, family, offset):
    """IRLS for a canonical-link GLM; returns the Fit.

    Works for zero-column X (nothing to fit: the linear predictor is the
    offset).  Raises NumericalError on non-convergence or when
    step-halving cannot produce a valid mean and a finite deviance.  A
    trial step may overflow or leave the mean's domain; numpy stays
    silent, and the validity checks below reject the step instead.
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
            valid = family.valid_mean(mu_try) and np.isfinite(eta_try).all()
            if valid:
                dev_try = family.deviance(y, mu_try)
                # fight deviance increases only once a previous iterate
                # exists; after the smallest step, accept what is valid
                no_increase = dev_try <= dev + 1e-10 * (abs(dev) + 1.0)
                if abs(dev_try) < np.inf and (
                    coef is None or no_increase or t <= 2.0**-MAX_HALVINGS
                ):
                    accepted = True
                    break
            t *= 0.5
        if not accepted:  # the smallest step's mean is invalid or its deviance not finite
            raise NumericalError("IRLS step-halving failed: " + (
                "the deviance is not finite" if valid else "fitted mean left the valid range"))

        coef, eta, mu = coef_try, eta_try, mu_try
        dev_old, dev = dev, dev_try
        if abs(dev - dev_old) < DEV_TOL * (abs(dev) + 0.1):
            W = np.asarray(family.b_double_prime(eta), dtype=float)
            return Fit(coef, mu, W, dev, it, True)

    raise NumericalError(f"IRLS did not converge in {MAX_ITER} iterations")


def check_response(y, design, family):
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
    y = check_response(y, design, family)
    return _irls(design.X_nuisance, y, family, design.fitting_offset)


def fit_full(y, design, family):
    """Maximize the likelihood over all design columns."""
    y = check_response(y, design, family)
    if np.linalg.matrix_rank(design.X) < design.k:
        raise DesignError("design matrix is rank deficient for the full fit")
    return _irls(design.X, y, family, design.offset)


def information_blocks(null_fit, design):
    """Partition n^-1 X' W X by (tested, nuisance) and form I*.

    Raises NumericalError when the nuisance block is numerically
    singular (condition estimate above 1e12).  A tested column whose
    diagonal entry of I* is at most that of I11 / COND_LIMIT has
    effective scores of rounding noise, and is named in a DesignError
    when it lies in the span of the nuisance columns under unit weights
    too, and in a NumericalError when only the fit's weights put it there
    (a fit whose mean vanishes at some observations, say).
    """
    W = null_fit.W_hat
    n = design.n
    XD = design.X_tested
    WXD = W[:, None] * XD
    I11 = XD.T @ WXD / n
    del XD  # each (n, .) copy is held only while it is read
    Z = design.X_nuisance
    I12 = Z.T @ WXD / n
    del WXD
    I22 = Z.T @ (W[:, None] * Z) / n
    check_conditioned(I22, "nuisance information block")
    proj = solve_spd(I22, I12)
    i_star = I11 - I12.T @ proj
    spanned = i_star.diagonal() <= I11.diagonal() / COND_LIMIT
    if spanned.any():
        labels = dict(enumerate(design.columns))
        names = [labels.get(j, j) for j, s in zip(design.tested, spanned) if s]
        if np.any(W != 1.0):  # the design's fault, as unit weights show, or the fit's
            information_blocks(replace(null_fit, W_hat=np.ones(n)), design)
            raise NumericalError(f"the null fit's weights leave tested columns {names} "
                                 "no effective information")
        raise DesignError(f"tested columns {names} lie in the span of the nuisance "
                          "columns: their effective information is zero")
    return InfoBlocks(I11=I11, I12=I12, I22=I22, proj=proj, i_star=i_star)


def score_contributions(y, null_fit, design, family):
    """Per-observation scores for the tested and nuisance coordinates.

    Row i is x_i (y_i - mu_i) restricted to the respective column
    block, evaluated at the null fit (canonical link).
    """
    y = check_response(y, design, family)
    info = information_blocks(null_fit, design)  # its copies freed before ours
    resid = (y - null_fit.mu_hat)[:, None]
    # each block is a fresh fancy-index copy of X, so it is scaled in place
    nu = design.X_tested
    nu *= resid
    nu_nuis = design.X_nuisance
    nu_nuis *= resid
    return ScoreSet(nu=nu, nu_nuis=nu_nuis, info=info)
