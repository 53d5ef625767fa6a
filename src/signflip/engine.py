"""Flip statistics, decision rules and the sign-flip test itself.

The scalar statistic for flip j is T_j = n^{-1/2} sum_i g_{ji} nu_i;
the quadratic form for a d-dimensional tested parameter is s_j' V s_j
with s_j the d-vector of signed sums and V a caller-chosen positive
semi-definite matrix.  The observed statistic is always T_1 (identity
flip).  Decisions follow the order-statistic rules: a greater test
rejects iff T_1 exceeds the ceil((1-alpha)w)-th order statistic, with
ties broken by value only, which makes discrete-data tests
conservative.  p-values count the identity flip, so they live in
[1/w, 1] and p <= floor(alpha*w)/w agrees with the order-statistic rule
whenever there are no ties.

Signed sums read the bit-packed, byte-major plan through 256-entry
lookup tables, one per plan byte and tested column, walking each byte
row of the plan contiguously, so no dense sign matrix is formed.

Effective scores subtract the information-weighted projection of the
nuisance contributions, which removes the first-order effect of
nuisance estimation on the flipped statistics.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DesignError, NumericalError
from .flips import make_flip_plan
from .glm import fit_null, score_contributions, solve_spd

__all__ = [
    "EffectiveScores",
    "StatVector",
    "TestResult",
    "effective_contributions",
    "flip_statistics_scalar",
    "flip_statistics_quadratic",
    "decide",
    "p_value",
    "flip_test",
]

ALTERNATIVES = ("greater", "less", "two-sided-abs", "two-sided-tails")
_CHUNK = 1 << 14  # flips summed per block


@dataclass(frozen=True)
class EffectiveScores:
    """Effective score contributions and the projector that built them.

    ``nu_star = nu - nu_nuis @ projector.T`` exactly; the column sums of
    ``nu_star`` equal those of ``nu`` when the nuisance estimate is the
    null MLE (the projected term then sums to zero).
    """

    nu_star: np.ndarray   # (n, d)
    projector: np.ndarray  # (d, k-d): I12' I22^-1


@dataclass(frozen=True)
class StatVector:
    """Flip statistics T_1..T_w; entry 0 is the observed statistic."""

    values: np.ndarray
    kind: str  # "scalar" or "quadratic"
    vhat_tag: str = None


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    reject: bool
    alpha: float
    alternative: str
    method: str
    w: int = None
    seed: int = None


def effective_contributions(score_set):
    """Project the nuisance contributions out of the tested scores."""
    info = score_set.info
    if info.I22.shape[0] == 0:
        d = score_set.nu.shape[1]
        return EffectiveScores(
            nu_star=score_set.nu.copy(), projector=np.zeros((d, 0))
        )
    proj_t = solve_spd(info.I22, info.I12)  # (k-d, d) = I22^-1 I12
    nu_star = score_set.nu - score_set.nu_nuis @ proj_t
    return EffectiveScores(nu_star=nu_star, projector=proj_t.T)


def _byte_tables(contribs):
    """Signed partial sums of the contributions, per byte of a packed plan.

    Returns ``tab`` of shape (ceil(n/8), d, 256) with
    ``tab[b, c, v] = sum_k (-1)^bit_k(v) * contribs[8b + k, c]``, the
    contributions past n taken as zero.  Each nibble's 16 sums are built
    by sign doubling, adding bit k's term to every entry in the same
    order, and a byte's entry adds its two nibble sums.  Complementary
    bytes therefore get exactly negated entries, and the complement of a
    flip gets exactly the negated sum.
    """
    n, d = contribs.shape
    nb = -(-n // 8)
    padded = np.zeros((nb * 8, d))
    padded[:n] = contribs
    # terms[h, k] holds bit 4h + k's contribution for every byte and column
    terms = padded.reshape(nb, 2, 4, d).transpose(1, 2, 0, 3).reshape(2, 4, nb * d)
    nib = np.empty((16, 2, nb * d))
    nib[0] = terms[:, 0]
    np.negative(terms[:, 0], out=nib[1])
    for k in range(1, 4):
        h = 1 << k
        np.subtract(nib[:h], terms[:, k], out=nib[h : 2 * h])
        nib[:h] += terms[:, k]
    tab = np.empty((nb * d, 16, 16))  # [high, low] -> v = 16 high + low
    tab[...] = nib[:, 1].T[:, :, None]
    tab += nib[:, 0].T[:, None, :]
    return tab.reshape(nb, d, 256)


def _signed_sums(signs, contribs):
    """(w, d) signed column sums for a byte-major packed plan.

    Each flip adds its bytes' table entries in byte order, one block of
    flips at a time, reading every byte row of the block as one
    contiguous run; a flip's sum never depends on the others, so the
    result is bit-identical no matter how the flips are partitioned.
    The result is the transposed view of a (d, w) array.
    """
    tab = _byte_tables(contribs)
    nb, w = signs.shape
    out = np.empty((contribs.shape[1], w))
    for start in range(0, w, _CHUNK):
        block = signs[:, start : start + _CHUNK]
        acc = out[:, start : start + _CHUNK]
        np.take(tab[0], block[0], axis=1, out=acc)
        for b in range(1, nb):
            acc += tab[b].take(block[b], axis=1)
    return out.T


def flip_statistics_scalar(contribs, plan):
    """T_j = n^{-1/2} sum_i g_ji * contribs[i] for every flip j.

    g_j is the +-1 sign vector of flip j, row j of ``plan.dense()``.
    """
    contribs = np.asarray(contribs, dtype=float).reshape(-1)
    if contribs.shape[0] != plan.n:
        raise DesignError(
            f"contributions have length {contribs.shape[0]}, plan has n={plan.n}"
        )
    values = _signed_sums(plan.signs, contribs[:, None])[:, 0] / math.sqrt(plan.n)
    return StatVector(values=values, kind="scalar")


def flip_statistics_quadratic(contribs, vhat, plan, vhat_tag="custom"):
    """Quadratic-form statistics s_j' vhat s_j for a d-column block.

    ``vhat`` must be symmetric positive semi-definite (checked by a
    spectral factorization); the statistics are then non-negative.
    """
    contribs = np.asarray(contribs, dtype=float)
    if contribs.ndim == 1:
        contribs = contribs[:, None]
    if contribs.shape[0] != plan.n:
        raise DesignError(
            f"contributions have {contribs.shape[0]} rows, plan has n={plan.n}"
        )
    d = contribs.shape[1]
    vhat = np.asarray(vhat, dtype=float)
    if vhat.shape != (d, d):
        raise DesignError(f"vhat has shape {vhat.shape}, expected ({d}, {d})")
    scale = np.abs(vhat).max() if vhat.size else 1.0
    if not np.allclose(vhat, vhat.T, atol=1e-10 * max(scale, 1.0)):
        raise NumericalError("vhat is not symmetric")
    evals = np.linalg.eigvalsh(vhat)
    if evals[0] < -1e-10 * max(scale, 1.0):
        raise NumericalError("vhat is not positive semi-definite")
    s = _signed_sums(plan.signs, contribs) / math.sqrt(plan.n)
    values = np.einsum("wd,de,we->w", s, vhat, s)
    np.maximum(values, 0.0, out=values)  # guard off sub-eps negatives
    return StatVector(values=values, kind="quadratic", vhat_tag=vhat_tag)


def _floor_multiple(alpha, w):
    """floor(alpha*w) robust to representation error in alpha*w."""
    return int(math.floor(alpha * w + 1e-9))


def _count(vals, alternative):
    """Number of flips at least as extreme as T_1, T_1 included."""
    if alternative == "greater":
        return int(np.count_nonzero(vals >= vals[0]))
    if alternative == "less":
        return int(np.count_nonzero(vals <= vals[0]))
    if alternative == "two-sided-abs":
        return int(np.count_nonzero(np.abs(vals) >= abs(vals[0])))
    raise DesignError(
        f"p_value is defined for greater/less/two-sided-abs, got {alternative!r}"
    )


def p_value(stat_vector, alternative):
    """Resampling p-value including the identity flip (so p >= 1/w).

    greater counts T_j >= T_1; less counts T_j <= T_1; two-sided-abs
    counts |T_j| >= |T_1|.
    """
    vals = stat_vector.values
    return _count(vals, alternative) / vals.shape[0]


def decide(stat_vector, alpha, alternative, alpha1=None, alpha2=None,
           method="flip"):
    """Apply the order-statistic decision rule and package a TestResult.

    greater rejects iff T_1 > T_(ceil((1-alpha)w)); less rejects iff
    T_1 < T_(floor(alpha*w)+1); two-sided-tails takes the union of both
    one-sided rules at alpha1/alpha2 (each must be a multiple of 1/w;
    give both or neither, the default being floor((alpha/2)w)/w each);
    two-sided-abs rejects iff its p-value is at most alpha.  Order
    statistics run over all w values including T_1.  With
    m = floor(alpha*w), T_1 > T_(w-m) holds exactly
    when at most m flips have T_j >= T_1, and T_1 < T_(m+1) exactly when
    at most m have T_j <= T_1, ties included; the rules are applied as
    these counts, so nothing is sorted.
    """
    if not 0.0 < alpha < 1.0:
        raise DesignError("alpha must be in (0, 1)")
    vals = stat_vector.values
    w = vals.shape[0]
    t1 = float(vals[0])

    if alternative in ("greater", "less"):
        count = _count(vals, alternative)
        reject = count <= _floor_multiple(alpha, w)
        p = count / w
    elif alternative == "two-sided-abs":
        p = p_value(stat_vector, "two-sided-abs")
        reject = p <= alpha
    elif alternative == "two-sided-tails":
        if (alpha1 is None) != (alpha2 is None):
            raise DesignError(
                "two-sided-tails needs both alpha1 and alpha2, or neither"
            )
        if alpha1 is None:
            half = _floor_multiple(alpha / 2.0, w)
            alpha1 = alpha2 = half / w
        m1 = alpha1 * w
        m2 = alpha2 * w
        if abs(m1 - round(m1)) > 1e-9 or abs(m2 - round(m2)) > 1e-9:
            raise DesignError(
                "two-sided-tails needs alpha1 and alpha2 to be multiples of 1/w"
            )
        below = _count(vals, "less")
        above = _count(vals, "greater")
        reject = below <= round(m1) or above <= round(m2)
        # reported p combines both tail counts (not part of the decision rule)
        p = min(1.0, below / w + above / w)
    else:
        raise DesignError(
            f"unknown alternative {alternative!r}; choose from {ALTERNATIVES}"
        )

    return TestResult(
        statistic=t1,
        p_value=float(p),
        reject=bool(reject),
        alpha=float(alpha),
        alternative=alternative,
        method=method,
    )


def flip_test(y, design, family, method="effective", alternative="two-sided-abs",
              alpha=0.05, w=5000, mode="with-replacement", seed=0,
              vhat="identity", alpha1=None, alpha2=None):
    """Sign-flip score test of H0: beta = null_value.

    Fits the null model, forms per-observation score contributions
    (projected to effective scores unless ``method="basic"``), flips
    them w times and applies the decision rule.  A single tested column
    uses the scalar statistic; d > 1 uses the quadratic form with
    ``vhat`` either ``"identity"`` or ``"inv-effective-info"``.
    """
    if method not in ("basic", "effective"):
        raise DesignError(f"method must be 'basic' or 'effective', got {method!r}")
    null_fit = fit_null(y, design, family)
    scores = score_contributions(y, null_fit, design, family)

    if method == "effective":
        contribs = effective_contributions(scores).nu_star
    else:
        contribs = scores.nu

    plan = make_flip_plan(design.n, w, mode=mode, seed=seed)
    if design.d == 1:
        stats = flip_statistics_scalar(contribs[:, 0], plan)
    else:
        if vhat == "identity":
            vmat = np.eye(design.d)
        elif vhat == "inv-effective-info":
            vmat = solve_spd(scores.info.i_star, np.eye(design.d))
            vmat = 0.5 * (vmat + vmat.T)
        else:
            raise DesignError(
                f"vhat must be 'identity' or 'inv-effective-info', got {vhat!r}"
            )
        stats = flip_statistics_quadratic(contribs, vmat, plan, vhat_tag=vhat)

    result = decide(stats, alpha, alternative, alpha1=alpha1, alpha2=alpha2,
                    method=f"flip-{method}")
    return replace(result, w=w, seed=int(seed))
