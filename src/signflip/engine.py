"""Flip statistics, decision rules and the sign-flip test itself.

The scalar statistic for flip j is T_j = n^{-1/2} sum_i g_{ji} nu_i;
the quadratic form for a d-dimensional tested parameter is
T_j = ||s_j||^2 with s_j the d-vector of signed sums divided by
sqrt(n).  A weight matrix V = L L' enters through its factor: the
contributions are multiplied by L before they are flipped, so
s_j' V s_j is a plain sum of squares and a complementary flip still
gives exactly the same statistic.  The statistics are plain (w,) float
arrays, and the observed statistic T_1 (identity flip) comes first.
Decisions follow the order-statistic rules: a greater test rejects iff
T_1 exceeds the ceil((1-alpha)w)-th order statistic, with ties broken
by value only, which makes discrete-data tests conservative.  p-values
count the identity flip, so they live in [1/w, 1] and
p <= floor(alpha*w)/w agrees with the order-statistic rule whenever
there are no ties.

Signed sums read the bit-packed, byte-major plan through one 256-row
lookup table per plan byte, whose row v holds the signed sums of all
tested columns for byte value v, walking each byte row of the plan
contiguously: each plan byte of a flip costs one copy of a whole table
row, and no dense sign matrix is formed.  The tables are built in
blocks of at most 32 plan bytes, so their memory does not grow with n;
the (w, d) signed sums, with d = 3 padded to 4 columns, are the only
array that grows with w, and they are scaled in place (and squared in
place for a quadratic form) and counted without a copy.  A call with few
tested columns therefore peaks at about the plan plus the statistics.  Each flip adds its bytes'
entries in ascending byte order however the blocks fall, so the
statistics are bit-identical to those of one whole table, and a
complementary flip still gives exactly the negated sums.  A quadratic
form adds its squared columns one at a time, in column order.

Effective scores subtract the information-weighted projection of the
nuisance contributions, which removes the first-order effect of
nuisance estimation on the flipped statistics.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DesignError
from .flips import make_flip_plan
from .glm import fit_null, score_contributions, whiten

__all__ = [
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
_BYTE_BLOCK = 32  # plan bytes per block of byte tables


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
    """Effective score contributions, the (n, d) array nu - nu_nuis proj.

    The nuisance contributions are projected out of the tested ones; the
    column sums equal those of ``nu`` when the nuisance estimate is the
    null MLE (the projected term then sums to zero).
    """
    return score_set.nu - score_set.nu_nuis @ score_set.info.proj


def _byte_tables(contribs, width):
    """Signed partial sums of the contributions, per byte of a packed plan.

    Returns ``tab`` of shape (ceil(n/8), 256, width) with
    ``tab[b, v, c] = sum_k (-1)^bit_k(v) * contribs[8b + k, c]``, the
    contributions past n and the columns past d taken as zero, so the
    columns of an entry are one contiguous row.  Each nibble's 16 sums are
    built by sign doubling, adding bit k's term to every entry in the
    same order, and a byte's entry adds its two nibble sums.
    Complementary bytes therefore get exactly negated entries, and the
    complement of a flip gets exactly the negated sum.
    """
    n, d = contribs.shape
    nb = -(-n // 8)
    padded = np.zeros((nb * 8, width))
    padded[:n, :d] = contribs
    # terms[k, h] holds bit 4h + k's contribution for every byte and column
    terms = padded.reshape(nb, 2, 4, width).transpose(2, 1, 0, 3).copy()
    nib = np.empty((16, 2, nb, width))
    nib[0] = terms[0]
    np.negative(terms[0], out=nib[1])
    for k in range(1, 4):
        h = 1 << k
        np.subtract(nib[:h], terms[k], out=nib[h : 2 * h])
        nib[:h] += terms[k]
    nib = nib.transpose(1, 2, 0, 3).copy()  # [half, byte, nibble value, column]
    # row v = 16 high + low: each high-nibble sum serves 16 consecutive rows
    tab = np.repeat(nib[1], 16, axis=1)
    tab.reshape(nb, 16, 16 * width)[...] += nib[0].reshape(nb, 1, 16 * width)
    return tab


def _signed_sums(signs, contribs):
    """(w, width) signed column sums for a byte-major packed plan.

    Column c < d holds flip j's sum of ``g_ji * contribs[i, c]``, and the
    columns past d are zero: width is d, except that d = 3 is padded to
    4, because numpy's take copies rows of 1, 2 or 4 doubles with a
    fixed-width loop and a 3-double row with a memmove.  Each plan byte
    then costs one gather of whole table rows for all columns at once.
    The byte tables are built ``_BYTE_BLOCK`` plan bytes at a time, so
    the tables stay within O(_BYTE_BLOCK * 256 * width) and the gathered
    rows within O(_CHUNK * width) whatever n and w are, and the output is
    the only array that grows with w.  A block's entries are those of
    one whole table, since each depends only on the 8 rows of its byte.
    Each flip adds its bytes' entries in ascending byte order, block
    after block, one block of flips at a time, so the result is
    bit-identical however the bytes and flips are partitioned.
    """
    nb, w = signs.shape
    d = contribs.shape[1]
    width = 4 if d == 3 else d
    out = np.empty((w, width))
    for b0 in range(0, nb, _BYTE_BLOCK):
        tab = _byte_tables(contribs[8 * b0 : 8 * (b0 + _BYTE_BLOCK)], width)
        for start in range(0, w, _CHUNK):
            acc = out[start : start + _CHUNK]
            rows = zip(tab, signs[b0 : b0 + _BYTE_BLOCK, start : start + _CHUNK])
            if b0 == 0:  # the plan's first byte starts every sum
                table, idx = next(rows)
                acc[...] = table.take(idx, axis=0)
            for table, idx in rows:
                acc += table.take(idx, axis=0)
    return out


def flip_statistics_scalar(contribs, plan):
    """T_j = n^{-1/2} sum_i g_ji * contribs[i] for every flip j.

    g_j is the +-1 sign vector of flip j, row j of ``plan.dense()``.
    Returns the (w,) array; entry 0 is the observed statistic.
    """
    contribs = np.asarray(contribs, dtype=float).reshape(-1)
    if contribs.shape[0] != plan.n:
        raise DesignError(
            f"contributions have length {contribs.shape[0]}, plan has n={plan.n}"
        )
    values = _signed_sums(plan.signs, contribs[:, None])[:, 0]
    values /= math.sqrt(plan.n)
    return values


def flip_statistics_quadratic(contribs, plan):
    """T_j = ||s_j||^2 for a d-column block, s_j = n^{-1/2} sum_i g_ji contribs[i].

    This is the quadratic form s_j' I s_j.  For a weight matrix V, apply
    a factor L of V = L L' as ``contribs @ L`` first; ``glm.whiten``
    gives such contributions for V = A^-1.  Returns the (w,) array;
    entry 0 is the observed statistic.
    """
    contribs = np.asarray(contribs, dtype=float)
    if contribs.ndim == 1:
        contribs = contribs[:, None]
    if contribs.ndim != 2 or contribs.shape[1] == 0:
        raise DesignError(
            f"contributions have shape {contribs.shape}; the quadratic form "
            "needs an (n, d) array with d >= 1"
        )
    n, d = contribs.shape
    if n != plan.n:
        raise DesignError(f"contributions have {n} rows, plan has n={plan.n}")
    s = _signed_sums(plan.signs, contribs)
    s /= math.sqrt(plan.n)
    s *= s
    # column by column, in column order: a pairwise sum over each row, as
    # a reduction or an einsum may take, rounds differently
    stat = s[:, 0] if d == 1 else s[:, 0] + s[:, 1]
    for c in range(2, d):
        stat += s[:, c]
    return stat


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
        # |T_j| >= a as T_j >= a or T_j <= -a, with no |T| copy; at a == 0
        # both sides hold a zero, so the lower side then counts T_j < 0
        a = abs(vals[0])
        below = vals < -a if a == 0 else vals <= -a
        return int(np.count_nonzero(vals >= a)) + int(np.count_nonzero(below))
    raise DesignError(
        f"p_value is defined for greater/less/two-sided-abs, got {alternative!r}"
    )


def p_value(values, alternative):
    """Resampling p-value including the identity flip (so p >= 1/w).

    greater counts T_j >= T_1; less counts T_j <= T_1; two-sided-abs
    counts |T_j| >= |T_1|.
    """
    return _count(values, alternative) / values.shape[0]


def decide(values, alpha, alternative, alpha1=None, alpha2=None,
           method="flip"):
    """Apply the order-statistic decision rule and package a TestResult.

    ``values`` holds T_1..T_w, the observed statistic first.
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
    w = values.shape[0]
    t1 = float(values[0])

    if alternative in ("greater", "less"):
        count = _count(values, alternative)
        reject = count <= _floor_multiple(alpha, w)
        p = count / w
    elif alternative == "two-sided-abs":
        p = p_value(values, "two-sided-abs")
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
        below = _count(values, "less")
        above = _count(values, "greater")
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
              vhat="identity"):
    """Sign-flip score test of H0: beta = null_value.

    Fits the null model, forms per-observation score contributions
    (projected to effective scores unless ``method="basic"``), flips
    them w times and applies the decision rule.  A single tested column
    uses the scalar statistic; d > 1 uses the quadratic form with
    ``vhat`` either ``"identity"`` or ``"inv-effective-info"``, the
    latter by whitening the contributions with the effective
    information I* so that T_j = s_j' I*^-1 s_j.
    """
    if method not in ("basic", "effective"):
        raise DesignError(f"method must be 'basic' or 'effective', got {method!r}")
    if vhat not in ("identity", "inv-effective-info"):
        raise DesignError(
            f"vhat must be 'identity' or 'inv-effective-info', got {vhat!r}"
        )
    null_fit = fit_null(y, design, family)
    scores = score_contributions(y, null_fit, design, family)

    if method == "effective":
        contribs = effective_contributions(scores)
    else:
        contribs = scores.nu

    if design.d == 1:
        kernel, contribs = flip_statistics_scalar, contribs[:, 0]
    else:
        kernel = flip_statistics_quadratic
        if vhat == "inv-effective-info":
            contribs = whiten(scores.effective_information(), contribs)
    # no name holds the plan, so it is freed before decide runs
    stats = kernel(contribs, make_flip_plan(design.n, w, mode=mode, seed=seed))

    result = decide(stats, alpha, alternative, method=f"flip-{method}")
    return replace(result, w=w, seed=int(seed))
