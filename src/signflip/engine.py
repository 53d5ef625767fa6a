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
tested columns for byte value v: each plan byte of a flip costs one
copy of a whole table row, and no dense sign matrix is formed.  The
tables are built in blocks of at most 32 plan bytes, and the flips are
summed, scaled and counted in blocks of 16384, fewer when d > 4 so that
a block's sums stay within the bytes of 16384 rows of four.
``flip_test`` draws a with-replacement plan one block of flips at a
time, just before it is summed, so it holds one block of the plan and
one block of sums whatever n and w are; a plan of another mode is made
whole and read in slices.  A plan of one table block (n <= 256) builds
it once, a longer one builds each table block again for each block of
flips.  Each flip adds its bytes' entries in ascending byte order
however the blocks fall, so the statistics are bit-identical to those
of one whole table, a complementary flip still gives exactly the
negated sums, and a quadratic form adds its squared columns in column
order.

Effective scores subtract the information-weighted projection of the
nuisance contributions, which removes the first-order effect of
nuisance estimation on the flipped statistics.
"""

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .exceptions import DesignError, check_alpha, finite_array
from .flips import MODES, check_plan, make_flip_plan, with_replacement_blocks
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
_CHUNK = 1 << 14  # flips summed per block, at most 4 columns wide
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


def _width(d):
    """Columns per row of signed sums: d, with d = 3 padded to 4."""
    return 4 if d == 3 else d


def _block_flips(width):
    """Flips per block: ``_CHUNK``, or fewer for rows wider than 4, so
    that a block's sums take no more bytes than ``_CHUNK`` rows of 4."""
    budget = 8 * 4 * _CHUNK
    return max(1, min(_CHUNK, budget // (8 * width)))


def _signed_sums(blocks, contribs):
    """Yield (m, width) signed column sums for each (ceil(n/8), m) plan block.

    Column c < d holds flip j's sum of ``g_ji * contribs[i, c]``, and the
    columns past d are zero: width is d, except that d = 3 is padded to
    4, because numpy's take copies rows of 1, 2 or 4 doubles with a
    fixed-width loop and a 3-double row with a memmove; each plan byte
    costs one gather of whole rows.  ``blocks`` holds consecutive blocks
    of flips, the first as long as any; each block's sums overwrite the
    last's, so nothing grows with w.  The byte tables are read
    ``_BYTE_BLOCK`` plan bytes at a time, so they do not grow with n: a
    plan of one table block (n <= 256) builds it once, a longer plan
    builds every table block again for each block of flips.  Each entry
    depends only on the 8 rows of its byte, and each flip adds its bytes'
    entries in ascending byte order, so the sums are bit-identical
    however they are partitioned.
    """
    n, d = contribs.shape
    nb = -(-n // 8)
    width = _width(d)
    tab = _byte_tables(contribs[: 8 * _BYTE_BLOCK], width)
    out = None
    for i, signs in enumerate(blocks):
        if out is None:  # not on top of the table build
            out = np.empty((signs.shape[1], width))
        acc = out[: signs.shape[1]]
        for b0 in range(0, nb, _BYTE_BLOCK):
            if nb > _BYTE_BLOCK and (i or b0):
                del tab  # not held while the next is built
                tab = _byte_tables(contribs[8 * b0 : 8 * (b0 + _BYTE_BLOCK)], width)
            for k, idx in enumerate(signs[b0 : b0 + _BYTE_BLOCK]):
                if b0 == k == 0:  # the plan's first byte starts every sum
                    acc[...] = tab[0].take(idx, axis=0)
                else:
                    acc += tab[k].take(idx, axis=0)
        yield acc


def _statistics(contribs, n, blocks, quadratic):
    """The scalar or quadratic statistics of each block of flips.

    ``blocks(m)`` yields the consecutive (ceil(n/8), <= m) blocks of a
    plan of n observations, as ``FlipPlan.blocks`` does.
    """
    contribs = finite_array("contributions", contribs)
    shape = contribs.shape
    if contribs.ndim == 1:
        contribs = contribs[:, None]
    if (contribs.ndim != 2 or contribs.shape[1] == 0
            or not quadratic and contribs.shape[1] > 1):
        need = ("the quadratic form needs an (n, d) array with d >= 1" if quadratic
                else "the scalar statistic needs an (n,) or (n, 1) array")
        raise DesignError(f"contributions have shape {shape}; {need}")
    d = contribs.shape[1]
    if contribs.shape[0] != n:
        raise DesignError(f"contributions have {contribs.shape[0]} rows, plan has n={n}")
    root_n = math.sqrt(n)

    def statistic(s):
        s /= root_n
        if not quadratic:
            return s[:, 0]
        s *= s
        # in column order: a pairwise sum (a reduction) rounds differently
        stat = s[:, 0] + s[:, 1] if d > 1 else s[:, 0]
        for c in range(2, d):
            stat += s[:, c]
        return stat

    size = _block_flips(_width(d))
    return map(statistic, _signed_sums(blocks(size), contribs))


def _collect(blocks, w):
    """The (w,) statistics from their consecutive blocks, T_1 first."""
    first = next(blocks)
    if first.shape[0] == w:
        return first
    values, start = np.empty(w), first.shape[0]
    values[:start] = first
    for t in blocks:
        values[start : start + t.shape[0]] = t
        start += t.shape[0]
    return values


def flip_statistics_scalar(contribs, plan):
    """T_j = n^{-1/2} sum_i g_ji * contribs[i] for every flip j.

    g_j is the +-1 sign vector of flip j, row j of ``plan.dense()``, and
    ``contribs`` has shape (n,) or (n, 1).  Returns the (w,) array;
    entry 0 is the observed statistic.
    """
    return _collect(_statistics(contribs, plan.n, plan.blocks, quadratic=False), plan.w)


def flip_statistics_quadratic(contribs, plan):
    """T_j = ||s_j||^2 for a d-column block, s_j = n^{-1/2} sum_i g_ji contribs[i].

    This is the quadratic form s_j' I s_j.  For a weight matrix V, apply
    a factor L of V = L L' as ``contribs @ L`` first; ``glm.whiten``
    gives such contributions for V = A^-1.  Returns the (w,) array;
    entry 0 is the observed statistic.
    """
    return _collect(_statistics(contribs, plan.n, plan.blocks, quadratic=True), plan.w)


def _floor_multiple(alpha, w):
    """floor(alpha*w) robust to representation error in alpha*w."""
    return int(math.floor(alpha * w + 1e-9))


def _count(vals, t1, alternative):
    """Number of flips in ``vals`` at least as extreme as T_1 = t1."""
    if alternative == "greater":
        return int(np.count_nonzero(vals >= t1))
    if alternative == "less":
        return int(np.count_nonzero(vals <= t1))
    if alternative == "two-sided-abs":
        # |T_j| >= a as T_j >= a or T_j <= -a, with no |T| copy; at a == 0
        # both sides hold a zero, so the lower side then counts T_j < 0
        a = abs(t1)
        below = vals < -a if a == 0 else vals <= -a
        return int(np.count_nonzero(vals >= a)) + int(np.count_nonzero(below))
    raise DesignError(
        f"p_value is defined for greater/less/two-sided-abs, got {alternative!r}"
    )


def _check_values(values):
    """Refuse statistics that are not a non-empty 1-d array free of NaN."""
    # floats or signed integers: -|T_1| wraps if unsigned and fails if boolean
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "if"
            and values.ndim == 1 and values.size):
        what = (f"a {values.dtype} array of shape {values.shape}"
                if isinstance(values, np.ndarray) else type(values).__name__)
        raise DesignError("statistics must be a non-empty 1-d float or signed integer "
                          f"array, got {what}")
    if values.dtype.kind == "f" and np.isnan(values).any():
        raise DesignError("statistics hold NaN")


def p_value(values, alternative):
    """Resampling p-value including the identity flip (so p >= 1/w).

    greater counts T_j >= T_1; less counts T_j <= T_1; two-sided-abs
    counts |T_j| >= |T_1|.  ``values`` is a non-empty 1-d array without
    NaN; an infinity compares as usual.
    """
    _check_values(values)
    return _count(values, values[0], alternative) / values.shape[0]


def _check_rule(alpha, alternative):
    """Refuse an alpha outside (0, 1) or an unknown alternative."""
    check_alpha(alpha)
    if alternative not in ALTERNATIVES:
        raise DesignError(
            f"unknown alternative {alternative!r}; choose from {ALTERNATIVES}"
        )


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
    these counts, so nothing is sorted.  ``values`` is a non-empty 1-d
    array without NaN.
    """
    _check_rule(alpha, alternative)
    _check_values(values)
    return _decide([values], alpha, alternative, alpha1, alpha2, method)


def _decide(blocks, alpha, alternative, alpha1, alpha2, method):
    """``decide`` on consecutive blocks of checked statistics, each counted once."""
    sides = ("less", "greater") if alternative == "two-sided-tails" else (alternative,)
    counts, w = dict.fromkeys(sides, 0), 0
    for vals in blocks:
        if w == 0:
            t1 = float(vals[0])
        w += vals.shape[0]
        for side in sides:
            counts[side] += _count(vals, t1, side)
        del vals  # freed before the next block is summed

    if alternative == "two-sided-tails":
        if (alpha1 is None) != (alpha2 is None):
            raise DesignError(
                "two-sided-tails needs both alpha1 and alpha2, or neither"
            )
        if alpha1 is None:
            alpha1 = alpha2 = _floor_multiple(alpha / 2.0, w) / w
        m1 = finite_array("alpha1", alpha1, ndim=0) * w
        m2 = finite_array("alpha2", alpha2, ndim=0) * w
        if abs(m1 - round(m1)) > 1e-9 or abs(m2 - round(m2)) > 1e-9:
            raise DesignError(
                "two-sided-tails needs alpha1 and alpha2 to be multiples of 1/w"
            )
        below, above = counts["less"], counts["greater"]
        reject = below <= round(m1) or above <= round(m2)
        # reported p combines both tail counts (not part of the decision rule)
        p = min(1.0, below / w + above / w)
    else:
        p = counts[alternative] / w
        reject = (p <= alpha if alternative == "two-sided-abs"
                  else counts[alternative] <= _floor_multiple(alpha, w))

    return TestResult(statistic=t1, p_value=float(p), reject=bool(reject),
                      alpha=float(alpha), alternative=alternative, method=method)


def _contributions(y, design, family, method, vhat):
    """The (n, d) contributions ``flip_test`` flips; the fit is not kept."""
    null_fit = fit_null(y, design, family)
    scores = score_contributions(y, null_fit, design, family)
    contribs = effective_contributions(scores) if method == "effective" else scores.nu
    if design.d > 1 and vhat == "inv-effective-info":
        contribs = whiten(scores.effective_information(), contribs)
    return contribs


def flip_test(y, design, family, method="effective", alternative="two-sided-abs",
              alpha=0.05, w=5000, mode="with-replacement", seed=0,
              vhat="identity"):
    """Sign-flip score test of H0: beta = null_value.

    Fits the null model, forms per-observation score contributions
    (projected to effective scores unless ``method="basic"``), flips them
    w times and applies the decision rule, counting each block of flips
    as it is summed; a with-replacement plan is drawn one block of flips
    at a time, so only that block of it is held.  A single tested column
    uses the scalar statistic; d > 1 uses the quadratic form with
    ``vhat`` either ``"identity"`` or ``"inv-effective-info"``, the
    latter by whitening the contributions with the effective information
    I* so that T_j = s_j' I*^-1 s_j.
    """
    for name, value, allowed in (("method", method, ("basic", "effective")),
                                 ("vhat", vhat, ("identity", "inv-effective-info")),
                                 ("mode", mode, MODES)):
        if value not in allowed:
            raise DesignError(f"{name} must be one of {allowed}, got {value!r}")
    _check_rule(alpha, alternative)
    contribs = _contributions(y, design, family, method, vhat)
    if mode == "with-replacement":  # drawn block by block, never held whole
        blocks = partial(with_replacement_blocks, *check_plan(design.n, w, mode, seed))
    else:  # distinct flips are found in the whole plan
        blocks = make_flip_plan(design.n, w, mode=mode, seed=seed).blocks
    stats = _statistics(contribs, design.n, blocks, quadratic=design.d > 1)
    result = _decide(stats, alpha, alternative, None, None, f"flip-{method}")
    return replace(result, w=w, seed=int(seed))
