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
flips are summed, scaled and counted in blocks of 16384, fewer when
d > 4 so that a block's sums stay within the bytes of 16384 rows of
four.  A block of flips comes in pieces, as ``flips`` cuts them, and
the tables are built in blocks of 32 plan bytes, each at the plan row
where it starts.  A plan of one table block (n <= 256)
builds it once, a longer one builds each table block again for each
block of flips, which holds at least 1024 flips for that reason.  Each
flip adds its bytes' entries in ascending byte order however the
blocks and pieces fall, so the statistics are bit-identical to those
of one whole table, a complementary flip still gives exactly the
negated sums, and a quadratic form adds its squared columns in column
order.

Effective scores subtract the information-weighted projection of the
nuisance contributions, which removes the first-order effect of
nuisance estimation on the flipped statistics.
"""

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (DesignError, NumericalError, check_alpha, finite_array, one_of,
                         real_array)
from .flips import check_plan, make_flip_plan, require_memory, streamed_chunks
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
FLIP_METHODS = ("basic", "effective")
VHATS = ("identity", "inv-effective-info")
_CHUNK = 1 << 14  # flips summed per block, at most 4 columns wide
_BYTE_BLOCK = 32  # plan bytes per block of byte tables
_REBUILT_FLIPS = 1 << 10  # flips per block at least, where tables are rebuilt


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
    out = score_set.nu_nuis @ score_set.info.proj
    return np.subtract(score_set.nu, out, out=out)


def _byte_tables(contribs, width):
    """Signed sums of each plan byte's 8 contributions, per byte value.

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


def _block_flips(width, n):
    """Flips per block: ``_CHUNK``, or fewer for rows wider than 4, so
    that a block's sums take no more bytes than ``_CHUNK`` rows of 4.

    A plan longer than one table block (n > 256) builds its tables again
    for each block of m flips: 256 rows per plan byte against the m rows
    it gathers, a rebuild share of about 256/m.  Its blocks therefore
    hold at least ``_REBUILT_FLIPS`` flips, which keeps that share at a
    quarter or less.
    """
    m = 8 * 4 * _CHUNK // (8 * width)
    if n > 8 * _BYTE_BLOCK:
        m = max(m, _REBUILT_FLIPS)
    return max(1, min(_CHUNK, m))


def _signed_sums(chunks, contribs):
    """Yield (m, width) signed column sums for each block of m flips.

    Column c < d holds flip j's sum of ``g_ji * contribs[i, c]``, and the
    columns past d are zero: width is d, except that d = 3 is padded to
    4, because numpy's take copies rows of 1, 2 or 4 doubles with a
    fixed-width loop and a 3-double row with a memmove; each plan byte
    costs one gather of whole rows.  ``chunks`` holds the pieces of
    consecutive blocks of flips, the first block as long as any, each
    block as its (r, m) pieces of any heights r in ascending row order,
    as ``FlipPlan.chunks`` and a streamed plan of
    ``flips.streamed_chunks`` give them.  A table block of ``_BYTE_BLOCK`` plan bytes is built at the
    plan row that starts it, so a piece may straddle two, and the
    block's sums are yielded after its last piece; they overwrite the
    last block's, so nothing grows with w, and the tables do not grow
    with n.  A plan of one table block (n <= 256) builds its tables
    once, a longer plan builds every table block again for each block
    of flips.  Each entry depends only on the 8 rows of its byte, and
    each flip adds its bytes' entries in ascending byte order, so the
    sums are bit-identical however they are partitioned.
    """
    n, d = contribs.shape
    nb = -(-n // 8)
    width = _width(d)
    tab = out = None
    b = 0  # the plan row of the next byte
    for signs in chunks:
        for idx in signs:
            t = b % _BYTE_BLOCK  # the row in its table block
            if t == 0 and (tab is None or nb > _BYTE_BLOCK):
                del tab  # not held while the next is built
                tab = _byte_tables(contribs[8 * b : 8 * (b + _BYTE_BLOCK)], width)
            if b == 0:  # the plan's first byte starts every sum
                if out is None:  # not on top of the table build
                    out = np.empty((idx.size, width))
                acc = out[: idx.size]
                acc[...] = tab[0].take(idx, axis=0)
            else:
                acc += tab[t].take(idx, axis=0)
            b = (b + 1) % nb
        if b == 0:  # the block's last piece
            yield acc


def _statistics(contribs, n, chunks, quadratic):
    """The scalar or quadratic statistics of each block of flips.

    ``chunks(m)`` yields the pieces of a plan of n observations in
    consecutive blocks of <= m flips, as ``FlipPlan.chunks`` and a
    streamed plan of ``flips.streamed_chunks`` do; their heights are the plan's
    choice, and ``_signed_sums`` builds each table block at its first
    row whatever they are.  Every table entry and signed sum is at most
    n max|c| in size, and a quadratic statistic at most d n max|c|^2:
    contributions for which a bound passes the double range raise
    NumericalError before any flip is summed.
    """
    contribs = real_array("contributions", contribs)
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
    # max|c|, not finite when an entry is not: max() is NaN whenever min() is
    top = max(float(contribs.max()), -float(contribs.min()))
    if not math.isfinite(top):
        finite_array("contributions", contribs.reshape(shape))  # raises its DesignError
    big = sys.float_info.max
    if n * top > big or quadratic and d * n * top * top > big:
        raise NumericalError(f"flip sums of n={n} contributions up to {top:.3g} in size "
                             "can pass the double range")
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

    size = _block_flips(_width(d), n)
    return map(statistic, _signed_sums(chunks(size), contribs))


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
    return _collect(_statistics(contribs, plan.n, plan.chunks, quadratic=False), plan.w)


def flip_statistics_quadratic(contribs, plan):
    """T_j = ||s_j||^2 for a d-column block, s_j = n^{-1/2} sum_i g_ji contribs[i].

    This is the quadratic form s_j' I s_j.  For a weight matrix V, apply
    a factor L of V = L L' as ``contribs @ L`` first; ``glm.whiten``
    gives such contributions for V = A^-1.  Returns the (w,) array;
    entry 0 is the observed statistic.
    """
    return _collect(_statistics(contribs, plan.n, plan.chunks, quadratic=True), plan.w)


def _floor_multiple(alpha, w):
    """floor(alpha*w) robust to representation error in alpha*w."""
    return int(math.floor(alpha * w + 1e-9))


def _count(vals, t1, alternative):
    """Number of flips in ``vals`` at least as extreme as T_1 = t1.

    ``alternative`` is greater, less or two-sided-abs, and ``t1`` is
    T_1 exactly, not rounded through float.
    """
    if alternative == "greater":
        return int(np.count_nonzero(vals >= t1))
    if alternative == "less":
        return int(np.count_nonzero(vals <= t1))
    # |T_j| >= a as T_j >= a or T_j <= -a, with no |T| copy; at a == 0
    # both sides hold a zero, so the lower side then counts T_j < 0; an
    # integer's -|T_1| is a Python int, which cannot wrap as int8 -128 does
    a = abs(int(t1)) if vals.dtype.kind == "i" else abs(t1)
    below = vals < -a if a == 0 else vals <= -a
    return int(np.count_nonzero(vals >= a)) + int(np.count_nonzero(below))


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
    one_of("p_value alternative", alternative, ("greater", "less", "two-sided-abs"))
    _check_values(values)
    return _count(values, values[0], alternative) / values.shape[0]


def _check_rule(alpha, alternative):
    """Refuse an alpha outside (0, 1) or an unknown alternative."""
    check_alpha(alpha)
    one_of("alternative", alternative, ALTERNATIVES)


def decide(values, alpha, alternative, alpha1=None, alpha2=None,
           method="flip"):
    """Apply the order-statistic decision rule and package a TestResult.

    ``values`` holds T_1..T_w, the observed statistic first.
    greater rejects iff T_1 > T_(ceil((1-alpha)w)); less rejects iff
    T_1 < T_(floor(alpha*w)+1); two-sided-tails takes the union of both
    one-sided rules at alpha1/alpha2, which are given only with
    two-sided-tails, both or neither, as multiples of 1/w with
    alpha1, alpha2 >= 0 and alpha1 + alpha2 <= alpha (the default is
    floor((alpha/2)w)/w each); two-sided-abs rejects iff its p-value is
    at most alpha.  Order statistics run over all w values including
    T_1.  With m = floor(alpha*w), T_1 > T_(w-m) holds exactly
    when at most m flips have T_j >= T_1, and T_1 < T_(m+1) exactly when
    at most m have T_j <= T_1, ties included; the rules are applied as
    these counts, so nothing is sorted.  ``values`` is a non-empty 1-d
    array without NaN.
    """
    _check_rule(alpha, alternative)
    if alternative != "two-sided-tails" and (alpha1 is not None or alpha2 is not None):
        raise DesignError(f"alpha1 and alpha2 are given only with two-sided-tails, "
                          f"not with {alternative}")
    _check_values(values)
    return _decide([values], alpha, alternative, alpha1, alpha2, method)


def _decide(blocks, alpha, alternative, alpha1, alpha2, method):
    """``decide`` on consecutive blocks of checked statistics, each counted once."""
    sides = ("less", "greater") if alternative == "two-sided-tails" else (alternative,)
    counts, w = dict.fromkeys(sides, 0), 0
    for vals in blocks:
        if w == 0:
            t1 = vals[0]  # not float(): an integer past 2^53 would round
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
        m1, m2 = round(m1), round(m2)
        if min(m1, m2) < 0 or m1 + m2 > _floor_multiple(alpha, w):
            raise DesignError(f"two-sided-tails needs alpha1, alpha2 >= 0 and alpha1 + alpha2 "
                              f"<= alpha, got {alpha1} and {alpha2} at alpha={alpha}")
        below, above = counts["less"], counts["greater"]
        reject = below <= m1 or above <= m2
        # reported p combines both tail counts (not part of the decision rule)
        p = min(1.0, below / w + above / w)
    else:
        p = counts[alternative] / w
        reject = (p <= alpha if alternative == "two-sided-abs"
                  else counts[alternative] <= _floor_multiple(alpha, w))

    return TestResult(statistic=float(t1), p_value=float(p), reject=bool(reject),
                      alpha=float(alpha), alternative=alternative, method=method)


def _contributions(y, design, family, method, vhat):
    """The (n, d) contributions ``flip_test`` flips; the fit and scores are not kept."""
    scores = score_contributions(y, fit_null(y, design, family), design, family)
    whitened = design.d > 1 and vhat == "inv-effective-info"
    i_star = scores.effective_information() if whitened else None
    contribs = effective_contributions(scores) if method == "effective" else scores.nu
    del scores  # freed before whiten, which reads only I* and the contributions
    return whiten(i_star, contribs) if whitened else contribs


def flip_test(y, design, family, method="effective", alternative="two-sided-abs",
              alpha=0.05, w=5000, mode="with-replacement", seed=0,
              vhat="identity"):
    """Sign-flip score test of H0: beta = null_value.

    Fits the null model, forms per-observation score contributions
    (projected to effective scores unless ``method="basic"``), flips them
    w times and applies the decision rule, counting each block of flips
    as it is summed.  A without-replacement plan's flips have distinct
    keys: the whole flip for n <= 64, its first 64 signs past that.  The
    plan is drawn a piece at a time when ``flips.streamed_chunks`` can
    draw it so, and made whole otherwise.  A single tested column
    uses the scalar statistic; d > 1 uses the quadratic form with
    ``vhat`` either ``"identity"`` or ``"inv-effective-info"``, the
    latter by whitening the contributions with the effective information
    I* so that T_j = s_j' I*^-1 s_j.
    """
    one_of("method", method, FLIP_METHODS)
    one_of("vhat", vhat, VHATS)
    _check_rule(alpha, alternative)
    n, w, seed = check_plan(design.n, w, mode, seed)
    require_memory(f"the plan's w={w} flips of n={n} observations", -(-n // 8) * w)
    contribs = _contributions(y, design, family, method, vhat)
    chunks = (streamed_chunks(n, w, mode, seed)
              or make_flip_plan(n, w, mode=mode, seed=seed).chunks)
    stats = _statistics(contribs, n, chunks, design.d > 1)
    result = _decide(stats, alpha, alternative, None, None, f"flip-{method}")
    return replace(result, w=w, seed=seed)
