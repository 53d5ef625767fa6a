"""Sign-flip plans.

A plan holds w sign vectors of length n, bit-packed: ``FlipPlan.signs``
is a ``(w, ceil(n/8))`` uint8 array in which bit ``i % 8`` of byte
``i // 8`` is set when the flip negates observation i.  Row 0 is the
identity flip (all bits clear) and the padding bits past n are always
zero, so a plan of w flips takes ``w * ceil(n/8)`` bytes.
``FlipPlan.dense()`` unpacks it into the w-by-n matrix of +-1 signs.

Rows come from one counter-based Philox stream keyed by (seed, plan
stream), so the plan for a given (n, w, mode, seed) is identical
regardless of how the downstream statistics are scheduled or chunked.

Modes
-----
with-replacement
    Rows 2..w i.i.d. uniform on {-1,+1}^n: raw bytes of the stream with
    the padding bits masked off.
without-replacement
    Rows 2..w distinct, uniform on {-1,+1}^n minus the identity; needs
    w <= 2^n.  For n <= 20 this draws distinct codes of the exhaustive
    enumeration, for larger n it draws packed rows in batches and
    rejects repeats.
exhaustive
    All 2^n sign vectors exactly once (w must equal 2^n, n <= 20),
    ordered as binary counting with the last coordinate moving fastest.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DesignError

__all__ = ["FlipPlan", "make_flip_plan", "MODES"]

MODES = ("with-replacement", "without-replacement", "exhaustive")

_EXHAUSTIVE_MAX_N = 20
_SEED_MASK = (1 << 64) - 1
_PLAN_STREAM = 0x666C6970  # distinguishes plan streams from other keyed streams


def keyed_rng(seed, stream=0):
    """Counter-based generator keyed by (seed, stream)."""
    key = np.array(
        [np.uint64(int(seed) & _SEED_MASK), np.uint64(int(stream) & _SEED_MASK)]
    )
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class FlipPlan:
    """Bit-packed sign vectors with their provenance.

    ``signs[j, i // 8]`` has bit ``i % 8`` set when flip j negates
    observation i; row 0 (the identity flip) and the padding bits past n
    are zero.
    """

    n: int
    w: int
    mode: str
    seed: int
    signs: np.ndarray  # (w, ceil(n/8)) uint8

    def dense(self):
        """The (w, n) int8 matrix of +-1 signs; row 0 is all +1."""
        bits = np.unpackbits(self.signs, axis=1, count=self.n, bitorder="little")
        return 1 - 2 * bits.astype(np.int8)


def _pack_codes(codes, n):
    """Pack n-bit codes (n <= 32); bit n-1-i of a code negates observation i."""
    be = np.asarray(codes, dtype=">u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(be, axis=1)[:, 32 - n:]
    return np.packbits(bits, axis=1, bitorder="little")


def _random_rows(rng, n, rows):
    """``rows`` uniform packed rows of raw stream bytes, padding masked."""
    nb = -(-n // 8)
    raw = rng.bit_generator.random_raw(-(-rows * nb // 8)).astype("<u8", copy=False)
    out = raw.view(np.uint8)[: rows * nb].reshape(rows, nb)
    if n % 8:
        out[:, -1] &= (1 << (n % 8)) - 1
    return out


def _first_occurrences(signs):
    """Indices of the first occurrence of each distinct row, in row order."""
    keys = signs.view(np.dtype((np.void, signs.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    first = order[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
    first.sort()
    return first


def _sample_distinct(rng, n, w):
    """w distinct packed rows, row 0 the identity, the rest drawn uniformly.

    Each batch of draws is deduplicated against the rows kept so far,
    the zero row 0 included, so the identity is never drawn again.  A
    batch holds 1.25 times the draws expected to fill the gap, given the
    share of rows not yet seen, so the loop ends even when w is 2^n.
    """
    signs = _random_rows(rng, n, w)
    signs[0] = 0
    kept = _first_occurrences(signs)
    while kept.size < w:
        missing, unseen = w - kept.size, (1 << n) - kept.size
        batch = 5 * missing * (1 << n) // (4 * unseen) + 16
        signs = np.concatenate((signs[kept], _random_rows(rng, n, batch)))
        kept = _first_occurrences(signs)[:w]
    return signs if kept.size == signs.shape[0] else signs[kept]


def make_flip_plan(n, w, mode="with-replacement", seed=0):
    """Build the packed plan of w sign vectors for (n, w, mode, seed).

    Raises DesignError when w < 2, when without-replacement is asked for
    more rows than 2^n, or when exhaustive is requested with n > 20 or
    w != 2^n.
    """
    n = int(n)
    w = int(w)
    if n < 1:
        raise DesignError("flip plan needs at least one observation")
    if w < 2:
        raise DesignError("flip count w must be at least 2")
    if mode not in MODES:
        raise DesignError(f"unknown flip mode {mode!r}; choose from {MODES}")

    if mode == "exhaustive":
        if n > _EXHAUSTIVE_MAX_N:
            raise DesignError(
                f"exhaustive mode supports n <= {_EXHAUSTIVE_MAX_N}, got n={n}"
            )
        if w != 1 << n:
            raise DesignError(f"exhaustive mode requires w = 2^n = {1 << n}, got {w}")
        signs = _pack_codes(np.arange(w), n)
        return FlipPlan(n=n, w=w, mode=mode, seed=int(seed), signs=signs)

    if mode == "without-replacement" and w > 1 << n:
        raise DesignError(f"without-replacement needs w <= 2^n, got w={w} for n={n}")

    rng = keyed_rng(seed, _PLAN_STREAM)
    if mode == "with-replacement":
        signs = _random_rows(rng, n, w)
        signs[0] = 0
    elif n <= _EXHAUSTIVE_MAX_N:
        codes = np.zeros(w, dtype=np.int64)
        codes[1:] = rng.choice((1 << n) - 1, size=w - 1, replace=False) + 1
        signs = _pack_codes(codes, n)
    else:
        signs = _sample_distinct(rng, n, w)
    return FlipPlan(n=n, w=w, mode=mode, seed=int(seed), signs=signs)
