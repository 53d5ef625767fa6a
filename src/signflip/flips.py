"""Sign-flip plans.

A plan holds w sign vectors of length n, bit-packed and stored
byte-major: ``FlipPlan.signs`` is a ``(ceil(n/8), w)`` uint8 array
whose row b holds byte b of every flip, and bit ``i % 8`` of
``signs[i // 8, j]`` is set when flip j negates observation i.
Column 0 is the identity flip (all bits clear) and the padding bits
past n are always zero, so a plan of w flips takes ``w * ceil(n/8)``
bytes.  The statistic kernel reads each byte row as one contiguous
run.  ``FlipPlan.dense()`` unpacks it into the w-by-n matrix of +-1
signs.

Flips come from one counter-based Philox stream keyed by (seed, plan
stream), each in [0, 2^64), so the plan for a given (n, w, mode, seed)
is identical regardless of how the downstream statistics are scheduled
or chunked.  ``_Reader`` reads every byte of it, from any byte on.  A
plan is streamed, drawn in pieces of one block of flips
(``with_replacement_chunks``) and never held whole, exactly when it is
the with-replacement plan of (n, w, seed), which ``streamed_chunks``
decides; any other plan is made whole by ``make_flip_plan``.

Modes
-----
with-replacement
    Flips 2..w i.i.d. uniform on {-1,+1}^n: byte b of flip j is byte
    ``b*w + j`` of the stream, with the padding bits masked off.
without-replacement
    Flips 2..w uniform, with distinct keys, none the identity's: the whole
    flip for n <= 64, its first 64 signs past that; needs w <= 2^n.  For
    n <= 20 this draws distinct codes of the exhaustive enumeration, for
    larger n it draws packed flips in batches and rejects repeated keys.
exhaustive
    All 2^n sign vectors exactly once (w must equal 2^n, n <= 20),
    ordered as binary counting with the last coordinate moving fastest.
"""

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import DesignError, integer, one_of

__all__ = ["FlipPlan", "make_flip_plan", "MODES"]

MODES = ("with-replacement", "without-replacement", "exhaustive")

_EXHAUSTIVE_MAX_N = 20
SEED_MAX = (1 << 64) - 1  # a seed or stream is one 64-bit word of the Philox key
_PLAN_STREAM = 0x666C6970  # distinguishes plan streams from other keyed streams
_WORD = np.dtype("<u8")  # the stream's bytes are its words, little-endian
_KEY_BYTES = 8  # plan bytes of a flip's key


def _key(seed, stream):
    """The Philox key of the integers (seed, stream), each in [0, 2^64)."""
    return np.array([integer("seed", seed, 0, SEED_MAX),
                     integer("stream", stream, 0, SEED_MAX)], dtype=np.uint64)


def keyed_rng(seed, stream=0):
    """Counter-based generator keyed by the integers (seed, stream)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, stream)))


def require_memory(what, need):
    """DesignError unless ``need`` bytes fit in the machine's physical memory.

    Callers check a size before allocating it, so an input that cannot fit
    is refused as an input error rather than a numpy ValueError or
    MemoryError.  Where ``os.sysconf`` cannot report the memory there is
    nothing to compare with, and nothing is checked.
    """
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise DesignError(
            f"{what} need {need} bytes, more than the {have} bytes of physical memory"
        )


@dataclass(frozen=True)
class FlipPlan:
    """Bit-packed sign vectors with their provenance.

    ``signs[i // 8, j]`` has bit ``i % 8`` set when flip j negates
    observation i; column 0 (the identity flip) and the padding bits
    past n are zero.
    """

    n: int
    w: int
    mode: str
    seed: int
    signs: np.ndarray  # (ceil(n/8), w) uint8, byte-major

    def __post_init__(self):
        """DesignError unless the fields are a plan the kernels can read.

        (n, w, mode, seed) must pass ``check_plan``, which also makes n, w
        and seed ints; signs must be a (ceil(n/8), w) uint8 array, its
        column 0 the identity flip and its padding bits past n zero.
        """
        for name, value in zip(("n", "w", "seed"),
                               check_plan(self.n, self.w, self.mode, self.seed)):
            object.__setattr__(self, name, value)
        shape, signs = (-(-self.n // 8), self.w), self.signs
        if (not isinstance(signs, np.ndarray) or signs.dtype != np.uint8
                or signs.shape != shape):
            raise DesignError(f"plan signs must be a {shape} uint8 array")
        if np.count_nonzero(signs[:, 0]):  # a third of the time of .any()
            raise DesignError("plan flip 0 must be the identity, with no bit set")
        if self.n % 8 and np.count_nonzero(signs[-1] >= 1 << self.n % 8):
            raise DesignError(f"plan bits past n={self.n} must be zero")

    def dense(self):
        """The (w, n) int8 matrix of +-1 signs; row 0 is all +1."""
        bits = np.unpackbits(self.signs.T, axis=1, count=self.n, bitorder="little")
        return 1 - 2 * bits.astype(np.int8)

    def chunks(self, size):
        """The (ceil(n/8), m) slice of ``signs`` for each block of m <= size flips."""
        return (self.signs[:, s : s + size] for s in range(0, self.w, size))


def _pack_codes(codes, n):
    """Byte-major packing of n-bit codes (n <= 32).

    Bit n-1-i of a code negates observation i.
    """
    be = np.asarray(codes, dtype=">u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(be.T, axis=0)[32 - n:]  # row m is code bit 31 - m
    return np.packbits(bits, axis=0, bitorder="little")


def _mask_padding(signs, n):
    """Clear the bits past n in the last byte row."""
    if n % 8:
        signs[-1] &= (1 << (n % 8)) - 1


def _draw(reader, n, w):
    """w uniform packed flips, byte-major: byte b of flip j is byte b*w + j of the draw.

    The draw reads whole words, and keeps the first ceil(n/8) * w bytes,
    so the next draw starts at a word too.  The padding past n is masked.
    """
    nb = -(-n // 8)
    out = reader.read(-(-nb * w // 8) * 8)[: nb * w].reshape(nb, w)
    _mask_padding(out, n)
    return out


def _first_draw(reader, n, w):
    """The with-replacement plan: w flips of ``_draw``, flip 0 cleared."""
    signs = _draw(reader, n, w)
    signs[:, 0] = 0
    return signs


def _keys(signs):
    """uint64 key per column, whose byte b is plan byte b < 8: its first 64 signs."""
    keys = np.zeros(signs.shape[1], dtype=_WORD)
    keys.view(np.uint8).reshape(-1, _KEY_BYTES)[:, : signs.shape[0]] = signs[:_KEY_BYTES].T
    return keys


def _first_occurrences(signs):
    """(first, keys): the distinct ``_keys``, sorted, and the earliest column of each."""
    keys = _keys(signs)
    order = np.argsort(keys)
    keys = keys[order]
    new = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return np.minimum.reduceat(order, new), keys[new]


def _sample_distinct(reader, n, w):
    """w flips of distinct keys, flip 0 the identity, the rest drawn uniformly.

    Distinct keys: the whole flip for n <= 64, its first 64 signs past
    that.  XOR by a flip g of the plan permutes the keys and takes g's to
    the identity's 0, so it maps the plans of distinct keys onto
    themselves and leaves their law unchanged, which is what exactness
    needs (Hemerik and Goeman, TEST 2018).  Past n = 64 the plan differs
    from one of distinct flips with probability about w^2 / 2^65.  Each
    batch's keys are sorted once, for its repeats and for the lookup in
    the sorted keys kept so far (the identity's 0 among them); its
    earliest fresh draws are kept.  A batch holds 1.25 times the draws
    expected to fill the gap, so the loop ends even when w is 2^n.
    """
    signs = _first_draw(reader, n, w)
    first, seen = _first_occurrences(signs)
    if first.size == w:
        return signs
    signs = signs[:, np.sort(first)]
    while signs.shape[1] < w:
        missing, unseen = w - signs.shape[1], (1 << n) - signs.shape[1]
        batch = 5 * missing * (1 << n) // (4 * unseen) + 16
        new = _draw(reader, n, batch)
        first, keys = _first_occurrences(new)
        # seen holds the identity's key 0, so each key has a predecessor there
        fresh = seen[np.searchsorted(seen, keys, "right") - 1] != keys
        first, keys = first[fresh], keys[fresh]
        if first.size > missing:  # the earliest draws complete the plan
            kept = first < np.partition(first, missing)[missing]
            first, keys = first[kept], keys[kept]
        signs = np.concatenate((signs, new[:, np.sort(first)]), axis=1)
        seen = np.insert(seen, np.searchsorted(seen, keys), keys)
    return signs


def check_plan(n, w, mode="with-replacement", seed=0):
    """(n, w, seed) as ints, once every check of a plan's fields has passed.

    Raises DesignError when n, w or seed is not an integer, when n < 1,
    w < 2 or the seed is outside [0, 2^64), when without-replacement is
    asked for more rows than 2^n, or when exhaustive is requested with
    n > 20 or w != 2^n.  ``make_flip_plan`` and ``flip_test`` check the
    plan's w * ceil(n/8) bytes against physical memory before any flip is
    drawn, since a streamed plan past it would not end either.
    """
    n, w, seed = integer("n", n, 1), integer("w", w, 2), integer("seed", seed, 0, SEED_MAX)
    one_of("mode", mode, MODES)
    # w > 2^n, without forming 2^n for a huge n
    if mode == "without-replacement" and (w - 1).bit_length() > n:
        raise DesignError(f"without-replacement needs w <= 2^n, got w={w} for n={n}")
    if mode == "exhaustive":
        if n > _EXHAUSTIVE_MAX_N:
            raise DesignError(
                f"exhaustive mode supports n <= {_EXHAUSTIVE_MAX_N}, got n={n}"
            )
        if w != 1 << n:
            raise DesignError(f"exhaustive mode requires w = 2^n = {1 << n}, got {w}")
    return n, w, seed


class _Reader:
    """The keyed stream's bytes from byte ``start`` on, read k bytes at a time.

    Philox gives four 64-bit words, 32 bytes, per counter value, so the
    reader starts at the counter of byte ``start`` and draws the words up
    to the one holding that byte.  The bytes of the last word drawn that
    no read has taken yet open the next read.
    """

    def __init__(self, key, start=0):
        counter, skip = divmod(start, 32)
        self._bits = np.random.Philox(key=key, counter=counter)
        self._tail = b""  # bytes, so it holds none of the read it came from
        if skip:
            self.read(skip)  # the counter's bytes before byte start

    def read(self, k):
        """The next k bytes, as a new array."""
        raw = self._bits.random_raw(-(-(k - len(self._tail)) // 8))
        raw = raw.astype(_WORD, copy=False).view(np.uint8)
        if self._tail:
            raw = np.concatenate((np.frombuffer(self._tail, np.uint8), raw))
        self._tail = raw[k:].tobytes()
        return raw[:k]


def with_replacement_chunks(n, w, seed, size):
    """The with-replacement plan in pieces, each of one block of flips.

    For each block of m <= size consecutive flips, yields its (r, m)
    pieces in ascending row order; stacked, a block's pieces are its
    columns of ``make_flip_plan(n, w, seed=seed).signs`` byte for byte,
    with n, w and seed as ``check_plan`` returns them.  Row b of the
    plan is stream bytes b*w .. b*w + w - 1.  A plan of at most
    ``size`` flips is one block, whose rows are consecutive stream
    bytes: one reader reads up to 8 of them per piece.  A longer plan
    reads each row's m bytes from the row's own reader, one row per
    piece.  Each piece is a new array, held only until the next is
    drawn, so nothing grows with n or w.  The kernel sums pieces of any
    height, building each table block at its first plan row.
    """
    nb = -(-n // 8)
    key = _key(seed, _PLAN_STREAM)
    if w <= size:  # a Philox costs ~20 us to make: one reader, not nb
        reader = _Reader(key)
        pieces = [(reader, min(8, nb - b)) for b in range(0, nb, 8)]
    else:
        pieces = [(_Reader(key, b * w), 1) for b in range(nb)]
    for start in range(0, w, size):
        m = min(size, w - start)
        for i, (reader, r) in enumerate(pieces, 1):
            out = reader.read(r * m).reshape(r, m)
            if i == len(pieces):
                _mask_padding(out, n)
            if start == 0:
                out[:, 0] = 0
            yield out


def streamed_chunks(n, w, mode, seed):
    """The checked plan's ``chunks``, drawn a piece at a time, or None.

    (n, w, mode, seed) are as ``check_plan`` returns them.  When the plan
    is the with-replacement plan of (n, w, seed), its ``chunks(size)`` is
    ``partial(with_replacement_chunks, n, w, seed)``; otherwise None, and
    the plan must be made whole.  A with-replacement plan is.  A
    without-replacement plan with n > 20 is when the first
    min(8, ceil(n/8)) plan bytes differ between every two of its flips,
    identity included: ``_sample_distinct`` then keeps its first draw,
    which is the with-replacement plan.  Plan row b < 8 is stream bytes
    b*w onwards, so one reader reads each row straight into byte b of the
    flips' 8-byte keys, holding at most 2 bytes per flip more while it
    reads; at n >= 64 two keys agree with probability about w^2 / 2^65.
    """
    if mode == "without-replacement" and n > _EXHAUSTIVE_MAX_N:
        reader, keys = _Reader(_key(seed, _PLAN_STREAM)), np.zeros(w, dtype=_WORD)
        rows = keys.view(np.uint8).reshape(w, _KEY_BYTES).T[: -(-n // 8)]
        for row in rows:
            row[:] = reader.read(w)
        _mask_padding(rows, min(n, 64))  # past n = 64 the key rows hold no padding
        keys[0] = 0
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            return None
    elif mode != "with-replacement":
        return None
    return partial(with_replacement_chunks, n, w, seed)


def make_flip_plan(n, w, mode="with-replacement", seed=0):
    """Build the packed plan of w sign vectors for (n, w, mode, seed).

    Raises DesignError as ``check_plan`` does, or if the plan exceeds physical memory.
    """
    n, w, seed = check_plan(n, w, mode, seed)
    require_memory(f"the plan's w={w} flips of n={n} observations", -(-n // 8) * w)
    if mode == "exhaustive":
        signs = _pack_codes(np.arange(w), n)
    elif mode == "with-replacement":
        signs = _first_draw(_Reader(_key(seed, _PLAN_STREAM)), n, w)
    elif n <= _EXHAUSTIVE_MAX_N:
        rng = keyed_rng(seed, _PLAN_STREAM)
        codes = np.zeros(w, dtype=np.int64)
        codes[1:] = rng.choice((1 << n) - 1, size=w - 1, replace=False) + 1
        signs = _pack_codes(codes, n)
    else:
        signs = _sample_distinct(_Reader(_key(seed, _PLAN_STREAM)), n, w)
    return FlipPlan(n=n, w=w, mode=mode, seed=seed, signs=signs)
