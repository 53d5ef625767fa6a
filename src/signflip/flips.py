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
stream), so the plan for a given (n, w, mode, seed) is identical
regardless of how the downstream statistics are scheduled or chunked.
A with-replacement plan can also be drawn block by block of flips
(``with_replacement_blocks``), each plan row read from its own
generator started at the row's first stream byte, so the whole plan
is never held; ``make_flip_plan`` takes the same blocks.

Modes
-----
with-replacement
    Flips 2..w i.i.d. uniform on {-1,+1}^n: byte b of flip j is byte
    ``b*w + j`` of the stream, with the padding bits masked off.
without-replacement
    Flips 2..w distinct, uniform on {-1,+1}^n minus the identity; needs
    w <= 2^n.  For n <= 20 this draws distinct codes of the exhaustive
    enumeration, for larger n it draws packed flips in batches and
    rejects repeats.
exhaustive
    All 2^n sign vectors exactly once (w must equal 2^n, n <= 20),
    ordered as binary counting with the last coordinate moving fastest.
"""

import os
from dataclasses import dataclass

import numpy as np

from .exceptions import DesignError, integer

__all__ = ["FlipPlan", "make_flip_plan", "MODES"]

MODES = ("with-replacement", "without-replacement", "exhaustive")

_EXHAUSTIVE_MAX_N = 20
_SEED_MASK = (1 << 64) - 1
_PLAN_STREAM = 0x666C6970  # distinguishes plan streams from other keyed streams
_WORD = np.dtype("<u8")  # the stream's bytes are its words, little-endian


def _key(seed, stream):
    """The Philox key of the integers (seed, stream)."""
    return np.array([np.uint64(integer("seed", seed) & _SEED_MASK),
                     np.uint64(integer("stream", stream) & _SEED_MASK)])


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

    def dense(self):
        """The (w, n) int8 matrix of +-1 signs; row 0 is all +1."""
        bits = np.unpackbits(self.signs.T, axis=1, count=self.n, bitorder="little")
        return 1 - 2 * bits.astype(np.int8)

    def blocks(self, size):
        """Consecutive (ceil(n/8), m) column slices of ``signs``, m <= size."""
        return (self.signs[:, s : s + size] for s in range(0, self.w, size))


def _pack_codes(codes, n):
    """Byte-major packing of n-bit codes (n <= 32).

    Bit n-1-i of a code negates observation i.
    """
    be = np.asarray(codes, dtype=">u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(be.T, axis=0)[32 - n:]  # row m is code bit 31 - m
    return np.packbits(bits, axis=0, bitorder="little")


def _stream_bytes(bits, words):
    """The next ``words`` 64-bit outputs of ``bits`` as little-endian bytes."""
    return bits.random_raw(words).astype(_WORD, copy=False).view(np.uint8)


def _mask_padding(signs, n):
    """Clear the bits past n in the last byte row."""
    if n % 8:
        signs[-1] &= (1 << (n % 8)) - 1


def _random_flips(rng, n, w):
    """w uniform packed flips, byte-major: byte b of flip j is stream byte b*w + j.

    The padding bits past n are masked off.
    """
    nb = -(-n // 8)
    out = _stream_bytes(rng.bit_generator, -(-nb * w // 8))[: nb * w].reshape(nb, w)
    _mask_padding(out, n)
    return out


def _keys(signs):
    """uint64 key per column from its first 8 bytes (exact for nb <= 8)."""
    keys = np.zeros(signs.shape[1], dtype=np.uint64)
    for b in range(min(signs.shape[0], 8)):
        keys |= signs[b].astype(np.uint64) << np.uint64(8 * b)
    return keys


def _first_occurrences(signs):
    """Indices of the first occurrence of each distinct column, in order.

    Columns are keyed by ``_keys``, which is exact for plans of at most
    8 bytes; longer columns that share a key are then compared in full.
    """
    nb = signs.shape[0]
    keys = _keys(signs)
    order = np.argsort(keys)
    ranked = keys[order]
    new = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    first = np.minimum.reduceat(order, np.flatnonzero(new))  # earliest of each key
    if nb > 8:
        # columns that share a key may differ past byte 8: compare them in full
        shared = ~new | np.append(~new[1:], False)
        tied = np.sort(order[shared])
        by_content = np.lexsort(signs[::-1, tied])  # stable: the earliest leads
        grouped = signs[:, tied[by_content]]
        lead = np.ones(tied.size, dtype=bool)
        lead[1:] = np.any(grouped[:, 1:] != grouped[:, :-1], axis=0)
        first = np.concatenate((order[new & ~shared], tied[by_content[lead]]))
    first.sort()
    return first


def _sample_distinct(rng, n, w):
    """w distinct packed flips, flip 0 the identity, the rest drawn uniformly.

    Each batch of draws is deduplicated, then checked against the sorted
    keys of the flips kept so far, the zero flip 0 included, so only the
    batch is sorted and the identity is never drawn again.  A batch
    holds 1.25 times the draws expected to fill the gap, given the share
    of flips not yet seen, so the loop ends even when w is 2^n.
    """
    signs = _random_flips(rng, n, w)
    signs[:, 0] = 0
    kept = _first_occurrences(signs)
    if kept.size == w:
        return signs
    signs = signs[:, kept]
    seen = np.sort(_keys(signs))
    while signs.shape[1] < w:
        missing, unseen = w - signs.shape[1], (1 << n) - signs.shape[1]
        batch = 5 * missing * (1 << n) // (4 * unseen) + 16
        new = _random_flips(rng, n, batch)
        new = new[:, _first_occurrences(new)]
        keys = _keys(new)
        by_key = np.argsort(keys)  # sorted lookups into seen stay in cache
        ranked = keys[by_key]
        repeat = np.empty(keys.size, dtype=bool)
        # seen holds the identity's key 0, so each key has a predecessor there
        repeat[by_key] = seen[np.searchsorted(seen, ranked, "right") - 1] == ranked
        if signs.shape[0] > 8 and repeat.any():
            # a shared key repeats a kept flip only if the columns agree in full
            twins = signs[:, np.isin(_keys(signs), keys[repeat])]
            pooled = _first_occurrences(np.concatenate((twins, new[:, repeat]), axis=1))
            unmatched = pooled[pooled >= twins.shape[1]] - twins.shape[1]
            repeat[np.flatnonzero(repeat)[unmatched]] = False
        fresh = np.flatnonzero(~repeat)[:missing]
        signs = np.concatenate((signs, new[:, fresh]), axis=1)
        added = np.sort(keys[fresh])
        seen = np.insert(seen, np.searchsorted(seen, added), added)
    return signs


def check_plan(n, w, mode="with-replacement", seed=0):
    """(n, w, seed) as ints, once every check of ``make_flip_plan`` has passed.

    Raises DesignError when n, w or seed is not an integer, when n < 1
    or w < 2, when the plan's w * ceil(n/8) bytes exceed physical memory
    (a streamed plan of that size would not end either), when
    without-replacement is asked for more rows than 2^n, or when
    exhaustive is requested with n > 20 or w != 2^n.
    """
    n, w, seed = integer("n", n, 1), integer("w", w, 2), integer("seed", seed)
    if mode not in MODES:
        raise DesignError(f"unknown flip mode {mode!r}; choose from {MODES}")
    # w > 2^n, without forming 2^n for a huge n
    if mode == "without-replacement" and (w - 1).bit_length() > n:
        raise DesignError(f"without-replacement needs w <= 2^n, got w={w} for n={n}")
    require_memory(f"the plan's w={w} flips of n={n} observations", -(-n // 8) * w)
    if mode == "exhaustive":
        if n > _EXHAUSTIVE_MAX_N:
            raise DesignError(
                f"exhaustive mode supports n <= {_EXHAUSTIVE_MAX_N}, got n={n}"
            )
        if w != 1 << n:
            raise DesignError(f"exhaustive mode requires w = 2^n = {1 << n}, got {w}")
    return n, w, seed


def with_replacement_blocks(n, w, seed, size):
    """Consecutive (ceil(n/8), m) blocks of the with-replacement plan, m <= size.

    Concatenated, the blocks are ``make_flip_plan(n, w, seed=seed).signs``
    byte for byte; n, w and seed are as ``check_plan`` returns them.  A
    plan of at most ``size`` flips is one draw of the stream, returned
    as a new array.  A longer one reads each plan row b from its own
    generator started at stream byte b*w, takes the next m bytes of every
    row for each block, and overwrites one (ceil(n/8), size) array, so a
    block holds only until the next is drawn and nothing grows with w.
    """
    if w <= size:
        signs = _random_flips(keyed_rng(seed, _PLAN_STREAM), n, w)
        signs[:, 0] = 0
        yield signs
        return
    nb = -(-n // 8)
    key = _key(seed, _PLAN_STREAM)
    # Row b is stream bytes b*w .. b*w + w - 1.  Philox gives four 64-bit
    # words per counter value, so the row's generator starts at the
    # counter of the word holding byte b*w and drops the words before
    # that word.  tail[b] is the word drawn last for row b: a block that
    # starts inside it, at byte (b*w + start) % 8, takes its rest first.
    readers, tail = [], np.empty((nb, 8), dtype=np.uint8)
    for b in range(nb):
        word, skip = divmod(b * w, 8)
        bits = np.random.Philox(key=key, counter=word // 4)
        bits.random_raw(word % 4)
        if skip:
            tail[b] = _stream_bytes(bits, 1)
        readers.append(bits)
    block = np.empty((nb, size), dtype=np.uint8)
    for start in range(0, w, size):
        m = min(size, w - start)
        out = block[:, :m]
        for b, bits in enumerate(readers):
            skip = (b * w + start) % 8
            k = min(m, 8 - skip) if skip else 0
            if k:
                out[b, :k] = tail[b, skip : skip + k]
            if k < m:
                raw = _stream_bytes(bits, -(-(m - k) // 8))
                out[b, k:] = raw[: m - k]
                tail[b] = raw[-8:]
        _mask_padding(out, n)
        if start == 0:
            out[:, 0] = 0
        yield out


def make_flip_plan(n, w, mode="with-replacement", seed=0):
    """Build the packed plan of w sign vectors for (n, w, mode, seed).

    Raises DesignError as ``check_plan`` does.
    """
    n, w, seed = check_plan(n, w, mode, seed)
    if mode == "exhaustive":
        signs = _pack_codes(np.arange(w), n)
    elif mode == "with-replacement":
        signs = next(with_replacement_blocks(n, w, seed, w))
    elif n <= _EXHAUSTIVE_MAX_N:
        rng = keyed_rng(seed, _PLAN_STREAM)
        codes = np.zeros(w, dtype=np.int64)
        codes[1:] = rng.choice((1 << n) - 1, size=w - 1, replace=False) + 1
        signs = _pack_codes(codes, n)
    else:
        signs = _sample_distinct(keyed_rng(seed, _PLAN_STREAM), n, w)
    return FlipPlan(n=n, w=w, mode=mode, seed=seed, signs=signs)
