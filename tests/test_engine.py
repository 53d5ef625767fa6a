"""Flip plans, flip statistics, decision rules and the flip test."""

import hashlib
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from signflip import (
    DesignError,
    Gaussian,
    NumericalError,
    Poisson,
    ScoreSet,
    build_design,
    decide,
    effective_contributions,
    fit_null,
    flip_statistics_quadratic,
    flip_statistics_scalar,
    flip_test,
    make_flip_plan,
    p_value,
    score_contributions,
    warpbreaks,
)
from signflip.glm import solve_spd, whiten
from oracles import oracle_p_greater, oracle_reject_greater


# ------------------------------------------------------------------ #
# flip plans
# ------------------------------------------------------------------ #

def test_exhaustive_plan_enumerates_all_sign_vectors():
    signs = make_flip_plan(3, 8, mode="exhaustive").dense()
    assert signs.shape == (8, 3)
    assert_array_equal(signs[0], [1, 1, 1])
    assert len({tuple(row) for row in signs}) == 8
    assert set(np.unique(signs)) == {-1, 1}


def test_plan_determinism_across_calls():
    for mode in ("with-replacement", "without-replacement"):
        a = make_flip_plan(50, 200, mode=mode, seed=123)
        b = make_flip_plan(50, 200, mode=mode, seed=123)
        assert_array_equal(a.dense(), b.dense())
        c = make_flip_plan(50, 200, mode=mode, seed=124)
        assert not np.array_equal(a.dense(), c.dense())


def test_plan_entry_means_concentrate():
    plan = make_flip_plan(50, 200, mode="with-replacement", seed=9)
    # binomial concentration for (w-1)*n iid signs
    assert abs(plan.dense()[1:].mean()) < 4.0 / np.sqrt(199 * 50)


def test_without_replacement_rows_distinct_and_non_identity():
    signs = make_flip_plan(6, 64, mode="without-replacement", seed=2).dense()
    rows = {tuple(r) for r in signs}
    assert len(rows) == 64
    assert tuple([1] * 6) in rows  # only as the first row
    assert not any(np.all(r == 1) for r in signs[1:])


def test_without_replacement_large_n_path():
    signs = make_flip_plan(30, 64, mode="without-replacement", seed=5).dense()
    rows = {tuple(r) for r in signs}
    assert len(rows) == 64
    assert not any(np.all(r == 1) for r in signs[1:])
    again = make_flip_plan(30, 64, mode="without-replacement", seed=5)
    assert_array_equal(signs, again.dense())


def test_plan_validation_errors():
    with pytest.raises(DesignError):
        make_flip_plan(4, 1)
    with pytest.raises(DesignError):
        make_flip_plan(3, 9, mode="without-replacement")  # w > 2^n
    with pytest.raises(DesignError):
        make_flip_plan(21, 2**21, mode="exhaustive")  # n too large
    with pytest.raises(DesignError):
        make_flip_plan(3, 7, mode="exhaustive")  # w != 2^n
    with pytest.raises(DesignError):
        make_flip_plan(3, 4, mode="bootstrap")
    # refused before anything is allocated: 5 * 10^15 plan bytes
    with pytest.raises(DesignError, match="need 5000000000000000 bytes, more than"):
        make_flip_plan(40, 10**15)
    with pytest.raises(DesignError, match="bytes, more than"):
        make_flip_plan(10**308, 2)
    with mock.patch("os.sysconf", side_effect=ValueError):  # memory unknown
        assert make_flip_plan(3, 4).signs.shape == (1, 4)


@pytest.mark.parametrize("n, w, seed, name", [(10.5, 20, 0, "n"), (10, 20.7, 0, "w"),
                                             (10, 20, 1.5, "seed"), ("a", 20, 0, "n"),
                                             (10, 20, float("nan"), "seed"),
                                             (np.float64(10), 20, 0, "n")])
def test_plan_sizes_and_seed_must_be_integers(n, w, seed, name):
    with pytest.raises(DesignError, match=f"{name} must be an integer"):
        make_flip_plan(n, w, seed=seed)


def test_keyed_streams_need_integer_keys():
    from signflip.flips import keyed_rng

    with pytest.raises(DesignError, match="seed must be an integer"):
        keyed_rng(float("nan"))
    with pytest.raises(DesignError, match="stream must be an integer"):
        keyed_rng(1, 2.0)
    # numpy integers name the same plan as Python ints
    a = make_flip_plan(np.int64(30), np.uint16(50), seed=np.uint64(7))
    b = make_flip_plan(30, 50, seed=7)
    assert (a.n, a.w, a.seed) == (30, 50, 7)
    assert_array_equal(a.signs, b.signs)
    assert keyed_rng(np.int32(3), np.int8(1)).random() == keyed_rng(3, 1).random()


@pytest.mark.parametrize("seed", [2**64, -1, 2**70])
def test_seeds_outside_a_key_word_are_refused_not_wrapped(seed):
    # 2^64 used to name seed 0's plan, and -1 that of 2^64 - 1
    from signflip.flips import keyed_rng

    design = build_design({"x": np.arange(6.0)}, tested=["x"])
    for call in (lambda: make_flip_plan(5, 8, seed=seed),
                 lambda: make_flip_plan(4, 16, mode="exhaustive", seed=seed),
                 lambda: keyed_rng(seed),
                 lambda: flip_test(np.arange(6.0), design, Gaussian(), w=8, seed=seed)):
        with pytest.raises(DesignError, match="seed must be at"):
            call()
    with pytest.raises(DesignError, match="stream must be at"):
        keyed_rng(0, seed)
    assert make_flip_plan(5, 8, seed=2**64 - 1).seed == 2**64 - 1


def _hand_built_plans():
    """Field changes that each broke a hand-built FlipPlan, by name."""
    signs = make_flip_plan(54, 200, seed=5).signs
    wide, moved, padded = signs.astype(np.int64), signs.copy(), signs.copy()
    wide[-1, 1], moved[0, 0], padded[-1, 1] = 300, 1, 0b11000000
    return {
        "extra row": {"signs": np.vstack((signs, signs[:1]))},  # was a bare IndexError
        "w": {"w": 199},  # ValueError
        "int64 signs": {"signs": wide},  # IndexError
        "list": {"signs": signs.tolist()},  # AttributeError
        "float n": {"n": 54.0},  # accepted
        "column 0": {"signs": moved},  # accepted, with T_1 moved
        "padding": {"signs": padded},  # accepted, bits past n ignored
        "mode": {"mode": "bootstrap"},
        "seed": {"seed": -1},
    }


_HAND_BUILT = _hand_built_plans()


@pytest.mark.parametrize("case", sorted(_HAND_BUILT))
def test_hand_built_plans_are_checked_before_a_kernel_reads_them(case):
    plan = make_flip_plan(54, 200, seed=5)
    contribs = np.linspace(-1.0, 1.0, 54)
    flip_statistics_scalar(contribs, replace(plan))
    with pytest.raises(DesignError):
        flip_statistics_scalar(contribs, replace(plan, **_HAND_BUILT[case]))


def test_without_replacement_rejects_w_above_two_to_the_n_for_any_n():
    with pytest.raises(DesignError, match="2\\^n"):
        make_flip_plan(21, 2**21 + 2, mode="without-replacement")
    with pytest.raises(DesignError, match="2\\^n"):
        make_flip_plan(40, 2**40 + 1, mode="without-replacement")


def test_distinct_sampler_fills_every_row_when_w_is_two_to_the_n():
    from signflip.flips import _Reader, _first_occurrences, _key, _sample_distinct

    for n in (1, 3, 8, 9):
        signs = _sample_distinct(_Reader(_key(n, 0)), n, 2**n)
        assert signs.shape == (-(-n // 8), 2**n)
        assert _first_occurrences(signs)[0].size == 2**n
        assert not signs[:, 0].any()


def _key_of(column):
    """The integer key of a packed flip: its first 8 bytes, little-endian."""
    return int.from_bytes(column[:8].tobytes(), "little")


def _assert_xor_keeps_keys_distinct(signs, g):
    # the exactness of a plan of distinct keys: XOR by its flip g maps it
    # to w flips whose keys are again pairwise distinct, one of them 0
    from signflip.flips import _keys

    keys = _keys(signs ^ signs[:, [g]])
    assert np.unique(keys).size == keys.size
    assert (keys == 0).any()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_first_occurrences_matches_dict_oracle(data):
    # few distinct columns over a 4-symbol byte alphabet make ties common;
    # a shared 8-byte prefix gives long columns that differ one key
    from signflip.flips import _first_occurrences

    nb = data.draw(st.integers(1, 13), label="nb")
    column = st.lists(st.sampled_from([0, 1, 128, 255]), min_size=nb, max_size=nb)
    pool = data.draw(st.lists(column, min_size=1, max_size=8), label="pool")
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                               max_size=40), label="picks")
    signs = np.array([pool[i] for i in picks], dtype=np.uint8).T.copy()
    if nb > 8 and data.draw(st.booleans(), label="shared prefix"):
        signs[:8] = signs[:8, :1]
    first = {}
    for j in range(signs.shape[1]):
        first.setdefault(_key_of(signs[:, j]), j)
    got, keys = _first_occurrences(signs)
    assert keys.tolist() == sorted(first)
    assert got.tolist() == [first[k] for k in sorted(first)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_distinct_sampler_matches_dict_oracle(data):
    # draws come from a small pool of columns, so a batch repeats itself and
    # the flips kept so far; a shared 8-byte prefix gives every other long
    # column of the pool one key, so only the first of them drawn is kept
    from signflip import flips

    nb = data.draw(st.integers(1, 13), label="nb")
    column = st.lists(st.sampled_from([0, 1, 128, 255]), min_size=nb, max_size=nb)
    pool = data.draw(st.lists(column, min_size=1, max_size=12), label="pool")
    pool = np.array(pool, dtype=np.uint8).T.copy()
    if nb > 8 and data.draw(st.booleans(), label="shared prefix"):
        pool[:8, ::2] = pool[:8, :1]
    distinct = {0} | {_key_of(col) for col in pool.T}
    assume(len(distinct) >= 2)
    w = data.draw(st.integers(2, len(distinct)), label="w")
    picker = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    drawn = []

    def draw_from_pool(reader, n, count):
        assert len(drawn) < 100, "the sampler keeps drawing"
        drawn.append(pool[:, picker.integers(0, pool.shape[1], count)])
        return drawn[-1]  # the sampler zeroes flip 0 of the first batch in place

    with mock.patch.object(flips, "_draw", draw_from_pool):
        signs = flips._sample_distinct(None, 8 * nb, w)
    first = {}
    for col in np.concatenate(drawn, axis=1).T:
        first.setdefault(_key_of(col), col)
    assert_array_equal(signs, np.array(list(first.values())[:w]).T)
    _assert_xor_keeps_keys_distinct(signs, data.draw(st.integers(0, w - 1), label="g"))


def test_distinct_sampler_keeps_one_of_two_long_flips_that_share_a_key():
    # flips 1 and 2 of the first draw agree in their first 64 signs and
    # differ in sign 65: the key decides, so flip 2 is a repeat and the
    # third flip comes from the next draw
    from signflip import flips

    one, twin, other = np.zeros((3, 9, 1), dtype=np.uint8)
    one[0] = twin[0] = other[1] = 1
    twin[8] = 1
    draws = iter([np.hstack((one, one, twin)), np.hstack((twin, other, one))])
    with mock.patch.object(flips, "_draw", lambda reader, n, count: next(draws)):
        signs = flips._sample_distinct(None, 72, 3)
    assert_array_equal(signs, np.hstack((np.zeros_like(one), one, other)))
    for g in range(3):
        _assert_xor_keeps_keys_distinct(signs, g)


@pytest.mark.parametrize("n", [21, 40, 70, 200])
def test_without_replacement_plans_keep_distinct_keys_under_xor_by_a_flip(n):
    w = 5000
    for seed in range(3):
        signs = make_flip_plan(n, w, "without-replacement", seed=seed).signs
        for g in (1, w // 2, w - 1):
            _assert_xor_keeps_keys_distinct(signs, g)


def test_distinct_sampler_stream_is_pinned():
    # SHA-256 of these plans; a different digest means the plan stream changed
    digest = hashlib.sha256()
    for n, w in ((21, 2), (21, 5000), (21, 2**17), (21, 2**21 - 2**19), (24, 1000),
                 (70, 500), (200, 64)):
        digest.update(make_flip_plan(n, w, "without-replacement", seed=n + w).signs.tobytes())
    assert digest.hexdigest() == (
        "c06b08deb9022a869a5d6bc9e2c5a07fd4f4320c2bc0ba5eb80e7aba23196dea")


def test_distinct_sampler_draws_start_at_whole_words():
    # each first draw repeats a key and has nb * w % 8 != 0 bytes, so a
    # next draw that started inside its last word would change the digest
    digest = hashlib.sha256()
    for n, w, seed in ((21, 5001, 1), (22, 20001, 3), (30, 70001, 4)):
        digest.update(make_flip_plan(n, w, "without-replacement", seed).signs.tobytes())
    assert digest.hexdigest() == (
        "fd5d609c2bce9e4f1d826ab3940d4980dc01b9f7c34a4e25558aaba7f038666c")


@settings(max_examples=60, deadline=None)
@example(n=21, w=5001, seed=1)  # a repeated key
@example(n=30, w=70001, seed=4)  # a repeated key, w % 8 != 0
@example(n=21, w=600, seed=5640)  # a later flip repeats the identity alone
@example(n=63, w=3, seed=0)  # padding inside the last key byte
@example(n=200, w=9, seed=2)  # keys of the first 8 of 25 plan bytes
@given(n=st.integers(21, 80) | st.integers(81, 300), w=st.integers(2, 20000),
       seed=st.integers(0, 2**64 - 1))
def test_streamable_is_whether_the_first_draw_has_distinct_keys(n, w, seed):
    # flip_test streams a without-replacement plan when its first draw,
    # the with-replacement plan, already has distinct keys
    from signflip.flips import _keys, streamed_chunks

    signs = make_flip_plan(n, w, seed=seed).signs
    distinct = np.unique(_keys(signs)).size == w
    assert (streamed_chunks(n, w, "without-replacement", seed) is not None) == distinct
    if distinct:
        assert_array_equal(make_flip_plan(n, w, "without-replacement", seed).signs, signs)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 30, 54])
def test_packed_plan_layout(n):
    w = 40
    modes = ["with-replacement", "without-replacement"]
    if n <= 8:
        modes.append("exhaustive")
    for mode in modes:
        plan = make_flip_plan(n, 2**n if mode == "exhaustive" else min(w, 2**n),
                              mode=mode, seed=n)
        nb = -(-n // 8)
        assert plan.signs.dtype == np.uint8
        assert plan.signs.shape == (nb, plan.w)
        assert plan.signs.nbytes == plan.w * nb
        assert not plan.signs[:, 0].any()
        if n % 8:
            assert not np.any(plan.signs[-1] >> (n % 8))
        bits = (plan.signs[np.arange(n) // 8] >> (np.arange(n) % 8)[:, None]) & 1
        assert_array_equal(plan.dense(), 1 - 2 * bits.T.astype(np.int8))
    # bit i % 8 of signs[i // 8, j] negates observation i in flip j;
    # exhaustive order counts in binary with the last coordinate fastest
    plan = make_flip_plan(3, 8, mode="exhaustive")
    assert plan.signs[0].tolist() == [0, 4, 2, 6, 1, 5, 3, 7]
    assert_array_equal(plan.dense()[1], [1, 1, -1])


@pytest.mark.parametrize("n", [5, 16, 70])
def test_with_replacement_plan_reads_keyed_stream_byte_major(n):
    # byte b of flip j is byte b*w + j of the plan stream, padding masked
    from signflip.flips import _PLAN_STREAM, keyed_rng

    w, seed, nb = 37, 11, -(-n // 8)
    plan = make_flip_plan(n, w, seed=seed)
    raw = keyed_rng(seed, _PLAN_STREAM).bit_generator.random_raw(-(-nb * w // 8))
    stream = np.frombuffer(raw.astype("<u8").tobytes(), dtype=np.uint8)
    want = np.array([[stream[b * w + j] for j in range(w)] for b in range(nb)],
                    dtype=np.uint8)
    if n % 8:
        want[-1] &= (1 << (n % 8)) - 1
    assert_array_equal(plan.signs[:, 1:], want[:, 1:])
    assert not plan.signs[:, 0].any()


@settings(max_examples=150, deadline=None)
@example(n=80, w=299, seed=0, chunk=7)  # w % 8 != 0: rows start inside a word
@example(n=80, w=36, seed=1, chunk=8)
@example(n=80, w=40, seed=2, chunk=33)  # w % 32 != 0: inside a counter's 4 words
@example(n=17, w=300, seed=3, chunk=33)
@example(n=600, w=299, seed=4, chunk=16384)  # one block, one generator
@example(n=600, w=299, seed=5, chunk=33)  # n > 256, rows of their own
@example(n=77, w=5, seed=6, chunk=16384)  # pieces of 8 and 2 bytes: words split
@given(
    n=st.integers(1, 80) | st.integers(257, 700),
    w=st.integers(2, 300),
    seed=st.integers(0, 2**32),
    chunk=st.sampled_from([7, 8, 33, 16384]),
)
def test_streamed_plan_blocks_are_the_plan_columns(n, w, seed, chunk):
    # flip_test draws a with-replacement plan piece by piece: 8 plan
    # bytes at a time from one reader when it is one block of flips, and
    # one row at a time from a reader per row when it is longer; stacked,
    # the pieces must be the plan's columns, padding masked and flip 0
    # cleared, however the pieces fall, and a held plan gives one slice
    # per block
    import signflip.engine as engine
    from signflip.flips import with_replacement_chunks

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_CHUNK", chunk)
        size = engine._block_flips(1, n)
    nb = -(-n // 8)
    pieces = [c.copy() for c in with_replacement_chunks(n, w, seed, size)]
    if w <= size:
        per_block = -(-nb // 8)
        assert [c.shape for c in pieces] == [(min(8, nb - b0), w)
                                             for b0 in range(0, nb, 8)]
    else:
        per_block = nb
        assert [c.shape for c in pieces] == [
            (1, min(size, w - s)) for s in range(0, w, size) for _ in range(nb)]
    blocks = [np.concatenate(pieces[i : i + per_block])
              for i in range(0, len(pieces), per_block)]
    plan = make_flip_plan(n, w, seed=seed)
    assert_array_equal(np.concatenate(blocks, axis=1), plan.signs)
    sliced = list(plan.chunks(size))
    assert [c.tobytes() for c in sliced] == [b.tobytes() for b in blocks]
    assert all(np.shares_memory(c, plan.signs) for c in sliced)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), start=st.integers(0, 100),
       sizes=st.lists(st.integers(0, 40), max_size=12))
def test_reader_reads_the_keyed_stream_from_any_byte(seed, start, sizes):
    # one reader serves every plan piece: its reads, concatenated, are
    # the stream's little-endian bytes from byte start on, however they fall
    from signflip.flips import _Reader, _key

    key = _key(seed, 9)
    reader = _Reader(key, start)
    reads = [reader.read(k) for k in sizes]
    assert [r.shape for r in reads] == [(k,) for k in sizes]
    words = np.random.Philox(key=key).random_raw(-(-(start + sum(sizes)) // 8) + 1)
    stream = np.frombuffer(words.astype("<u8").tobytes(), dtype=np.uint8)
    got = np.concatenate([np.empty(0, np.uint8), *reads])
    assert_array_equal(got, stream[start : start + sum(sizes)])


def test_first_row_is_identity_in_all_modes():
    for mode, w in (("with-replacement", 17), ("without-replacement", 9),
                    ("exhaustive", 16)):
        plan = make_flip_plan(4, w, mode=mode, seed=3)
        assert_array_equal(plan.dense()[0], np.ones(4, dtype=np.int8))


# ------------------------------------------------------------------ #
# effective scores
# ------------------------------------------------------------------ #

def test_effective_scores_gaussian_centering_identity():
    rng = np.random.default_rng(61)
    x = rng.normal(size=30)
    y = rng.normal(size=30)
    design = build_design({"x": x}, tested=["x"], intercept=True)
    fam = Gaussian()
    nf = fit_null(y, design, fam)
    scores = score_contributions(y, nf, design, fam)
    eff = effective_contributions(scores)
    expected = (x - x.mean()) * (y - nf.mu_hat)
    assert np.max(np.abs(eff[:, 0] - expected)) < 1e-10
    assert_allclose(scores.info.proj, [[x.mean()]], rtol=1e-12)


def test_effective_equals_basic_when_orthogonal():
    from signflip import InfoBlocks, ScoreSet

    rng = np.random.default_rng(67)
    half = rng.normal(size=15)
    x = np.concatenate([half, -half])  # centered up to summation rounding
    y = rng.normal(size=30)
    design = build_design({"x": x}, tested=["x"], intercept=True)
    fam = Gaussian()
    nf = fit_null(y, design, fam)
    scores = score_contributions(y, nf, design, fam)
    eff = effective_contributions(scores)
    assert abs(scores.info.I12[0, 0]) < 1e-15
    assert np.max(np.abs(eff - scores.nu)) < 1e-14

    # with I12 exactly zero the projection is the identity, bit for bit
    info0 = InfoBlocks(
        I11=scores.info.I11,
        I12=np.zeros_like(scores.info.I12),
        I22=scores.info.I22,
        proj=np.zeros_like(scores.info.proj),
        i_star=scores.info.I11,
    )
    eff0 = effective_contributions(
        ScoreSet(nu=scores.nu, nu_nuis=scores.nu_nuis, info=info0)
    )
    assert_array_equal(eff0, scores.nu)


def test_effective_scores_scale_linearly_in_misspecification():
    from dataclasses import replace
    from signflip import ScoreSet

    rng = np.random.default_rng(71)
    x, z = rng.normal(size=40), rng.normal(size=40)
    y = rng.poisson(np.exp(0.2 + 0.4 * z)).astype(float)
    design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                          intercept=True)
    fam = Poisson()
    nf = fit_null(y, design, fam)
    base = effective_contributions(score_contributions(y, nf, design, fam))

    c1, c2 = 3.0, 7.0
    nf_scaled = replace(nf, W_hat=c2 * nf.W_hat)
    scores = score_contributions(y, nf_scaled, design, fam)
    scaled = ScoreSet(nu=c1 * scores.nu, nu_nuis=c1 * scores.nu_nuis,
                      info=scores.info)
    eff = effective_contributions(scaled)
    assert_allclose(eff, c1 * base, rtol=1e-12)


def test_observed_effective_score_equals_observed_score_at_mle():
    rng = np.random.default_rng(73)
    x, z = rng.normal(size=120), rng.normal(size=120)
    y = rng.poisson(np.exp(0.1 + 0.6 * z)).astype(float)
    design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                          intercept=True)
    fam = Poisson()
    nf = fit_null(y, design, fam)
    scores = score_contributions(y, nf, design, fam)
    eff = effective_contributions(scores)
    n = design.n
    assert np.max(np.abs(eff.sum(axis=0) - scores.nu.sum(axis=0))
                  ) / np.sqrt(n) < 1e-8


# ------------------------------------------------------------------ #
# flip statistics
# ------------------------------------------------------------------ #

def test_chunked_signed_sums_are_position_addressed(monkeypatch):
    # partitioning the flip rows must not change the result; exact on
    # integer contributions, where every summation order agrees
    import signflip.engine as engine

    rng = np.random.default_rng(77)
    contribs = rng.integers(-9, 10, size=12).astype(float)
    plan = make_flip_plan(12, 300, seed=15)
    whole = flip_statistics_scalar(contribs, plan)
    monkeypatch.setattr(engine, "_CHUNK", 7)
    chunked = flip_statistics_scalar(contribs, plan)
    assert_array_equal(whole, chunked)


@pytest.mark.parametrize("kind", ["scalar", "quadratic"])
def test_complementary_flips_give_exactly_negated_statistics(kind):
    # row 2^n - 1 - j of the exhaustive plan is the complement of row j;
    # the two-sided tie counts rely on its statistic being exactly -T_j,
    # and the exact level of a quadratic form on its being exactly T_j
    rng = np.random.default_rng(79)
    plan = make_flip_plan(12, 2**12, mode="exhaustive")
    if kind == "scalar":
        values = flip_statistics_scalar(rng.normal(size=12), plan)
        assert_array_equal(values, -values[::-1])
    else:
        M = rng.normal(size=(3, 3))
        contribs = whiten(M @ M.T + np.eye(3), rng.normal(size=(12, 3)))
        values = flip_statistics_quadratic(contribs, plan)
        assert_array_equal(values, values[::-1])


def _all_sums(plan, contribs):
    """The signed sums of every flip, copied from each block as it comes."""
    import signflip.engine as engine

    chunks = plan.chunks(engine._CHUNK)
    return np.concatenate([b.copy() for b in engine._signed_sums(chunks, contribs)])


@settings(max_examples=60, deadline=None)
@example(n=1, d=1, w=2, seed=0, mode="with-replacement")
@example(n=9, d=4, w=33, seed=1, mode="without-replacement")
@example(n=300, d=2, w=17, seed=2, mode="without-replacement")
@example(n=70, d=3, w=40, seed=3, mode="with-replacement")
@example(n=260, d=9, w=25, seed=4, mode="with-replacement")
@given(
    n=st.integers(1, 300),
    d=st.integers(1, 9),
    w=st.integers(2, 40),
    seed=st.integers(0, 2**32),
    mode=st.sampled_from(["with-replacement", "without-replacement"]),
)
def test_lookup_kernel_matches_dense_product(n, d, w, seed, mode):
    # rows of 1, 2 and 4 columns, 3 columns padded to 4, and wider rows
    import signflip.engine as engine

    w = min(w, 2**n)
    plan = make_flip_plan(n, w, mode=mode, seed=seed)
    rng = np.random.default_rng(seed)
    contribs = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 7, size=d)
    got = _all_sums(plan, contribs)
    want = plan.dense().astype(float) @ contribs
    width = 4 if d == 3 else d
    assert got.shape == (w, width)
    assert not got[:, d:].any()
    assert np.all(np.abs(got[:, :d] - want) <= 1e-12 * np.abs(contribs).sum(axis=0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_CHUNK", 7)
        # every plan is summed 7 flips at a time, however long it is, and
        # rows wider than 4 in blocks of no more bytes: 28 // width flips,
        # unless the plan rebuilds its tables for each block (n > 256)
        m = min(7, 28 // width) if n <= 256 else 7
        sizes = [len(t) for t in engine._statistics(contribs, n, plan.chunks, True)]
        assert sizes == [min(m, w - s) for s in range(0, w, m)]
        assert_array_equal(_all_sums(plan, contribs), got)
        # byte-table blocks of any size give the same sums bit for bit
        for byte_block in (1, 2, 5):
            mp.setattr(engine, "_BYTE_BLOCK", byte_block)
            assert_array_equal(_all_sums(plan, contribs), got)


@settings(max_examples=40, deadline=None)
@example(n=20, d=3, w=30, seed=0)
@example(n=90, d=9, w=50, seed=1)
@given(
    n=st.integers(1, 120),
    d=st.integers(1, 9),
    w=st.integers(2, 60),
    seed=st.integers(0, 2**32),
)
def test_quadratic_sums_squares_in_column_order(n, d, w, seed):
    # T_j = s_j0^2 + s_j1^2 + ... accumulated left to right, bit for bit;
    # a pairwise or blocked sum over the columns rounds differently
    plan = make_flip_plan(n, w, seed=seed)
    contribs = np.random.default_rng(seed).normal(size=(n, d))
    s = _all_sums(plan, contribs) / np.sqrt(n)
    want = np.zeros(w)
    for c in range(d):
        want = want + s[:, c] * s[:, c]
    assert_array_equal(flip_statistics_quadratic(contribs, plan), want)


def test_quadratic_refuses_contributions_without_columns():
    plan = make_flip_plan(5, 10)
    with pytest.raises(DesignError, match=r"\(5, 0\)"):
        flip_statistics_quadratic(np.zeros((5, 0)), plan)
    with pytest.raises(DesignError, match=r"\(5, 2, 1\)"):
        flip_statistics_quadratic(np.zeros((5, 2, 1)), plan)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernels_refuse_non_finite_contributions(monkeypatch, bad):
    # a NaN statistic would count as no flip at all, so p = 0 < 1/w; an
    # infinity turns into NaN table entries (inf - inf); both are refused
    # before any table is built
    import signflip.engine as engine

    def no_tables(*args):
        raise AssertionError("a byte table was built")

    monkeypatch.setattr(engine, "_byte_tables", no_tables)
    plan = make_flip_plan(5, 16, seed=1)
    with pytest.raises(DesignError, match=r"shape \(5,\) hold NaN or inf"):
        flip_statistics_scalar(np.array([bad, 1.0, 2.0, 3.0, 4.0]), plan)
    contribs = np.ones((5, 2))
    contribs[3, 1] = bad
    with pytest.raises(DesignError, match=r"shape \(5, 2\) hold NaN or inf"):
        flip_statistics_quadratic(contribs, plan)


@pytest.mark.parametrize("kernel", [flip_statistics_scalar, flip_statistics_quadratic])
@pytest.mark.parametrize("bad", [[[1.0], [1.0, 2.0]], ["a", "b"], [[1 + 1j], [2]]],
                         ids=["ragged", "text", "complex"])
def test_kernels_refuse_ragged_text_and_complex_contributions(kernel, bad):
    # numpy would raise a bare ValueError on the first two and drop the
    # imaginary part of the third with only a warning
    plan = make_flip_plan(2, 4, mode="exhaustive")
    with pytest.raises(DesignError, match="contributions must be"):
        kernel(bad, plan)


def _peak_of_second_call(call):
    call()  # lazy imports and caches are not part of the call's memory
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _flip_test_peaks(y, design, ws=(200_000, 800_000), **kwargs):
    """flip_test's whole peak memory at each w in ``ws``."""
    return [_peak_of_second_call(
                lambda: flip_test(y, design, Poisson(), w=w, seed=4, **kwargs))
            for w in ws]


def test_flip_test_peak_memory_is_one_block_of_flips():
    # a with-replacement plan is drawn one block of flips at a time and
    # each block is summed, scaled and counted before the next is drawn,
    # so nothing grows with w; holding the plan would add w*ceil(n/8)
    # bytes, 4.2 MB between the two w, and the (w,) statistics 8w bytes
    table = warpbreaks()
    design = build_design({"wool": table["wool"], "tension": table["tension"]},
                          tested=["wool"], nuisance=["tension"], intercept=True)
    small, large = _flip_test_peaks(table["breaks"], design)
    assert abs(large - small) <= 2**16
    assert large <= 2**20


def test_quadratic_flip_test_peak_memory_at_n_50_does_not_grow_with_w():
    # the multivariate scenario's shape: five tested columns, identity
    # weights; one (block, 5) array of sums replaces the (w, 5) one
    rng = np.random.default_rng(103)
    n = 50
    X = rng.normal(size=(n, 6))
    y = rng.poisson(np.exp(0.3 + 0.2 * X[:, 5])).astype(float)
    design = build_design({f"x{i}": X[:, i] for i in range(6)},
                          tested=[f"x{i}" for i in range(5)], nuisance=["x5"],
                          intercept=True)
    small, large = _flip_test_peaks(y, design, vhat="identity")
    assert abs(large - small) <= 2**16
    assert large <= 2**21


def _n2000_quadratic():
    """Poisson data, n = 2000, three tested columns and one nuisance column."""
    rng = np.random.default_rng(101)
    n = 2000
    X = rng.normal(size=(n, 4))
    y = rng.poisson(np.exp(0.3 + 0.2 * X[:, 3])).astype(float)
    design = build_design({f"x{i}": X[:, i] for i in range(4)},
                          tested=["x0", "x1", "x2"], nuisance=["x3"],
                          intercept=True)
    return n, y, design


def test_quadratic_flip_test_peak_memory_is_one_plan_block_and_the_padded_sums():
    # n = 2000 is eight blocks of byte tables, built again for each block
    # of flips: three tested columns are summed in rows of four, and one
    # (8, block) piece of the plan, the (block, 4) sums and the
    # (block,) statistic are all that is held, whatever w is; holding the
    # plan would add 15 MB between the two w, and all w statistics 480 KB
    import signflip.engine as engine

    n, y, design = _n2000_quadratic()
    small, large = _flip_test_peaks(y, design, ws=(20_000, 80_000),
                                    vhat="inv-effective-info")
    assert abs(large - small) <= 2**16
    block = engine._CHUNK
    assert large <= -(-n // 8) * block + 8 * block * 4 + 8 * block + 2**20


def test_without_replacement_flip_test_peak_memory_grows_by_the_keys_alone():
    # at n > 20 the first 8 plan bytes of every flip are read whole, as
    # one uint64 key each, and sorted; the keys all differ, so the plan
    # is the with-replacement stream, drawn a piece at a time; holding
    # the plan would add 15 MB between the two w
    ws = (20_000, 80_000)
    n, y, design = _n2000_quadratic()
    small, large = _flip_test_peaks(y, design, ws=ws, vhat="inv-effective-info",
                                    mode="without-replacement")
    assert large - small <= 8 * (ws[1] - ws[0]) + 2**16
    assert large <= 8 * ws[1] + 2**21


def test_score_contributions_peak_is_under_three_n_by_3_arrays():
    # n = 10^4, three tested and three nuisance columns: the information
    # blocks come first and free each copy of X once it is read, and the
    # tested and nuisance copies are then scaled in place, so nu, nu_nuis
    # and the residuals are the most held at once; holding every copy
    # and product together took about 6.3 (n, 3) arrays
    rng = np.random.default_rng(149)
    n = 10**4
    X = rng.normal(size=(n, 5))
    y = rng.poisson(np.exp(0.3 + 0.2 * X[:, 3])).astype(float)
    design = build_design({f"x{i}": X[:, i] for i in range(5)},
                          tested=["x0", "x1", "x2"], nuisance=["x3", "x4"],
                          intercept=True)
    fit = fit_null(y, design, Poisson())
    peak = _peak_of_second_call(lambda: score_contributions(y, fit, design, Poisson()))
    assert peak < 3 * n * 3 * 8, peak


def test_whiten_starts_with_only_the_contributions_held(monkeypatch):
    # the wide-n-quadratic shape: I* is taken first, then the null fit
    # and the scores are freed, so whiten starts with the (n, 3)
    # effective contributions alone; keeping the fit and the scores
    # through whiten held about 3.7 (n, 3) arrays
    import signflip.engine as engine

    rng = np.random.default_rng(151)
    n, d = 10**4, 3
    X = 0.5 * rng.normal(size=(n, 5))
    y = rng.poisson(np.exp(0.5 + X[:, 3:] @ [0.3, -0.2])).astype(float)
    design = build_design({f"x{i}": X[:, i] for i in range(5)},
                          tested=["x0", "x1", "x2"], nuisance=["x3", "x4"],
                          intercept=True)
    held = []

    def traced(A, B):
        held.append(tracemalloc.get_traced_memory()[0])
        return whiten(A, B)

    monkeypatch.setattr(engine, "whiten", traced)
    _peak_of_second_call(lambda: flip_test(y, design, Poisson(), w=100, seed=1,
                                           vhat="inv-effective-info"))
    assert held[-1] <= 1.5 * n * d * 8, held[-1]


def test_wide_quadratic_blocks_are_sized_by_bytes():
    # at d = 200 a block of 16384 flips would hold two 26 MB arrays (the
    # sums and each gather's temporary); blocks of 16384 * 4 // 200 flips
    # keep both within the bytes of (16384, 4) sums
    import signflip.engine as engine

    n, d, w = 200, 200, 40_000
    contribs = np.random.default_rng(107).normal(size=(n, d))
    peak = _peak_of_second_call(
        lambda: flip_statistics_quadratic(contribs, make_flip_plan(n, w, seed=5)))
    nb = -(-n // 8)
    tables, plan, budget = nb * 256 * d * 8, nb * w, 8 * 4 * engine._CHUNK
    assert peak <= tables + plan + 2 * budget + 2**20


def test_scalar_statistics_zero_contributions():
    plan = make_flip_plan(5, 12, seed=1)
    stats = flip_statistics_scalar(np.zeros(5), plan)
    assert_array_equal(stats, np.zeros(12))


def test_scalar_statistics_refuse_more_than_one_column():
    # (5, 2) has 10 entries, so flattening it would fit an n = 10 plan
    with pytest.raises(DesignError, match=r"shape \(5, 2\)"):
        flip_statistics_scalar(np.ones((5, 2)), make_flip_plan(10, 20))
    with pytest.raises(DesignError, match=r"shape \(5, 2\)"):
        flip_statistics_scalar(np.ones((5, 2)), make_flip_plan(5, 20))
    with pytest.raises(DesignError, match=r"shape \(5, 1, 1\)"):
        flip_statistics_scalar(np.ones((5, 1, 1)), make_flip_plan(5, 20))
    plan = make_flip_plan(5, 20, seed=2)
    column = np.arange(5.0)[:, None]
    assert_array_equal(flip_statistics_scalar(column, plan),
                       flip_statistics_scalar(column[:, 0], plan))


def test_scalar_statistics_hand_enumeration_n2():
    plan = make_flip_plan(2, 4, mode="exhaustive")
    stats = flip_statistics_scalar(np.array([1.0, -1.0]), plan)
    root2 = np.sqrt(2.0)
    assert_allclose(stats, [0.0, root2, -root2, 0.0], atol=1e-15)


def test_identity_flip_is_observed_statistic():
    rng = np.random.default_rng(79)
    plan = make_flip_plan(24, 100, seed=4)
    # integer contributions: every summation order is exact, so the
    # identity-flip value equals the observed sum bit for bit
    ints = rng.integers(-9, 10, size=24).astype(float)
    stats = flip_statistics_scalar(ints, plan)
    assert stats[0] == ints.sum() / np.sqrt(24.0)
    floats = rng.normal(size=24)
    stats = flip_statistics_scalar(floats, plan)
    assert abs(stats[0] - floats.sum() / np.sqrt(24.0)) < 1e-14


def test_quadratic_reduces_to_squared_scalar_for_d1():
    rng = np.random.default_rng(83)
    contribs = rng.normal(size=16)
    plan = make_flip_plan(16, 64, seed=6)
    scalar = flip_statistics_scalar(contribs, plan)
    quad = flip_statistics_quadratic(contribs[:, None], plan)
    assert_allclose(quad, scalar**2, rtol=0, atol=0)
    assert np.all(quad >= 0)


def test_quadratic_identity_vhat_invariant_to_column_permutation():
    rng = np.random.default_rng(89)
    contribs = rng.normal(size=(20, 3))
    plan = make_flip_plan(20, 50, seed=8)
    a = flip_statistics_quadratic(contribs, plan)
    b = flip_statistics_quadratic(contribs[:, [2, 0, 1]], plan)
    assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_quadratic_rao_statistic_at_identity_flip():
    rng = np.random.default_rng(97)
    n, d = 80, 2
    X = rng.normal(size=(n, d))
    Z = rng.normal(size=(n, 1))
    y = rng.poisson(np.exp(0.2 + 0.3 * Z[:, 0])).astype(float)
    table = {"x1": X[:, 0], "x2": X[:, 1], "z": Z[:, 0]}
    design = build_design(table, tested=["x1", "x2"], nuisance=["z"],
                          intercept=True)
    fam = Poisson()
    nf = fit_null(y, design, fam)
    scores = score_contributions(y, nf, design, fam)
    eff = effective_contributions(scores)
    i_star = scores.info.i_star
    plan = make_flip_plan(n, 10, seed=10)
    stats = flip_statistics_quadratic(whiten(i_star, eff), plan)
    s = eff.sum(axis=0) / np.sqrt(n)
    rao = float(s @ solve_spd(i_star, s))
    assert abs(stats[0] - rao) < 1e-10


def test_whiten_rejects_indefinite_matrix():
    contribs = np.ones((6, 2))
    with pytest.raises(NumericalError, match="not positive definite"):
        whiten(np.array([[1.0, 0.0], [0.0, -1.0]]), contribs)
    with pytest.raises(NumericalError, match="not positive definite"):
        whiten(np.array([[1.0, 2.0], [2.0, 1.0]]), contribs)
    # the same finiteness checks as solve_spd
    contribs[3, 1] = np.nan
    with pytest.raises(NumericalError, match="NaN or an infinity"):
        whiten(np.eye(2), contribs)


# ------------------------------------------------------------------ #
# decisions and p-values
# ------------------------------------------------------------------ #

def test_decide_greater_w20_rejects_only_unique_max():
    vals = np.concatenate([[5.0], np.linspace(-1, 4, 19)])
    res = decide(vals, 0.05, "greater")
    assert res.reject
    tied = vals.copy()
    tied[1] = 5.0
    res = decide(tied, 0.05, "greater")
    assert not res.reject


def test_decide_all_equal_never_rejects():
    vals = np.full(40, 2.5)
    for alternative in ("greater", "less", "two-sided-abs", "two-sided-tails"):
        res = decide(vals, 0.25, alternative)
        assert not res.reject
        if alternative != "two-sided-tails":
            assert p_value(vals, alternative) == 1.0


def test_decide_and_p_value_agree_without_ties():
    rng = np.random.default_rng(101)
    w = 37
    for _ in range(10_000):
        vals = rng.normal(size=w)
        alpha = float(rng.uniform(0.02, 0.5))
        threshold = np.floor(alpha * w + 1e-9) / w
        assert decide(vals, alpha, "greater").reject == (
            p_value(vals, "greater") <= threshold
        )


def test_decide_matches_first_principles_oracle():
    rng = np.random.default_rng(103)
    for _ in range(2000):
        w = int(rng.integers(5, 60))
        vals = rng.normal(size=w)
        alpha = float(rng.uniform(0.01, 0.6))
        assert decide(vals, alpha, "greater").reject == oracle_reject_greater(
            list(vals), alpha
        )
        assert p_value(vals, "greater") == oracle_p_greater(list(vals))


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.integers(-3, 3), min_size=1, max_size=40),
    alpha=st.floats(0.01, 0.99),
)
def test_decide_matches_oracle_on_tied_integer_statistics(values, alpha):
    vals = np.asarray(values, dtype=float)
    assert decide(vals, alpha, "greater").reject == (
        oracle_reject_greater(list(vals), alpha)
    )
    # less is greater on the negated statistics
    assert decide(vals, alpha, "less").reject == (
        oracle_reject_greater(list(-vals), alpha)
    )


@settings(max_examples=400, deadline=None)
@given(
    values=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf,
                                     -np.inf]), min_size=1, max_size=30),
    alpha=st.floats(0.01, 0.99),
)
@example(values=[0.0, -0.0, 0.0, 1.0, -1.0], alpha=0.5)
@example(values=[-np.inf, np.inf, 1.0, -np.inf], alpha=0.7)
def test_two_sided_abs_count_matches_an_abs_oracle(values, alpha):
    # p_value and decide count |T_j| >= |T_1| without forming |T|; the
    # oracle forms it, with ties, signed zeros and infinities
    vals = np.asarray(values)
    p = np.count_nonzero(np.abs(vals) >= np.abs(vals[0])) / vals.size
    assert p_value(vals, "two-sided-abs") == p
    res = decide(vals, alpha, "two-sided-abs")
    assert res.p_value == p
    assert res.reject == (p <= alpha)


@pytest.mark.parametrize("values", [np.array([-128, 3, 5, -7], np.int8),
                                    np.array([2**53 + 1, 2**53]),
                                    np.array([-2**63, 2**63 - 1])])
def test_integer_statistics_are_counted_against_the_exact_t1(values):
    # -|T_1| of int8 -128 wraps in int8, and 2^53 + 1 rounds to 2^53
    # through float; p_value and decide both count against T_1 exactly,
    # as the Python-int oracle does, and warn of nothing
    t = [int(v) for v in values]
    want = {"greater": sum(v >= t[0] for v in t) / len(t),
            "less": sum(v <= t[0] for v in t) / len(t),
            "two-sided-abs": sum(abs(v) >= abs(t[0]) for v in t) / len(t)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alternative, p in want.items():
            assert p_value(values, alternative) == p, alternative
            res = decide(values, 0.5, alternative)
            assert res.p_value == p, alternative
            assert type(res.statistic) is float and res.statistic == float(t[0])


@pytest.mark.parametrize("values", [[-0.0, 0.0, -2.5, np.nan], [np.nan, 1.0, np.nan],
                                    [np.nan, 1.0], [1.0, np.nan]])
@pytest.mark.parametrize("alternative", ["greater", "less", "two-sided-abs",
                                         "two-sided-tails"])
def test_nan_statistics_are_refused(values, alternative):
    vals = np.asarray(values)
    with pytest.raises(DesignError, match="NaN"):
        decide(vals, 0.05, alternative)
    if alternative != "two-sided-tails":
        with pytest.raises(DesignError, match="NaN"):
            p_value(vals, alternative)


@pytest.mark.parametrize("values", [np.ones((3, 2)), np.ones((4, 1)), np.array([]),
                                    np.array(["1", "2"]), [1.0, 2.0], 1.0,
                                    np.array([3, 1, 2], dtype=np.uint8),
                                    np.array([True, False])])
def test_statistics_must_be_a_non_empty_1d_float_or_signed_array(values):
    with pytest.raises(DesignError, match="non-empty 1-d float or signed integer"):
        p_value(values, "two-sided-abs")
    with pytest.raises(DesignError, match="non-empty 1-d float or signed integer"):
        decide(values, 0.05, "greater")
    assert p_value(np.array([3, 1, -4]), "two-sided-abs") == 2 / 3


def test_an_unknown_rule_is_refused_before_the_statistics_are_read():
    with pytest.raises(DesignError, match="unknown alternative"):
        decide(np.array([np.nan]), 0.05, "two-sided")
    with pytest.raises(DesignError, match="alpha"):
        decide(np.ones((2, 2)), 1.5, "greater")


def test_two_sided_tails_requires_multiples_of_one_over_w():
    vals = np.linspace(-1, 1, 20)
    with pytest.raises(DesignError, match="multiples"):
        decide(vals, 0.1, "two-sided-tails", alpha1=0.033, alpha2=0.05)
    res = decide(vals, 0.1, "two-sided-tails", alpha1=0.05, alpha2=0.05)
    assert res.alternative == "two-sided-tails"


def test_two_sided_tails_needs_both_tail_levels_or_neither():
    # T_1 is the largest of 100 values, so the default tails (0.05 each)
    # reject; a lone alpha1 = 0.01 is refused, not replaced by the default
    vals = np.concatenate([[100.0], np.arange(99.0)])
    with pytest.raises(DesignError, match="both alpha1 and alpha2"):
        decide(vals, 0.1, "two-sided-tails", alpha1=0.01)
    with pytest.raises(DesignError, match="both alpha1 and alpha2"):
        decide(vals, 0.1, "two-sided-tails", alpha2=0.01)
    assert decide(vals, 0.1, "two-sided-tails").reject
    assert not decide(vals, 0.1, "two-sided-tails", alpha1=0.01, alpha2=0.0).reject


def test_tail_levels_are_refused_unless_two_sided_tails_can_use_them():
    # each was accepted: tail levels were ignored under another alternative,
    # and alpha1 = alpha2 = 0.5 rejected at T_1 = the median while the
    # result reported alpha = 0.05
    vals = np.concatenate([[49.5], np.arange(99.0)])
    for alternative in ("greater", "less", "two-sided-abs"):
        for levels in (dict(alpha1=0.5, alpha2=0.5), dict(alpha1=0.01), dict(alpha2=0.0)):
            with pytest.raises(DesignError, match="only with two-sided-tails"):
                decide(vals, 0.05, alternative, **levels)
    for alpha1, alpha2 in ((0.5, 0.5), (-0.01, 0.05), (0.03, 0.03), (0.06, 0.0)):
        with pytest.raises(DesignError, match="alpha1 \\+ alpha2 <= alpha"):
            decide(vals, 0.05, "two-sided-tails", alpha1=alpha1, alpha2=alpha2)
    # the sum is compared as multiples of 1/w, where 0.1 + 0.2 > 0.3 in floats
    assert not decide(vals, 0.3, "two-sided-tails", alpha1=0.1, alpha2=0.2).reject
    assert not decide(vals, 0.05, "two-sided-tails", alpha1=0.05, alpha2=0.0).reject


def test_two_sided_tails_union_of_one_sided_rules():
    rng = np.random.default_rng(107)
    w = 40
    for _ in range(500):
        vals = rng.normal(size=w)
        tails = decide(vals, 0.1, "two-sided-tails", alpha1=0.05, alpha2=0.05)
        lo = decide(vals, 0.05, "less")
        hi = decide(vals, 0.05, "greater")
        assert tails.reject == (lo.reject or hi.reject)


def test_p_value_counting_and_bounds():
    vals = np.concatenate([[10.0], np.arange(99, dtype=float)])
    assert p_value(np.concatenate([[1000.0], np.arange(99.0)]), "greater") == 0.01
    assert p_value(vals, "greater") >= 1 / 100
    with pytest.raises(DesignError):
        p_value(vals, "two-sided-tails")


def test_scale_equivariance_of_scalar_statistics_and_decisions():
    rng = np.random.default_rng(109)
    contribs = rng.normal(size=30)
    plan = make_flip_plan(30, 100, seed=11)
    base = flip_statistics_scalar(contribs, plan)
    scaled = flip_statistics_scalar(3.5 * contribs, plan)
    assert_allclose(scaled, 3.5 * base, rtol=1e-12)
    for alternative in ("greater", "less", "two-sided-abs"):
        assert p_value(base, alternative) == p_value(scaled, alternative)
        assert (
            decide(base, 0.07, alternative).reject
            == decide(scaled, 0.07, alternative).reject
        )


# ------------------------------------------------------------------ #
# flip_test orchestration
# ------------------------------------------------------------------ #

def test_flip_test_centered_x_basic_equals_effective():
    rng = np.random.default_rng(113)
    half = rng.normal(size=20)
    x = np.concatenate([half, -half])  # exactly centered
    y = rng.normal(size=40)
    design = build_design({"x": x}, tested=["x"], intercept=True)
    fam = Gaussian()
    basic = flip_test(y, design, fam, method="basic", w=500, seed=21)
    eff = flip_test(y, design, fam, method="effective", w=500, seed=21)
    assert basic.p_value == eff.p_value
    assert basic.reject == eff.reject


def test_flip_test_misspecification_hooks_leave_decision_unchanged():
    rng = np.random.default_rng(127)
    x, z = rng.normal(size=50), rng.normal(size=50)
    y = rng.poisson(np.exp(0.1 + 0.5 * z)).astype(float)
    design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                          intercept=True)
    fam = Poisson()
    base = flip_test(y, design, fam, w=300, seed=31)
    # the same effective-score test with scores x5 and IRLS weights x2
    fit = fit_null(y, design, fam)
    fit = replace(fit, W_hat=2.0 * fit.W_hat)
    scores = score_contributions(y, fit, design, fam)
    scores = ScoreSet(nu=5.0 * scores.nu, nu_nuis=5.0 * scores.nu_nuis,
                      info=scores.info)
    nu_star = effective_contributions(scores)
    plan = make_flip_plan(design.n, 300, seed=31)
    scaled = decide(flip_statistics_scalar(nu_star[:, 0], plan), 0.05,
                    "two-sided-abs")
    assert base.p_value == scaled.p_value
    assert base.reject == scaled.reject


def test_flip_test_provenance_and_validation():
    rng = np.random.default_rng(131)
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    design = build_design({"x": x}, tested=["x"], intercept=True)
    res = flip_test(y, design, Gaussian(), w=64, seed=17)
    assert res.w == 64 and res.seed == 17
    assert res.method == "flip-effective"
    assert 1 / 64 <= res.p_value <= 1.0
    with pytest.raises(DesignError):
        flip_test(y, design, Gaussian(), method="oracle")
    x2 = rng.normal(size=20)
    design2 = build_design({"x": x, "x2": x2}, tested=["x", "x2"], intercept=True)
    # vhat is checked for every d, the scalar statistic included
    for des in (design, design2):
        with pytest.raises(DesignError, match="vhat"):
            flip_test(y, des, Gaussian(), vhat="bogus", w=16)


def test_flip_test_checks_its_rule_before_the_fit_and_the_plan(monkeypatch):
    # a bad alpha, alternative, mode, w or seed is refused before the null
    # fit runs and before 10^8 flips are drawn
    import signflip.engine as engine

    def unreachable(*args, **kwargs):
        raise AssertionError("the fit or the plan ran")

    monkeypatch.setattr(engine, "fit_null", unreachable)
    monkeypatch.setattr(engine, "make_flip_plan", unreachable)
    rng = np.random.default_rng(139)
    design = build_design({"x": rng.normal(size=20)}, tested=["x"], intercept=True)
    y = rng.normal(size=20)
    for bad in (dict(alpha=0.0), dict(alpha=1.5), dict(alternative="bogus"),
                dict(mode="bogus"), dict(w=1), dict(w=10**15), dict(seed=-1)):
        with pytest.raises(DesignError, match="alpha|alternative|mode|w must|w=|seed must"):
            flip_test(y, design, Gaussian(), **{"w": 10**8, **bad})


def test_flip_sums_past_the_double_range_are_a_numerical_error_before_any_flip_is_summed(
        monkeypatch):
    # 8 contributions of 1e308 summed to inf with an overflow warning, and
    # p_value then refused the NaN statistics as a DesignError
    import signflip.engine as engine

    plan, big = make_flip_plan(8, 16, seed=1), np.finfo(float).max
    # at the bounds n max|c| and d n max|c|^2 every sum stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(flip_statistics_scalar(np.full(8, big / 8), plan)).all()
        assert np.isfinite(flip_statistics_quadratic(np.full((8, 2), 2.0**509), plan)).all()

    def unreachable(*args, **kwargs):
        raise AssertionError("a flip was summed")

    monkeypatch.setattr(engine, "_signed_sums", unreachable)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda: flip_statistics_scalar(np.full(8, 1e308), plan),
                    lambda: flip_statistics_scalar(np.r_[np.zeros(7), -big / 4], plan),
                    lambda: flip_statistics_quadratic(np.full((8, 2), 1e154), plan)):
            with pytest.raises(NumericalError, match="can pass the double range"):
                run()
        # non-finite contributions stay an input error
        with pytest.raises(DesignError, match="contributions must be finite"):
            flip_statistics_scalar(np.r_[np.zeros(7), np.inf], plan)


def test_flip_test_refuses_a_plan_past_memory_before_any_flip_is_drawn(monkeypatch):
    # a streamed plan holds one block, but w * ceil(n/8) bytes past
    # physical memory would take a run that does not end: it is refused
    # as make_flip_plan refuses it, before the first block is drawn
    import signflip.engine as engine
    import signflip.flips as flips

    def unreachable(*args, **kwargs):
        raise AssertionError("a flip was drawn or summed")

    monkeypatch.setattr(flips, "with_replacement_chunks", unreachable)
    monkeypatch.setattr(engine, "_signed_sums", unreachable)
    table = warpbreaks()
    design = build_design({"wool": table["wool"], "tension": table["tension"]},
                          tested=["wool"], nuisance=["tension"], intercept=True)
    with pytest.raises(DesignError, match="physical memory"):
        flip_test(table["breaks"], design, Poisson(), w=10**15)


@settings(max_examples=80, deadline=None)
@example(n=300, d=1, w=40, seed=0, alternative="two-sided-abs", alpha=0.3,
         mode="with-replacement", balanced=True, chunk=7)
@example(n=8, d=5, w=60, seed=1, alternative="two-sided-tails", alpha=0.5,
         mode="without-replacement", balanced=False, chunk=7)
@example(n=54, d=1, w=299, seed=2, alternative="greater", alpha=0.05,
         mode="with-replacement", balanced=False, chunk=33)
@example(n=77, d=3, w=100, seed=3, alternative="less", alpha=0.2,
         mode="with-replacement", balanced=True, chunk=8)
@given(
    n=st.sampled_from([8, 20, 54, 256, 257, 300]) | st.integers(8, 300),
    d=st.sampled_from([1, 2, 3, 5]),
    w=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
    alternative=st.sampled_from(["greater", "less", "two-sided-abs",
                                 "two-sided-tails"]),
    alpha=st.floats(0.01, 0.99),
    mode=st.sampled_from(["with-replacement", "without-replacement"]),
    balanced=st.booleans(),
    chunk=st.sampled_from([7, 8, 33]),
)
def test_flip_test_counts_blocks_as_decide_counts_the_statistics(
        n, d, w, seed, alternative, alpha, mode, balanced, chunk):
    # flip_test draws a with-replacement plan a block of flips at a time
    # and counts each block against T_1 as it is summed; decide counts all
    # w statistics of the materialized plan at once.  Integer
    # contributions tie flips with T_1, and balanced columns make T_1 = 0.
    import signflip.engine as engine

    if mode == "without-replacement":
        w = min(w, 2**n)
    rng = np.random.default_rng(seed)
    contribs = rng.integers(-2, 3, size=(n, d)).astype(float)
    if balanced:
        contribs[-1] -= contribs.sum(axis=0)
    design = build_design({f"x{i}": rng.normal(size=n) for i in range(d)},
                          tested=[f"x{i}" for i in range(d)], intercept=True)
    y = rng.normal(size=n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_CHUNK", chunk)
        mp.setattr(engine, "effective_contributions", lambda scores: contribs)
        got = flip_test(y, design, Gaussian(), alternative=alternative,
                        alpha=alpha, w=w, mode=mode, seed=seed)
        plan = make_flip_plan(n, w, mode=mode, seed=seed)
        stats = (flip_statistics_scalar(contribs[:, 0], plan) if d == 1
                 else flip_statistics_quadratic(contribs, plan))
    want = decide(stats, alpha, alternative, method="flip-effective")
    assert got == replace(want, w=w, seed=seed)


@pytest.mark.parametrize("n, held", [(21, True), (70, False)])
def test_without_replacement_flip_test_holds_the_plan_only_when_keys_repeat(
        monkeypatch, n, held):
    # at n = 21 and w = 4000 the first draw repeats a flip for seeds 0-2,
    # so the sampler draws again and flip_test reads the held plan; at
    # n = 70 the keys differ and the plan is the with-replacement stream
    import signflip.engine as engine

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return make_flip_plan(*args, **kwargs)

    monkeypatch.setattr(engine, "make_flip_plan", counted)
    w, family = 4000, Gaussian()
    rng = np.random.default_rng(n)
    design = build_design({"x": rng.normal(size=n)}, tested=["x"], intercept=True)
    y = rng.normal(size=n)
    contribs = effective_contributions(
        score_contributions(y, fit_null(y, design, family), design, family))
    for seed in range(3):
        got = flip_test(y, design, family, w=w, mode="without-replacement", seed=seed)
        plan = make_flip_plan(n, w, mode="without-replacement", seed=seed)
        stream = make_flip_plan(n, w, seed=seed).signs
        assert np.array_equal(plan.signs, stream) != held
        want = decide(flip_statistics_scalar(contribs, plan), 0.05, "two-sided-abs",
                      method="flip-effective")
        assert got == replace(want, w=w, seed=seed)
    assert len(calls) == (3 if held else 0)


@pytest.mark.parametrize("byte_block", [1, 3, 5, 12])
@pytest.mark.parametrize("n, mode, w", [(300, "with-replacement", 3000),
                                        (12, "exhaustive", 2**12),
                                        (20, "without-replacement", 3000)])
@pytest.mark.parametrize("tested", [1, 3])
def test_flip_test_is_the_same_for_table_blocks_of_any_height(
        monkeypatch, byte_block, n, mode, w, tested):
    # the plan decides how high its pieces are (8 plan bytes streamed, a
    # whole held plan per block of flips) and the kernel builds each
    # table block at the plan row that starts it, so a piece may straddle
    # table blocks of any height and the result does not move
    import signflip.engine as engine

    rng = np.random.default_rng(n + tested)
    X = rng.normal(size=(n, tested + 1))
    y = rng.poisson(np.exp(0.3 + 0.2 * X[:, -1])).astype(float)
    design = build_design({f"x{i}": X[:, i] for i in range(tested + 1)},
                          tested=[f"x{i}" for i in range(tested)], intercept=True)

    def run():
        return flip_test(y, design, Poisson(), w=w, mode=mode, seed=3,
                         vhat="inv-effective-info")

    want = run()
    monkeypatch.setattr(engine, "_BYTE_BLOCK", byte_block)
    assert run() == want


def test_long_plans_rebuild_their_tables_for_blocks_of_at_least_1024_flips(
        monkeypatch):
    # n = 300 is two blocks of byte tables, 32 and 6 plan bytes, both
    # built again for each block of flips; at d = 200 blocks sized by
    # bytes alone hold 327 flips, against the 256 table rows built per
    # plan byte; blocks of at least 1024 flips build the tables
    # 2 * ceil(w / 1024) times, where 327 would build them 32 times.  The
    # streamed plan of more than one block comes one plan row per piece,
    # and the kernel builds each table block at the plan row that starts it
    import signflip.engine as engine
    import signflip.flips as flips

    builds, rows = [], []

    def counted(*args):
        builds.append(args)
        return tables(*args)

    def pieces(*args):
        for piece in stream(*args):
            rows.append(piece.shape[0])
            yield piece

    tables, stream = engine._byte_tables, flips.with_replacement_chunks
    monkeypatch.setattr(engine, "_byte_tables", counted)
    monkeypatch.setattr(flips, "with_replacement_chunks", pieces)
    n, d, w = 300, 200, 5000
    rng = np.random.default_rng(113)
    X = rng.normal(size=(n, d))
    design = build_design({f"x{i}": X[:, i] for i in range(d)},
                          tested=[f"x{i}" for i in range(d)], intercept=True)
    y = rng.poisson(1.0, size=n).astype(float)
    flip_test(y, design, Poisson(), w=w, seed=7)
    assert [len(contribs) for contribs, _ in builds] == [256, 44] * -(-w // 1024)
    assert rows == [1] * 38 * -(-w // 1024)


def test_flip_test_multivariate_paths():
    rng = np.random.default_rng(137)
    n = 60
    X = rng.normal(size=(n, 3))
    z = rng.normal(size=n)
    y = rng.poisson(np.exp(0.2 + 0.4 * z)).astype(float)
    table = {f"x{j}": X[:, j] for j in range(3)}
    table["z"] = z
    design = build_design(table, tested=[f"x{j}" for j in range(3)],
                          nuisance=["z"], intercept=True)
    for vhat in ("identity", "inv-effective-info"):
        res = flip_test(y, design, Poisson(), w=200, seed=41, vhat=vhat)
        assert res.statistic >= 0.0
        assert 1 / 200 <= res.p_value <= 1.0


# ------------------------------------------------------------------ #
# distributional invariants (Monte Carlo)
# ------------------------------------------------------------------ #

def test_flip_statistics_uncorrelated_and_normal_under_null():
    # cov(T_j, T_k) = 0 over the joint randomness of data and flips;
    # plans are redrawn per dataset (see decisions ledger).
    rng = np.random.default_rng(139)
    n, reps = 100, 10_000
    t2 = np.empty(reps)
    t3 = np.empty(reps)
    for r in range(reps):
        contribs = rng.standard_normal(n)
        plan = make_flip_plan(n, 5, seed=r)
        stats = flip_statistics_scalar(contribs, plan)
        t2[r], t3[r] = stats[1], stats[2]
    corr = np.corrcoef(t2, t3)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(reps)

    z = (t2 - t2.mean()) / t2.std()
    skew = np.mean(z**3)
    kurt = np.mean(z**4) - 3.0
    assert abs(skew) < 0.1
    assert abs(kurt) < 0.2


def test_effective_score_nuisance_orthogonality():
    # exact part: the weighted projection identity (X_D - Z proj)' W Z = 0
    rng = np.random.default_rng(149)
    n = 100
    x, z = rng.normal(size=n), rng.normal(size=n)
    y = rng.poisson(np.exp(0.3 + 0.5 * z)).astype(float)
    design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                          intercept=True)
    fam = Poisson()
    nf = fit_null(y, design, fam)
    scores = score_contributions(y, nf, design, fam)
    x_star = design.X_tested - design.X_nuisance @ scores.info.proj
    cross = x_star.T @ (nf.W_hat[:, None] * design.X_nuisance) / n
    assert np.max(np.abs(cross)) < 1e-8

    # statistical part: Monte-Carlo mean of the sample covariance
    def mc_mean_cov(family_name, reps=400):
        covs = []
        for r in range(reps):
            xx, zz = rng.normal(size=n), rng.normal(size=n)
            if family_name == "gaussian":
                fam_r, yy = Gaussian(), 0.5 * zz + rng.normal(size=n)
            else:
                fam_r, yy = Poisson(), rng.poisson(np.exp(0.2 + 0.4 * zz)).astype(float)
            des = build_design({"x": xx, "z": zz}, tested=["x"], nuisance=["z"],
                               intercept=True)
            fit = fit_null(yy, des, fam_r)
            sc = score_contributions(yy, fit, des, fam_r)
            ef = effective_contributions(sc)
            a = ef[:, 0]
            b = sc.nu_nuis[:, 1]  # the z column
            covs.append(np.mean(a * b) - a.mean() * b.mean())
        return np.asarray(covs)

    covs = mc_mean_cov("gaussian")
    assert abs(covs.mean()) < 4.0 * covs.std() / np.sqrt(covs.size)
    covs = mc_mean_cov("poisson")
    assert abs(covs.mean()) < 5.0 / np.sqrt(n)


def test_exhaustive_mode_exact_rejection_probability():
    # Prop 1 with the full enumeration: rate is exactly floor(a 2^n)/2^n
    rng = np.random.default_rng(151)
    n, alpha, reps = 8, 0.05, 20_000
    w = 2**n
    target = np.floor(alpha * w) / w
    rejects = 0
    for r in range(reps):
        contribs = rng.standard_normal(n)
        plan = make_flip_plan(n, w, mode="exhaustive", seed=r)
        stats = flip_statistics_scalar(contribs, plan)
        rejects += decide(stats, alpha, "greater").reject
    rate = rejects / reps
    se = np.sqrt(target * (1 - target) / reps)
    assert abs(rate - target) < 3.0 * se
