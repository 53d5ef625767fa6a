"""Flip plans, flip statistics, decision rules and the flip test."""

import hashlib
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


def test_without_replacement_rejects_w_above_two_to_the_n_for_any_n():
    with pytest.raises(DesignError, match="2\\^n"):
        make_flip_plan(21, 2**21 + 2, mode="without-replacement")
    with pytest.raises(DesignError, match="2\\^n"):
        make_flip_plan(40, 2**40 + 1, mode="without-replacement")


def test_distinct_sampler_fills_every_row_when_w_is_two_to_the_n():
    from signflip.flips import _first_occurrences, _sample_distinct, keyed_rng

    for n in (1, 3, 8, 9):
        signs = _sample_distinct(keyed_rng(n), n, 2**n)
        assert signs.shape == (-(-n // 8), 2**n)
        assert _first_occurrences(signs).size == 2**n
        assert not signs[:, 0].any()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_first_occurrences_matches_dict_oracle(data):
    # few distinct columns over a 4-symbol byte alphabet make ties common;
    # a shared 8-byte prefix makes the uint64 keys of long columns collide
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
        first.setdefault(signs[:, j].tobytes(), j)
    assert _first_occurrences(signs).tolist() == sorted(first.values())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_distinct_sampler_matches_dict_oracle(data):
    # draws come from a small pool of columns, so a batch repeats itself and
    # the flips kept so far; a shared 8-byte prefix makes long keys collide
    from signflip import flips

    nb = data.draw(st.integers(1, 13), label="nb")
    column = st.lists(st.sampled_from([0, 1, 128, 255]), min_size=nb, max_size=nb)
    pool = data.draw(st.lists(column, min_size=1, max_size=12), label="pool")
    pool = np.array(pool, dtype=np.uint8).T.copy()
    if nb > 8 and data.draw(st.booleans(), label="shared prefix"):
        pool[:8] = pool[:8, :1]
    distinct = {bytes(nb)} | {col.tobytes() for col in pool.T}
    assume(len(distinct) >= 2)
    w = data.draw(st.integers(2, len(distinct)), label="w")
    picker = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    drawn = []

    def draw_from_pool(rng, n, count):
        assert len(drawn) < 100, "the sampler keeps drawing"
        drawn.append(pool[:, picker.integers(0, pool.shape[1], count)])
        return drawn[-1]  # the sampler zeroes flip 0 of the first batch in place

    with mock.patch.object(flips, "_random_flips", draw_from_pool):
        signs = flips._sample_distinct(None, 8 * nb, w)
    first = {}
    for col in np.concatenate(drawn, axis=1).T:
        first.setdefault(col.tobytes(), col)
    assert_array_equal(signs, np.array(list(first.values())[:w]).T)


def test_distinct_sampler_stream_is_pinned():
    # SHA-256 of these plans; a different digest means the plan stream changed
    digest = hashlib.sha256()
    for n, w in ((21, 2), (21, 5000), (21, 2**17), (21, 2**21 - 2**19), (24, 1000),
                 (70, 500), (200, 64)):
        digest.update(make_flip_plan(n, w, "without-replacement", seed=n + w).signs.tobytes())
    assert digest.hexdigest() == (
        "c06b08deb9022a869a5d6bc9e2c5a07fd4f4320c2bc0ba5eb80e7aba23196dea")


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


@settings(max_examples=60, deadline=None)
@example(n=1, d=1, w=2, seed=0, mode="with-replacement")
@example(n=9, d=4, w=33, seed=1, mode="without-replacement")
@example(n=300, d=2, w=17, seed=2, mode="without-replacement")
@given(
    n=st.integers(1, 300),
    d=st.integers(1, 4),
    w=st.integers(2, 40),
    seed=st.integers(0, 2**32),
    mode=st.sampled_from(["with-replacement", "without-replacement"]),
)
def test_lookup_kernel_matches_dense_product(n, d, w, seed, mode):
    import signflip.engine as engine

    w = min(w, 2**n)
    plan = make_flip_plan(n, w, mode=mode, seed=seed)
    rng = np.random.default_rng(seed)
    contribs = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 7, size=d)
    got = engine._signed_sums(plan.signs, contribs)
    want = plan.dense().astype(float) @ contribs
    assert got.shape == (w, d)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(contribs).sum(axis=0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_CHUNK", 7)
        assert_array_equal(engine._signed_sums(plan.signs, contribs), got)


def test_scalar_statistics_zero_contributions():
    plan = make_flip_plan(5, 12, seed=1)
    stats = flip_statistics_scalar(np.zeros(5), plan)
    assert_array_equal(stats, np.zeros(12))


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
