"""Score contributions, information blocks and the log-likelihood."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from signflip import (
    Binomial,
    DesignError,
    DesignMatrix,
    Fit,
    Gaussian,
    NumericalError,
    Poisson,
    build_design,
    fit_full,
    fit_null,
    flip_test,
    information_blocks,
    parametric_score_test,
    rao_test,
    score_contributions,
)
from signflip.glm import check_conditioned, solve_spd
from oracles import fd_gradient, info_elementwise, log_likelihood


def _random_model(rng, family_name, n=30, extra_nuisance=1):
    x = rng.normal(size=n)
    cols = {"x": x}
    nuis = []
    for j in range(extra_nuisance):
        cols[f"z{j}"] = rng.normal(size=n)
        nuis.append(f"z{j}")
    eta = 0.1 + sum(0.3 * cols[name] for name in nuis)
    if family_name == "gaussian":
        fam, y = Gaussian(), eta + rng.normal(size=n)
    elif family_name == "poisson":
        fam, y = Poisson(), rng.poisson(np.exp(eta)).astype(float)
    else:
        fam = Binomial(trials=1)
        y = rng.binomial(1, 1 / (1 + np.exp(-eta))).astype(float)
    design = build_design(cols, tested=["x"], nuisance=nuis, intercept=True)
    return y, design, fam


def test_gaussian_scores_closed_form():
    rng = np.random.default_rng(5)
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    design = build_design({"x": x}, tested=["x"], intercept=True)
    nf = fit_null(y, design, Gaussian())
    scores = score_contributions(y, nf, design, Gaussian())
    assert_allclose(scores.nu[:, 0], x * (y - y.mean()), atol=1e-12)
    assert_allclose(scores.nu_nuis[:, 0], y - y.mean(), atol=1e-12)


def test_scores_vanish_when_response_equals_fit():
    y = np.full(12, 4.0)
    design = build_design({"x": np.arange(12.0)}, tested=["x"], intercept=True)
    nf = fit_null(y, design, Poisson())
    scores = score_contributions(y, nf, design, Poisson())
    assert np.max(np.abs(scores.nu)) < 1e-10
    assert np.max(np.abs(scores.nu_nuis)) < 1e-10


def test_poisson_score_sum_matches_finite_difference():
    rng = np.random.default_rng(23)
    y, design, fam = _random_model(rng, "poisson", n=20)
    nf = fit_null(y, design, fam)
    scores = score_contributions(y, nf, design, fam)
    params = np.concatenate([nf.coef, design.null_value])

    fd = fd_gradient(lambda p: log_likelihood(p, y, design, fam), params, h=1e-6)
    # column order is (nuisance | tested)
    got = np.concatenate([scores.nu_nuis.sum(axis=0), scores.nu.sum(axis=0)])
    scale = np.maximum(np.abs(fd), 1.0)
    assert np.max(np.abs(got - fd) / scale) < 1e-5


@pytest.mark.parametrize("family_name", ["gaussian", "poisson", "binomial"])
def test_score_likelihood_consistency_randomized(family_name):
    rng = np.random.default_rng(29)
    for case in range(10):
        y, design, fam = _random_model(rng, family_name, n=25,
                                       extra_nuisance=rng.integers(1, 3))
        nf = fit_null(y, design, fam)
        scores = score_contributions(y, nf, design, fam)
        params = np.concatenate([nf.coef, design.null_value])
        fd = fd_gradient(lambda p: log_likelihood(p, y, design, fam), params)
        got = np.concatenate([scores.nu_nuis.sum(axis=0), scores.nu.sum(axis=0)])
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(got - fd) / scale) < 1e-5


def test_mle_orthogonality_nuisance_column_means():
    rng = np.random.default_rng(31)
    for family_name in ("gaussian", "poisson"):
        y, design, fam = _random_model(rng, family_name, n=80, extra_nuisance=2)
        nf = fit_null(y, design, fam)
        scores = score_contributions(y, nf, design, fam)
        assert np.max(np.abs(scores.nu_nuis.mean(axis=0))) < 1e-8


def test_information_gaussian_is_unweighted_crossproduct():
    rng = np.random.default_rng(37)
    y, design, fam = _random_model(rng, "gaussian", n=40)
    nf = fit_null(y, design, fam)
    info = information_blocks(nf, design)
    n = design.n
    full = np.block([[info.I11, info.I12.T], [info.I12, info.I22]])
    XD, Z = design.X_tested, design.X_nuisance
    X_reordered = np.column_stack([XD, Z])
    assert_allclose(full, X_reordered.T @ X_reordered / n, atol=1e-12)


def test_information_orthogonal_tested_column():
    rng = np.random.default_rng(41)
    n = 50
    z = rng.normal(size=n)
    Z = np.column_stack([np.ones(n), z])
    raw = rng.normal(size=n)
    # residualize so that X_D' W X_nuis = 0 exactly under unit weights
    x = raw - Z @ np.linalg.lstsq(Z, raw, rcond=None)[0]
    y = rng.normal(size=n)
    design = DesignMatrix(
        X=np.column_stack([Z, x]),
        columns=("(intercept)", "z", "x"),
        tested=(2,),
        null_value=[0.0],
    )
    nf = fit_null(y, design, Gaussian())
    info = information_blocks(nf, design)
    assert np.max(np.abs(info.I12)) < 1e-12
    assert_allclose(info.i_star, info.I11, atol=1e-12)


def test_information_blocks_match_elementwise_oracle():
    # 3x2 hand design with poisson weights
    X = np.array([[1.0, 0.5], [1.0, -1.0], [1.0, 2.0]])
    design = DesignMatrix(X=X, columns=("z", "x"), tested=(1,), null_value=[0.0])
    y = np.array([2.0, 1.0, 4.0])
    nf = fit_null(y, design, Poisson())
    info = information_blocks(nf, design)
    full_oracle = info_elementwise(np.column_stack([X[:, 1], X[:, 0]]), nf.W_hat)
    assert_allclose(info.I11, full_oracle[:1, :1], rtol=1e-12)
    assert_allclose(info.I12, full_oracle[1:, :1], rtol=1e-12)
    assert_allclose(info.I22, full_oracle[1:, 1:], rtol=1e-12)


def test_effective_information_single_column_weighted_centering():
    rng = np.random.default_rng(43)
    x = rng.normal(size=35)
    y = rng.normal(size=35)
    design = build_design({"x": x}, tested=["x"], intercept=True)
    nf = fit_null(y, design, Gaussian())
    info = information_blocks(nf, design)
    assert_allclose(
        info.i_star[0, 0], np.mean((x - x.mean()) ** 2), rtol=0, atol=1e-10
    )


def test_information_singular_nuisance_block_errors():
    n = 10
    z = np.linspace(0.0, 1.0, n)
    X = np.column_stack([z, z, np.linspace(-1, 1, n)])
    design = DesignMatrix(X=X, columns=("z1", "z2", "x"), tested=(2,),
                          null_value=[0.0])
    fake_fit = Fit(
        coef=np.zeros(2),
        mu_hat=np.ones(n),
        W_hat=np.ones(n),
        deviance=0.0,
        iterations=1,
        converged=True,
    )
    with pytest.raises(NumericalError, match="singular"):
        information_blocks(fake_fit, design)


@pytest.mark.parametrize(
    "A",
    [
        np.array([[1.0, 1.0], [1.0, 1.0]]),
        np.array([[1.0, 2.0], [2.0, 1.0]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[2.0, np.nan], [np.nan, 2.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [-np.inf, 1.0]]),
        # B B' of rank 2, B = [[.5, -.5], [.5, 0], [-1.5, 1]]: its Cholesky
        # factorization succeeds on rounding, and the LU solve meets an exact
        # zero pivot (a bare LinAlgError before)
        np.array([[0.5, 0.25, -1.25], [0.25, 0.25, -0.75], [-1.25, -0.75, 3.25]]),
    ],
    ids=["singular", "indefinite", "nan-diagonal", "nan-off-diagonal", "inf-diagonal",
         "inf-lower-triangle", "rank-deficient-past-cholesky"],
)
def test_solve_spd_refuses_matrices_that_are_not_positive_definite(A):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not positive definite"):
            solve_spd(A, np.ones(len(A)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_spd_refuses_a_right_hand_side_that_is_not_finite(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="NaN or an infinity"):
            solve_spd(np.eye(2), np.array([1.0, bad]))


@pytest.mark.parametrize(
    "M",
    [np.array([[np.nan]]), np.array([[np.inf]]), np.array([[2.0, 0.0], [0.0, np.nan]])],
    ids=["nan", "inf", "nan-in-2x2"],
)
def test_check_conditioned_refuses_matrices_that_are_not_finite(M):
    # an eigenvalue test alone passed NaN silently and +inf with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="covariance holds a NaN or an infinity"):
            check_conditioned(M, "covariance")


def test_solve_spd_matches_scipy_cho_solve_to_rounding():
    # numpy.linalg.solve is an LU solve, so it meets scipy's Cholesky solve
    # to rounding, not bit for bit
    rng = np.random.default_rng(3)
    for k in (1, 2, 3, 7):
        M = rng.normal(size=(k + 5, k))
        A = M.T @ M
        for B in (rng.normal(size=k), rng.normal(size=(k, 4))):
            X = solve_spd(A, B)
            assert_allclose(X, scipy.linalg.cho_solve(scipy.linalg.cho_factor(A, lower=True), B),
                            rtol=1e-12)
            assert_allclose(A @ X, B, rtol=1e-12, atol=1e-14)


def test_solve_spd_empty_system_gives_zeros_of_rhs_shape():
    for B in (np.zeros(0), np.zeros((0, 3))):
        out = solve_spd(np.zeros((0, 0)), B)
        assert out.shape == B.shape
        assert not np.any(out)


def _wide_poisson(n, d, seed):
    """Poisson counts; d tested columns, one nuisance column, an intercept."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    z = rng.normal(size=n)
    y = rng.poisson(np.exp(0.2 + 0.3 * z)).astype(float)
    table = {f"x{j}": X[:, j] for j in range(d)}
    table["z"] = z
    design = build_design(table, tested=[f"x{j}" for j in range(d)],
                          nuisance=["z"], intercept=True)
    return y, design


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n, d", [(30, 29), (30, 40), (200, 1000)])
def test_singular_effective_information_never_becomes_a_p_value(n, d, seed):
    # k = d + 2 > n columns: I* has rank below d, so nothing may invert it
    y, design = _wide_poisson(n, d, seed)
    fam = Poisson()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = score_contributions(y, fit_null(y, design, fam), design, fam)
        for run in (
            scores.effective_information,
            lambda: rao_test(scores),
            lambda: parametric_score_test(y, design, fam),
            lambda: flip_test(y, design, fam, w=100, vhat="inv-effective-info"),
        ):
            with pytest.raises(DesignError, match=f"d={d} .* k={d + 2} .* n={n} "):
                run()


@pytest.mark.parametrize("shift", [1.0, 0.0])
def test_a_tested_column_in_the_span_of_the_nuisance_columns_is_refused(shift):
    # x = (z - shift) / 2: its effective scores were rounding noise of
    # 2e-15, which the flip tests flipped to p = 0.77, and I* = 9e-16
    # passed the parametric test's 1x1 check (p = 1.0); with z = 2x the
    # parametric test ended in a NumericalError instead
    rng = np.random.default_rng(0)
    n = 200
    x = rng.normal(size=n)
    y = rng.poisson(np.exp(0.3 * x)).astype(float)
    fam = Poisson()
    design = build_design({"x": x, "z": 2 * x + shift}, tested=["x"], nuisance=["z"],
                          intercept=True)
    fit = fit_null(y, design, fam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (
            lambda: information_blocks(fit, design),
            lambda: flip_test(y, design, fam, w=200, seed=0),
            lambda: flip_test(y, design, fam, w=200, seed=1),
            lambda: flip_test(y, design, fam, w=200, method="basic"),
            lambda: parametric_score_test(y, design, fam),
        ):
            with pytest.raises(DesignError, match=r"\['x'\] lie in the span of the nuisance"):
                run()
    # a hand-built design that repeats a column is refused by name
    repeated = DesignMatrix(X=np.column_stack([np.ones(n), x, x]),
                            columns=("(intercept)", "x", "x again"), tested=(2,),
                            null_value=[0.0])
    with pytest.raises(DesignError, match=r"\['x again'\] lie in the span"):
        flip_test(y, repeated, fam, w=200)
    # a column near the span, but not in it, is tested as before
    near = build_design({"x": x, "z": 2 * x + 1e-4 * rng.normal(size=n)}, tested=["x"],
                        nuisance=["z"], intercept=True)
    assert 0.0 < flip_test(y, near, fam, w=200).p_value <= 1.0


def test_a_tested_column_that_only_the_weights_put_in_the_span_is_a_numerical_failure():
    # a null fit whose mean all but vanishes at an observation (a Poisson
    # MLE at infinity, say) leaves x = (1, 1, 5) the intercept on the rest
    X = np.column_stack([np.ones(3), [0.0, 1.0, 2.0], [1.0, 1.0, 5.0]])
    design = DesignMatrix(X=X, columns=("(intercept)", "z", "x"), tested=(2,),
                          null_value=[0.0])
    fit = Fit(coef=np.zeros(2), mu_hat=np.ones(3), W_hat=np.array([1.0, 1.0, 1e-14]),
              deviance=0.0, iterations=1, converged=True)
    with pytest.raises(NumericalError, match=r"weights leave tested columns \['x'\]"):
        information_blocks(fit, design)
    fit = Fit(coef=np.zeros(2), mu_hat=np.ones(3), W_hat=np.ones(3), deviance=0.0,
              iterations=1, converged=True)
    assert information_blocks(fit, design).i_star[0, 0] > 0.1


def test_ill_conditioned_effective_information_is_a_numerical_failure():
    # k <= n, but the two tested columns are nearly collinear
    rng = np.random.default_rng(71)
    n = 60
    x1, z = rng.normal(size=n), rng.normal(size=n)
    x2 = x1 + 1e-9 * rng.normal(size=n)
    y = rng.poisson(np.exp(0.2 + 0.3 * z)).astype(float)
    design = build_design({"x1": x1, "x2": x2, "z": z}, tested=["x1", "x2"],
                          nuisance=["z"], intercept=True)
    fam = Poisson()
    scores = score_contributions(y, fit_null(y, design, fam), design, fam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (
            lambda: rao_test(scores),
            lambda: flip_test(y, design, fam, w=100, vhat="inv-effective-info"),
        ):
            with pytest.raises(NumericalError, match="effective information"):
                run()
    # identity vhat never inverts I*, so that flip test still runs
    assert 0.0 < flip_test(y, design, fam, w=100).p_value <= 1.0

    y, design = _wide_poisson(60, 2, 0)
    scores = score_contributions(y, fit_null(y, design, fam), design, fam)
    assert scores.effective_information() is scores.info.i_star


def test_log_likelihood_gaussian_quadratic_identity():
    rng = np.random.default_rng(47)
    x = rng.normal(size=15)
    y = rng.normal(size=15)
    design = build_design({"x": x}, tested=["x"], intercept=True)
    fam = Gaussian()
    p1 = np.array([0.3, 0.5])
    p2 = np.array([-0.2, 1.1])
    eta1 = design.X @ p1
    eta2 = design.X @ p2
    diff_expected = -0.5 * (np.sum((y - eta1) ** 2) - np.sum((y - eta2) ** 2))
    diff = log_likelihood(p1, y, design, fam) - log_likelihood(p2, y, design, fam)
    assert_allclose(diff, diff_expected, atol=1e-10)


def test_log_likelihood_poisson_maximal_at_mle():
    rng = np.random.default_rng(53)
    y, design, fam = _random_model(rng, "poisson", n=30)
    ff = fit_full(y, design, fam)
    # column order of coef matches the design
    ll_hat = log_likelihood(ff.coef, y, design, fam)
    for _ in range(20):
        pert = ff.coef + rng.normal(scale=0.05, size=design.k)
        assert log_likelihood(pert, y, design, fam) <= ll_hat + 1e-12


def test_log_likelihood_bernoulli_direct_formula():
    rng = np.random.default_rng(59)
    n = 25
    x = rng.normal(size=n)
    y = rng.binomial(1, 0.4, size=n).astype(float)
    design = build_design({"x": x}, tested=["x"], intercept=True)
    params = np.array([-0.3, 0.7])
    eta = design.X @ params
    oracle = np.sum(y * eta - np.log1p(np.exp(eta)))
    got = log_likelihood(params, y, design, Binomial(trials=1))
    assert_allclose(got, oracle, rtol=0, atol=1e-12)
