"""Classical baseline tests against closed forms, oracles and simulation."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats
from scipy.special import ndtr, stdtr

import signflip
from signflip import (
    DesignError,
    Gaussian,
    NumericalError,
    Poisson,
    build_design,
    fit_full,
    flip_test,
    one_sample_t,
    parametric_score_test,
    quasi_score_test,
    rao_test,
    sandwich_estimate,
    sandwich_wald_test,
    score_contributions,
    fit_null,
)
from signflip.baselines import _tail_p
from signflip.engine import FLIP_METHODS
from signflip.glm import solve_spd
from oracles import t_two_sided_p_quadrature


# ------------------------------------------------------------------ #
# tail probabilities: scipy.special, equal to scipy.stats bit for bit
# ------------------------------------------------------------------ #

def test_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(signflip.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, signflip; print(sorted(m for m in sys.modules"
         " if m == 'scipy.stats' or m.startswith('scipy.stats.')))"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert proc.stdout.strip() == "[]"


_FLIP_PATH = """
import sys
import numpy as np
import signflip as sf

t = sf.warpbreaks()
design = sf.build_design({"wool": t["wool"], "tension": t["tension"]},
                         tested=["wool"], nuisance=["tension"], intercept=True)
for method in ("basic", "effective"):
    sf.flip_test(t["breaks"], design, sf.Poisson(), method=method, w=2000)
rng = np.random.default_rng(0)
X = rng.normal(size=(40, 3))
wide = sf.build_design({"a": X[:, 0], "b": X[:, 1], "c": X[:, 2]},
                       tested=["a", "b"], nuisance=["c"], intercept=True)
sf.flip_test(rng.poisson(2.0, size=40).astype(float), wide, sf.Poisson(), w=200,
             vhat="inv-effective-info")
sf.fit_null(rng.integers(0, 4, size=40).astype(float), wide, sf.Binomial(trials=3))
sf.fit_null(rng.normal(size=40), wide, sf.Gaussian())
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
sf.parametric_score_test(t["breaks"], design, sf.Poisson())
print("scipy.special" in sys.modules,
      any(m == "scipy.stats" or m.startswith("scipy.stats.") for m in sys.modules))
"""


def test_flip_path_loads_no_scipy_until_a_baseline_runs():
    src = os.path.dirname(os.path.dirname(signflip.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _FLIP_PATH], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.split("\n")[:2] == ["[]", "True False"]


def _scipy_stats_p(statistic, alternative, dist):
    if alternative == "greater":
        return dist.sf(statistic)
    if alternative == "less":
        return dist.cdf(statistic)
    return 2.0 * dist.sf(abs(statistic))


_ALTERNATIVES = ("greater", "less", "two-sided", "two-sided-abs")
_EDGES = [0.0, -0.0, 1e-300, 0.3, 1.96, 8.5, 38.5, 1e300, np.inf, np.nan]


@pytest.mark.parametrize("alternative", _ALTERNATIVES)
@pytest.mark.parametrize("x", _EDGES + [-x for x in _EDGES[2:-1]])
def test_tail_p_equals_scipy_stats_at_edge_statistics(x, alternative):
    assert_array_equal(_tail_p(x, alternative, ndtr),
                       _scipy_stats_p(x, alternative, stats.norm))
    for df in (1, 3, 52):
        assert_array_equal(_tail_p(x, alternative, lambda v: stdtr(df, v)),
                           _scipy_stats_p(x, alternative, stats.t(df)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 60), d=st.integers(1, 2),
       alternative=st.sampled_from(_ALTERNATIVES))
def test_p_values_equal_scipy_stats_references(seed, n, d, alternative):
    rng = np.random.default_rng(seed)
    X, z = rng.normal(size=(n, d)), rng.normal(size=n)
    y = rng.poisson(np.exp(0.2 + 0.3 * z + 0.2 * X[:, 0])).astype(float)
    names = [f"x{j}" for j in range(d)]
    table = dict(zip(names, X.T), z=z)
    design = build_design(table, tested=names, nuisance=["z"], intercept=True)
    fam = Poisson()
    if d == 1:
        ref = lambda s: _scipy_stats_p(s, alternative, stats.norm)
    elif alternative in ("two-sided", "two-sided-abs"):
        ref = lambda s: stats.chi2.sf(s, d)
    else:
        ref = None  # the d-dimensional tests are two-sided only
    runs = [
        (lambda: rao_test(score_contributions(y, fit_null(y, design, fam), design, fam),
                          alternative), ref),
        (lambda: sandwich_wald_test(y, design, fam, alternative), ref),
        (lambda: one_sample_t(y, 1.0, alternative),
         lambda s: _scipy_stats_p(s, alternative, stats.t(n - 1))),
    ]
    if d == 1:
        runs.append((lambda: quasi_score_test(y, design, fam, alternative),
                     lambda s: _scipy_stats_p(s, alternative, stats.t(n - design.k))))
    for run, reference in runs:
        if reference is None:
            with pytest.raises(DesignError, match="two-sided only"):
                run()
            continue
        res = run()
        want = reference(res.statistic)
        assert res.p_value == float(want), (res.method, res.statistic)


def test_baselines_check_their_alternative_before_any_fit(monkeypatch):
    # an unknown alternative, or a one-sided one at d > 1, costs no IRLS fit
    import signflip.baselines as baselines

    def unreachable(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(baselines, "fit_null", unreachable)
    monkeypatch.setattr(baselines, "fit_full", unreachable)
    rng = np.random.default_rng(5)
    x, x2, y = rng.normal(size=(3, 20))
    one = build_design({"x": x}, tested=["x"], intercept=True)
    two = build_design({"x": x, "x2": x2}, tested=["x", "x2"], intercept=True)
    for test in (parametric_score_test, sandwich_wald_test, quasi_score_test):
        with pytest.raises(DesignError, match="unknown alternative 'bogus'"):
            test(y, one, Poisson(), "bogus")
    for test in (parametric_score_test, sandwich_wald_test):
        with pytest.raises(DesignError, match="two-sided only"):
            test(y, two, Poisson(), "greater")


# ------------------------------------------------------------------ #
# one-sample t
# ------------------------------------------------------------------ #

def test_t_symmetric_pair_is_null():
    res = one_sample_t(np.array([-1.0, 1.0]), 0.0)
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_t_mean_equal_mu0_is_zero():
    res = one_sample_t(np.array([1.0, 2.0, 3.0]), 2.0)
    assert res.statistic == 0.0


def test_t_frozen_value_and_quadrature_oracle():
    res = one_sample_t(np.array([1.0, 2.0, 3.0]), 0.0)
    assert_allclose(res.statistic, 2.0 * np.sqrt(3.0), rtol=1e-14)
    oracle_p = t_two_sided_p_quadrature(res.statistic, df=2)
    assert_allclose(res.p_value, oracle_p, rtol=1e-9)


def test_t_validation():
    with pytest.raises(DesignError):
        one_sample_t(np.array([1.0]))
    with pytest.raises(NumericalError, match="zero sample variance"):
        one_sample_t(np.array([2.0, 2.0, 2.0]))
    with pytest.raises(DesignError, match="finite"):
        one_sample_t(np.array([1.0, np.nan, 2.0]))


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize(
    "method", ["rao", "parametric", "sandwich", "quasi", "t-test"]
)
def test_alpha_outside_unit_interval_rejected(method, alpha):
    rng = np.random.default_rng(229)
    x, z = rng.normal(size=30), rng.normal(size=30)
    y = rng.poisson(np.exp(0.2 + 0.4 * z)).astype(float)
    design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                          intercept=True)
    fam = Poisson()
    run = {
        "rao": lambda: rao_test(
            score_contributions(y, fit_null(y, design, fam), design, fam),
            alpha=alpha,
        ),
        "parametric": lambda: parametric_score_test(y, design, fam, alpha=alpha),
        "sandwich": lambda: sandwich_wald_test(y, design, fam, alpha=alpha),
        "quasi": lambda: quasi_score_test(y, design, fam, alpha=alpha),
        "t-test": lambda: one_sample_t(y, alpha=alpha),
    }[method]
    with pytest.raises(DesignError, match=r"alpha must be in \(0, 1\)"):
        run()


def test_every_method_returns_python_floats():
    t = signflip.warpbreaks()
    y, fam = t["breaks"], Poisson()
    design = build_design({"wool": t["wool"], "tension": t["tension"]},
                          tested=["wool"], nuisance=["tension"], intercept=True)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 3))
    wide = build_design({"a": X[:, 0], "b": X[:, 1], "c": X[:, 2]},
                        tested=["a", "b"], nuisance=["c"], intercept=True)
    y_wide = rng.poisson(2.0, size=40).astype(float)
    results = [
        *(test(y, design, fam)
          for test in (parametric_score_test, sandwich_wald_test, quasi_score_test)),
        *(test(y_wide, wide, fam) for test in (parametric_score_test, sandwich_wald_test)),
        *(flip_test(y, design, fam, method=m, w=200) for m in FLIP_METHODS),
        one_sample_t(y),
    ]
    for res in results:
        assert type(res.statistic) is float, res.method
        assert type(res.p_value) is float, res.method


# ------------------------------------------------------------------ #
# parametric score test
# ------------------------------------------------------------------ #

def test_parametric_zero_residuals_gives_p_one():
    y = np.full(15, 3.0)
    design = build_design({"x": np.arange(15.0)}, tested=["x"], intercept=True)
    for fam in (Gaussian(), Poisson()):
        res = parametric_score_test(y, design, fam)
        assert abs(res.statistic) < 1e-12
        assert res.p_value > 1.0 - 1e-12
        assert not res.reject


def test_parametric_z_squared_equals_chi2_statistic():
    rng = np.random.default_rng(211)
    x, z = rng.normal(size=60), rng.normal(size=60)
    y = rng.poisson(np.exp(0.2 + 0.5 * z)).astype(float)
    design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                          intercept=True)
    fam = Poisson()
    res = parametric_score_test(y, design, fam)
    nf = fit_null(y, design, fam)
    scores = score_contributions(y, nf, design, fam)
    s = scores.nu.sum(axis=0) / np.sqrt(design.n)
    chi2_stat = float(s @ solve_spd(scores.info.i_star, s))
    assert abs(res.statistic**2 - chi2_stat) < 1e-10


def test_parametric_one_sided_tails_sum_to_one():
    rng = np.random.default_rng(223)
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    design = build_design({"x": x}, tested=["x"], intercept=True)
    hi = parametric_score_test(y, design, Gaussian(), "greater")
    lo = parametric_score_test(y, design, Gaussian(), "less")
    assert_allclose(hi.p_value + lo.p_value, 1.0, rtol=1e-12)


def test_parametric_p_uniform_under_correct_model():
    rng = np.random.default_rng(227)
    n, reps = 200, 2000
    pvals = np.empty(reps)
    for r in range(reps):
        x, z = rng.normal(size=n), rng.normal(size=n)
        y = rng.poisson(np.exp(0.1 + 0.5 * z)).astype(float)
        design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                              intercept=True)
        pvals[r] = parametric_score_test(y, design, Poisson()).p_value
    ks = stats.kstest(pvals, "uniform").statistic
    assert ks < 0.05


# ------------------------------------------------------------------ #
# sandwich Wald test
# ------------------------------------------------------------------ #

def test_sandwich_vcov_properties_and_model_based_reduction():
    rng = np.random.default_rng(229)
    x, z = rng.normal(size=50), rng.normal(size=50)
    y = rng.poisson(np.exp(0.3 + 0.4 * z)).astype(float)
    design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                          intercept=True)
    fam = Poisson()
    ff = fit_full(y, design, fam)
    vcov = sandwich_estimate(y, ff, design, fam)
    assert_allclose(vcov, vcov.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(vcov) > -1e-12)

    # explicit-inverse oracle: inv(X'WX) U'U inv(X'WX), U the full-fit scores
    X = design.X
    bread_inv = np.linalg.inv(X.T @ (ff.W_hat[:, None] * X))
    U = X * (y - ff.mu_hat)[:, None]
    assert_allclose(vcov, bread_inv @ (U.T @ U) @ bread_inv, rtol=1e-10)


def test_sandwich_close_to_model_based_under_homoscedasticity():
    rng = np.random.default_rng(233)
    n, reps = 500, 200
    ratios = np.empty(reps)
    for r in range(reps):
        x = rng.normal(size=n)
        y = 0.5 * x + rng.normal(size=n)
        design = build_design({"x": x}, tested=["x"], intercept=True)
        fam = Gaussian()
        ff = fit_full(y, design, fam)
        vcov = sandwich_estimate(y, ff, design, fam)
        X = design.X
        xtwx = X.T @ X
        model_vcov = solve_spd(xtwx, np.eye(2))
        j = design.tested[0]
        ratios[r] = np.sqrt(vcov[j, j]) / np.sqrt(model_vcov[j, j])
    assert abs(ratios.mean() - 1.0) < 0.2


def test_sandwich_p_uniform_under_gaussian_null():
    rng = np.random.default_rng(239)
    n, reps = 1000, 2000
    pvals = np.empty(reps)
    for r in range(reps):
        x = rng.normal(size=n)
        y = rng.normal(size=n)  # independent of x
        design = build_design({"x": x}, tested=["x"], intercept=True)
        pvals[r] = sandwich_wald_test(y, design, Gaussian()).p_value
    ks = stats.kstest(pvals, "uniform").statistic
    assert ks < 0.05


def test_sandwich_tests_null_value_not_zero():
    rng = np.random.default_rng(241)
    n, reps = 400, 300
    rej_true, rej_wrong = 0, 0
    for r in range(reps):
        x = rng.normal(size=n)
        y = 1.0 + 2.0 * x + rng.normal(size=n)
        at_truth = build_design({"x": x}, tested=["x"], intercept=True,
                                null_value=[2.0])
        at_zero = build_design({"x": x}, tested=["x"], intercept=True)
        rej_true += sandwich_wald_test(y, at_truth, Gaussian()).reject
        rej_wrong += sandwich_wald_test(y, at_zero, Gaussian()).reject
    assert 0.02 < rej_true / reps < 0.10  # level holds at the true value
    assert rej_wrong / reps > 0.99        # power against the wrong null


# ------------------------------------------------------------------ #
# quasi-Poisson test
# ------------------------------------------------------------------ #

def test_quasi_dispersion_hook_reduces_to_model_wald():
    # t * sqrt(phi_hat) is the model-based Wald z, phi_hat = Pearson X^2/(n-k)
    rng = np.random.default_rng(251)
    x, z = rng.normal(size=80), rng.normal(size=80)
    y = rng.poisson(np.exp(0.2 + 0.3 * z)).astype(float)
    design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                          intercept=True)
    fam = Poisson()
    res = quasi_score_test(y, design, fam)
    ff = fit_full(y, design, fam)
    X = design.X
    xtwx = X.T @ (ff.W_hat[:, None] * X)
    j = design.tested[0]
    z_model = ff.coef[j] / np.sqrt(solve_spd(xtwx, np.eye(design.k))[j, j])
    phi_hat = np.sum((y - ff.mu_hat) ** 2 / ff.mu_hat) / (design.n - design.k)
    assert_allclose(res.statistic * np.sqrt(phi_hat), z_model, rtol=1e-10)
    # p comes from the t reference on n - k degrees of freedom
    t_model = z_model / np.sqrt(phi_hat)
    assert_allclose(res.p_value, 2 * stats.t(design.n - design.k).sf(abs(t_model)),
                    rtol=1e-12)


def test_quasi_dispersion_estimate_near_one_when_equidispersed():
    rng = np.random.default_rng(257)
    n, reps = 1000, 200
    phis = np.empty(reps)
    fam = Poisson()
    for r in range(reps):
        x, z = rng.normal(size=n), rng.normal(size=n)
        y = rng.poisson(np.exp(0.2 + 0.3 * z)).astype(float)
        design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                              intercept=True)
        ff = fit_full(y, design, fam)
        pearson = np.sum((y - ff.mu_hat) ** 2 / ff.mu_hat)
        phis[r] = pearson / (n - design.k)
    assert abs(phis.mean() - 1.0) < 0.15


def test_quasi_guards():
    rng = np.random.default_rng(263)
    x = rng.normal(size=8)
    y = rng.poisson(2.0, size=8).astype(float)
    design = build_design({"x": x}, tested=["x"], intercept=True)
    with pytest.raises(DesignError, match="poisson"):
        quasi_score_test(y, design, Gaussian())
    small = build_design({"x": np.array([0.0, 1.0])}, tested=["x"],
                         intercept=True)
    with pytest.raises(DesignError, match="n > k"):
        quasi_score_test(np.array([1.0, 2.0]), small, Poisson())
    # duplicated constant column in the nuisance set is rejected up front
    with pytest.raises(DesignError, match="rank deficient"):
        build_design({"x": x, "c": np.ones(8)}, tested=["x"], nuisance=["c"],
                     intercept=True)
