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
from signflip.baselines import _TWO_SIDED, _chi2_sf, _norm_cdf, _t_cdf, _tail_p
from signflip.engine import FLIP_METHODS
from signflip.glm import solve_spd
from oracles import t_two_sided_p_quadrature


# ------------------------------------------------------------------ #
# tail probabilities: numpy and math alone, scipy.stats as the reference
# ------------------------------------------------------------------ #

_NO_SCIPY = """
import contextlib, importlib, io, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"{name} refused")

sys.meta_path.insert(0, RefuseScipy())
try:
    importlib.import_module("scipy")
except ImportError:
    pass
else:
    raise SystemExit("scipy imported")

import numpy as np
import signflip as sf
from signflip.cli import main

t = sf.warpbreaks()
fam = sf.Poisson()
one = sf.build_design({"wool": t["wool"], "tension": t["tension"]},
                      tested=["wool"], nuisance=["tension"], intercept=True)
rng = np.random.default_rng(0)
X = rng.normal(size=(40, 3))
two = sf.build_design({"a": X[:, 0], "b": X[:, 1], "c": X[:, 2]},
                      tested=["a", "b"], nuisance=["c"], intercept=True)
counts = rng.poisson(2.0, size=40).astype(float)
for y, design in ((t["breaks"], one), (counts, two)):
    sf.rao_test(sf.score_contributions(y, sf.fit_null(y, design, fam), design, fam))
    sf.parametric_score_test(y, design, fam)
    sf.sandwich_wald_test(y, design, fam)
    sf.flip_test(y, design, fam, w=200)
sf.flip_test(counts, two, fam, w=200, vhat="inv-effective-info")
sf.fit_null(rng.integers(0, 4, size=40).astype(float), two, sf.Binomial(trials=3))
sf.fit_null(rng.normal(size=40), two, sf.Gaussian())
sf.quasi_score_test(t["breaks"], one, fam)
sf.one_sample_t(t["breaks"], 25.0)
for name in sf.SCENARIOS:
    sf.run_scenario(sf.scenario_config(name, reps=3, w=50))
with contextlib.redirect_stdout(io.StringIO()):
    codes = (main(["warpbreaks", "--w", "2000", "--json"]),
             main(["simulate", "--scenario", "hetero-t", "--reps", "5"]))
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_library_runs_with_scipy_unimportable():
    # every baseline at d = 1 and d = 2, flip_test, each scenario and the CLI,
    # in an interpreter whose import system refuses every scipy module
    src = os.path.dirname(os.path.dirname(signflip.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(0, 0) []"


def _scipy_stats_p(statistic, alternative, dist):
    if alternative == "greater":
        return dist.sf(statistic)
    if alternative == "less":
        return dist.cdf(statistic)
    return 2.0 * dist.sf(abs(statistic))


def _assert_tail_close(got, want):
    """Relative error at most 1e-12 where want >= 1e-300; both below 1e-300 elsewhere."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    big = want >= 1e-300
    rel = np.abs(got[big] - want[big]) / want[big]
    assert rel.max(initial=0.0) <= 1e-12, (rel.max(), want[big][rel.argmax()])
    assert np.all(np.abs(got[~big] - want[~big]) <= 1e-300)


_ALTERNATIVES = ("greater", "less", "two-sided", "two-sided-abs")
_EDGES = [0.0, -0.0, 1e-300, 0.3, 1.96, 8.5, 38.5, 1e300, np.inf, np.nan]
_EXACT_EDGES = {0.0, 1e-300, 1e300, np.inf}  # with their negatives and NaN
_T_DFS = (1, 2, 3, 9, 52, 199, 1000)
_CHI2_DFS = (2, 3, 4, 5, 6, 7, 8, 51, 200, 1000, 2000)


@pytest.mark.parametrize("alternative", _ALTERNATIVES)
@pytest.mark.parametrize("x", _EDGES + [-x for x in _EDGES[2:-1]])
def test_tail_p_equals_scipy_stats_at_edge_statistics(x, alternative):
    exact = abs(x) in _EXACT_EDGES or np.isnan(x)
    check = assert_array_equal if exact else _assert_tail_close
    tails = [(_norm_cdf, stats.norm, None)]
    tails += [(lambda v, df=df: _t_cdf(df, v), stats.t(df), df) for df in (1, 2, 3, 52)]
    for cdf, dist, df in tails:
        got = _tail_p(x, alternative, cdf)
        want = _scipy_stats_p(x, alternative, dist)
        if df == 1 and abs(x) == 1e300 and want == 0.0:
            # the Cauchy tail is 1/(pi |x|) = 3.2e-301 there; scipy's stdtr reads 0
            assert got == (2 if alternative in _TWO_SIDED else 1) * 1e-300 / np.pi
        else:
            check(got, want)
    for k in (2, 3, 5):
        check(_chi2_sf(k, x), stats.chi2.sf(x, k))


def test_tails_match_scipy_stats_to_1e12_relative():
    # far into both tails; the tails run under the suite's warnings-as-errors
    z = np.concatenate([np.linspace(-38.5, 38.5, 771), -np.logspace(-12, 2, 57)])
    _assert_tail_close([_norm_cdf(v) for v in z], stats.norm.cdf(z))
    far = np.logspace(-10, 250, 105)
    t = np.concatenate([-far, np.linspace(-12.0, 12.0, 97), far])
    for df in _T_DFS:
        want = stats.t.cdf(t, df)
        if df == 1:
            # scipy's stdtr at df = 1 loses 3e-9 near 0 (cdf(-1e-8) reads
            # 0.4999999953, the Cauchy value 0.4999999968), where stats.cauchy
            # is exact, and reads 0 past t = -1e154, where the tail is 1/(pi |t|)
            near, beyond = np.abs(t) <= 1.0, t < -1e150
            want[near] = stats.cauchy.cdf(t[near])
            want[beyond] = 1.0 / (np.pi * -t[beyond])
        _assert_tail_close([_t_cdf(df, v) for v in t], want)
    x = np.concatenate([np.logspace(-10, 4, 141), np.linspace(1.0, 3200.0, 129)])
    for k in _CHI2_DFS:
        _assert_tail_close([_chi2_sf(k, v) for v in x], stats.chi2.sf(x, k))


def test_lower_tails_of_x_and_minus_x_sum_to_one():
    x = np.concatenate([np.logspace(-12, 3, 61), np.linspace(0.05, 9.0, 60)])
    for cdf in [_norm_cdf] + [lambda v, df=df: _t_cdf(df, v) for df in _T_DFS]:
        total = np.array([cdf(v) + cdf(-v) for v in x])
        assert np.abs(total - 1.0).max() <= 2.0 ** -52


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 60), d=st.integers(1, 2),
       alternative=st.sampled_from(_ALTERNATIVES))
def test_p_values_match_scipy_stats_references(seed, n, d, alternative):
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
        _assert_tail_close(res.p_value, reference(res.statistic))


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


@pytest.mark.parametrize("seed", [3, 17, 271])
def test_quasi_bread_is_the_inverse_diagonal_entry(seed):
    # [(X'WX)^-1]_jj, read back from the statistic, against an explicit inverse
    rng = np.random.default_rng(seed)
    x, z = rng.normal(size=(2, 60))
    y = rng.poisson(np.exp(0.3 + 0.2 * x + 0.4 * z)).astype(float)
    design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"], intercept=True)
    fam = Poisson()
    res = quasi_score_test(y, design, fam)
    ff = fit_full(y, design, fam)
    X = design.X
    xtwx = X.T @ (ff.W_hat[:, None] * X)
    j = design.tested[0]
    dispersion = np.sum((y - ff.mu_hat) ** 2 / ff.W_hat) / (design.n - design.k)
    bread_dd = (ff.coef[j] / res.statistic) ** 2 / dispersion
    assert_allclose(bread_dd, np.linalg.inv(xtwx)[j, j], rtol=1e-12)


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
