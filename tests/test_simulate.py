"""Generators' moments, scenario runner behavior and CSV output."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from signflip import (
    DesignError,
    NumericalError,
    gen_hetero_normal,
    gen_mvn_covariates,
    gen_negbin_response,
    read_config_file,
    run_scenario,
    scenario_config,
    write_curve_csv,
)
from signflip.flips import keyed_rng


# ------------------------------------------------------------------ #
# generators
# ------------------------------------------------------------------ #

def test_mvn_identity_correlations_vanish():
    n = 100_000
    draws = gen_mvn_covariates(n, 3, np.eye(3), seed=1)
    corr = np.corrcoef(draws.T)
    off = corr[np.triu_indices(3, k=1)]
    assert np.max(np.abs(off)) < 3.0 / np.sqrt(n)


def test_mvn_pairwise_correlation_half():
    n = 100_000
    R = np.array([[1.0, 0.5], [0.5, 1.0]])
    draws = gen_mvn_covariates(n, 2, R, seed=2)
    r = np.corrcoef(draws.T)[0, 1]
    se = (1 - 0.5**2) / np.sqrt(n)
    assert abs(r - 0.5) < 3.0 * se


def test_mvn_nonzero_mean():
    n = 50_000
    draws = gen_mvn_covariates(n, 2, np.eye(2), seed=14, mean=[1.0, -2.0])
    assert np.max(np.abs(draws.mean(axis=0) - [1.0, -2.0])) < 3.0 / np.sqrt(n)


def test_mvn_determinism_and_validation():
    R = np.array([[1.0, 0.3], [0.3, 1.0]])
    a = gen_mvn_covariates(50, 2, R, seed=9)
    b = gen_mvn_covariates(50, 2, R, seed=9)
    assert_array_equal(a, b)
    with pytest.raises(DesignError, match="positive definite"):
        gen_mvn_covariates(10, 2, np.array([[1.0, 1.2], [1.2, 1.0]]), seed=0)
    with pytest.raises(DesignError):
        gen_mvn_covariates(10, 2, np.array([[1.0, 0.1], [0.3, 1.0]]), seed=0)
    with pytest.raises(DesignError, match="positive definite"):
        gen_mvn_covariates(10, 2, np.array([[1.0, np.inf], [np.inf, 1.0]]), seed=0)


def test_mvn_draws_use_the_lower_cholesky_factor():
    R = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.5], [0.2, 0.5, 1.0]])
    draws = gen_mvn_covariates(6, 3, R, seed=4)
    rng = keyed_rng(4)
    assert_allclose(draws, rng.standard_normal((6, 3)) @ np.linalg.cholesky(R).T,
                    rtol=1e-13)


def _var_band(draws):
    dev2 = (draws - draws.mean()) ** 2
    return dev2.mean(), 3.0 * dev2.std() / np.sqrt(draws.size)


def test_negbin_poisson_limit():
    eta = np.full(100_000, np.log(2.0))
    draws = gen_negbin_response(eta, theta=1e6, seed=3)
    var, band = _var_band(draws)
    assert abs(var - 2.0) < band
    assert abs(draws.mean() - 2.0) < 3.0 * draws.std() / np.sqrt(draws.size)


@pytest.mark.parametrize("theta, mu, target", [(1.0, 3.0, 12.0), (2.0, 2.0, 4.0)])
def test_negbin_variance_targets(theta, mu, target):
    eta = np.full(100_000, np.log(mu))
    draws = gen_negbin_response(eta, theta=theta, seed=4)
    var, band = _var_band(draws)
    assert abs(var - target) < band


def test_negbin_validation():
    with pytest.raises(DesignError):
        gen_negbin_response(np.zeros(5), theta=0.0, seed=0)
    # a mean past numpy's Poisson limit (about 9.2e18) fails that draw
    with pytest.raises(NumericalError, match="cannot draw Poisson counts"):
        gen_negbin_response(np.full(5, 60.0), theta=1.0, seed=0)


def test_hetero_normal_constant_mean():
    draws = np.concatenate(
        [gen_hetero_normal(10, 0.5, "constant", sigma=1.0, seed=s)
         for s in range(5000)]
    )
    se = 1.0 / np.sqrt(draws.size)
    assert abs(draws.mean() - 0.5) < 3.0 * se


def test_hetero_normal_exp_index_sds():
    reps = 20_000
    draws = np.stack(
        [gen_hetero_normal(3, 0.0, "exp-index", seed=s) for s in range(reps)]
    )
    sds = draws.std(axis=0)
    expected = np.exp([1.0, 2.0, 3.0])
    # sd of a sample sd is about sd/sqrt(2 reps)
    assert np.all(np.abs(sds - expected) < 3.0 * expected / np.sqrt(2 * reps))


def test_hetero_normal_determinism():
    a = gen_hetero_normal(10, 0.2, "exp-index", seed=11)
    b = gen_hetero_normal(10, 0.2, "exp-index", seed=11)
    assert_array_equal(a, b)


# ------------------------------------------------------------------ #
# scenario runner
# ------------------------------------------------------------------ #

def test_unknown_scenario_lists_names():
    with pytest.raises(DesignError, match="multivariate"):
        scenario_config("banana")


def test_single_rep_curve_is_step_function():
    cfg = scenario_config("overdispersed-nuisance", n=40, reps=1, w=50, seed=5)
    curve = run_scenario(cfg)
    for rates in curve.rates.values():
        assert set(np.unique(rates)).issubset({0.0, 1.0})
        assert np.all(np.diff(rates) >= 0)


def test_curves_monotone_and_bounded():
    cfg = scenario_config("overdispersed-nuisance", n=60, reps=40, w=100, seed=6)
    curve = run_scenario(cfg)
    assert list(curve.rates) == ["par", "GEE", "flipSimple", "flipEff"]
    for rates in curve.rates.values():
        assert np.all((0.0 <= rates) & (rates <= 1.0))
        assert np.all(np.diff(rates) >= 0)
    assert curve.reps == 40
    assert curve.failed_reps == ()


def test_run_scenario_deterministic():
    cfg = scenario_config("multivariate", reps=15, w=60, seed=8)
    a = run_scenario(cfg)
    b = run_scenario(scenario_config("multivariate", reps=15, w=60, seed=8))
    for m in a.rates:
        assert_array_equal(a.rates[m], b.rates[m])


def test_hetero_scenario_columns_and_power_variant():
    cfg = scenario_config("hetero-t", reps=30, w=100, seed=9)
    curve = run_scenario(cfg)
    assert list(curve.rates) == ["Parametric", "Flip test"]
    power_cfg = scenario_config("hetero-t", reps=30, w=100, seed=9,
                                beta=0.5, sigma_rule="constant")
    power_curve = run_scenario(power_cfg)
    i = list(power_curve.alpha).index(0.5)
    assert power_curve.rates["Flip test"][i] > 0.2


def test_hetero_null_flip_rate_tracks_every_grid_level():
    # heteroscedastic one-sample null: the flip rate equals k/20 at each
    # grid level (w = 1000 makes every k/20 a multiple of 1/w)
    cfg = scenario_config("hetero-t", n=10, reps=4000, seed=21)
    curve = run_scenario(cfg)
    for k in (1, 5, 10, 15):
        a = k / 20
        i = list(curve.alpha).index(a)
        rate = curve.rates["Flip test"][i]
        se = np.sqrt(a * (1 - a) / curve.reps)
        assert abs(rate - a) < 3.0 * se, (a, rate)


def test_latent_nuisance_keeps_basic_flip_conservative():
    # ignored latent covariate: basic flip stays below the nominal level
    cfg = scenario_config("ignored-latent", n=200, reps=1000, w=200, seed=10)
    curve = run_scenario(cfg)
    i = list(curve.alpha).index(0.05)
    rate = curve.rates["flipSimple"][i]
    se = np.sqrt(0.05 * 0.95 / curve.reps)
    assert rate < 0.05 + 3.0 * se


def test_power_ordering_and_parity_with_parametric():
    # correct model, beta = 0.2: basic <= effective, effective close to
    # the parametric test
    cfg = scenario_config("power-correct-model", n=200, reps=2000, seed=11)
    curve = run_scenario(cfg)
    i = list(curve.alpha).index(0.05)
    p_simple = curve.rates["flipSimple"][i]
    p_eff = curve.rates["flipEff"][i]
    p_par = curve.rates["par"][i]
    se = np.sqrt(0.25 / curve.reps)  # worst-case binomial SE
    assert p_simple <= p_eff + 3.0 * se
    assert abs(p_eff - p_par) < 0.03


# ------------------------------------------------------------------ #
# CSV and config files
# ------------------------------------------------------------------ #

def test_failed_reps_are_counted_and_excluded(monkeypatch):
    import signflip.simulate as sim
    from signflip import NumericalError

    real_rep = sim._glm_rep

    def flaky_rep(cfg, rep):
        if rep in (2, 5):
            raise NumericalError("synthetic fit failure")
        return real_rep(cfg, rep)

    monkeypatch.setattr(sim, "_glm_rep", flaky_rep)
    cfg = scenario_config("overdispersed-nuisance", n=40, reps=10, w=50, seed=14)
    curve = run_scenario(cfg)
    assert curve.failed_reps == (2, 5)
    assert curve.reps == 8  # rates are over completed reps only


@pytest.mark.parametrize("scenario", ["overdispersed-nuisance", "multivariate"])
def test_one_null_fit_per_glm_repetition(monkeypatch, scenario):
    import signflip.baselines as baselines
    import signflip.simulate as sim

    calls = []
    for module in (sim, baselines):
        real = module.fit_null

        def counted(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "fit_null", counted)
    curve = run_scenario(scenario_config(scenario, reps=5, seed=15))
    assert curve.reps + len(curve.failed_reps) == 5
    assert len(calls) == 5


def test_write_curve_roundtrip(tmp_path):
    cfg = scenario_config("overdispersed-nuisance", n=40, reps=10, w=50, seed=12)
    curve = run_scenario(cfg)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "alpha,par,GEE,flipSimple,flipEff"
    body = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert_allclose(body[:, 0], curve.alpha, rtol=1e-5)
    for j, m in enumerate(curve.rates):
        # 6 significant digits round-trip
        assert_allclose(body[:, j + 1], curve.rates[m], rtol=1e-5, atol=1e-9)


def test_write_curve_empty_grid_header_only(tmp_path):
    cfg = scenario_config("overdispersed-nuisance", n=40, reps=2, w=50, seed=13,
                          alpha_grid=np.array([]))
    curve = run_scenario(cfg)
    path = tmp_path / "empty.csv"
    write_curve_csv(curve, path)
    assert path.read_text() == "alpha,par,GEE,flipSimple,flipEff\n"


def test_read_config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# comment\nn=50\nreps=200\nbeta=0.2\ngamma0=0.5,0.2,0,0,0\n"
        "sigma_rule=constant\n",
        encoding="utf-8",
    )
    overrides = read_config_file(path)
    assert overrides["n"] == 50 and isinstance(overrides["n"], int)
    assert overrides["reps"] == 200
    assert overrides["beta"] == 0.2
    assert_allclose(overrides["gamma0"], [0.5, 0.2, 0.0, 0.0, 0.0])
    assert overrides["sigma_rule"] == "constant"
    bad = tmp_path / "bad.txt"
    bad.write_text("n 50\n", encoding="utf-8")
    with pytest.raises(DesignError):
        read_config_file(bad)
    bad.write_text("n=inf\n", encoding="utf-8")  # no int(); validate names it
    assert read_config_file(bad) == {"n": float("inf")}
    bad.write_text("beta=1,abc\n", encoding="utf-8")
    with pytest.raises(DesignError, match="'beta' must be comma-separated numbers"):
        read_config_file(bad)
    with pytest.raises(DesignError, match="cannot read"):
        read_config_file(tmp_path / "missing.txt")


def test_config_validation():
    with pytest.raises(DesignError, match="strictly increasing"):
        scenario_config("hetero-t", alpha_grid=np.array([0.2, 0.1]))
    with pytest.raises(DesignError, match="reps"):
        scenario_config("hetero-t", reps=0)
    # every bad field is a DesignError that names it
    bad = [
        ({"foo": 1}, "unknown config field 'foo'"),
        ({"scenario": "multivariate"}, "unknown config field 'scenario'"),
        ({"beta": "abc"}, "beta must be numeric"),
        ({"gamma0": [1.0, np.nan]}, "gamma0 must be finite"),
        ({"theta": -1.0}, "theta must be positive"),
        ({"rho": "abc"}, "rho must be numeric"),
        ({"n": 0}, "n must be at least 1"),
        ({"n": 2.5}, "n must be an integer"),
        ({"alpha_grid": "abc"}, "alpha_grid must be numeric"),
    ]
    for overrides, message in bad:
        with pytest.raises(DesignError, match=message):
            scenario_config("ignored-latent", **overrides)
    with pytest.raises(DesignError, match="beta must be a single number"):
        scenario_config("hetero-t", beta=[0.0, 1.0])
