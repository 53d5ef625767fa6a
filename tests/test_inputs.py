"""Outside numbers: every public entry point refuses junk with its own errors.

The library converts the numbers it is given through the checks of
``signflip.exceptions``.  The property here feeds one junk value (text,
None, complex, NaN or an infinity, a boolean, a float where an integer
is expected, ragged or deeper nesting) to one numeric argument of a
public function, with every other argument valid.  The call must return
or raise DesignError or NumericalError, with no warning; and where the
value is not a number of the kind the argument takes, it must raise
DesignError.  A choice of a named option that is not one of its allowed
strings must raise DesignError too.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signflip import (
    Binomial,
    DesignError,
    DesignMatrix,
    NumericalError,
    Poisson,
    SimConfig,
    build_design,
    decide,
    family_from_name,
    fit_full,
    fit_null,
    flip_statistics_scalar,
    flip_test,
    gen_hetero_normal,
    gen_mvn_covariates,
    gen_negbin_response,
    keyed_rng,
    make_flip_plan,
    one_sample_t,
    p_value,
    parametric_score_test,
    rao_test,
    run_scenario,
    sandwich_estimate,
    scenario_config,
    score_contributions,
)
from signflip.cli import main
from signflip.exceptions import finite_array, integer, real_array

N = 12
_rng = np.random.default_rng(5)
_X, _Z = _rng.normal(size=N), _rng.normal(size=N)
_Y = _rng.poisson(np.exp(0.3 + 0.4 * _Z)).astype(float)
_DESIGN = build_design({"x": _X, "z": _Z}, tested=["x"], nuisance=["z"])
_FAM = Poisson()
_NULL_FIT = fit_null(_Y, _DESIGN, _FAM)
_FULL_FIT = fit_full(_Y, _DESIGN, _FAM)
_SCORES = score_contributions(_Y, _NULL_FIT, _DESIGN, _FAM)
_PLAN = make_flip_plan(N, 16, seed=2)

# kind: "int" takes integers, "finite" finite numbers, "optional" finite
# numbers or None for the default, "refuse" nothing at all, and "any"
# leaves the answer to the function (a table column of text is a valid
# categorical column)
_CASES = {
    "fit_null y": ("finite", _Y, lambda v: fit_null(v, _DESIGN, _FAM)),
    "fit_full y": ("finite", _Y, lambda v: fit_full(v, _DESIGN, _FAM)),
    "score_contributions y": (
        "finite", _Y, lambda v: score_contributions(v, _NULL_FIT, _DESIGN, _FAM)),
    "sandwich_estimate y": (
        "finite", _Y, lambda v: sandwich_estimate(v, _FULL_FIT, _DESIGN, _FAM)),
    "flip_test y": ("finite", _Y, lambda v: flip_test(v, _DESIGN, _FAM, w=16)),
    "flip_test alpha": ("finite", 0.05, lambda v: flip_test(_Y, _DESIGN, _FAM, w=16, alpha=v)),
    "flip_test w": ("int", 16, lambda v: flip_test(_Y, _DESIGN, _FAM, w=v)),
    "flip_test seed": ("int", 0, lambda v: flip_test(_Y, _DESIGN, _FAM, w=16, seed=v)),
    "flip_statistics_scalar contribs": (
        "finite", _SCORES.nu[:, 0], lambda v: flip_statistics_scalar(v, _PLAN)),
    "rao_test alpha": ("finite", 0.05, lambda v: rao_test(_SCORES, alpha=v)),
    "parametric_score_test alpha": (
        "finite", 0.05, lambda v: parametric_score_test(_Y, _DESIGN, _FAM, alpha=v)),
    "decide alpha": ("finite", 0.1, lambda v: decide(np.arange(10.0), v, "greater")),
    "decide alpha1": ("finite", 0.1, lambda v: decide(np.arange(10.0), 0.2,
                                                      "two-sided-tails", alpha1=v,
                                                      alpha2=0.1)),
    "decide alpha2": ("finite", 0.1, lambda v: decide(np.arange(10.0), 0.2,
                                                      "two-sided-tails", alpha1=0.1,
                                                      alpha2=v)),
    "Binomial trials": ("finite", 1, lambda v: Binomial(v)),
    "family_from_name binomial trials": (
        "finite", 1, lambda v: family_from_name("binomial", trials=v)),
    "family_from_name poisson trials": (
        "refuse", 1, lambda v: family_from_name("poisson", trials=v)),
    "build_design column": (
        "any", _X, lambda v: build_design({"x": v, "z": _Z}, tested=["x"], nuisance=["z"])),
    "build_design null_value": (
        "optional", [0.0], lambda v: build_design({"x": _X}, tested=["x"], null_value=v)),
    "build_design offset": (
        "optional", np.zeros(N), lambda v: build_design({"x": _X}, tested=["x"], offset=v)),
    "DesignMatrix X": ("finite", _DESIGN.X, lambda v: DesignMatrix(
        X=v, columns=_DESIGN.columns, tested=(2,), null_value=[0.0])),
    "DesignMatrix tested index": ("int", 2, lambda v: DesignMatrix(
        X=_DESIGN.X, columns=_DESIGN.columns, tested=(v,), null_value=[0.0])),
    "DesignMatrix null_value": ("finite", [0.0], lambda v: DesignMatrix(
        X=_DESIGN.X, columns=_DESIGN.columns, tested=(2,), null_value=v)),
    "DesignMatrix offset": ("optional", np.zeros(N), lambda v: DesignMatrix(
        X=_DESIGN.X, columns=_DESIGN.columns, tested=(2,), null_value=[0.0], offset=v)),
    "one_sample_t y": ("finite", _Y, lambda v: one_sample_t(v)),
    "one_sample_t mu0": ("finite", 0.0, lambda v: one_sample_t(_Y, mu0=v)),
    "one_sample_t alpha": ("finite", 0.05, lambda v: one_sample_t(_Y, alpha=v)),
    "gen_hetero_normal n": ("int", 5, lambda v: gen_hetero_normal(v, 0.0)),
    "gen_hetero_normal mu": ("finite", 0.0, lambda v: gen_hetero_normal(5, v)),
    "gen_hetero_normal sigma": (
        "finite", 1.0, lambda v: gen_hetero_normal(5, 0.0, "constant", sigma=v)),
    "gen_mvn_covariates n": ("int", 5, lambda v: gen_mvn_covariates(v, 2, np.eye(2))),
    "gen_mvn_covariates dim": ("int", 2, lambda v: gen_mvn_covariates(5, v, np.eye(2))),
    "gen_mvn_covariates corr": ("finite", np.eye(2), lambda v: gen_mvn_covariates(5, 2, v)),
    "gen_mvn_covariates mean": (
        "finite", [0.0, 1.0], lambda v: gen_mvn_covariates(5, 2, np.eye(2), mean=v)),
    "gen_negbin_response eta": ("finite", np.zeros(5), lambda v: gen_negbin_response(v, 1.0)),
    "gen_negbin_response theta": ("finite", 1.0, lambda v: gen_negbin_response([0.0], v)),
    "make_flip_plan n": ("int", 5, lambda v: make_flip_plan(v, 8)),
    "make_flip_plan w": ("int", 8, lambda v: make_flip_plan(5, v)),
    "make_flip_plan seed": ("int", 0, lambda v: make_flip_plan(5, 8, seed=v)),
    "keyed_rng seed": ("int", 0, lambda v: keyed_rng(v)),
    "keyed_rng stream": ("int", 0, lambda v: keyed_rng(0, v)),
    "scenario_config n": ("int", 10, lambda v: scenario_config("hetero-t", n=v)),
    "scenario_config rho": ("finite", 0.5, lambda v: scenario_config("ignored-latent", rho=v)),
    "scenario_config beta": ("finite", 0.0, lambda v: scenario_config("multivariate",
                                                                      beta=v, gamma0=v)),
    "scenario_config alpha_grid": (
        "finite", [0.05, 0.1], lambda v: scenario_config("hetero-t", alpha_grid=v)),
}

_SCALARS = st.sampled_from([
    "x", "", None, 1 + 1j, complex("nan"), math.nan, math.inf, -math.inf,
    True, False, np.True_, 3.7, -2.5, np.float64(1.5), -3, 0, 3,
])
_JUNK = st.recursive(_SCALARS, lambda inner: st.lists(inner, min_size=1, max_size=3),
                     max_leaves=6)


def _leaves(value):
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def _is_number(leaf):
    return (not isinstance(leaf, (bool, np.bool_))
            and isinstance(leaf, (int, float, np.integer, np.floating)))


def _must_refuse(kind, value):
    """True when ``value`` is not a number of the kind the argument takes."""
    if kind in ("refuse", "any"):
        return kind == "refuse"
    if kind == "int":
        return not (_is_number(value) and isinstance(value, (int, np.integer)))
    if kind == "optional" and value is None:
        return False
    try:
        numbers = np.asarray(value)
    except ValueError:  # ragged
        return True
    # judged as numpy sees it: True in a list of floats is the number 1.0
    return numbers.dtype.kind not in "iuf" or not all(map(math.isfinite, _leaves(value)))


def _poisoned(valid, junk, index):
    """``valid`` with one entry replaced by the scalar ``junk``, as nested lists."""
    values = np.array(valid, dtype=object)
    if not values.ndim or isinstance(junk, list):
        return junk
    values.flat[index % values.size] = junk
    return values.tolist()


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(sorted(_CASES)), junk=_JUNK, poison=st.booleans(),
       index=st.integers(0, 1000))
# bare numpy or Python exceptions at the parent of this check
@example(case="flip_test y", junk=["a"] * N, poison=False, index=0)
@example(case="flip_test y", junk=(_Y + 1j).tolist(), poison=False, index=0)
@example(case="flip_test y", junk=None, poison=False, index=0)
@example(case="flip_test alpha", junk="x", poison=False, index=0)
@example(case="flip_test alpha", junk=np.array([0.1, 0.2]), poison=False, index=0)
@example(case="rao_test alpha", junk="x", poison=False, index=0)
@example(case="decide alpha1", junk="a", poison=False, index=0)
@example(case="Binomial trials", junk="a", poison=False, index=0)
@example(case="family_from_name poisson trials", junk=3, poison=False, index=0)
@example(case="DesignMatrix X", junk=[["a"] * 3] * N, poison=False, index=0)
@example(case="DesignMatrix tested index", junk="x", poison=False, index=0)
@example(case="build_design null_value", junk=["x"], poison=False, index=0)
@example(case="build_design offset", junk=["x"] * N, poison=False, index=0)
@example(case="one_sample_t y", junk=["a", "b"], poison=False, index=0)
@example(case="one_sample_t mu0", junk="x", poison=False, index=0)
@example(case="gen_hetero_normal n", junk="x", poison=False, index=0)
@example(case="gen_mvn_covariates n", junk=-3, poison=False, index=0)
@example(case="gen_negbin_response theta", junk="x", poison=False, index=0)
@example(case="gen_negbin_response eta", junk=3.7, poison=False, index=0)
@example(case="sandwich_estimate y", junk=["a"] * N, poison=False, index=0)
# accepted at the parent and reinterpreted, or failing later with a warning
@example(case="Binomial trials", junk=math.inf, poison=False, index=0)
@example(case="DesignMatrix tested index", junk=1.5, poison=False, index=0)
@example(case="gen_hetero_normal n", junk=3.7, poison=False, index=0)
@example(case="gen_mvn_covariates n", junk=3.5, poison=False, index=0)
@example(case="make_flip_plan n", junk=True, poison=False, index=0)
@example(case="keyed_rng seed", junk=True, poison=False, index=0)
def test_public_entry_points_refuse_junk_with_their_own_errors(case, junk, poison, index):
    kind, valid, call = _CASES[case]
    value = _poisoned(valid, junk, index) if poison else junk
    try:
        call(value)
    except DesignError:
        return
    except NumericalError:
        assert not _must_refuse(kind, value), f"{case}: {value!r} is an input error"
        return
    assert not _must_refuse(kind, value), f"{case} accepted {value!r}"


# a choice of a named option: each must be one of its allowed strings
_CHOICES = {
    "flip_test alternative": lambda v: flip_test(_Y, _DESIGN, _FAM, w=16, alternative=v),
    "flip_test method": lambda v: flip_test(_Y, _DESIGN, _FAM, w=16, method=v),
    "flip_test mode": lambda v: flip_test(_Y, _DESIGN, _FAM, w=16, mode=v),
    "flip_test vhat": lambda v: flip_test(_Y, _DESIGN, _FAM, w=16, vhat=v),
    "decide alternative": lambda v: decide(np.arange(10.0), 0.1, v),
    "p_value alternative": lambda v: p_value(np.arange(10.0), v),
    "one_sample_t alternative": lambda v: one_sample_t(_Y, alternative=v),
    "gen_hetero_normal sigma_rule": lambda v: gen_hetero_normal(5, 0.0, v),
    "parametric_score_test alternative": lambda v: parametric_score_test(_Y, _DESIGN,
                                                                         _FAM, v),
    "make_flip_plan mode": lambda v: make_flip_plan(5, 8, mode=v),
    "family_from_name name": family_from_name,
    "scenario_config scenario": scenario_config,
    "SimConfig scenario": lambda v: SimConfig(scenario=v).validate(),
    "scenario_config sigma_rule": lambda v: scenario_config("hetero-t", sigma_rule=v),
}


@pytest.mark.parametrize("case", sorted(_CHOICES))
@pytest.mark.parametrize("value", [
    np.array(["greater", "less"]), np.array(["basic", "x"]), np.array(["poisson"]),
    ["a"], ("with-replacement",), None, 1, b"greater", "bogus",
], ids=repr)
def test_choices_are_refused_unless_one_allowed_string(case, value):
    # each once ended in numpy's "truth value ... is ambiguous", a
    # TypeError for an unhashable key, or a one-string array accepted
    with pytest.raises(DesignError, match="unknown .* must be one of"):
        _quiet(lambda: _CHOICES[case](value))


def test_real_arrays_of_float64_are_not_copied():
    values = np.arange(6.0).reshape(2, 3)[:, ::2]  # not contiguous either
    assert real_array("x", values) is values
    assert finite_array("x", values) is values
    assert real_array("x", np.arange(3)).dtype == np.float64


@pytest.mark.parametrize("value", [True, np.True_, 2.0, np.float64(2.0), "2", None])
def test_integers_exclude_booleans_floats_and_text(value):
    with pytest.raises(DesignError, match="n must be an integer"):
        integer("n", value)


def test_integers_accept_numpy_integers():
    assert integer("n", np.int64(7)) == 7 and type(integer("n", np.uint8(7))) is int


def _quiet(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


@pytest.mark.parametrize("table", [
    {"x": np.arange(6.0).reshape(3, 2)},
    {"x": np.array([["a", "b"], ["c", "d"], ["a", "d"]])},
    {"x": np.arange(3.0) + 1j},
], ids=["2-D numeric", "2-D categorical", "complex"])
def test_build_design_refuses_a_column_it_would_reshape_or_cast(table):
    # a 3x2 column used to give n = 6, and a complex one lost its
    # imaginary part with only a warning
    with pytest.raises(DesignError, match="column 'x'"):
        _quiet(lambda: build_design(table, tested=["x"]))


def test_design_matrix_refuses_a_complex_matrix():
    X = np.column_stack([np.ones(4), np.arange(4.0) + 1j])
    with pytest.raises(DesignError, match="design matrix must be numeric"):
        _quiet(lambda: DesignMatrix(X=X, columns=("a", "b"), tested=(1,), null_value=[0.0]))


def test_one_sample_t_needs_a_vector():
    # a 2-D y took n from its rows but the mean and sd over all entries
    with pytest.raises(DesignError, match="y must be 1-dimensional"):
        one_sample_t(np.arange(6.0).reshape(3, 2))


def test_one_sample_t_overflow_is_a_numerical_error_without_a_warning():
    # the sd of these finite values overflows: t = 0, p = 1 before
    y = np.exp(np.arange(1.0, 401.0))
    with pytest.raises(NumericalError, match="overflows"):
        _quiet(lambda: one_sample_t(y))


def test_sandwich_estimate_checks_its_response_as_the_fits_do():
    # a response of the wrong length broadcast against the fitted means
    # and gave a covariance
    full_fit = fit_full(_Y, _DESIGN, _FAM)
    with pytest.raises(DesignError, match=r"response has shape \(1,\), expected \(12,\)"):
        sandwich_estimate([1.0], full_fit, _DESIGN, _FAM)
    with pytest.raises(DesignError, match="response must be"):
        sandwich_estimate(["a"] * N, full_fit, _DESIGN, _FAM)


def test_negbin_overflow_is_a_numerical_error_without_a_warning():
    # exp(800) overflows: the draw came from an infinite mean, with a warning
    with pytest.raises(NumericalError, match="overflows"):
        _quiet(lambda: gen_negbin_response([800.0], 1.0))
    with pytest.raises(NumericalError, match="overflows"):
        _quiet(lambda: gen_negbin_response([700.0], 1e-300))


def test_exp_index_draws_that_overflow_are_a_numerical_error_without_a_warning():
    # at n = 709 sd_n * z passes the double range once |z| > 1.8e308 / e^709;
    # a seed whose draws stay finite keeps them as they were
    failed = 0
    for seed in range(20):
        z = keyed_rng(seed).standard_normal(709)
        with np.errstate(over="ignore"):
            want = 0.0 + np.exp(np.arange(1.0, 710.0)) * z
        if np.isfinite(want).all():
            np.testing.assert_array_equal(_quiet(lambda: gen_hetero_normal(709, 0.0, seed=seed)),
                                          want)
        else:
            failed += 1
            with pytest.raises(NumericalError, match="overflow"):
                _quiet(lambda: gen_hetero_normal(709, 0.0, seed=seed))
    assert failed


def test_hetero_t_at_large_n_fails_instead_of_reporting_a_zero_rate():
    cfg = scenario_config("hetero-t", n=400, reps=5, w=50)
    with pytest.raises(NumericalError, match="every repetition failed"):
        _quiet(lambda: run_scenario(cfg))


def test_exp_index_sds_stop_where_exp_overflows():
    scenario_config("hetero-t", n=709)
    scenario_config("hetero-t", n=5000, sigma_rule="constant")
    with pytest.raises(DesignError, match="n <= 709"):
        scenario_config("hetero-t", n=710)
    with pytest.raises(DesignError, match="n <= 709"):
        gen_hetero_normal(710, 0.0)


def test_cli_refuses_exp_index_past_709_as_an_input_error(capsys):
    rc = main(["simulate", "--scenario", "hetero-t", "--n", "710", "--reps", "1"])
    assert rc == 2 and "n <= 709" in capsys.readouterr().err
