"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here, not tuned at run
time.
"""

from dataclasses import replace

import numpy as np
import pytest

from signflip import (
    Gaussian,
    Poisson,
    ScoreSet,
    build_design,
    decide,
    effective_contributions,
    fit_null,
    flip_statistics_quadratic,
    flip_statistics_scalar,
    flip_test,
    keyed_rng,
    make_flip_plan,
    p_value,
    parametric_score_test,
    quasi_score_test,
    run_scenario,
    sandwich_wald_test,
    scenario_config,
    score_contributions,
    warpbreaks,
)
from signflip.glm import solve_spd
from oracles import enumerate_flip_stats, fd_gradient, oracle_reject_greater


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_warpbreaks_golden_values():
    table = warpbreaks()
    y = table["breaks"]
    design = build_design(
        {"wool": table["wool"], "tension": table["tension"]},
        tested=["wool"], nuisance=["tension"], intercept=True,
    )
    fam = Poisson()
    p_par = parametric_score_test(y, design, fam).p_value
    p_quasi = quasi_score_test(y, design, fam).p_value
    p_sand = sandwich_wald_test(y, design, fam).p_value
    p_basic = flip_test(y, design, fam, method="basic", w=10**6, seed=1).p_value
    p_eff = flip_test(y, design, fam, method="effective", w=10**6, seed=1).p_value

    checks = [
        5.5e-5 <= p_par <= 7.5e-5,
        0.057 <= p_quasi <= 0.061,
        0.046 <= p_sand <= 0.050,
        0.110 <= p_basic <= 0.116,
        0.062 <= p_eff <= 0.068,
    ]
    detail = (
        f"par={p_par:.3e} quasi={p_quasi:.4f} sandwich={p_sand:.4f} "
        f"flip-basic={p_basic:.4f} flip-eff={p_eff:.4f}"
    )
    _report(1, all(checks), detail)


def test_criterion_2_prop1_exact_level():
    reps = 100_000
    n, w, alpha = 10, 20, 0.05
    rejects = 0
    for r in range(reps):
        y = keyed_rng(20_240_501, r).standard_normal(n)
        plan = make_flip_plan(n, w, "without-replacement", seed=r)
        sv = flip_statistics_scalar(y, plan)
        rejects += decide(sv, alpha, "greater").reject
    rate = rejects / reps
    band = 3.0 * np.sqrt(alpha * (1 - alpha) / reps)
    _report(2, abs(rate - alpha) < band,
            f"rate={rate:.5f}, target 0.05 +- {band:.5f}")


def test_criterion_3_type_one_error_under_overdispersion():
    cfg = scenario_config("overdispersed-nuisance", n=200, reps=2000, w=200,
                          seed=31)
    curve = run_scenario(cfg)
    i = list(curve.alpha).index(0.05)
    eff = curve.rates["flipEff"][i]
    par = curve.rates["par"][i]
    basic = curve.rates["flipSimple"][i]
    ok = (0.035 <= eff <= 0.065) and (par > 0.10) and (basic < 0.05)
    _report(3, ok, f"flipEff={eff:.4f} par={par:.4f} flipSimple={basic:.4f}")


def test_criterion_4_heteroscedastic_t_contrast():
    null_cfg = scenario_config("hetero-t", n=10, reps=10_000, seed=41)
    null_curve = run_scenario(null_cfg)
    i = list(null_curve.alpha).index(0.05)
    flip_rate = null_curve.rates["Flip test"][i]
    t_rate = null_curve.rates["Parametric"][i]

    power_cfg = scenario_config("hetero-t", n=10, reps=10_000, seed=42,
                                beta=0.5, sigma_rule="constant", sigma=1.0)
    power_curve = run_scenario(power_cfg)
    flip_power = power_curve.rates["Flip test"][i]
    t_power = power_curve.rates["Parametric"][i]

    ok = (
        0.041 <= flip_rate <= 0.059
        and not (0.03 <= t_rate <= 0.07)
        and abs(flip_power - t_power) < 0.03
    )
    _report(4, ok,
            f"flip H0={flip_rate:.4f} t H0={t_rate:.4f} "
            f"power flip={flip_power:.4f} t={t_power:.4f}")


def test_criterion_5_multivariate_sandwich_contrast():
    cfg = scenario_config("multivariate", n=50, reps=2000, w=200, seed=51)
    curve = run_scenario(cfg)
    i = list(curve.alpha).index(0.01)
    gee = curve.rates["GEE"][i]
    eff = curve.rates["flipEff"][i]
    ok = gee > 0.1 and eff < 0.03
    _report(5, ok, f"GEE@.01={gee:.4f} flipEff@.01={eff:.4f} "
                   f"failed={len(curve.failed_reps)}")


def _scaled_flip_test(y, design, fam, c1, c2, w, seed, vhat):
    """flip_test's default effective-score test with the score
    contributions multiplied by c1 and the IRLS weights by c2, built from
    the lower-level API."""
    fit = fit_null(y, design, fam)
    fit = replace(fit, W_hat=c2 * fit.W_hat)  # information from scaled weights
    scores = score_contributions(y, fit, design, fam)
    scores = ScoreSet(nu=c1 * scores.nu, nu_nuis=c1 * scores.nu_nuis,
                      info=scores.info)
    contribs = effective_contributions(scores).nu_star
    plan = make_flip_plan(design.n, w, seed=seed)
    if design.d == 1:
        stats = flip_statistics_scalar(contribs[:, 0], plan)
    else:
        vmat = np.eye(design.d)
        if vhat == "inv-effective-info":
            vmat = solve_spd(scores.info.i_star, vmat)
            vmat = 0.5 * (vmat + vmat.T)
        stats = flip_statistics_quadratic(contribs, vmat, plan)
    return decide(stats, 0.05, "two-sided-abs")


def test_criterion_6_constant_misspecification_invariance():
    rng = np.random.default_rng(61)
    mismatches = 0
    cases = 0
    for inst in range(50):
        n = int(rng.integers(25, 60))
        d = 2 if inst % 5 == 0 else 1
        x = rng.normal(size=(n, d))
        z = rng.normal(size=n)
        y = rng.poisson(np.exp(0.2 + 0.4 * z)).astype(float)
        table = {f"x{j}": x[:, j] for j in range(d)}
        table["z"] = z
        design = build_design(table, tested=[f"x{j}" for j in range(d)],
                              nuisance=["z"], intercept=True)
        fam = Poisson()
        seed = int(rng.integers(2**63))
        vhat = "inv-effective-info" if inst % 10 == 0 and d > 1 else "identity"
        base = flip_test(y, design, fam, w=200, seed=seed, vhat=vhat)
        for c1 in (0.1, 3.0, 17.0):
            for c2 in (0.5, 2.0):
                scaled = _scaled_flip_test(y, design, fam, c1, c2, w=200,
                                           seed=seed, vhat=vhat)
                cases += 1
                if (scaled.p_value != base.p_value
                        or scaled.reject != base.reject):
                    mismatches += 1
    _report(6, mismatches == 0,
            f"{cases} scaled runs, {mismatches} decision/p mismatches")


def test_criterion_7_gaussian_centering_identity():
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(20, 80))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        design = build_design({"x": x}, tested=["x"], intercept=True)
        fam = Gaussian()
        nf = fit_null(y, design, fam)
        scores = score_contributions(y, nf, design, fam)
        eff = effective_contributions(scores)
        expected = (x - x.mean()) * (y - nf.mu_hat)
        worst = max(worst, float(np.max(np.abs(eff.nu_star[:, 0] - expected))))
    identity_ok = worst < 1e-10

    same = True
    for seed in range(10):
        half = rng.normal(size=15)
        x = np.concatenate([half, -half])
        y = rng.normal(size=30)
        design = build_design({"x": x}, tested=["x"], intercept=True)
        basic = flip_test(y, design, Gaussian(), method="basic", w=400,
                          seed=seed)
        effct = flip_test(y, design, Gaussian(), method="effective", w=400,
                          seed=seed)
        same &= (basic.p_value == effct.p_value
                 and basic.reject == effct.reject)
    _report(7, identity_ok and same,
            f"max |nu*-(x-xbar)r|={worst:.2e}, centered-x p equal={same}")


def test_criterion_8_exhaustive_matches_brute_force():
    rng = np.random.default_rng(81)
    ok = True
    detail = []
    for n in range(2, 13):
        contribs = rng.integers(-9, 10, size=n).astype(float)
        plan = make_flip_plan(n, 2**n, mode="exhaustive")
        sv = flip_statistics_scalar(contribs, plan)
        oracle = np.asarray(enumerate_flip_stats(contribs))
        stats_equal = np.array_equal(sv.values, oracle)
        order_equal = np.array_equal(np.sort(sv.values), np.sort(oracle))
        decisions_equal = all(
            decide(sv, alpha, "greater").reject
            == oracle_reject_greater(list(oracle), alpha)
            for alpha in (0.01, 0.05, 0.1, 0.25)
        )
        if not (stats_equal and order_equal and decisions_equal):
            ok = False
            detail.append(f"n={n} mismatch")
    _report(8, ok, "n=2..12 exact statistic/order/decision match"
            if ok else "; ".join(detail))


def test_criterion_9_gradient_checks_all_families():
    from signflip import Binomial, log_likelihood

    rng = np.random.default_rng(91)
    worst = 0.0
    for case in range(100):
        family_name = ("gaussian", "poisson", "binomial")[case % 3]
        n = int(rng.integers(15, 40))
        n_nuis = int(rng.integers(1, 3))
        cols = {"x": rng.normal(size=n)}
        nuis = []
        for j in range(n_nuis):
            cols[f"z{j}"] = rng.normal(size=n)
            nuis.append(f"z{j}")
        eta = 0.2 + sum(0.4 * cols[c] for c in nuis)
        if family_name == "gaussian":
            fam, y = Gaussian(), eta + rng.normal(size=n)
        elif family_name == "poisson":
            fam, y = Poisson(), rng.poisson(np.exp(eta)).astype(float)
        else:
            m = int(rng.integers(1, 6))
            fam = Binomial(trials=m)
            y = rng.binomial(m, 1 / (1 + np.exp(-eta))).astype(float)
        design = build_design(cols, tested=["x"], nuisance=nuis, intercept=True)
        nf = fit_null(y, design, fam)
        scores = score_contributions(y, nf, design, fam)
        params = np.concatenate([nf.coef, design.null_value])
        fd = fd_gradient(lambda p: log_likelihood(p, y, design, fam), params,
                         h=1e-6)
        got = np.concatenate([scores.nu_nuis.sum(axis=0),
                              scores.nu.sum(axis=0)])
        rel = np.max(np.abs(got - fd) / np.maximum(np.abs(fd), 1.0))
        worst = max(worst, float(rel))
    _report(9, worst < 1e-5, f"worst relative error {worst:.2e} over 100 cases")


def test_criterion_10_agreement_with_parametric_counterpart():
    n, w, reps = 500, 5000, 1000
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    L = np.linalg.cholesky(corr)
    agree = 0
    for r in range(reps):
        rng = keyed_rng(101, r)
        xz = rng.standard_normal((n, 2)) @ L.T
        x, z = xz[:, 0], xz[:, 1]
        y = rng.poisson(np.exp(0.1 + 1.0 * z)).astype(float)
        design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                              intercept=True)
        fam = Poisson()
        nf = fit_null(y, design, fam)
        scores = score_contributions(y, nf, design, fam)
        eff = effective_contributions(scores)
        plan = make_flip_plan(n, w, seed=int(rng.integers(2**63)))
        p_flip = p_value(flip_statistics_scalar(eff.nu_star[:, 0], plan),
                         "two-sided-abs")
        p_par = parametric_score_test(y, design, fam).p_value
        agree += (p_flip <= 0.05) == (p_par <= 0.05)
    rate = agree / reps
    _report(10, rate > 0.97, f"decision agreement {rate:.4f} over {reps} sims")
