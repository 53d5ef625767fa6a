"""Why effective scores matter when nuisance parameters are estimated.

Fitting the nuisance coefficients by maximum likelihood makes the
per-observation scores correlated and shrinks the variance of their
sum; flipping the raw scores then compares an under-dispersed observed
statistic against over-dispersed flipped ones, which is conservative.
Projecting the nuisance directions out (the effective score) restores
the nominal level.  Here the fitted Poisson model is also wrong: the
responses are negative-binomial counts.
"""

import numpy as np

from signflip import (
    Poisson,
    build_design,
    effective_contributions,
    fit_null,
    flip_statistics_scalar,
    gen_mvn_covariates,
    gen_negbin_response,
    keyed_rng,
    make_flip_plan,
    p_value,
    score_contributions,
)

n, reps, w, alpha = 200, 800, 200, 0.05
corr = np.array([[1.0, 0.5], [0.5, 1.0]])

rej_basic = rej_eff = 0
for rep in range(reps):
    cov = gen_mvn_covariates(n, 2, corr, seed=rep)
    x, z = cov[:, 0], cov[:, 1]
    y = gen_negbin_response(1.0 * z, theta=1.0, seed=10_000 + rep)

    design = build_design({"x": x, "z": z}, tested=["x"], nuisance=["z"],
                          intercept=True)
    fam = Poisson()
    nf = fit_null(y, design, fam)
    scores = score_contributions(y, nf, design, fam)
    nu_star = effective_contributions(scores)

    plan = make_flip_plan(n, w, seed=int(keyed_rng(5, rep).integers(2**63)))
    rej_basic += p_value(flip_statistics_scalar(scores.nu[:, 0], plan),
                         "two-sided-abs") <= alpha
    rej_eff += p_value(flip_statistics_scalar(nu_star[:, 0], plan),
                       "two-sided-abs") <= alpha

print(f"misspecified Poisson fit, beta = 0, {reps} datasets, alpha = {alpha}")
print(f"  basic-score flip test rejection rate:     {rej_basic / reps:.3f}  (conservative)")
print(f"  effective-score flip test rejection rate: {rej_eff / reps:.3f}  (near nominal)")

# the projection at work on one dataset: for a gaussian model with an
# intercept the effective contributions are exactly (x - xbar) * residual
from signflip import Gaussian

rng = np.random.default_rng(1)
x = rng.normal(size=30)
y = rng.normal(size=30)
design = build_design({"x": x}, tested=["x"], intercept=True)
nf = fit_null(y, design, Gaussian())
scores = score_contributions(y, nf, design, Gaussian())
eff = effective_contributions(scores)
closed_form = (x - x.mean()) * (y - nf.mu_hat)
print(f"\ngaussian centering identity, max deviation: "
      f"{np.max(np.abs(eff[:, 0] - closed_form)):.2e}")
print(f"projector (here just the covariate mean): {scores.info.proj.ravel()}")
