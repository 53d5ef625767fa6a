"""Mechanics of the sign-flip test on a toy one-sample problem.

With no nuisance parameters the score contributions for testing a zero
mean are just the observations, so flipping scores means flipping data
signs.  For symmetric data the test is exact at every sample size, and
with the exhaustive plan the null rejection rate is exactly
floor(alpha * 2^n) / 2^n.
"""

import numpy as np

from signflip import decide, flip_statistics_scalar, make_flip_plan, p_value

rng = np.random.default_rng(0)

# one dataset, all three plan modes
y = rng.standard_normal(10) + 0.8
for mode, w in (("with-replacement", 5000), ("without-replacement", 512),
                ("exhaustive", 2**10)):
    plan = make_flip_plan(10, w, mode=mode, seed=42)
    stats = flip_statistics_scalar(y, plan)
    res = decide(stats, 0.05, "greater")
    print(f"{mode:20s} w={plan.w:5d}  T1={stats[0]:6.3f}  "
          f"p={res.p_value:.4f}  reject@0.05={res.reject}")

# the identity flip is always row one, so T1 is the observed statistic
plan = make_flip_plan(10, 64, seed=7)
stats = flip_statistics_scalar(y, plan)
assert stats[0] == flip_statistics_scalar(y, plan)[0]
print(f"\nobserved statistic (identity flip): {stats[0]:.4f}")
print(f"flip distribution quantiles: {np.percentile(stats, [5, 50, 95]).round(3)}")

# exactness under symmetry: exhaustive plan, null data
n, alpha, reps = 8, 0.05, 4000
w = 2**n
target = np.floor(alpha * w) / w
rejects = 0
for r in range(reps):
    null_y = rng.standard_normal(n)
    stats = flip_statistics_scalar(null_y, make_flip_plan(n, w, mode="exhaustive"))
    rejects += decide(stats, alpha, "greater").reject
print(f"\nexhaustive-plan null rejection rate: {rejects / reps:.4f} "
      f"(exact level {target:.4f}, {reps} simulated datasets)")

# p-values include the identity flip, so they never drop below 1/w
tiny = flip_statistics_scalar(np.abs(rng.standard_normal(10)) + 3.0,
                              make_flip_plan(10, 100, seed=3))
print(f"\nfloor on p-values: p = {p_value(tiny, 'greater')} >= 1/w = 0.01")
