"""The benchmark's workloads and their correctness checks.

Each workload builds its inputs from the benchmark seed when it is
constructed; ``run(k)`` then performs operation k, drawing whatever
randomness it needs from ``(seed, k)``.  The same seed therefore gives
the same sequence of operations.  The library is always reached through
its module attributes (``signflip.engine.flip_test``, not a name bound
at import), so the tracer's wrappers see every call.

The checks use only properties that hold for any flip stream: bounds
and golden bands on p-values, the Rao identity at the identity flip,
monotone rejection curves and a binomial band on a nominal rate.  A
failed check raises CheckFailed; the runner counts it as a failure.
"""

import math
import time
from dataclasses import replace

import numpy as np


class CheckFailed(Exception):
    """An output of the library is wrong."""


def derive_seed(seed, k):
    """Seed of operation k, independent across (seed, k) pairs."""
    state = np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


def _check_p(p, w):
    if not 1.0 / w <= p <= 1.0:
        raise CheckFailed(f"p-value {p} outside [1/w, 1] for w={w}")


class Workload:
    """Hooks a workload may override; the defaults do nothing.

    ``reps_per_op`` counts the repetitions behind reps_per_s: one
    flip_test call, or every scenario repetition of a sweep.
    ``scenario_reps`` counts the scenario repetitions one operation
    attempts, which failed_frac counts alongside the operations.
    """

    reps_per_op = 1
    scenario_reps = 0

    def prepare_checks(self):
        """Compute check references (after set-up is timed)."""

    def final_check(self):
        """Checks over the whole run, after the last operation."""

    @staticmethod
    def failed_reps(res):
        """Scenario repetitions that failed inside operation result ``res``."""
        return 0

    @staticmethod
    def scenario_seconds(res):
        """Seconds per scenario inside operation result ``res``."""
        return {}


class WarpbreaksFlip(Workload):
    """The paper's headline analysis: breaks ~ wool | tension, Poisson.

    Check: the effective-score p-value lies in the criterion-1 band
    [0.062, 0.068]; its Monte-Carlo standard error at w = 10^5 is under
    0.0008, so the band holds for any flip stream at both sizes.
    """

    name = "warpbreaks-1e6"
    BAND = (0.062, 0.068)

    def __init__(self, sf, seed, tiny):
        self.sf = sf
        self.seed = seed
        self.w = 10**5 if tiny else 10**6
        table = sf.warpbreaks()
        self.y = table["breaks"]
        self.design = sf.build_design(
            {"wool": table["wool"], "tension": table["tension"]},
            tested=["wool"], nuisance=["tension"], intercept=True,
        )
        self.family = sf.Poisson()
        self.flips_per_op = self.w

    def run(self, k):
        return self.sf.engine.flip_test(
            self.y, self.design, self.family, method="effective",
            w=self.w, mode="with-replacement", seed=derive_seed(self.seed, k),
        )

    def check(self, k, res):
        _check_p(res.p_value, self.w)
        lo, hi = self.BAND
        if not lo <= res.p_value <= hi:
            raise CheckFailed(f"effective p-value {res.p_value} outside [{lo}, {hi}]")


class WideQuadratic(Workload):
    """Synthetic Poisson data, 3 tested and 2 nuisance columns plus intercept.

    Large n, the quadratic form with the inverse effective information,
    and the without-replacement sampler for n > 20.  Check: T_1 (the
    identity flip) equals the parametric Rao statistic.
    """

    name = "wide-n-quadratic"
    RTOL = 1e-8

    def __init__(self, sf, seed, tiny):
        self.sf = sf
        self.seed = seed
        n, self.w = (500, 500) if tiny else (10**4, 10**4)
        rng = np.random.default_rng(seed)
        cov = 0.5 * rng.standard_normal((n, 5))
        eta = 0.5 + cov[:, 3:] @ np.array([0.3, -0.2])
        self.y = rng.poisson(np.exp(eta)).astype(float)
        names = ("x1", "x2", "x3", "z1", "z2")
        self.design = sf.build_design(
            {name: cov[:, j] for j, name in enumerate(names)},
            tested=list(names[:3]), nuisance=list(names[3:]), intercept=True,
        )
        self.family = sf.Poisson()
        self.rao = None
        self.flips_per_op = self.w

    def run(self, k):
        return self.sf.engine.flip_test(
            self.y, self.design, self.family, vhat="inv-effective-info",
            mode="without-replacement", w=self.w, seed=derive_seed(self.seed, k),
        )

    def prepare_checks(self):
        self.rao = self.sf.baselines.parametric_score_test(
            self.y, self.design, self.family
        ).statistic

    def check(self, k, res):
        _check_p(res.p_value, self.w)
        if not abs(res.statistic - self.rao) <= self.RTOL * abs(self.rao):
            raise CheckFailed(
                f"T_1 = {res.statistic!r} differs from the Rao statistic {self.rao!r}"
            )


class ScenariosDesk(Workload):
    """One sweep: every scenario at its published defaults, same reps each.

    Sweep k runs every scenario with the seed of operation k, so the
    pooled check below sees distinct repetitions from each sweep.
    Checks: every curve is non-decreasing in alpha; over the whole run,
    the pooled flipEff rate at alpha = 0.05 on overdispersed-nuisance
    lies within 4 binomial sigmas of 0.05 (criterion 3 pins that level;
    the multivariate flipEff rate is not nominal at small alpha, so it
    is not checked this way).
    """

    name = "scenarios-desk"
    NOMINAL = ("overdispersed-nuisance", "flipEff", 0.05)

    def __init__(self, sf, seed, tiny):
        self.sf = sf
        self.seed = seed
        self.reps = 5 if tiny else 40
        self.configs = [sf.scenario_config(s, reps=self.reps) for s in sf.SCENARIOS]
        self.flips_per_op = sum(cfg.w * cfg.reps for cfg in self.configs)
        self.reps_per_op = self.scenario_reps = sum(cfg.reps for cfg in self.configs)
        self.pooled = {}  # operation -> (reps, flipEff rejections) on NOMINAL

    def run(self, k):
        """Return {scenario: (curve, seconds)} for sweep k."""
        seed = derive_seed(self.seed, k)
        out = {}
        for cfg in self.configs:
            t0 = time.perf_counter()
            curve = self.sf.simulate.run_scenario(replace(cfg, seed=seed))
            out[cfg.scenario] = (curve, time.perf_counter() - t0)
        return out

    def check(self, k, res):
        scenario, method, alpha = self.NOMINAL
        for name, (curve, _) in res.items():
            for m, rates in curve.rates.items():
                if np.any(np.diff(rates) < 0) or np.any((rates < 0) | (rates > 1)):
                    raise CheckFailed(f"{name}/{m}: rejection curve not monotone in [0, 1]")
        curve = res[scenario][0]
        i = int(np.flatnonzero(np.isclose(curve.alpha, alpha))[0])
        self.pooled[k] = (curve.reps, int(round(curve.rates[method][i] * curve.reps)))

    def final_check(self):
        scenario, method, alpha = self.NOMINAL
        n = sum(reps for reps, _ in self.pooled.values())
        if n == 0:
            raise CheckFailed("no sweep completed, so the pooled rate is undefined")
        rate = sum(hits for _, hits in self.pooled.values()) / n
        band = 4.0 * math.sqrt(alpha * (1.0 - alpha) / n)
        if abs(rate - alpha) > band:
            raise CheckFailed(
                f"{scenario}/{method} pooled rate {rate:.4f} at alpha={alpha} over "
                f"{n} reps is outside {alpha} +- {band:.4f}"
            )

    @staticmethod
    def failed_reps(res):
        return sum(len(curve.failed_reps) for curve, _ in res.values())

    @staticmethod
    def scenario_seconds(res):
        return {name: seconds for name, (_, seconds) in res.items()}


WORKLOADS = {cls.name: cls for cls in (WarpbreaksFlip, ScenariosDesk, WideQuadratic)}
