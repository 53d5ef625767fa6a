"""Data generators and the scenario runner for the rejection studies.

Five scenarios compare the flip tests with their classical competitors
over a grid of nominal levels:

- overdispersed-nuisance: negative-binomial counts fitted as Poisson,
  one estimated nuisance covariate correlated with the tested one.
- ignored-latent: same, plus an independent latent covariate that the
  fitted model ignores.
- power-correct-model: Poisson data from the fitted model with a
  nonzero tested effect.
- hetero-t: one-sample location test under severe heteroscedasticity
  (sd_i = exp(i)) against the one-sample t-test, plus a homoscedastic
  power variant.
- multivariate: five tested coefficients, equicorrelated covariates,
  ignored latent covariate and covariate-dependent overdispersion;
  quadratic flip statistics with the identity matrix.

Each repetition draws its data from a stream keyed (seed, rep), so the
results do not depend on execution order; per-rep fit failures are
counted and excluded, never silently dropped.  Rejection rates are
evaluated from stored p-values against the alpha grid, which differs
from the order-statistic rule by at most 1/w.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .baselines import one_sample_t, rao_test, sandwich_wald_test
from .baselines import parametric_score_test  # noqa: F401 -- traced by bench/tracer.py
from .design import build_design
from .engine import (
    effective_contributions,
    flip_statistics_quadratic,
    flip_statistics_scalar,
    p_value,
)
from .exceptions import DesignError, NumericalError, finite_array, integer, one_of, real_array
from .families import Poisson
from .flips import SEED_MAX, keyed_rng, make_flip_plan, require_memory
from .glm import cholesky_lower, fit_null, score_contributions

__all__ = [
    "SCENARIOS",
    "SimConfig",
    "RejectionCurve",
    "scenario_config",
    "gen_mvn_covariates",
    "gen_negbin_response",
    "gen_hetero_normal",
    "run_scenario",
    "write_curve_csv",
    "read_config_file",
]

SCENARIOS = (
    "overdispersed-nuisance",
    "ignored-latent",
    "power-correct-model",
    "hetero-t",
    "multivariate",
)

_GLM_METHODS = ("par", "GEE", "flipSimple", "flipEff")
_T_METHODS = ("Parametric", "Flip test")


def _default_alpha_grid():
    # k/20 levels plus finer points below 0.05
    grid = sorted({0.01, 0.02, 0.03, 0.04} | {k / 20 for k in range(1, 20)})
    return np.asarray(grid)


SIGMA_RULES = ("exp-index", "constant")
_EXP_INDEX_MAX_N = 709  # exp(710) overflows a double
# the integer fields and their bounds; parse_setting reads them exactly
_INTEGER_FIELDS = {"n": (1, None), "reps": (1, None), "w": (2, None), "seed": (0, SEED_MAX)}


def _check_sigma_rule(sigma_rule, n):
    """Refuse an unknown sd rule, and exp-index past the n where exp(n) overflows."""
    one_of("sigma_rule", sigma_rule, SIGMA_RULES)
    if sigma_rule == "exp-index" and n > _EXP_INDEX_MAX_N:
        raise DesignError(f"sigma_rule 'exp-index' needs n <= {_EXP_INDEX_MAX_N}, "
                          f"where sd_n = exp(n) is finite; got n={n}")


@dataclass
class SimConfig:
    """Scenario configuration; a field left out takes the default below.

    These ignore the scenario, so ``SimConfig(scenario="multivariate")`` tests
    d = 1 at n = 200; ``scenario_config`` applies a scenario's published ones.
    """

    scenario: str
    n: int = 200
    reps: int = 2000
    w: int = 200
    seed: int = 0
    beta: object = 0.0           # scalar or d-vector; GLM scenarios test d = its size
    gamma0: object = 1.0
    gamma0_latent: float = 0.0
    rho: float = 0.5
    theta: float = None          # None generates Poisson responses
    sigma_rule: str = "exp-index"  # hetero-t only: one of SIGMA_RULES
    sigma: float = 1.0             # constant-sd value for hetero-t
    alpha_grid: np.ndarray = field(default_factory=_default_alpha_grid)

    def validate(self):
        one_of("scenario", self.scenario, SCENARIOS)
        for name, (low, high) in _INTEGER_FIELDS.items():
            setattr(self, name, integer(name, getattr(self, name), low, high))
        for name in ("gamma0_latent", "rho", "sigma"):
            setattr(self, name, float(finite_array(name, getattr(self, name), ndim=0)))
        if self.theta is not None:
            self.theta = float(finite_array("theta", self.theta, ndim=0))
            if not self.theta > 0:
                raise DesignError(f"theta must be positive, got {self.theta!r}")
        grid = np.atleast_1d(finite_array("alpha_grid", self.alpha_grid))
        if grid.ndim != 1 or grid.size and (
            np.any(grid <= 0.0) or np.any(grid >= 1.0) or np.any(np.diff(grid) <= 0)
        ):
            raise DesignError("alpha_grid must be a strictly increasing vector within (0, 1)")
        self.alpha_grid = grid
        # only hetero-t draws sd_i from the rule, so only it bounds n by it
        _check_sigma_rule(self.sigma_rule, self.n if self.scenario == "hetero-t" else 0)
        self.gamma0 = np.atleast_1d(finite_array("gamma0", self.gamma0))
        if self.scenario == "hetero-t":
            self.beta = float(finite_array("beta", self.beta, ndim=0))
        else:
            self.beta = np.atleast_1d(finite_array("beta", self.beta))
            if self.beta.ndim != 1 or self.beta.shape != self.gamma0.shape:
                raise DesignError("beta and gamma0 must be vectors of the same dimension")
        # a lower bound, checked before a repetition allocates anything: a
        # float per observation (make_flip_plan checks w's plan bytes)
        require_memory(f"n={self.n} observations", 8 * self.n)
        return self


# the fields a caller sets; the scenario is named apart
SETTINGS = tuple(f.name for f in fields(SimConfig) if f.name != "scenario")

_SCENARIO_DEFAULTS = {
    "overdispersed-nuisance": dict(n=200, w=200, beta=0.0, gamma0=1.0,
                                   gamma0_latent=0.0, theta=1.0),
    "ignored-latent": dict(n=200, w=200, beta=0.0, gamma0=1.0,
                           gamma0_latent=1.0, theta=1.0),
    "power-correct-model": dict(n=200, w=1000, beta=0.2, gamma0=1.0,
                                gamma0_latent=0.0, theta=None),
    "hetero-t": dict(n=10, w=1000, beta=0.0, sigma_rule="exp-index"),
    "multivariate": dict(n=50, w=200, beta=np.zeros(5),
                         gamma0=np.array([0.5, 0.2, 0.0, 0.0, 0.0]),
                         gamma0_latent=0.5, theta=2.0),
}


def scenario_config(scenario, /, **overrides):
    """SimConfig with the published defaults for ``scenario``."""
    unknown = sorted(set(overrides) - set(SETTINGS))
    if unknown:
        raise DesignError(
            f"unknown config field {unknown[0]!r}; valid fields: "
            + ", ".join(sorted(SETTINGS))
        )
    kwargs = {**_SCENARIO_DEFAULTS[one_of("scenario", scenario, SCENARIOS)], **overrides}
    return SimConfig(scenario=scenario, **kwargs).validate()


@dataclass
class RejectionCurve:
    """Rejection rates per method over the alpha grid.

    ``failed_reps`` lists the repetitions excluded because their fit
    failed numerically, and ``failures`` maps each of them to the message
    of its ``NumericalError``.
    """

    scenario: str
    alpha: np.ndarray
    rates: dict
    reps: int
    failed_reps: tuple = ()
    failures: dict = field(default_factory=dict)


def _mvn_rows(rng, n, corr):
    """n rows of N(0, corr); DesignError unless corr is positive definite."""
    try:
        L = cholesky_lower(corr)
    except NumericalError as exc:
        raise DesignError("correlation matrix is not positive definite") from exc
    return rng.standard_normal((n, corr.shape[0])) @ L.T


def gen_mvn_covariates(n, dim, corr, seed=0, mean=0.0):
    """n rows of N(mean, corr) via the Cholesky factor; deterministic per seed."""
    n, dim = integer("n", n, 0), integer("dim", dim, 1)
    corr = real_array("correlation matrix", corr)
    if corr.shape != (dim, dim):
        raise DesignError(f"correlation matrix must be {dim}x{dim}")
    if not np.allclose(corr, corr.T, atol=1e-12) or not np.allclose(
        np.diag(corr), 1.0, atol=1e-12
    ):
        raise DesignError("correlation matrix must be symmetric with unit diagonal")
    mean = finite_array("mean", mean)
    if mean.shape not in ((), (1,), (dim,)):
        raise DesignError(f"mean must be a number or a {dim}-vector, got shape {mean.shape}")
    return _mvn_rows(keyed_rng(seed), n, corr) + mean


def _poisson(rng, lam):
    """Poisson counts; NumericalError for a mean too large to draw from."""
    try:
        return np.asarray(rng.poisson(lam), dtype=float)  # a scalar lam draws an int
    except ValueError as exc:
        raise NumericalError(f"cannot draw Poisson counts: {exc}") from None


def _negbin(rng, eta, theta):
    """Gamma-Poisson counts; NumericalError for a mean too large to draw from."""
    with np.errstate(over="ignore"):
        scale = np.exp(eta) / theta
    if not np.isfinite(scale).all():
        raise NumericalError("cannot draw negative-binomial counts: "
                             "the gamma scale exp(eta)/theta overflows")
    return _poisson(rng, rng.gamma(shape=theta, scale=scale))


def gen_negbin_response(eta, theta, seed=0):
    """Negative-binomial counts with mean exp(eta) and var mu + mu^2/theta.

    Gamma-Poisson mixture: lambda_i ~ Gamma(shape theta, mean mu_i),
    Y_i ~ Poisson(lambda_i).
    """
    theta = float(finite_array("theta", theta, ndim=0))
    if not theta > 0:
        raise DesignError("theta must be positive")
    return _negbin(keyed_rng(seed), finite_array("eta", eta), theta)


def _hetero_normal(rng, n, mu, sigma_rule, sigma):
    """Normal draws; NumericalError where mu + sd_i * z_i passes the double range."""
    if sigma_rule == "exp-index":
        sd = np.exp(np.arange(1, n + 1, dtype=float))
    else:
        sd = np.full(n, sigma)
    with np.errstate(over="ignore"):
        y = mu + sd * rng.standard_normal(n)
    if not np.isfinite(y).all():
        raise NumericalError("normal draws overflow: mu + sd_i * z_i passes the double range")
    return y


def gen_hetero_normal(n, mu, sigma_rule="exp-index", sigma=1.0, seed=0):
    """Independent normals with mean mu and sd_i = exp(i) or a constant."""
    n = integer("n", n, 0)
    _check_sigma_rule(sigma_rule, n)
    mu = float(finite_array("mu", mu, ndim=0))
    sigma = float(finite_array("sigma", sigma, ndim=0))
    return _hetero_normal(keyed_rng(seed), n, mu, sigma_rule, sigma)


def _glm_rep(cfg, rep):
    """One repetition of a Poisson GLM scenario with d = len(beta).

    The d tested and d nuisance covariates are equicorrelated (rho); the
    latent covariate is independent of them and left out of the fit.
    d = 1 uses the scalar statistic, d > 1 the identity quadratic form.
    """
    rng = keyed_rng(cfg.seed, rep)
    d = cfg.beta.size
    corr = np.full((2 * d + 1, 2 * d + 1), 0.0)
    corr[: 2 * d, : 2 * d] = cfg.rho
    np.fill_diagonal(corr, 1.0)
    cov = _mvn_rows(rng, cfg.n, corr)
    X = cov[:, :d]
    Z = cov[:, d : 2 * d]
    z_lat = cov[:, 2 * d]
    eta = X @ cfg.beta + Z @ cfg.gamma0 + cfg.gamma0_latent * z_lat
    if cfg.theta is None:
        y = _poisson(rng, np.exp(eta))
    else:
        y = _negbin(rng, eta, cfg.theta)
    flip_seed = int(rng.integers(0, 2**63))

    table = {f"x{j + 1}": X[:, j] for j in range(d)}
    table.update({f"z{j + 1}": Z[:, j] for j in range(d)})
    design = build_design(table, tested=[f"x{j + 1}" for j in range(d)],
                          nuisance=[f"z{j + 1}" for j in range(d)], intercept=True)
    family = Poisson()
    null_fit = fit_null(y, design, family)
    scores = score_contributions(y, null_fit, design, family)
    nu_star = effective_contributions(scores)
    plan = make_flip_plan(cfg.n, cfg.w, "with-replacement", seed=flip_seed)

    def flip_p(contribs):
        if d == 1:
            stats = flip_statistics_scalar(contribs[:, 0], plan)
        else:
            stats = flip_statistics_quadratic(contribs, plan)
        return p_value(stats, "two-sided-abs")

    return {
        "par": rao_test(scores).p_value,
        "GEE": sandwich_wald_test(y, design, family).p_value,
        "flipSimple": flip_p(scores.nu),
        "flipEff": flip_p(nu_star),
    }


def _hetero_rep(cfg, rep):
    """One repetition of the one-sample heteroscedasticity scenario.

    The tested column is constant (x_i = 1) so the score contributions
    are the observations themselves; the flip test flips them directly.
    """
    rng = keyed_rng(cfg.seed, rep)
    y = _hetero_normal(rng, cfg.n, float(cfg.beta), cfg.sigma_rule, cfg.sigma)
    flip_seed = int(rng.integers(0, 2**63))
    plan = make_flip_plan(cfg.n, cfg.w, "with-replacement", seed=flip_seed)
    p_flip = p_value(flip_statistics_scalar(y, plan), "two-sided-abs")
    p_t = one_sample_t(y, 0.0).p_value
    return {"Parametric": p_t, "Flip test": p_flip}


def run_scenario(config):
    """Run a scenario and tabulate rejection rates over the alpha grid.

    The curve is non-decreasing in alpha by construction (each method's
    rate at alpha is the fraction of stored p-values <= alpha).  Reps
    whose fit fails numerically are excluded, listed in ``failed_reps``
    and mapped to their error messages in ``failures``.
    """
    cfg = replace(config)
    cfg.validate()
    if cfg.scenario == "hetero-t":
        rep_fn, methods = _hetero_rep, _T_METHODS
    else:
        rep_fn, methods = _glm_rep, _GLM_METHODS

    pvals = {m: [] for m in methods}
    failures = {}
    for rep in range(cfg.reps):
        try:
            res = rep_fn(cfg, rep)
        except NumericalError as exc:
            failures[rep] = str(exc)
            continue
        for m in methods:
            pvals[m].append(res[m])

    done = cfg.reps - len(failures)
    if done == 0:
        raise NumericalError("every repetition failed to fit")
    rates = {}
    for m in methods:
        p = np.asarray(pvals[m])
        rates[m] = np.asarray([np.mean(p <= a) for a in cfg.alpha_grid])
    return RejectionCurve(
        scenario=cfg.scenario,
        alpha=cfg.alpha_grid.copy(),
        rates=rates,
        reps=done,
        failed_reps=tuple(failures),
        failures=failures,
    )


def write_curve_csv(curve, path):
    """Write the curve as a headered CSV at 6 significant digits."""
    methods = list(curve.rates)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["alpha"] + methods) + "\n")
        for i, a in enumerate(curve.alpha):
            row = [f"{a:.6g}"] + [f"{curve.rates[m][i]:.6g}" for m in methods]
            fh.write(",".join(row) + "\n")


def parse_setting(key, text):
    """Setting ``key`` from its text in a config line or a flag, for ``validate`` to judge.

    Comma-separated values are a float vector.  An integer field reads an
    integer literal exactly and an integral float as an int.  Other
    numbers are floats, and anything else stays a string.
    """
    if "," in text:
        try:
            return np.asarray([float(v) for v in text.split(",")])
        except ValueError:
            msg = f"{key!r} must be comma-separated numbers, got {text!r}"
            raise DesignError(msg) from None
    if key in _INTEGER_FIELDS:
        try:
            return int(text)
        except ValueError:
            pass
    try:
        num = float(text)
    except ValueError:
        return text
    return int(num) if key in _INTEGER_FIELDS and num.is_integer() else num


def read_config_file(path):
    """Parse a flat key=value scenario file into keyword overrides.

    Each value parses with ``parse_setting``, and each key is set once.
    Lines starting with '#' are ignored.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DesignError(f"{path}: cannot read: {exc}") from None
    overrides, set_on = {}, {}
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DesignError(f"bad config line {line!r}; expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in set_on:
            raise DesignError(f"{path}: {key!r} is set on line {set_on[key]} "
                              f"and again on line {number}")
        set_on[key] = number
        overrides[key] = parse_setting(key, value.strip())
    return overrides
