"""Exponential-family distributions with canonical links.

Each family bundles the mean function b'(eta) and its derivative
b''(eta), the canonical link pair, response validation, IRLS starting
values and the deviance.  With a canonical link b''(eta) is both the
IRLS weight and the response variance V(mu).  The dispersion is 1 for
every family (the gaussian scale is pinned to 1; the flip tests are
invariant to that constant).  The response reaches each method as the
finite float n-vector that ``glm`` has checked, so no method converts it.
``expit`` and ``xlogy`` are numpy expressions that neither overflow nor warn.
"""

import numpy as np

from .exceptions import DesignError, finite_array, one_of

__all__ = [
    "Family",
    "Gaussian",
    "Poisson",
    "Binomial",
    "family_from_name",
]


def expit(x):
    """1 / (1 + exp(-x)), from exp(-|x|) so that no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def xlogy(x, y):
    """x log y, and 0 where x is 0 whatever y is."""
    return x * np.log(np.where(x != 0, y, 1.0))


class Family:
    """Canonical-link exponential family on the observation scale."""

    name = "family"

    # cumulant derivatives
    def b_prime(self, eta):
        """Mean function: mu = b'(eta)."""
        raise NotImplementedError

    def b_double_prime(self, eta):
        raise NotImplementedError

    # canonical link, the inverse of b_prime
    def link(self, mu):
        raise NotImplementedError

    def validate_response(self, y):
        """DesignError unless the finite float n-vector ``y`` is a valid response."""

    def initial_mean(self, y):
        """Starting values for IRLS, strictly inside the mean range."""
        raise NotImplementedError

    def valid_mean(self, mu):
        """True when every fitted mean lies strictly inside the valid range."""
        raise NotImplementedError

    def deviance(self, y, mu):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class Gaussian(Family):
    """Normal model with identity link; scale fixed at 1."""

    name = "gaussian"

    def b_prime(self, eta):
        return np.asarray(eta, dtype=float)

    def b_double_prime(self, eta):
        return np.ones_like(np.asarray(eta, dtype=float))

    def link(self, mu):
        return np.asarray(mu, dtype=float)

    def initial_mean(self, y):
        return y

    def valid_mean(self, mu):
        return bool(np.isfinite(mu).all())

    def deviance(self, y, mu):
        return float(np.square(y - mu).sum())


class Poisson(Family):
    """Poisson model with log link."""

    name = "poisson"

    def b_prime(self, eta):
        return np.exp(eta)

    def b_double_prime(self, eta):
        return np.exp(eta)

    def link(self, mu):
        return np.log(mu)

    def validate_response(self, y):
        if (y < 0).any() or (y != np.floor(y)).any():
            raise DesignError("poisson response must be non-negative integers")

    def initial_mean(self, y):
        return y + 0.5

    def valid_mean(self, mu):
        return bool(((mu > 0.0) & (mu < np.inf)).all())

    def deviance(self, y, mu):
        return float(2.0 * (xlogy(y, y) - xlogy(y, mu) - (y - mu)).sum())


class Binomial(Family):
    """Binomial counts with logit link and per-observation trials.

    Responses are success counts out of ``trials`` (scalar or n-vector,
    default 1, i.e. Bernoulli).  The dispersion is 1 on this scale and
    the IRLS weight is m*p*(1-p).
    """

    name = "binomial"

    def __init__(self, trials=1):
        trials = finite_array("binomial trials", trials)
        if np.any(trials < 1) or np.any(trials != np.floor(trials)):
            raise DesignError("binomial trial counts must be positive integers")
        self.trials = trials

    def b_prime(self, eta):
        return self.trials * expit(eta)

    def b_double_prime(self, eta):
        p = expit(eta)
        return self.trials * p * (1.0 - p)

    def link(self, mu):
        mu = np.asarray(mu, dtype=float)
        return np.log(mu / (self.trials - mu))

    def validate_response(self, y):
        if self.trials.ndim and self.trials.shape != y.shape:
            raise DesignError(
                f"binomial trials have shape {self.trials.shape}, "
                f"response has shape {y.shape}"
            )
        if (y < 0).any() or (y > self.trials).any() or (y != np.floor(y)).any():
            raise DesignError("binomial response must be counts in [0, trials]")

    def initial_mean(self, y):
        return self.trials * (y + 0.5) / (self.trials + 1.0)

    def valid_mean(self, mu):
        return bool(((mu > 0.0) & (mu < self.trials)).all())  # trials are finite

    def deviance(self, y, mu):
        m = self.trials
        dev = xlogy(y, y) - xlogy(y, mu)
        dev += xlogy(m - y, m - y) - xlogy(m - y, m - mu)
        return float(2.0 * dev.sum())

    def __repr__(self):
        return f"Binomial(trials={self.trials!r})"


FAMILIES = {"gaussian": Gaussian, "poisson": Poisson, "binomial": Binomial}


def family_from_name(name, **kwargs):
    """Resolve a family by name, one of the keys of ``FAMILIES``."""
    cls = FAMILIES[one_of("family", name, FAMILIES)]
    unknown = sorted(set(kwargs) - ({"trials"} if cls is Binomial else set()))
    if unknown:
        raise DesignError(f"the {name} family takes no argument {unknown[0]!r}")
    return cls(**kwargs)
