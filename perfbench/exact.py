"""Exact (epsilon, delta) references that the benchmark checks brackets against.

Both are independent of the library:

- the Gaussian mechanism composes in closed form (n-fold noise sigma acts as
  one step with noise sigma / sqrt(n)); delta is evaluated in log space,
  exp(eps + log_ndtr(.)), so it stays finite for epsilons in the hundreds,
  and the root bracket doubles until it contains the answer;
- n-fold binary randomized response has a binomial loss distribution,
  enumerated exactly term by term.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln, log_ndtr

__all__ = ["gaussian_delta", "gaussian_epsilon", "rr_delta", "rr_epsilon"]

_XTOL = 1e-13
_RTOL = 4 * np.finfo(float).eps


def gaussian_delta(eps: float, sigma: float, n: int) -> float:
    """delta(eps) of n compositions of the Gaussian mechanism, sensitivity 1."""
    mu = math.sqrt(n) / sigma
    a = eps / mu - mu / 2.0
    b = eps / mu + mu / 2.0
    return math.exp(log_ndtr(-a)) - math.exp(eps + log_ndtr(-b))


def _rr_losses(eps0: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(n + 1)
    log_p = -math.log1p(math.exp(-eps0))
    log_1mp = -math.log1p(math.exp(eps0))
    logpmf = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) + k * log_p + (n - k) * log_1mp
    return eps0 * (2 * k - n), np.exp(logpmf)


def rr_delta(eps: float, eps0: float, n: int) -> float:
    """delta(eps) of n compositions of eps0-randomized response."""
    losses, weights = _rr_losses(eps0, n)
    above = losses > eps
    return float(np.sum(weights[above] * -np.expm1(eps - losses[above])))


def _smallest_epsilon(delta_of, delta: float) -> float:
    """Smallest eps >= 0 with delta_of(eps) <= delta (delta_of decreasing)."""
    if delta_of(0.0) <= delta:
        return 0.0
    hi = 1.0
    while delta_of(hi) > delta:
        hi *= 2.0
    return brentq(lambda e: delta_of(e) - delta, 0.0, hi, xtol=_XTOL, rtol=_RTOL, maxiter=500)


def gaussian_epsilon(sigma: float, n: int, delta: float) -> float:
    return _smallest_epsilon(lambda e: gaussian_delta(e, sigma, n), delta)


def rr_epsilon(eps0: float, n: int, delta: float) -> float:
    return _smallest_epsilon(lambda e: rr_delta(e, eps0, n), delta)
