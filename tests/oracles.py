"""Independent oracles for the test suite.

Everything here is computed from first principles (quadrature, enumeration,
root finding on closed densities) without touching the library's curve or
mass machinery, so it can serve as ground truth for it.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import log_ndtr

import pldbounds as pb

# ---------------------------------------------------------------------------
# Quadrature / enumeration oracle for trade-off curves
# ---------------------------------------------------------------------------


def _gauss_pdf(loc: float, sigma: float):
    c = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    return lambda x: c * np.exp(-0.5 * ((np.asarray(x) - loc) / sigma) ** 2)


def _laplace_pdf(loc: float, b: float):
    return lambda x: np.exp(-np.abs(np.asarray(x) - loc) / b) / (2.0 * b)


def _pair_densities(mech: dict):
    """(pdf_a, pdf_b, window) of the mechanism's dominating pair."""
    kind = mech["kind"]
    if kind == "gaussian":
        sigma = mech["noise_scale"]
        half = 13.0 * sigma + 2.0
        return _gauss_pdf(1.0, sigma), _gauss_pdf(0.0, sigma), (-half, half + 1.0)
    if kind == "laplace":
        b = mech["noise_scale"]
        half = 46.0 * b + 2.0
        return _laplace_pdf(1.0, b), _laplace_pdf(0.0, b), (-half, half + 1.0)
    if kind in ("subsampled-gaussian", "subsampled-laplace"):
        inner_kind = "gaussian" if kind == "subsampled-gaussian" else "laplace"
        pdf_with, pdf_without, window = _pair_densities(
            {"kind": inner_kind, "noise_scale": mech["noise_scale"]}
        )
        q = mech["sampling_prob"]
        mix = lambda x: (1.0 - q) * pdf_without(x) + q * pdf_with(x)
        if mech["direction"] == "remove":
            return mix, pdf_without, window
        return pdf_without, mix, window
    raise ValueError(f"no densities for {kind}")


def _positive_part_quad(pdf_a, pdf_b, alpha: float, window) -> float:
    lo, hi = window
    xs = np.linspace(lo, hi, 1537)
    diff = pdf_a(xs) - alpha * pdf_b(xs)
    crossings = []
    sign = np.sign(diff)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        crossings.append(
            brentq(lambda x: pdf_a(x) - alpha * pdf_b(x), xs[i], xs[i + 1], xtol=1e-14)
        )
    integrand = lambda x: max(pdf_a(x) - alpha * pdf_b(x), 0.0)
    value, _ = integrate.quad(
        integrand, lo, hi, points=crossings or None, limit=500, epsabs=1e-13, epsrel=1e-11
    )
    return max(value, 0.0)


def rr_curve_exact(epsilon: float, alpha: float) -> float:
    """Hockey-stick divergence of randomized response by enumeration."""
    e = math.exp(epsilon)
    a = [e / (e + 1.0), 1.0 / (e + 1.0)]
    b = [1.0 / (e + 1.0), e / (e + 1.0)]
    if math.isinf(alpha):
        return 0.0
    return sum(max(pa - alpha * pb_, 0.0) for pa, pb_ in zip(a, b))


def oracle_curve_value(mech: dict, alpha: float) -> float:
    """Trade-off curve value by quadrature / enumeration."""
    if alpha == 0.0:
        return 1.0
    kind = mech["kind"]
    if kind == "randomized-response":
        return rr_curve_exact(mech["epsilon"], alpha)
    if kind in ("subsampled-gaussian", "subsampled-laplace") and mech["direction"] == "both":
        return max(
            oracle_curve_value({**mech, "direction": "add"}, alpha),
            oracle_curve_value({**mech, "direction": "remove"}, alpha),
        )
    pdf_a, pdf_b, window = _pair_densities(mech)
    if math.isinf(alpha):
        return 0.0
    return _positive_part_quad(pdf_a, pdf_b, alpha, window)


def mech_to_spec(mech: dict) -> pb.MechanismSpec:
    kind = mech["kind"]
    if kind == "gaussian":
        return pb.MechanismSpec.gaussian(mech["noise_scale"])
    if kind == "laplace":
        return pb.MechanismSpec.laplace(mech["noise_scale"])
    if kind == "randomized-response":
        return pb.MechanismSpec.randomized_response(mech["epsilon"])
    inner = (
        pb.MechanismSpec.gaussian(mech["noise_scale"])
        if kind == "subsampled-gaussian"
        else pb.MechanismSpec.laplace(mech["noise_scale"])
    )
    return pb.MechanismSpec.poisson_subsampled(inner, mech["sampling_prob"], mech["direction"])


# ---------------------------------------------------------------------------
# Analytic Gaussian epsilon
# ---------------------------------------------------------------------------


def gaussian_delta_exact(sigma: float, epsilon: float) -> float:
    """delta(epsilon) of a unit-sensitivity Gaussian with noise scale sigma.

    Both terms are evaluated in log space, so epsilons in the hundreds stay
    finite (e^epsilon alone overflows past about 709).
    """
    s = 1.0 / sigma
    return math.exp(log_ndtr(0.5 * s - epsilon / s)) - math.exp(
        epsilon + log_ndtr(-epsilon / s - 0.5 * s)
    )


def gaussian_epsilon_exact(sigma: float, delta: float) -> float:
    """Root of delta(epsilon) = delta for the analytic Gaussian curve."""
    hi = 200.0
    while gaussian_delta_exact(sigma, hi) > delta:
        hi *= 2.0
    return brentq(lambda e: gaussian_delta_exact(sigma, e) - delta, -80.0, hi, xtol=1e-12)


# ---------------------------------------------------------------------------
# Randomized response: exact loss distribution and product compositions
# ---------------------------------------------------------------------------


def rr_atoms(epsilon: float) -> list[tuple[float, float]]:
    """(loss value, mass) atoms of the randomized-response loss distribution."""
    e = math.exp(epsilon)
    return [(-epsilon, 1.0 / (e + 1.0)), (epsilon, e / (e + 1.0))]


def rr_pld_on_grid(epsilon: float, grid: pb.DiscretizationGrid) -> pb.FinitePLD:
    """Exact randomized-response loss distribution placed on a matching grid."""
    masses = np.zeros(grid.alphas.size)
    eps_f = grid.finite_epsilons
    for value, mass in rr_atoms(epsilon):
        hits = np.nonzero(np.abs(eps_f - value) < 1e-12)[0]
        assert hits.size == 1, f"grid lacks an exact point at {value}"
        masses[1 + hits[0]] += mass
    return pb.FinitePLD(finite_epsilons=grid.finite_epsilons, masses=masses, spacing=grid.spacing)


def rr_product_delta(epsilon: float, epsilon_query: float, folds: int = 2) -> float:
    """Divergence of the folds-fold product pair of randomized response.

    Enumerates the product distributions over {0,1}^folds directly.
    """
    e = math.exp(epsilon)
    a1 = np.array([e / (e + 1.0), 1.0 / (e + 1.0)])
    b1 = a1[::-1]
    pa = a1.copy()
    pb_ = b1.copy()
    for _ in range(folds - 1):
        pa = np.outer(pa, a1).ravel()
        pb_ = np.outer(pb_, b1).ravel()
    return float(np.maximum(pa - math.exp(epsilon_query) * pb_, 0.0).sum())


# ---------------------------------------------------------------------------
# Random valid pairs (for round-trip and divergence-identity properties)
# ---------------------------------------------------------------------------


def random_grid(rng: np.random.Generator, include_one: bool = False) -> pb.DiscretizationGrid:
    n_interior = int(rng.integers(2, 12))
    scale = float(rng.uniform(0.05, 0.4))
    picks = rng.choice(np.arange(-30, 31), size=n_interior, replace=False)
    eps = np.sort(picks.astype(float)) * scale
    if include_one and not np.any(eps == 0.0):
        eps = np.sort(np.append(eps, 0.0))
    return pb.DiscretizationGrid.from_epsilons(eps)


def random_pair(rng: np.random.Generator, grid: pb.DiscretizationGrid) -> pb.DiscreteDominatingPair:
    """Random valid pair on the grid (P = alpha Q, both summing to one)."""
    k = grid.k
    finite_alphas = grid.alphas[1:k]
    raw = rng.random(k - 1) ** 2
    cap = max(float(raw.sum()), float((finite_alphas * raw).sum()))
    scale = rng.uniform(0.2, 0.999) / cap
    q_interior = raw * scale
    q = np.concatenate(([1.0 - math.fsum(q_interior.tolist())], q_interior, [0.0]))
    p = np.concatenate(([0.0], finite_alphas * q_interior, [0.0]))
    p[-1] = 1.0 - math.fsum(p.tolist())
    return pb.DiscreteDominatingPair(grid=grid, p_masses=p, q_masses=q)


def pair_curve_values(pair: pb.DiscreteDominatingPair) -> np.ndarray:
    """Direct positive-part divergence at every grid point (slow, exact)."""
    alphas = pair.grid.alphas
    values = np.empty(alphas.size)
    for i, a in enumerate(alphas):
        if math.isinf(a):
            values[i] = pair.p_masses[-1]
            continue
        total = pair.p_masses[-1]  # the +inf atom always survives
        for pj, qj in zip(pair.p_masses[:-1], pair.q_masses[:-1]):
            total += max(pj - a * qj, 0.0)
        values[i] = total
    return values


def pair_delta_direct(pair: pb.DiscreteDominatingPair, epsilon: float) -> float:
    """Positive-part divergence of the pair at e^epsilon (direct sum)."""
    if math.isinf(epsilon) and epsilon > 0:
        return float(pair.p_masses[-1])
    a = math.exp(epsilon)
    total = pair.p_masses[-1]
    for pj, qj, aj in zip(pair.p_masses[:-1], pair.q_masses[:-1], pair.grid.alphas[:-1]):
        total += max(pj - a * qj, 0.0)
    return float(total)


def rr_epsilon_exact(epsilon: float, folds: int, delta: float) -> float:
    """Least epsilon whose delta is at most ``delta`` for the folds-fold product of randomized response.

    Enumerates the binomial loss distribution in 50-digit mpmath: k of the
    folds see the likelier outcome with probability e^eps / (1 + e^eps)
    each, and the loss is eps (2k - folds).  Walking the atoms down from the
    top, delta at an atom L is A - e^L T over the atoms above it, with
    A = sum of their masses and T = sum of mass e^(-loss); the root lies
    above the first atom where that exceeds ``delta``, at ln((A - delta) / T).
    """
    with mpmath.workdps(50):
        eps = mpmath.mpf(epsilon)
        p = mpmath.e**eps / (1 + mpmath.e**eps)
        above = weighted = mpmath.mpf(0)
        for k in range(folds, -1, -1):
            loss = eps * (2 * k - folds)
            if above - mpmath.e**loss * weighted > delta:
                break
            mass = mpmath.binomial(folds, k) * p**k * (1 - p) ** (folds - k)
            above += mass
            weighted += mass * mpmath.e ** (-loss)
        return float(mpmath.log((above - delta) / weighted))
