"""Composition of finitely supported loss distributions by convolution.

Running two mechanisms side by side multiplies the dominating pairs, and the
loss distribution of a product pair is the convolution of the loss
distributions, so self-composition is an n-fold convolution, computed here
by exponentiation over squaring.  Finite masses convolve on the shared
epsilon lattice (indices add); atoms at +inf (and, for improper rounded-down
estimates, at -inf) are absorbing, so they combine by inclusion-exclusion
while the finite parts convolve at their complementary weight.

Truncation keeps supports bounded and is direction-aware so that the
one-sided meaning of an estimate survives composition:

- pessimistic: low-tail mass moves up to the lowest retained finite epsilon
  and high-tail mass to +inf; both moves are upward in epsilon, so the
  divergence can only grow;
- optimistic: high-tail mass moves down to the highest retained finite
  epsilon and low-tail mass to -inf (where it contributes nothing); both
  moves are downward, so the divergence can only shrink.

The per-side mass budget for one self-composition is split evenly across
its steps so the total relocated mass stays below the policy budget per
side.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .errors import NumericalValidityError, RequestError
from .pld import FinitePLD

__all__ = ["CompositionPolicy", "convolve", "self_compose", "point_mass_pld"]

_DIRECTIONS = ("pessimistic", "optimistic")
_METHODS = ("fft", "direct")

#: Masses below this are flushed to zero to avoid denormal slowdowns.
_MASS_FLOOR = 1e-300

#: FFT round-off can leave tiny negative coefficients; anything beyond this
#: indicates a real problem.
_FFT_NEG_TOL = 1e-13


@dataclasses.dataclass(frozen=True)
class CompositionPolicy:
    """How to convolve: direction-aware truncation, method, support cap."""

    direction: str
    method: str = "fft"
    truncation_tail_mass: float = 1e-15
    max_support: int = 1 << 22

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise RequestError(f"direction must be one of {_DIRECTIONS}")
        if self.method not in _METHODS:
            raise RequestError(f"method must be one of {_METHODS}")
        if not (0.0 <= self.truncation_tail_mass <= 1e-6):
            raise RequestError(
                f"truncation_tail_mass must lie in [0, 1e-6], got "
                f"{self.truncation_tail_mass}"
            )
        if self.max_support < 2:
            raise RequestError("max_support must be at least 2")


def point_mass_pld(spacing: float) -> FinitePLD:
    """Loss distribution of an empty composition: all mass at epsilon = 0."""
    return FinitePLD(
        finite_epsilons=np.array([0.0]), masses=np.array([0.0, 1.0, 0.0]), spacing=spacing
    )


def _truncate(
    finite: np.ndarray,
    j0: int,
    neg_mass: float,
    inf_mass: float,
    direction: str,
    budget: float,
) -> tuple[np.ndarray, int, float, float, float, float]:
    """Relocate up to ``budget`` mass per tail, keeping at least one point.

    Returns (finite, j0, neg_mass, inf_mass, moved_low, moved_high).
    """
    if budget <= 0.0 or finite.size <= 1:
        return finite, j0, neg_mass, inf_mass, 0.0, 0.0
    csum = np.cumsum(finite)
    lo_cut = min(int(np.searchsorted(csum, budget, side="right")), finite.size - 1)
    rsum = np.cumsum(finite[::-1])
    hi_cut = min(int(np.searchsorted(rsum, budget, side="right")), finite.size - 1 - lo_cut)
    if lo_cut == 0 and hi_cut == 0:
        return finite, j0, neg_mass, inf_mass, 0.0, 0.0
    hi_keep = finite.size - hi_cut
    moved_low = float(math.fsum(finite[:lo_cut].tolist()))
    moved_high = float(math.fsum(finite[hi_keep:].tolist()))
    finite = finite[lo_cut:hi_keep].copy()
    if direction == "pessimistic":
        finite[0] += moved_low
        inf_mass += moved_high
    else:
        neg_mass += moved_low
        finite[-1] += moved_high
    return finite, j0 + lo_cut, neg_mass, inf_mass, moved_low, moved_high


def _fft_convolve(fa: np.ndarray, fb: np.ndarray, square: bool) -> np.ndarray:
    """Full linear convolution by real FFT at the next fast length.

    The length and arithmetic are those of ``scipy.signal.fftconvolve``; a
    square transforms its operand once and multiplies the spectrum by itself.
    A one-point operand scales the other exactly, as ``fftconvolve`` does.
    """
    if fa.size == 1 or fb.size == 1:
        return fa * fb
    size = fa.size + fb.size - 1
    length = next_fast_len(size, True)
    spectrum = rfft(fa, length)
    spectrum *= spectrum if square else rfft(fb, length)
    return irfft(spectrum, length)[:size]


def _convolve(a: FinitePLD, b: FinitePLD, policy: CompositionPolicy, budget: float) -> FinitePLD:
    spacing = a.spacing
    if spacing is None or spacing != b.spacing:
        raise RequestError(
            f"composition needs one lattice spacing, got {spacing} and {b.spacing}"
        )
    neg_a, inf_a = float(a.masses[0]), float(a.masses[-1])
    neg_b, inf_b = float(b.masses[0]), float(b.masses[-1])
    if (neg_a > 0.0 and inf_b > 0.0) or (neg_b > 0.0 and inf_a > 0.0):
        raise RequestError("cannot compose -inf mass against +inf mass")
    fa = a.masses[1:-1]
    fb = b.masses[1:-1]
    if policy.method == "direct":
        finite = np.convolve(fa, fb)
    else:
        finite = _fft_convolve(fa, fb, square=a is b)
        worst = float(finite.min()) if finite.size else 0.0
        if worst < -_FFT_NEG_TOL:
            raise NumericalValidityError(f"fft convolution went negative ({worst:.3e})")
        np.maximum(finite, 0.0, out=finite)
    finite[finite < _MASS_FLOOR] = 0.0
    inf_mass = inf_a + inf_b - inf_a * inf_b
    neg_mass = neg_a + neg_b - neg_a * neg_b
    j0 = round(float(a.finite_epsilons[0]) / spacing) + round(float(b.finite_epsilons[0]) / spacing)
    finite, j0, neg_mass, inf_mass, moved_low, moved_high = _truncate(
        finite, j0, neg_mass, inf_mass, policy.direction, budget
    )
    if finite.size > policy.max_support:
        raise RequestError(
            f"composed support {finite.size} exceeds max_support "
            f"{policy.max_support}; raise the cap or allow more truncation"
        )
    masses = np.concatenate(([neg_mass], finite, [inf_mass]))
    return FinitePLD(
        finite_epsilons=(j0 + np.arange(finite.size)) * spacing,
        masses=masses,
        spacing=spacing,
        proper=a.proper and b.proper and neg_mass == 0.0,
        truncated_low=a.truncated_low + b.truncated_low + moved_low,
        truncated_high=a.truncated_high + b.truncated_high + moved_high,
    )


def convolve(a: FinitePLD, b: FinitePLD, policy: CompositionPolicy) -> FinitePLD:
    """Compose two loss distributions on a shared lattice."""
    return _convolve(a, b, policy, policy.truncation_tail_mass)


def self_compose(pld: FinitePLD, n: int, policy: CompositionPolicy) -> FinitePLD:
    """n-fold self-composition via exponentiation over squaring.

    n = 0 is the empty composition (a point mass at 0), not an error.  The
    per-side truncation budget for each intermediate convolution is the
    policy budget divided by n, so the total relocated mass per side stays
    below the policy budget.
    """
    if n < 0:
        raise RequestError(f"composition count must be non-negative, got {n}")
    if pld.spacing is None:
        raise RequestError("composition requires uniform-lattice distributions")
    if n == 0:
        return point_mass_pld(pld.spacing)
    if n == 1:
        return pld
    step_budget = policy.truncation_tail_mass / n
    result: FinitePLD | None = None
    base = pld
    remaining = n
    while remaining:
        if remaining & 1:
            result = base if result is None else _convolve(result, base, policy, step_budget)
        remaining >>= 1
        if remaining:
            base = _convolve(base, base, policy, step_budget)
    assert result is not None
    return result
