"""Finitely supported privacy loss distributions and their discretization.

A pair (P, Q) of distributions supported on a grid {a_0=0, ..., a_k=+inf}
with P(a) = a * Q(a) off infinity and Q(+inf) = 0 has a privacy loss
distribution supported on the grid's epsilons, with mass P(a_i) at
eps_i = ln(a_i).  Its trade-off curve is piecewise linear with kinks on the
grid and constant past a_{k-1}.

The inverse construction (grid-restricted curve values -> pair) assigns

    Q(a_i) = (h(a_{i-1}) - h(a_i)) / (a_i - a_{i-1})
             - (h(a_i) - h(a_{i+1})) / (a_{i+1} - a_i)        for 0 < i < k,
    Q(a_0) = 1 + (h(a_1) - h(a_0)) / a_1,          Q(a_k) = 0,
    P(a_i) = a_i * Q(a_i),              P(a_0) = 0,  P(a_k) = h(a_k),

where difference quotients with an infinite denominator vanish.  Q(a_i) is
the slope increase of the curve at a_i, and Q(a_0) the increase over the
slope -1 of the line 1 - alpha, so convexity and h >= 1 - alpha are exactly
mass non-negativity; the values must be constant from a_{k-1} to +inf (a jump
there cannot be realised by any finitely supported pair), and then both P
and Q sum to one.  Connect-the-dots (``pessimistic_pair``) and
``discretize_from_curve`` build by this one rule, ``_interpolating_pair``,
from node values and gaps; the optimistic estimate hands in its slopes, and
``_pair_from_slopes`` takes each slope increase in the coordinates accurate
at its node.

Given a loss distribution with masses m(eps_i), the hockey-stick divergence
at e^eps is

    delta(eps) = sum_{eps'} [1 - e^(eps - eps')]_+ * m(eps'),

with the conventions e^(-inf) = 0 and e^(+inf) = +inf, so mass at +inf
contributes fully (a floor on delta) and mass at -inf contributes nothing.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import math
import reprlib

import numpy as np

from .curves import HockeyStickCurve, PiecewiseLinearCurve
from .errors import (
    NumericalValidityError, RequestError, _composition_count, _is_finite_real, _require_positive
)
from .grid import (
    _INDEX_MAX, DiscretizationGrid, _frozen, _lattice, _lattice_offset
)

__all__ = [
    "DiscreteDominatingPair",
    "FinitePLD",
    "discretize_from_curve",
    "pld_of",
    "delta_at",
    "curve_of",
    "epsilon_for_delta",
    "pld_to_json_dict",
    "pld_from_json_dict",
    "pld_to_json",
    "pld_from_json",
]

#: Negative masses in [-_CLAMP_TOL, 0) are floating-point convexity slack and
#: are clamped to zero; anything more negative is a hard validity failure.
_CLAMP_TOL = 1e-12

#: Masses down to -_MASS_SLACK are rounding slack, which a ``FinitePLD`` zeroes.
_MASS_SLACK = 1e-15

#: Unit roundoff of binary64.
_U = 2.0**-53

#: Tolerance on total probability mass after construction or composition.
_MASS_ATOL = 1e-11

#: ``_exact_sum`` adds at most this many values: a binade's sum of 27-bit
#: mantissa halves then stays an integer below 2^53, so float adds are exact.
_EXACT_SUM_MAX = 1 << 26

#: ``np.frexp`` exponents of finite doubles lie in [-1073, 1024].
_FREXP_LOW = -1073
_FREXP_BINS = 1024 - _FREXP_LOW + 1

#: Below this many values ``math.fsum``'s loop is faster than the bins' set-up.
_EXACT_SUM_MIN = 2048


def _exact_sum(values: np.ndarray) -> float:
    """The correctly rounded sum of ``values``, bit for bit ``math.fsum``'s.

    Each value is M * 2^(e - 53) with an integer M = H * 2^26 + L, |H| < 2^27
    and |L| < 2^26 (``np.frexp``, then exact scalings and one exact
    subtraction).  ``np.bincount`` sums H and L per exponent e; at most
    ``_EXACT_SUM_MAX`` values keep every partial sum an integer below 2^53,
    so the bins are exact.  The bins combine as Python integers into one
    integer T with sum = T * 2^(-1073 - 53), and one correctly rounded
    integer division gives the float.  fsum also rounds
    its exact sum correctly, to the same float, and returns +0.0 for an
    exact zero, as this does.  Short and long arrays, non-finite values,
    and sums whose magnitude could overflow fsum's partials (it raises
    then) are left to ``math.fsum``.
    """
    size = values.size
    if not _EXACT_SUM_MIN <= size <= _EXACT_SUM_MAX or not np.isfinite(values).all():
        return math.fsum(memoryview(values))
    mantissas, exponents = np.frexp(values)
    if int(exponents.max()) + size.bit_length() >= 1023:
        return math.fsum(memoryview(values))
    exponents -= _FREXP_LOW
    mantissas *= 2.0**27
    high = np.trunc(mantissas)
    mantissas -= high
    high_bins = np.bincount(exponents, high, _FREXP_BINS)
    low_bins = np.bincount(exponents, mantissas, _FREXP_BINS)
    used = np.flatnonzero((high_bins != 0.0) | (low_bins != 0.0))
    # the fractions L / 2^26 are multiples of 2^-26, so their bins scale exactly
    low_bins *= 2.0**26
    total = sum(
        ((high << 26) + low) << shift
        for shift, high, low in zip(
            used.tolist(),
            high_bins[used].astype(np.int64).tolist(),
            low_bins[used].astype(np.int64).tolist(),
        )
    )
    return total / (1 << (53 - _FREXP_LOW))


def _sum_error(size: int) -> float:
    """Relative error bound e of ``np.sum`` over a contiguous float64 array of ``size`` entries.

    numpy sums such an array pairwise as a whole (a strided one in chunks of
    8192 added in sequence, which this does not cover): no entry passes
    through more than D = ceil(log2 n) + 17 roundings, so for the exact sum S
    |np.sum(x) - S| <= gamma_D sum |x_i| (Higham, Accuracy and Stability of
    Numerical Algorithms, section 4.2).  e = (ceil(log2 n) + 20) u keeps three
    levels spare for fsum's rounding and for evaluating these bounds:

    - non-negative entries: S >= np.sum(x) / (1 + e);
    - entries at least -``_MASS_SLACK``, so |x_i| <= x_i + 2 ``_MASS_SLACK``:
      |np.sum(x) - fsum(x)| <= e (np.sum(x) + 2 n ``_MASS_SLACK``).
    """
    return (math.ceil(math.log2(max(size, 1))) + 20) * _U


def _mass_total(masses: np.ndarray, *cuts: float) -> float:
    """Total of masses of at least -_MASS_SLACK, on the same side of every cut as the fsum total.

    ``np.sum`` where the ``_sum_error`` bound keeps it off every cut, else
    ``_exact_sum`` (fsum's total), as for strided masses or a NaN or inf total.
    """
    if masses.flags.c_contiguous:
        total = float(masses.sum())
        bound = _sum_error(masses.size) * (total + 2 * masses.size * _MASS_SLACK)
        if all(abs(total - cut) > bound for cut in cuts):
            return total
    return _exact_sum(masses)


#: Length of the first prefix ``_tail_sums`` sums; supports up to this size take one pass.
_CUT_PREFIX = 512


def _running_sums(values: np.ndarray, sums: np.ndarray, done: int, stop: int) -> None:
    """Continue ``sums[:done]``, the running sums of ``values[:done]``, through ``stop``.

    ``np.cumsum`` adds in sequence, so seeding the first new entry with the
    last old sum gives the bits of one cumulative sum over ``values[:stop]``.
    """
    part = sums[done:stop]
    part[...] = values[done:stop]
    if done:
        part[0] += sums[done - 1]
    np.cumsum(part, out=part)


def _tail_sums(values: np.ndarray, budget: float) -> tuple[int, np.ndarray]:
    """The number of leading entries whose running sum stays at most ``budget``, and the sums.

    Sums a prefix that doubles until the count falls short of it or it
    covers ``values``, instead of the whole array, each prefix continuing the
    last (``_running_sums``), so the count is that of the full running sum.
    Returns the count and an array as long as ``values`` whose summed
    prefix, at least the count plus one entries or all, holds the running
    sums; the rest is not written.  The values must be non-negative.
    """
    sums = np.empty(values.size)
    done, prefix = 0, _CUT_PREFIX
    while True:
        stop = min(prefix, values.size)
        _running_sums(values, sums, done, stop)
        count = int(sums[:stop].searchsorted(budget, side="right"))
        if count < stop or stop == values.size:
            return count, sums
        done, prefix = stop, 2 * prefix


def _require_unit_mass(masses: np.ndarray, name: str) -> None:
    """Reject masses whose fsum total is off 1 by more than _MASS_ATOL, or NaN."""
    if not abs(_mass_total(masses, 1.0 - _MASS_ATOL, 1.0 + _MASS_ATOL) - 1.0) <= _MASS_ATOL:
        raise NumericalValidityError(f"{name} masses sum to {_exact_sum(masses)!r}, expected 1")


@dataclasses.dataclass(frozen=True)
class DiscreteDominatingPair:
    """Distributions (P, Q) on a grid with P = alpha * Q off infinity.

    ``clamp_count`` records how many negative kink masses within the clamping
    tolerance were zeroed while the pair was built (0 means the construction
    was accepted without any convexity slack); it must pass
    ``errors._composition_count``, the rule for integers.  The masses are
    read-only views; float64 arrays are not copied.
    """

    grid: DiscretizationGrid
    p_masses: np.ndarray
    q_masses: np.ndarray
    clamp_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "clamp_count", _composition_count(self.clamp_count, "clamp_count"))
        p = _frozen(self.p_masses)
        q = _frozen(self.q_masses)
        object.__setattr__(self, "p_masses", p)
        object.__setattr__(self, "q_masses", q)
        n = self.grid.alphas.size
        if p.shape != (n,) or q.shape != (n,):
            raise RequestError("mass arrays must match the grid size")
        if np.any(p < -_MASS_SLACK) or np.any(q < -_MASS_SLACK):
            raise NumericalValidityError("negative probability mass in pair")
        if q[-1] != 0.0:
            raise NumericalValidityError("Q must place no mass at +inf")
        if p[0] != 0.0:
            raise NumericalValidityError("P must place no mass at alpha = 0")
        # a pair built as P = alpha * Q passes the equality alone, which is
        # allclose's own first test and far cheaper than its whole
        alpha_q = self.grid.alphas[1:-1] * q[1:-1]
        if not (
            np.array_equal(p[1:-1], alpha_q)
            or np.allclose(p[1:-1], alpha_q, rtol=1e-9, atol=1e-15)
        ):
            raise NumericalValidityError("P(alpha) = alpha * Q(alpha) violated")
        _require_unit_mass(p, "P")
        _require_unit_mass(q, "Q")

    @property
    def mass_at_infinity(self) -> float:
        return float(self.p_masses[-1])


@dataclasses.dataclass(frozen=True)
class FinitePLD:
    """Masses [-inf atom, one per finite epsilon..., +inf atom], the object that composes.

    With ``spacing`` set, ``finite_epsilons`` are (lattice_offset + i) * spacing
    within ``_SPACING_ATOL``, a lattice that need not contain 0; the check finds
    the integer ``lattice_offset``, and no caller passes it.  A
    ``proper`` distribution is one realisable as the loss distribution of a
    pair, which forces masses[0] = 0; rounded-down baseline estimates and
    optimistically truncated compositions may carry mass at -inf and are
    flagged improper (they are used for divergence evaluation only).

    ``truncated_low`` and ``truncated_high`` record the tail mass that
    composition relocated from the low and the high end; ``rounding_charge``
    records the mass it moved, or added at +inf, to cover a bound on its
    round-off (see ``compose._execute``).  Each must be a finite number >= 0.

    A float64 ``finite_epsilons`` array is not copied: the PLD keeps a
    read-only view of it, and the caller's array stays writable.  The masses
    are copied, with negatives down to ``_MASS_SLACK`` set to 0.

    Every ``FinitePLD(...)`` call, ``dataclasses.replace`` included, checks
    the lattice.  The library's own builders go through the private
    ``_on_checked_lattice`` instead, with the j0 of epsilons that
    ``_lattice`` built or that a grid checked against it; only the spacing
    is checked then, and ``_lattice_pld``'s masses are clipped in place
    instead of copied.  ``_window_step`` is ``compose``'s single-step window
    cache (``compose._step``); the masses are read-only, so it cannot go
    stale.
    """

    finite_epsilons: np.ndarray
    masses: np.ndarray
    spacing: float | None = None
    proper: bool = True
    truncated_low: float = 0.0
    truncated_high: float = 0.0
    rounding_charge: float = 0.0
    lattice_offset: int | None = dataclasses.field(default=None, init=False)
    _window_step: object = dataclasses.field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def _on_checked_lattice(cls, offset: int, owned: bool = False, **fields) -> "FinitePLD":
        """``FinitePLD(**fields)`` whose epsilons are known to lie on the lattice at ``offset``.

        With ``owned``, the float64 masses are the caller's to give away:
        clipped in place and kept, not copied.
        """
        # __post_init__ pops these, so the constructor takes data fields only
        pld = cls.__new__(cls)
        pld.__dict__["_known_offset"] = offset
        pld.__dict__["_owned_masses"] = owned
        pld.__init__(**fields)
        return pld

    def __post_init__(self):
        eps = _frozen(self.finite_epsilons)
        m = np.asarray(self.masses, dtype=float)
        if eps.ndim != 1 or eps.size == 0 or not np.isfinite(eps).all():
            raise RequestError("need a non-empty 1-D array of finite epsilons")
        if m.shape != (eps.size + 2,):
            raise RequestError("mass array must hold the finite epsilons plus both atoms")
        offset = self.__dict__.pop("_known_offset", None)
        owned = self.__dict__.pop("_owned_masses", False)
        if self.spacing is not None:
            if offset is None:
                offset = _lattice_offset(eps, self.spacing)
            else:
                _require_positive(self.spacing, "spacing")
            object.__setattr__(self, "lattice_offset", offset)
        elif not np.all(np.diff(eps) > 0):
            raise RequestError("finite epsilons must be strictly increasing")
        if m.min() < -_MASS_SLACK:
            raise NumericalValidityError("negative probability mass in PLD")
        m = _frozen(np.maximum(m, 0.0, out=m if owned else None))
        object.__setattr__(self, "finite_epsilons", eps)
        object.__setattr__(self, "masses", m)
        _require_unit_mass(m, "PLD")
        if self.proper and m[0] != 0.0:
            raise NumericalValidityError("a proper PLD carries no mass at -inf")
        for name in ("truncated_low", "truncated_high", "rounding_charge"):
            if not (_is_finite_real(value := getattr(self, name)) and value >= 0.0):
                raise RequestError(f"{name} must be a finite number >= 0, got {value!r}")

    @property
    def mass_at_infinity(self) -> float:
        return float(self.masses[-1])

    @property
    def support_size(self) -> int:
        """Number of finite support points."""
        return int(self.finite_epsilons.size)


def _lattice_pld(
    spacing: float, j0: int, masses: np.ndarray, proper: bool = True, **bookkeeping: float
) -> FinitePLD:
    """Lattice PLD on ``masses`` [-inf atom, finite at (j0 + i) * spacing, +inf atom].

    Improper if the -inf atom is positive.  ``masses`` must be a float64
    array that nothing else uses: the PLD keeps it, clipped in place, instead
    of a copy.  ``bookkeeping`` holds ``FinitePLD``'s truncation and rounding
    records.
    """
    return FinitePLD._on_checked_lattice(
        j0,
        owned=True,
        finite_epsilons=_lattice(j0, masses.size - 2, spacing),
        masses=masses,
        spacing=spacing,
        proper=proper and masses[0] == 0.0,
        **bookkeeping,
    )


def _grid_pld(grid: DiscretizationGrid, masses: np.ndarray, proper: bool = True) -> FinitePLD:
    """PLD with ``masses`` on the grid's epsilons, whose lattice the grid checked when built."""
    return FinitePLD._on_checked_lattice(
        grid._offset,
        finite_epsilons=grid.finite_epsilons,
        masses=masses,
        spacing=grid.spacing,
        proper=proper,
    )


# ---------------------------------------------------------------------------
# Pair construction
# ---------------------------------------------------------------------------


def _pair_from_slopes(
    grid: DiscretizationGrid,
    sigma: np.ndarray,
    tau: np.ndarray,
    p_inf: float,
    nodes: np.ndarray | None = None,
) -> DiscreteDominatingPair:
    """Pair of the curve with slopes ``sigma`` (gap) and ``tau`` (value) between ``nodes``.

    Both estimators are piecewise linear on the grid and hand in their
    slopes (connect-the-dots through ``_interpolating_pair``, one per
    interval; the optimistic hull one per edge between its ascending vertex
    indices ``nodes``, which start at 0 and end at k - 1; without ``nodes``
    every grid node a_0..a_{k-1} is one) in two local coordinates: the gap
    g = f - (1 - alpha), which keeps full precision where the curve hugs
    1 - alpha, and the value f, which decays with full relative precision
    past 1 while 1 + f' rounds to 1.  The two differ by an affine shear,
    which preserves kink masses.  The kink mass at a node is the slope increase
    there in the coordinates of its own side, the gap at alpha <= 1 and the
    value above; the last kink is -tau[-1] right of 1, else 1 - sigma[-1],
    and Q(0) = sigma[0] (the gap is 0 at alpha = 0).  Between nodes the
    curve is straight, so every other kink mass is 0, which the difference
    of one interval's slope repeated would give too.  Q = [Q(0), kinks at
    a_1..a_{k-1}, 0], P = alpha * Q off infinity and P(+inf) = p_inf.

    A negative kink mass means non-convexity, and a negative Q(0) a curve
    below 1 - alpha.  Negatives within _CLAMP_TOL are rounding slack: they
    are zeroed and counted in ``clamp_count``; anything more negative is
    rejected.
    """
    k = grid.k
    alphas = grid.alphas
    q = np.zeros(k + 1)
    # the interior nodes at alpha <= 1 take their kink in gap coordinates, the rest in value
    if nodes is None:
        split = int(alphas[1 : k - 1].searchsorted(1.0, side="right"))
        low, high = slice(1, 1 + split), slice(1 + split, k - 1)
    else:
        interior = nodes[1:-1]
        split = int(alphas[interior].searchsorted(1.0, side="right"))
        low, high = interior[:split], interior[split:]
    q[low] = sigma[1 : 1 + split] - sigma[:split]
    q[high] = tau[split + 1 :] - tau[split:-1]
    q[k - 1] = -tau[-1] if alphas[k - 1] > 1.0 else 1.0 - sigma[-1]
    kinks = q[1:k]
    q_at_zero = float(sigma[0])
    worst = int(np.argmin(kinks))
    if kinks[worst] < -_CLAMP_TOL:
        raise NumericalValidityError(
            f"curve is non-convex at grid index {1 + worst}: "
            f"kink mass {kinks[worst]:.3e}"
        )
    if q_at_zero < -_CLAMP_TOL:
        raise NumericalValidityError(
            f"curve drops below the line 1 - alpha at grid index 1: "
            f"Q(0) = {q_at_zero:.3e}"
        )
    clamps = int(np.count_nonzero(kinks < 0.0)) + int(q_at_zero < 0.0)
    q[0] = max(q_at_zero, 0.0)
    np.maximum(kinks, 0.0, out=kinks)
    p = np.empty(k + 1)
    p[0] = 0.0
    np.multiply(alphas[1:k], kinks, out=p[1:k])
    p[k] = p_inf
    return DiscreteDominatingPair(grid=grid, p_masses=p, q_masses=q, clamp_count=clamps)


def _interpolating_pair(
    grid: DiscretizationGrid, gaps: np.ndarray, values: np.ndarray, p_inf: float
) -> DiscreteDominatingPair:
    """Pair whose curve interpolates ``values`` at a_0..a_{k-1} and is ``p_inf`` from a_{k-1} on.

    ``gaps`` are the same nodes' values less 1 - alpha, in a form accurate
    where the curve hugs that line.  The chord slopes in both forms go to
    ``_pair_from_slopes``.
    """
    if abs(values[0] - 1.0) > _CLAMP_TOL:
        raise NumericalValidityError(f"curve value at alpha = 0 is {values[0]!r}, expected 1")
    widths = np.diff(grid.alphas[: grid.k])
    sigma, tau = np.diff(gaps), np.diff(values)
    sigma /= widths
    tau /= widths
    return _pair_from_slopes(grid, sigma, tau, p_inf)


def discretize_from_curve(h_values, grid: DiscretizationGrid) -> DiscreteDominatingPair:
    """Pair (P, Q) whose curve interpolates the given grid-restricted values.

    The values must satisfy the validity gates of a finitely supported
    curve: h[0] = 1, non-increasing, convex (checked through mass
    non-negativity), at least [1 - alpha]_+ (checked through Q(0) >= 0), and
    constant from a_{k-1} to +inf.  Violations beyond 1e-12 are rejected with
    the offending grid index.  The pair is built by connect-the-dots' rule,
    with gaps h - (1 - alpha).  Where no value lies below 1 - alpha, that is
    ``pessimistic_pair`` of the values' ``PiecewiseLinearCurve`` bit for
    bit.  That curve floors its gaps at 0, so a value that rounding left
    below 1 - alpha gives it another Q(0) and first kink.

    Plain values carry no cancellation-free gap: near alpha = 0 each gap
    errs by about ulp(1), so each chord slope errs by about ulp(1) over the
    spacing.  On a fine grid the node values of a smooth curve can then be
    refused as non-convex: Gaussian sigma 1 builds at spacing 0.1 but is
    refused at 0.01 (kink mass -2.1e-11 at grid index 100) and at 1e-3.
    ``pessimistic_pair(curve, grid)`` reads the curve's own gaps and builds
    on all three; it is the route for a curve.
    """
    h = np.asarray(h_values, dtype=float)
    k = grid.k
    if h.shape != (k + 1,):
        raise RequestError("need one curve value per grid point")
    if np.any(h < -_CLAMP_TOL) or np.any(h > 1.0 + _CLAMP_TOL):
        raise NumericalValidityError(
            f"curve values outside [0, 1] at grid index {int(np.argmax((h < -_CLAMP_TOL) | (h > 1.0 + _CLAMP_TOL)))}"
        )
    rising = np.nonzero(np.diff(h) > _CLAMP_TOL)[0]
    if rising.size:
        raise NumericalValidityError(
            f"curve values increase at grid index {int(rising[0]) + 1}"
        )
    if abs(h[k - 1] - h[k]) > _CLAMP_TOL:
        raise NumericalValidityError(
            f"curve must be constant from grid index {k - 1} to +inf "
            f"(got {h[k - 1]!r} vs {h[k]!r}): no finitely supported pair jumps there"
        )
    values = h[:k]
    return _interpolating_pair(grid, values - (1.0 - grid.alphas[:k]), values, float(h[k]))


# ---------------------------------------------------------------------------
# Loss distribution operations
# ---------------------------------------------------------------------------


def pld_of(pair: DiscreteDominatingPair) -> FinitePLD:
    """Loss distribution of the pair: mass P(a_i) at eps_i, none at -inf."""
    return _grid_pld(pair.grid, pair.p_masses)


def _rounded_pld(
    source: HockeyStickCurve | DiscreteDominatingPair, grid: DiscretizationGrid, up: bool
) -> FinitePLD:
    """Privacy-buckets baseline: the true loss distribution rounded up (``up``) or down to the grid.

    From a pair, each finite loss atom moves to the first grid epsilon at or
    above it (up; +inf past the last) or the last at or below it (down;
    -inf below the first), and the +inf atom stays.

    From a curve, the mass of each grid interval is a difference of the
    survival function

        G(alpha) = h(alpha) - alpha * h'(alpha),

    which with the right derivative is A(ratio > alpha), the mass of
    (eps, +inf], and with the left derivative A(ratio >= alpha), the mass of
    [eps, +inf].  Rounding up uses the right derivative and puts the mass of
    (eps_{i-1}, eps_i] at eps_i and everything above a_{k-1}, the +inf atom
    included, at +inf; the result stochastically dominates the true loss
    distribution, is the least grid-supported one that does, and is itself
    the loss distribution of a pair.  Rounding down uses the left derivative
    and puts the mass of [eps_i, eps_{i+1}) at eps_i, the mass below a_1 at
    -inf (where it adds nothing to any divergence) and h(+inf) at +inf; the
    result is stochastically dominated but in general the loss
    distribution of no pair, so it is flagged improper and only ever
    evaluated through the divergence formula.

    Both directions take G(0) = 1 and G(+inf) = h(+inf), refuse a survival
    function that rises by more than ``_CLAMP_TOL`` between grid points,
    and zero the interval masses that rounding left slightly negative.
    """
    masses = np.zeros(grid.alphas.size)
    if isinstance(source, DiscreteDominatingPair):
        side = "left" if up else "right"
        idx = np.searchsorted(grid.finite_epsilons, source.grid.finite_epsilons, side=side)
        np.add.at(masses, idx + up, source.p_masses[1:-1])
        masses[-1] += source.p_masses[-1]
        return _grid_pld(grid, masses, proper=up)
    a = grid.alphas[1 : grid.k]
    value, _, slope = source._evaluate(a, right=up)
    tail = source.value_at_infinity
    survival = np.concatenate(([1.0], np.clip(value - a * slope, 0.0, 1.0), [tail]))
    interval = -np.diff(survival)
    worst = float(interval.min())
    if worst < -_CLAMP_TOL:
        raise NumericalValidityError(f"survival function increases along the grid ({worst:.3e})")
    masses[up : grid.k + up] = np.maximum(interval, 0.0)
    masses[-1] = survival[-2] if up else tail
    return _grid_pld(grid, masses, proper=up)


def delta_at(pld: FinitePLD, epsilon: float) -> float:
    """Hockey-stick divergence of the loss distribution at e^epsilon."""
    if not (_is_finite_real(epsilon) or epsilon in (-math.inf, math.inf)):
        raise RequestError(f"epsilon must be a real number or +-inf, not NaN, got {epsilon!r}")
    m = pld.masses
    m_inf = float(m[-1])
    if epsilon == math.inf:
        return m_inf
    if epsilon == -math.inf:
        return _exact_sum(m[1:])
    eps_f = pld.finite_epsilons
    first = int(eps_f.searchsorted(epsilon, side="right"))
    if first == eps_f.size:
        return m_inf
    # the weights are 1 - e^(epsilon - eps'); subtracting the dot product with
    # their negation gives the same bits, as rounding is symmetric about 0
    return float(max(m_inf - float(np.dot(m[1 + first : -1], np.expm1(epsilon - eps_f[first:]))), 0.0))


def _curve_at(
    alphas: np.ndarray, p: np.ndarray, q: np.ndarray, p_inf: float, at: np.ndarray
) -> np.ndarray:
    """Curve at ``at`` of the pair with masses ``p``, ``q`` at increasing finite ``alphas``.

    h(x) = p_inf + sum over alphas_i > x of (p_i - x q_i), with p_inf the
    mass P(+inf), read from suffix sums of p and q.
    """
    above_p = np.append(np.cumsum(p[::-1])[::-1], 0.0)
    above_q = np.append(np.cumsum(q[::-1])[::-1], 0.0)
    first = np.searchsorted(alphas, at, side="right")
    return p_inf + above_p[first] - at * above_q[first]


def curve_of(pair: DiscreteDominatingPair) -> PiecewiseLinearCurve:
    """Trade-off curve of the pair: piecewise linear with kinks on the grid.

    The curve is constant at P(+inf) from a_{k-1} on (including at +inf).
    """
    k = pair.grid.k
    a = pair.grid.alphas[:k]
    values = _curve_at(a[1:], pair.p_masses[1:k], pair.q_masses[1:k], pair.p_masses[-1], a)
    return PiecewiseLinearCurve(a, np.clip(values, 0.0, 1.0))


def _first_meeting(pld: FinitePLD, delta_target: float) -> int:
    """The first support index k with delta(eps_k) <= delta_target, by one vectorised pass.

    A point eps_i at least ln 2 above eps_k adds at least m_i / 2 to
    delta(eps_k), so where the top masses first sum past 2 delta_target
    (``_tail_sums``), no point ln 2 or more below can meet the target.
    Over the support above that, delta(eps_k) = m(+inf) + S_k - e^(eps_k) T_k
    with suffix sums S_k = sum_{i > k} m_i and T_k = sum_{i > k} m_i e^(-eps_i),
    taken relative to the tail's first point.  S is the same top-down
    running sum that found the tail, continued where it falls short.  The
    result is an estimate that ``epsilon_for_delta`` confirms: an overflow
    of e^(eps_k) on a tail wider than about 700, or rounding where delta is
    flat, can misplace it.
    """
    eps_f = pld.finite_epsilons
    finite = pld.masses[1:-1]
    size = finite.size
    top = finite[::-1]
    count, sums = _tail_sums(top, 2.0 * delta_target)
    first = 0
    if count < size:
        bound = float(eps_f[size - 1 - count]) - math.log(2.0)
        first = int(eps_f.searchsorted(bound, side="right"))
    # the running sums from the top over the points above first, as far as
    # _tail_sums has not summed them yet
    reach = size - 1 - first
    done = min(count + 1, size)
    if done < reach:
        _running_sums(top, sums, done, reach)
    eps = eps_f[first:]
    m = finite[first:]
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.subtract(eps[0], eps)
        np.exp(scaled, out=scaled)
        scaled *= m
        weighted = scaled[:0:-1].cumsum()[::-1]
        growth = np.subtract(eps[:-1], eps[0])
        np.exp(growth, out=growth)
        growth *= weighted
        delta = sums[:reach][::-1] + pld.mass_at_infinity
        delta -= growth
    # the top point meets every target the +inf atom meets
    meets = np.flatnonzero(delta <= delta_target)
    return first + (int(meets[0]) if meets.size else delta.size)


def epsilon_for_delta(pld: FinitePLD, delta_target: float) -> float:
    """Smallest epsilon with delta_at(pld, epsilon) <= delta_target.

    Returns +inf when the +inf atom already exceeds the target (the floor of
    delta) and -inf when every epsilon meets the target.  Otherwise it finds
    the first support point eps_k meeting the target: one vectorised pass
    over the top of the support proposes k (``_first_meeting``), and
    ``delta_at`` confirms that eps_k meets the target and eps_{k-1} does
    not, each by more than ``delta_at``'s rounding, so that no other index
    can read on the other side.  Where that check fails, bisection over the
    support indices finds k, as it did before the proposal was added.  On
    [eps_{k-1}, eps_k] the points above epsilon are those from k on, so
    delta(epsilon) = A - e^(epsilon - eps_k) * T with
    A = m(+inf) + sum_{i >= k} m_i and T = sum_{i >= k} m_i e^(eps_k - eps_i),
    whose root is stepped up (one ulp, then doubling strides) until
    ``delta_at`` meets the target.
    """
    if not (_is_finite_real(delta_target) and 0.0 < delta_target <= 1.0):
        raise RequestError(f"delta target must lie in (0, 1], got {delta_target!r}")
    if pld.mass_at_infinity > delta_target:
        return math.inf
    # delta at -inf is the fsum total of masses[1:]
    if _mass_total(pld.masses[1:], delta_target) <= delta_target:
        return -math.inf
    eps_f = pld.finite_epsilons
    # delta_at adds non-negative terms, so it errs by a relative (size + 8) u
    # at most.  The true delta does not increase, so when the reads at a
    # proposed k and at k - 1 clear the target by twice that (and some), no
    # other index reads on the other side, and bisection would give k too.
    slack = 1.0 + 6.0 * (eps_f.size + 8) * _U
    k = _first_meeting(pld, delta_target)
    confirmed = delta_at(pld, float(eps_f[k])) * slack <= delta_target
    if not (confirmed and (k == 0 or delta_at(pld, float(eps_f[k - 1])) > delta_target * slack)):
        # delta at the top support point is the +inf atom, which meets the target
        k = bisect.bisect_left(
            range(eps_f.size), True, key=lambda i: delta_at(pld, float(eps_f[i])) <= delta_target
        )
    top = float(eps_f[k])
    above = pld.masses[1 + k :]
    a = _exact_sum(above)
    t = float(np.dot(above[:-1], np.exp(top - eps_f[k:])))
    lower = float(eps_f[k - 1]) if k else -math.inf
    if a > delta_target and t > 0.0:
        eps = min(max(top + math.log((a - delta_target) / t), lower), top)
    else:  # the root sits at the interval's lower end within rounding
        eps = lower if k else top
    stride = 0.0
    while delta_at(pld, eps) > delta_target:
        stride = max(2.0 * stride, math.ulp(eps))
        eps = min(eps + stride, top)
    return eps


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def pld_to_json_dict(pld: FinitePLD) -> dict:
    """JSON-ready view of a lattice-supported loss distribution.

    Schema: {"discretization": spacing, "epsilon_offset": index that
    epsilon = 0 has, or would have, in "masses" (it may lie outside them),
    "masses": finite lattice masses, "mass_at_infinity": atom}, plus
    "mass_at_neg_infinity" when an improper distribution carries one.
    """
    spacing = pld.spacing
    if spacing is None:
        raise RequestError("only uniform-lattice distributions serialise")
    payload = {
        "discretization": float(spacing),
        "epsilon_offset": -pld.lattice_offset,
        "masses": [float(x) for x in pld.masses[1:-1]],
        "mass_at_infinity": float(pld.masses[-1]),
    }
    if pld.masses[0] > 0.0:
        payload["mass_at_neg_infinity"] = float(pld.masses[0])
    return payload


#: What each key of a ``pld_to_json_dict`` payload must hold, and its check.
_PAYLOAD_KEYS = {
    "discretization": ("a finite number", _is_finite_real),
    "epsilon_offset": (
        "an integer within +/-2^53", lambda v: type(v) is int and abs(v) <= _INDEX_MAX
    ),
    "masses": (
        "a non-empty list of finite numbers",
        lambda v: isinstance(v, list) and bool(v) and all(map(_is_finite_real, v)),
    ),
    "mass_at_infinity": ("a finite number", _is_finite_real),
    "mass_at_neg_infinity": ("a finite number", _is_finite_real),
}


def pld_from_json_dict(payload: dict) -> FinitePLD:
    """The distribution of a ``pld_to_json_dict`` payload; ``RequestError`` names a malformed key.

    Besides each key's form, the payload's masses and atoms must not be
    negative and must sum to 1 within ``_MASS_ATOL``, by the rule the
    distribution's own gate applies.
    """
    if not isinstance(payload, dict):
        raise RequestError(f"a PLD payload must be a JSON object, got {type(payload).__name__}")
    payload = {"mass_at_neg_infinity": 0.0, **payload}  # omitted for a proper distribution
    for key, (expected, valid) in _PAYLOAD_KEYS.items():
        if key not in payload:
            raise RequestError(f"PLD payload lacks key {key!r}")
        if not valid(payload[key]):
            got = reprlib.repr(payload[key])
            raise RequestError(f"PLD payload key {key!r} must be {expected}, got {got}")
    for key in ("masses", "mass_at_neg_infinity", "mass_at_infinity"):
        if np.min(payload[key]) < 0.0:
            got = reprlib.repr(payload[key])
            raise RequestError(f"PLD payload key {key!r} must not be negative, got {got}")
    masses = np.concatenate((
        [float(payload["mass_at_neg_infinity"])],
        np.asarray(payload["masses"], dtype=float),
        [float(payload["mass_at_infinity"])],
    ))
    if not abs(_mass_total(masses, 1.0 - _MASS_ATOL, 1.0 + _MASS_ATOL) - 1.0) <= _MASS_ATOL:
        raise RequestError(
            f"PLD payload key 'masses' and the atoms must sum to 1 within {_MASS_ATOL}, "
            f"got {_exact_sum(masses)!r}"
        )
    return _lattice_pld(float(payload["discretization"]), -payload["epsilon_offset"], masses)


def pld_to_json(pld: FinitePLD) -> str:
    return json.dumps(pld_to_json_dict(pld))


def pld_from_json(text: str) -> FinitePLD:
    return pld_from_json_dict(json.loads(text))
