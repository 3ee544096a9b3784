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
and Q sum to one.  Both estimates are convex curves, straight between
vertices on the grid, and one builder, ``_pair_from_vertices``, makes the
pair of either from its heights at its vertices: every node for
connect-the-dots (``pessimistic_pair``) and ``discretize_from_curve``, the
lower-hull vertices for the optimistic estimate, whose other nodes take no
mass.  It takes each slope increase in the coordinates accurate at its
vertex.  Their loss distributions (``pld_of``) take the same masses as
differences of the pieces' intercepts at alpha = 0 (``_tail_pass``), which
telescope to 1.

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

#: ``FinitePLD``'s truncation and rounding records, each a finite number >= 0.
_RECORDS = ("truncated_low", "truncated_high", "rounding_charge")

#: ``_exact_sum`` adds at most this many values: a binade's sum of 27-bit
#: mantissa halves then stays an integer below 2^53, so float adds are exact.
_EXACT_SUM_MAX = 1 << 26

#: ``np.frexp`` exponents of finite doubles lie in [-1073, 1024].
_FREXP_LOW = -1073
_FREXP_BINS = 1024 - _FREXP_LOW + 1

#: Below this many values ``math.fsum``'s loop is faster than the bins' set-up:
#: on single-step masses (Gaussian and subsampled Gaussian, 1,672 to 17,895
#: values, 2-vCPU Xeon) the two paths cross between 4,000 and 5,000 values.
_EXACT_SUM_MIN = 4096


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


def _within_unit_mass(masses: np.ndarray, allowance: float) -> bool:
    """Whether the masses' fsum total lies within ``allowance`` of 1 (False for NaN)."""
    return abs(_mass_total(masses, 1.0 - allowance, 1.0 + allowance) - 1.0) <= allowance


def _require_unit_mass(masses: np.ndarray, name: str, charge: float = 0.0) -> None:
    """Reject masses whose fsum total is off 1 by more than max(_MASS_ATOL, ``charge``), or NaN.

    ``charge`` is a composed distribution's ``rounding_charge``: the mass
    that composition moved to the safe side to cover a bound R on its
    round-off (see ``FinitePLD``).  With no charge the allowance is
    ``_MASS_ATOL`` and the message names none.
    """
    allowance = max(_MASS_ATOL, charge)
    if not _within_unit_mass(masses, allowance):
        within = f" within the rounding charge {allowance!r}" if allowance > _MASS_ATOL else ""
        raise NumericalValidityError(
            f"{name} masses sum to {_exact_sum(masses)!r}, expected 1{within}"
        )


@dataclasses.dataclass(frozen=True)
class DiscreteDominatingPair:
    """Distributions (P, Q) on a grid with P = alpha * Q off infinity.

    ``clamp_count`` records how many negative kink masses within the clamping
    tolerance were zeroed while the pair was built (0 means the construction
    was accepted without any convexity slack); it must pass
    ``errors._composition_count``, the rule for integers.  The masses are
    read-only views; float64 arrays are not copied.

    A pair that the estimators build also carries its vertices and tails in
    the private ``_tails`` (``_pair_from_vertices``), from which ``pld_of``
    takes its masses; a pair built by hand, or through
    ``dataclasses.replace``, carries none.
    """

    grid: DiscretizationGrid
    p_masses: np.ndarray
    q_masses: np.ndarray
    clamp_count: int = 0
    _tails: tuple | None = dataclasses.field(default=None, init=False, repr=False, compare=False)

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

    The masses must sum to 1 within max(``_MASS_ATOL``, ``rounding_charge``)
    (``_require_unit_mass``).  The charge holds the round-off bound R of
    each composition behind the distribution (all of its finite mass where
    that is less), and any round-off e with ||e||_1 <= R is paid for by the
    mass moved to the safe side.  A total off 1 by at most the charge is the
    total of such an e, so the proof already covers it; a larger defect is
    refused.  A distribution without a charge (a single step, one built by
    hand) meets the fixed ``_MASS_ATOL``.  A charge that the caller states,
    here or in a ``pld_from_json_dict`` payload, is trusted: a larger one
    loosens the distribution's own gate, as nothing yet ties it to the
    compositions behind the distribution.

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
        for name in _RECORDS:
            if not (_is_finite_real(value := getattr(self, name)) and value >= 0.0):
                raise RequestError(f"{name} must be a finite number >= 0, got {value!r}")
        _require_unit_mass(m, "PLD", self.rounding_charge)
        if self.proper and m[0] != 0.0:
            raise NumericalValidityError("a proper PLD carries no mass at -inf")

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


def _grid_pld(
    grid: DiscretizationGrid, masses: np.ndarray, proper: bool = True, owned: bool = False
) -> FinitePLD:
    """PLD with ``masses`` on the grid's epsilons, whose lattice the grid checked when built.

    With ``owned``, the float64 masses are the caller's to give away
    (``FinitePLD._on_checked_lattice``).
    """
    return FinitePLD._on_checked_lattice(
        grid._offset,
        owned=owned,
        finite_epsilons=grid.finite_epsilons,
        masses=masses,
        spacing=grid.spacing,
        proper=proper,
    )


# ---------------------------------------------------------------------------
# Pair construction
# ---------------------------------------------------------------------------


def _running(extreme: np.ufunc, x: np.ndarray) -> None:
    """Set each entry of ``x`` to ``extreme`` (``np.maximum`` or ``np.minimum``) of it and all before it.

    In place.  The accumulation is a slow pass, which an ordered ``x``, the
    common case, skips.
    """
    if (np.less if extreme is np.maximum else np.greater)(x[1:], x[:-1]).any():
        extreme.accumulate(x, out=x)


def _tail_pass(
    x: np.ndarray,
    gaps: np.ndarray,
    values: np.ndarray,
    sigma: np.ndarray,
    tau: np.ndarray,
    p_inf: float,
    up: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Tails of the pieces between vertices ``x``, monotone toward the safe side.

    Piece e is the line over [x_e, x_{e+1}] through the vertex heights
    ``gaps`` and ``values`` at its left end x_e, with slopes ``sigma[e]``
    and ``tau[e]``.  Its intercept B_e at alpha = 0 is the mass strictly
    above ln x_e, P(+inf) included, so the mass at x_{e+1} is
    B_e - B_{e+1}.  Pieces starting left of 1 give ``below``,
    1 - B_e = x sigma_e - g, the mass at or below their start (0 on the
    first piece, which starts at h(0) = 1); the rest give ``above``,
    B_e = v - x tau_e, a sum of two non-negative terms, and then P(+inf) for
    the piece past the last vertex.

    ``up`` (pessimistic) raises each tail to the largest tail after it;
    otherwise each tail falls to the least one before it and not below 0.
    Either way no tail leaves [0, 1], and 1 - ``below[-1]``, rounded once,
    lies on the same side of ``above[0]`` as the tails, so every difference
    ``pld_of`` takes is >= 0.
    """
    m = min(int(x.searchsorted(1.0)), sigma.size)
    below = x[:m] * sigma[:m]
    below -= gaps[:m]
    below[0] = 0.0
    above = np.empty(sigma.size - m + 1)
    np.multiply(x[m:-1], tau[m:], out=above[:-1])
    np.subtract(values[m:-1], above[:-1], out=above[:-1])
    above[-1] = p_inf
    # a running extreme carries a bound put on its first entry to all the
    # others, and ends in its extreme entry, which alone needs the clip test
    if up:
        _running(np.maximum, above[::-1])
        if above[0] > 1.0:
            np.minimum(above, 1.0, out=above)
        cap = 1.0 - above[0]
        if 1.0 - cap < above[0]:
            cap = math.nextafter(cap, -math.inf)
        below[-1] = min(below[-1], cap)
        _running(np.minimum, below[::-1])
        if below[0] < 0.0:
            np.maximum(below, 0.0, out=below)
    else:
        _running(np.maximum, below)
        if below[-1] > 1.0:
            np.minimum(below, 1.0, out=below)
        above[0] = min(above[0], 1.0 - below[-1])
        _running(np.minimum, above)
        if above[-1] < 0.0:
            np.maximum(above, 0.0, out=above)
    return _frozen(below), _frozen(above)


def _pair_from_vertices(
    grid: DiscretizationGrid,
    vertices: np.ndarray | slice,
    gaps: np.ndarray,
    values: np.ndarray,
    p_inf: float,
    up: bool,
) -> DiscreteDominatingPair:
    """Pair of the curve through its heights at ``vertices``, straight in between, ``p_inf`` past a_{k-1}.

    ``gaps`` and ``values`` are the curve's heights at a_0..a_{k-1} in two
    local coordinates: the gap g = f - (1 - alpha), which keeps full
    precision where the curve hugs 1 - alpha, and the value f, which decays
    with full relative precision past 1 while 1 + f' rounds to 1.  The
    curve runs through them at ``vertices``, ascending indices that start at
    0 and end at k - 1: every node for connect-the-dots (``slice(k)``,
    which reads the heights as views), the lower-hull vertices for the
    optimistic estimate.  Each edge takes its slopes sigma (gap) and tau
    (value) between its ends; on the optimistic side (not ``up``) they are
    capped at 1 and 0, where the curve would rise.  The two coordinates
    differ by an affine shear, which preserves kink masses.  The kink mass
    at a vertex is the slope increase there in the coordinates of its own
    side, the gap at alpha <= 1 and the value above; the last kink is
    -tau[-1] right of 1, else 1 - sigma[-1], and Q(0) = sigma[0] (the gap
    is 0 at alpha = 0).  Between vertices the curve is straight, so every
    other kink mass is 0.  Q = [Q(0), kinks at a_1..a_{k-1}, 0],
    P = alpha * Q off infinity and P(+inf) = p_inf.

    The curve must start at h(0) = 1.  A negative kink mass means
    non-convexity, and a negative Q(0) a curve below 1 - alpha.  Negatives
    within _CLAMP_TOL are rounding slack: they are zeroed and counted in
    ``clamp_count``; anything more negative is rejected.

    The pair also carries its tails (``_tail_pass``; ``up`` for the
    pessimistic side), and ``pld_of`` takes the loss masses from those: the
    kink masses above are right in exact arithmetic, but their float sum
    can miss 1 by far more than an ulp, which an n-fold composition
    multiplies by n.
    """
    if abs(values[0] - 1.0) > _CLAMP_TOL:
        raise NumericalValidityError(f"curve value at alpha = 0 is {values[0]!r}, expected 1")
    k = grid.k
    alphas = grid.alphas
    x, gaps, values = alphas[vertices], gaps[vertices], values[vertices]
    width = x[1:] - x[:-1]
    sigma = np.subtract(gaps[1:], gaps[:-1])
    sigma /= width
    tau = np.subtract(values[1:], values[:-1])
    tau /= width
    if not up:
        np.minimum(sigma, 1.0, out=sigma)
        np.minimum(tau, 0.0, out=tau)
    q = np.zeros(k + 1)
    # the interior vertices at alpha <= 1 take their kink in gap coordinates,
    # the rest in value; a slice's view is written in place, and assigning
    # it back is then a no-op
    at = q[vertices]
    split = int(x[1:-1].searchsorted(1.0, side="right"))
    np.subtract(sigma[1 : 1 + split], sigma[:split], out=at[1 : 1 + split])
    np.subtract(tau[split + 1 :], tau[split:-1], out=at[1 + split : -1])
    at[-1] = -tau[-1] if x[-1] > 1.0 else 1.0 - sigma[-1]
    q[vertices] = at
    # two full-length arrays on the hull's path, freed before P and the tails
    del width, at
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
    pair = DiscreteDominatingPair(grid=grid, p_masses=p, q_masses=q, clamp_count=clamps)
    below, above = _tail_pass(x, gaps, values, sigma, tau, p_inf, up)
    object.__setattr__(pair, "_tails", (vertices, below, above))
    return pair


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
    gaps = values - (1.0 - grid.alphas[:k])
    return _pair_from_vertices(grid, slice(k), gaps, values, float(h[k]), up=True)


# ---------------------------------------------------------------------------
# Loss distribution operations
# ---------------------------------------------------------------------------


def pld_of(pair: DiscreteDominatingPair) -> FinitePLD:
    """Loss distribution of the pair: mass P(a_i) at eps_i, none at -inf.

    A pair the estimators built (``pessimistic_pair``, ``optimistic_pair``,
    ``discretize_from_curve``) gives each mass as a difference of its tails
    (``_tail_pass``), B_{e-1} - B_e at the e-th vertex and 0 at the nodes
    between vertices, so the masses sum to 1 within a few ulps, where P's
    own sum can miss it by 1e-13.  These masses equal P in exact arithmetic
    and within rounding in float; the pair's P and Q are left as built.
    The pipeline builds every single step by this call, so
    ``pld_of(pessimistic_pair(curve, grid))`` is bit for bit the single
    step ``run_compute`` composes, and likewise for ``optimistic_pair``.  A
    pair built by hand carries no tails and gives P.
    """
    if pair._tails is None:
        return _grid_pld(pair.grid, pair.p_masses)
    vertices, below, above = pair._tails
    m = below.size
    masses = np.zeros(pair.grid.alphas.size)
    # [alpha = 0, the vertices after the first], a view when every node is one
    at = masses[vertices]
    np.subtract(below[1:], below[:-1], out=at[1:m])
    at[m] = (1.0 - below[-1]) - above[0]
    np.subtract(above[:-1], above[1:], out=at[m + 1 :])
    masses[vertices] = at
    masses[-1] = above[-1]
    return _grid_pld(pair.grid, masses, owned=True)


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


#: The widest epsilon span of ``_first_meeting``'s pass whose deltas it bounds:
#: e^600 and e^-600 stay far from overflow and from subnormals.
_PASS_SPAN = 600.0


def _first_meeting(pld: FinitePLD, delta_target: float) -> tuple[int, float, float]:
    """The first support index k with delta(eps_k) <= delta_target, by one pass, with bounds.

    A point eps_i at least ln 2 above eps_k adds at least m_i / 2 to
    delta(eps_k), so where the top masses first sum past 2 delta_target
    (``_tail_sums``), no point ln 2 or more below can meet the target.
    Over the support above that, delta(eps_k) = m(+inf) + S_k - e^(eps_k) T_k
    with suffix sums S_k = sum_{i > k} m_i and T_k = sum_{i > k} m_i e^(-eps_i),
    taken relative to the tail's first point.  S is the same top-down
    running sum that found the tail, continued where it falls short.  The
    index is an estimate that ``epsilon_for_delta`` checks: an overflow
    of e^(eps_k) on a tail wider than about 700, or rounding where delta is
    flat, can misplace it.

    Returns (k, high, low): high >= delta(eps_k) and low <= delta(eps_{k-1})
    in exact arithmetic on the stored masses and epsilons, or +inf and -inf
    where the pass does not bound them (k - 1 below the pass, or a pass
    wider than ``_PASS_SPAN``).  At the top point delta is the +inf atom.
    Elsewhere the pass's delta' errs by at most 1.001 e A' + (size + 1)
    2^-1074 e^X, with A' the computed m(+inf) + S_k, e = (2 size + 2 X
    + 64) u and X the pass's epsilon span; the second term covers products
    that round to subnormals.  The sources:

    - S_k is a running sum of at most size non-negative terms:
      gamma_size S_k;
    - each term of T_k is m_i e^(x_i) with x_i = eps_0 - eps_i rounded by
      at most u X, so its exponential errs by a relative u X and by the
      exp's own error, allowed 8 ulp (16 u), and the product by u; their
      running sum adds gamma_size, and e^(eps_k - eps_0), rounded the same
      way, and its product with that sum add u X + 17 u more.  So the
      computed G_k = e^(eps_k - eps_0) T'_k errs by (2 size + 2 X + 36) u
      of itself, and G_k <= S_k;
    - adding m(+inf) and subtracting G_k each round by u of a value at most
      A', and m(+inf) + S_k <= A' (1 + gamma_size).

    The factor 1.001 covers the products of these relative errors.
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
    m_inf = pld.mass_at_infinity
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.subtract(eps[0], eps)
        np.exp(scaled, out=scaled)
        scaled *= m
        weighted = scaled[:0:-1].cumsum()[::-1]
        growth = np.subtract(eps[:-1], eps[0])
        np.exp(growth, out=growth)
        growth *= weighted
        delta = sums[:reach][::-1] + m_inf
        delta -= growth
    # the top point meets every target the +inf atom meets
    meets = np.flatnonzero(delta <= delta_target)
    at = int(meets[0]) if meets.size else reach
    high, low = (m_inf if at == reach else math.inf), -math.inf
    span = float(eps[-1] - eps[0])
    if span <= _PASS_SPAN:
        rel = (2 * size + 2 * span + 64) * _U * 1.001
        tiny = (size + 1) * 2.0**-1074 * math.exp(span)
        if at < reach:
            high = float(delta[at]) + rel * (float(sums[reach - 1 - at]) + m_inf) + tiny
        if at:
            low = float(delta[at - 1]) - rel * (float(sums[reach - at]) + m_inf) - tiny
    return first + at, high, low


def epsilon_for_delta(pld: FinitePLD, delta_target: float) -> float:
    """Smallest epsilon with delta_at(pld, epsilon) <= delta_target.

    Returns +inf when the +inf atom already exceeds the target (the floor of
    delta) and -inf when every epsilon meets the target.  Otherwise it finds
    the first support point eps_k meeting the target: one vectorised pass
    over the top of the support proposes k (``_first_meeting``) with bounds
    on delta(eps_k) and delta(eps_{k-1}).  Where a bound clears the target
    by more than ``delta_at``'s rounding, it confirms that side; elsewhere
    ``delta_at`` is read there and must clear it by that much.  Then eps_k
    meets the target and eps_{k-1} does not, so that no other index can read
    on the other side.  Where that check fails, bisection over the
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
    # at most.  The true delta does not increase, so when delta at a proposed
    # k and at k - 1, read or bounded, clears the target by twice that (and
    # some), no other index reads on the other side, and bisection would
    # give k too.
    slack = 1.0 + 6.0 * (eps_f.size + 8) * _U
    located = _first_meeting(pld, delta_target)
    # a locate that gives a bare index carries no bounds: both sides are read
    k, high, low = located if isinstance(located, tuple) else (located, math.inf, -math.inf)
    confirmed = (
        high * slack <= delta_target or delta_at(pld, float(eps_f[k])) * slack <= delta_target
    )
    if not (
        confirmed
        and (
            k == 0
            or low > delta_target * slack
            or delta_at(pld, float(eps_f[k - 1])) > delta_target * slack
        )
    ):
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
    "mass_at_neg_infinity" when an improper distribution carries one, and
    each of "truncated_low", "truncated_high" and "rounding_charge" when a
    composed one records it above 0 (its mass gate reads the charge, see
    ``FinitePLD``), so a single step keeps its bytes.
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
    for name in _RECORDS:
        if (value := getattr(pld, name)) > 0.0:
            payload[name] = float(value)
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
    **{name: ("a finite number >= 0", lambda v: _is_finite_real(v) and v >= 0.0) for name in _RECORDS},
}


def pld_from_json_dict(payload: dict) -> FinitePLD:
    """The distribution of a ``pld_to_json_dict`` payload; ``RequestError`` names a malformed key.

    Besides each key's form, the payload's masses and atoms must not be
    negative and must sum to 1 within max(``_MASS_ATOL``, its
    "rounding_charge"), by the rule the distribution's own gate applies.
    """
    if not isinstance(payload, dict):
        raise RequestError(f"a PLD payload must be a JSON object, got {type(payload).__name__}")
    # omitted for a proper distribution, and for records of 0
    payload = {"mass_at_neg_infinity": 0.0, **dict.fromkeys(_RECORDS, 0.0), **payload}
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
    records = {name: float(payload[name]) for name in _RECORDS}
    allowance = max(_MASS_ATOL, records["rounding_charge"])
    if not _within_unit_mass(masses, allowance):
        raise RequestError(
            f"PLD payload key 'masses' and the atoms must sum to 1 within {allowance}, "
            f"got {_exact_sum(masses)!r}"
        )
    return _lattice_pld(float(payload["discretization"]), -payload["epsilon_offset"], masses, **records)


def pld_to_json(pld: FinitePLD) -> str:
    return json.dumps(pld_to_json_dict(pld))


def pld_from_json(text: str) -> FinitePLD:
    return pld_from_json_dict(json.loads(text))
