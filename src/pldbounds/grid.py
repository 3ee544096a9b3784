"""Discretization grids for finitely supported privacy loss distributions.

A grid is the ordered set alphas = {0 = a_0 < a_1 < ... < a_k = +inf}
together with its log image epsilons = {-inf, ln a_1, ..., ln a_{k-1}, +inf}.
Uniform grids additionally carry a spacing Delta with every finite epsilon an
integer multiple of Delta, and always contain 0 (the optimistic construction
needs alpha = 1 on the grid).  A grid exists only where a curve is sampled:
the loss distributions built on a uniform grid keep its epsilons and spacing
and compose on that lattice without any alphas.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .curves import HockeyStickCurve
from .errors import NumericalValidityError, RequestError, _is_finite_real, _require_positive

__all__ = ["DiscretizationGrid", "default_epsilon_range"]

#: Largest distance of a finite epsilon from its lattice point j * spacing.
_SPACING_ATOL = 1e-9

#: Curve values below this are treated as numerically negligible when the
#: default grid range is chosen.
CURVE_TAIL_THRESHOLD = 1e-20

#: Largest lattice index the default grid range searches on either side.
_RANGE_MAX_STEPS = 1 << 26

#: Most points of a uniform grid: the widest default range, both sides and 0.
_GRID_MAX_POINTS = 2 * _RANGE_MAX_STEPS + 1

#: Levels of the bisection tree ``default_epsilon_range`` probes per curve call.
_PROBE_LEVELS = 5


def _frozen(values) -> np.ndarray:
    """A read-only float64 view of ``values``; a float64 array is not copied and keeps its flags."""
    view = np.asarray(values, dtype=float).view()
    view.setflags(write=False)
    return view


#: Largest lattice index binary64 holds exactly, and with it every smaller one.
_INDEX_MAX = 1 << 53


def _lattice(j0: int, size: int, spacing: float) -> np.ndarray:
    """Epsilons (j0 + i) * spacing, i < size: a float arange, scaled in place.

    Refused with ``RequestError`` unless every index lies in [-2^53, 2^53],
    where the float arange is exact and distinct indices stay distinct.
    """
    if j0 < -_INDEX_MAX or j0 + size - 1 > _INDEX_MAX:
        raise RequestError(f"lattice indices {j0}..{j0 + size - 1} reach beyond +/-2^53")
    epsilons = np.arange(j0, j0 + size, dtype=float)
    epsilons *= spacing
    return epsilons


def _lattice_offset(epsilons: np.ndarray, spacing: float) -> int:
    """The j0 that puts each epsilon within ``_SPACING_ATOL`` of ``_lattice``; else RequestError."""
    _require_positive(spacing, "spacing")
    j0 = round(float(epsilons[0]) / spacing)
    off = _lattice(j0, epsilons.size, spacing)
    off -= epsilons
    if np.abs(off, out=off).max() > _SPACING_ATOL:
        raise RequestError("finite epsilons are not consecutive multiples of the spacing")
    return j0


@dataclasses.dataclass(frozen=True)
class DiscretizationGrid:
    """Ordered alpha grid with endpoints exactly 0 and +inf.

    A uniform grid keeps the lattice offset its check found in ``_offset``.
    """

    alphas: np.ndarray
    epsilons: np.ndarray
    spacing: float | None = None
    _offset: int | None = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        alphas = _frozen(self.alphas)
        epsilons = _frozen(self.epsilons)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "epsilons", epsilons)
        if alphas.ndim != 1 or alphas.shape != epsilons.shape or alphas.size < 3:
            raise RequestError("grid needs matching 1-D arrays with >= 3 points")
        if alphas[0] != 0.0 or not math.isinf(alphas[-1]):
            raise RequestError("alpha grid must start at 0 and end at +inf")
        if epsilons[0] != -math.inf or epsilons[-1] != math.inf:
            raise RequestError("epsilon grid must run from -inf to +inf")
        interior = alphas[1:-1]
        if not (np.isfinite(interior).all() and (alphas[1:] > alphas[:-1]).all()):
            raise RequestError("alpha grid must be strictly increasing and finite inside")
        # np.allclose(logs, epsilons, rtol=0, atol=1e-9) for the finite logs
        # of positive alphas, in place: a NaN or infinite epsilon fails both
        off = np.log(interior)
        off -= epsilons[1:-1]
        if not np.abs(off, out=off).max() <= 1e-9:
            raise RequestError("epsilons must be the logs of the interior alphas")
        if self.spacing is not None:
            object.__setattr__(self, "_offset", _lattice_offset(epsilons[1:-1], self.spacing))
            if not np.any(epsilons[1:-1] == 0.0):
                raise RequestError("uniform grids must contain epsilon = 0")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_epsilons(cls, finite_epsilons, spacing: float | None = None) -> "DiscretizationGrid":
        finite = np.asarray(finite_epsilons, dtype=float)
        if finite.ndim != 1 or finite.size == 0 or not np.isfinite(finite).all():
            raise RequestError("need a non-empty 1-D array of finite epsilons")
        if not (finite[1:] > finite[:-1]).all():
            raise RequestError("finite epsilons must be strictly increasing")
        # the epsilons ascend, so the largest magnitude is at an end
        if max(-finite[0], finite[-1]) > 700.0:
            raise NumericalValidityError(
                "finite epsilons beyond +/-700 are not representable as alphas"
            )
        epsilons = np.concatenate(([-math.inf], finite, [math.inf]))
        alphas = np.empty_like(epsilons)
        alphas[0], alphas[-1] = 0.0, math.inf
        np.exp(finite, out=alphas[1:-1])
        return cls(alphas=alphas, epsilons=epsilons, spacing=spacing)

    @classmethod
    def from_alphas(cls, alphas) -> "DiscretizationGrid":
        alphas = np.asarray(alphas, dtype=float)
        if alphas.size < 3 or alphas[0] != 0.0 or not math.isinf(alphas[-1]):
            raise RequestError("alpha list must run from 0 to +inf with interior points")
        with np.errstate(divide="ignore"):
            epsilons = np.log(alphas)
        epsilons[-1] = math.inf
        return cls(alphas=alphas, epsilons=epsilons, spacing=None)

    @classmethod
    def uniform(cls, spacing: float, eps_min: float, eps_max: float) -> "DiscretizationGrid":
        """Lattice {j * spacing : j_min <= j <= j_max} covering [eps_min, eps_max].

        The lattice is widened if necessary so that it always contains 0.  It
        holds at most ``_GRID_MAX_POINTS`` points; a longer one is refused
        before anything is allocated.
        """
        _require_positive(spacing, "spacing")
        if not (_is_finite_real(eps_min) and _is_finite_real(eps_max) and eps_min <= eps_max):
            raise RequestError(f"bad epsilon range [{eps_min!r}, {eps_max!r}]")
        low, high = min(eps_min / spacing + 1e-9, 0.0), max(eps_max / spacing - 1e-9, 0.0)
        # the quotients can overflow to inf, which floor and ceil reject
        points = math.ceil(high) - math.floor(low) + 1 if math.isfinite(high - low) else math.inf
        if points > _GRID_MAX_POINTS:
            raise RequestError(
                f"a lattice over [{eps_min}, {eps_max}] at spacing {spacing} holds "
                f"{points} points, more than {_GRID_MAX_POINTS}"
            )
        j_min = math.floor(low)
        return cls.from_epsilons(_lattice(j_min, points, spacing), spacing=spacing)

    # -- views ----------------------------------------------------------------

    @property
    def k(self) -> int:
        """Index of the +inf grid point (the grid has k + 1 points)."""
        return self.alphas.size - 1

    @property
    def finite_epsilons(self) -> np.ndarray:
        """The finite epsilons ln a_1 .. ln a_{k-1}."""
        return self.epsilons[1:-1]

    @property
    def index_of_one(self) -> int | None:
        """Index i with alphas[i] == 1 (epsilons[i] == 0), if present."""
        hits = np.nonzero(self.epsilons == 0.0)[0]
        return int(hits[0]) if hits.size else None

    def lattice_offset(self) -> int:
        """Integer j of the first finite epsilon on a uniform grid."""
        if self.spacing is None:
            raise RequestError("lattice offset is defined for uniform grids only")
        return self._offset


def _exp(x: float) -> float:
    """``math.exp(x)``, or +inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def default_epsilon_range(curve: HockeyStickCurve, spacing: float) -> tuple[float, float]:
    """Pick [eps_min, eps_max] multiples of spacing covering the curve.

    eps_max is the smallest positive multiple of spacing with
    h(e^eps) < ``CURVE_TAIL_THRESHOLD``; the curve beyond contributes negligibly and is
    folded into the tail value.  eps_min is chosen symmetrically through the
    gap h(alpha) - (1 - alpha), which decays to 0 as alpha -> 0; below it the
    curve is indistinguishable from the line 1 - alpha and carries no mass
    information.  Both searches exploit monotonicity (value non-increasing,
    gap non-decreasing) and give what doubling plus bisection gives: one
    round evaluates every power of two j up to ``_RANGE_MAX_STEPS``,
    and the first one below the threshold brackets the step in (j / 2, j].
    Each further round evaluates the next ``_PROBE_LEVELS`` levels of the
    bisection's tree over that bracket, and the bisection then runs on
    those values.  The two searches run side by side, one curve call per
    round.  The alphas e^(+-j spacing) are ``math.exp``'s, +inf where it
    overflows.
    """
    _require_positive(spacing, "spacing")

    def smallest_step():
        # smallest j >= 1 whose probe falls below the threshold; yields the
        # steps to probe and is sent back whether each one does
        powers = 1 << np.arange(_RANGE_MAX_STEPS.bit_length())
        meets = yield powers
        if not any(meets):
            raise NumericalValidityError("curve tail does not decay within the searchable range")
        hi = int(powers[meets.index(True)])
        lo = hi // 2  # lo fails (or is 0), hi meets the threshold
        while hi - lo > 1:
            levels = min((hi - lo).bit_length() - 1, _PROBE_LEVELS)
            stride = (hi - lo) >> levels
            nodes = range(lo + stride, hi, stride)
            tree = dict(zip(nodes, (yield np.array(nodes))))
            for _ in range(levels):
                mid = (lo + hi) // 2
                if tree[mid]:
                    hi = mid
                else:
                    lo = mid
        return hi

    # the value above alpha = 1, the gap below it
    searches = {1.0: smallest_step(), -1.0: smallest_step()}
    steps = {sign: next(search) for sign, search in searches.items()}
    found = {}
    while steps:
        alphas = [np.array([_exp(x) for x in (sign * spacing * j).tolist()]) for sign, j in steps.items()]
        value, gap, _ = curve._evaluate(np.concatenate(alphas))
        cuts = np.cumsum([part.size for part in alphas])[:-1]
        for sign, values, gaps in zip(list(steps), np.split(value, cuts), np.split(gap, cuts)):
            meets = ((values if sign > 0 else gaps) < CURVE_TAIL_THRESHOLD).tolist()
            try:
                steps[sign] = searches[sign].send(meets)
            except StopIteration as done:
                found[sign] = done.value
                del steps[sign]
    return (-found[-1.0] * spacing, found[1.0] * spacing)
