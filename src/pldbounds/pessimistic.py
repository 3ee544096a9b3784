"""Pessimistic finite-support estimates of a trade-off curve.

Connect-the-dots estimate
-------------------------
Sampling the true curve h at the grid points and interpolating linearly
gives, by convexity, a curve that upper-bounds h everywhere; the pair
realising it is therefore a dominating pair, and it is the least dominating
pair supported on the grid (any competitor's piecewise-linear curve runs
through values >= h at the nodes).  Past a_{k-1} a grid-supported curve must
be constant, so the estimate's tail value is h(a_{k-1}): the least constant
that still dominates.

The kink masses are differences of consecutive chord slopes of h.  Chords
are evaluated through the curve's gap form wherever the interval lies below
alpha = 1 (where h hugs 1 - alpha and plain value differences lose the
curvature below one ulp) and through plain values above 1 (where h decays
with full relative precision).

Privacy-buckets baseline
------------------------
``pb_pessimistic_pld`` rounds the true loss distribution's mass up to the
next grid epsilon; ``pld._rounded_pld`` states the rule for both directions.
"""

from __future__ import annotations

import numpy as np

from .curves import HockeyStickCurve
from .errors import NumericalValidityError
from .grid import DiscretizationGrid
from .pld import (
    DiscreteDominatingPair,
    FinitePLD,
    _CLAMP_TOL,
    _pair_from_kinks,
    _rounded_pld,
)

__all__ = ["pessimistic_pair", "pb_pessimistic_pld"]


def pessimistic_pair(curve: HockeyStickCurve, grid: DiscretizationGrid) -> DiscreteDominatingPair:
    """Least grid-supported dominating pair of the curve.

    Its curve equals h at every finite grid point, interpolates linearly in
    between, and holds the value h(a_{k-1}) from a_{k-1} on.
    """
    k = grid.k
    a = grid.alphas[:k]
    values = curve.value(a)
    if abs(values[0] - 1.0) > _CLAMP_TOL:
        raise NumericalValidityError(
            f"curve value at alpha = 0 is {values[0]!r}, expected 1"
        )
    # Chord slopes in gap form (accurate below alpha = 1) and in value form
    # (accurate above); they differ by exactly 1 in exact arithmetic.
    widths = np.diff(a)
    gap_slopes = np.diff(curve.gap(a)) / widths
    value_slopes = np.diff(values) / widths
    # Kink mass at node i is the slope increase there; difference the slope
    # representation that is accurate around that node.
    q_interior = np.append(
        np.where(a[1 : k - 1] <= 1.0, np.diff(gap_slopes), np.diff(value_slopes)),
        -value_slopes[-1],
    )
    # gap(a_1) / a_1 >= 0 is exactly Q(0)
    return _pair_from_kinks(grid, float(gap_slopes[0]), q_interior, float(values[-1]))


def pb_pessimistic_pld(
    source: HockeyStickCurve | DiscreteDominatingPair, grid: DiscretizationGrid
) -> FinitePLD:
    """Loss distribution rounded up to the grid (privacy-buckets baseline)."""
    return _rounded_pld(source, grid, up=True)
