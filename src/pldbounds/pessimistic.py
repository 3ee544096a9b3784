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

The chord slopes of h, taken from the curve's gap form and from its plain
values, become kink masses through ``pld._pair_from_slopes``, the rule both
estimators share.

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
    _pair_from_slopes,
    _rounded_pld,
)

__all__ = ["pessimistic_pair", "pb_pessimistic_pld"]


def pessimistic_pair(curve: HockeyStickCurve, grid: DiscretizationGrid) -> DiscreteDominatingPair:
    """Least grid-supported dominating pair of the curve.

    Its curve equals h at every finite grid point, interpolates linearly in
    between, and holds the value h(a_{k-1}) from a_{k-1} on.
    """
    a = grid.alphas[: grid.k]
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
    return _pair_from_slopes(grid, gap_slopes, value_slopes, float(values[-1]))


def pb_pessimistic_pld(
    source: HockeyStickCurve | DiscreteDominatingPair, grid: DiscretizationGrid
) -> FinitePLD:
    """Loss distribution rounded up to the grid (privacy-buckets baseline)."""
    return _rounded_pld(source, grid, up=True)
