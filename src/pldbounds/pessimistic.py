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

The estimate is the pair whose curve interpolates given node values, which
``pld._interpolating_pair`` builds; ``discretize_from_curve`` builds by the
same rule.  It takes the chord slopes of h from the curve's gap form and from
its plain values, and ``pld._pair_from_slopes``, the rule both estimators
share, turns them into kink masses.

Privacy-buckets baseline
------------------------
``pb_pessimistic_pld`` rounds the true loss distribution's mass up to the
next grid epsilon; ``pld._rounded_pld`` states the rule for both directions.
"""

from __future__ import annotations

from .curves import HockeyStickCurve
from .grid import DiscretizationGrid
from .pld import (
    DiscreteDominatingPair,
    FinitePLD,
    _interpolating_pair,
    _rounded_pld,
)

__all__ = ["pessimistic_pair", "pb_pessimistic_pld"]


def pessimistic_pair(curve: HockeyStickCurve, grid: DiscretizationGrid) -> DiscreteDominatingPair:
    """Least grid-supported dominating pair of the curve.

    Its curve equals h at every finite grid point, interpolates linearly in
    between, and holds the value h(a_{k-1}) from a_{k-1} on.
    """
    a = grid.alphas[: grid.k]
    # one reading of each node gives both coordinates the kink masses use
    values, gaps, _ = curve._evaluate(a)
    return _interpolating_pair(grid, gaps, values, float(values[-1]))


def pb_pessimistic_pld(
    source: HockeyStickCurve | DiscreteDominatingPair, grid: DiscretizationGrid
) -> FinitePLD:
    """Loss distribution rounded up to the grid (privacy-buckets baseline)."""
    return _rounded_pld(source, grid, up=True)
