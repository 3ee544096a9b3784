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
``pld._pair_from_vertices``, the builder both estimators share, makes with
every node a vertex; ``discretize_from_curve`` builds by the same rule.  It
takes the chord slopes of h from the curve's gap form and from its plain
values, and turns them into kink masses.

Masses as differences of tails
------------------------------
The loss distribution (``pld_of``) takes its masses from the chords'
intercepts at alpha = 0 instead.  The chord over [a_i, a_{i+1}] meets
alpha = 0 at B_i, the estimate's mass strictly above eps_i, P(+inf)
included; B_0 = h(0) = 1 and the last tail is h(a_{k-1}).  The mass at a_i
is B_{i-1} - B_i, so the masses telescope to 1, where the kink products
a_i Q(a_i) can sum to 1 + 3e-13 and an n-fold composition multiplies the
excess by n.  Left of alpha = 1 the tail is kept as 1 - B_i =
a_i sigma_i - g_i, the mass at or below eps_i, from the gap g_i and the gap
slope sigma_i; right of it as B_i = v_i - a_i tau_i, a sum of two
non-negative terms, so small tails keep their relative accuracy.  Each
rounds to within a few ulps of its terms.

Why the result still dominates: connect-the-dots is convex, so its exact
tails do not increase along the grid.  A float tail can break that order
only by rounding.  The pass (``pld._tail_pass``) raises each tail to the
largest tail after it, and lowers only a tail above 1 to 1, which bounds
every exact tail.  Raising a tail moves mass from at or below eps_i to above
it, and a loss distribution moved up in loss has a curve at least as high,
because (1 - alpha / A)_+ rises with the likelihood ratio A.  So the pass
moves mass only toward the safe side.  What it cannot see is the few-ulp
rounding of each B_i and the error of the node values themselves, which
nothing charges yet.

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
    _pair_from_vertices,
    _rounded_pld,
)

__all__ = ["pessimistic_pair", "pb_pessimistic_pld"]


def pessimistic_pair(curve: HockeyStickCurve, grid: DiscretizationGrid) -> DiscreteDominatingPair:
    """Least grid-supported dominating pair of the curve.

    Its curve equals h at every finite grid point, interpolates linearly in
    between, and holds the value h(a_{k-1}) from a_{k-1} on.
    """
    k = grid.k
    # one reading of each node gives both coordinates the kink masses use
    values, gaps, _ = curve._evaluate(grid.alphas[:k])
    return _pair_from_vertices(grid, slice(k), gaps, values, float(values[-1]), up=True)


def pb_pessimistic_pld(
    source: HockeyStickCurve | DiscreteDominatingPair, grid: DiscretizationGrid
) -> FinitePLD:
    """Loss distribution rounded up to the grid (privacy-buckets baseline)."""
    return _rounded_pld(source, grid, up=True)
