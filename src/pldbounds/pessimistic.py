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
The baseline rounds the true loss distribution's mass up to the next grid
epsilon.  The interval masses come from the survival function of the loss
distribution, recoverable from the curve as

    G(alpha) = h(alpha) - alpha * h'_+(alpha) = A({o : A(o)/B(o) > alpha}),

so mass((eps_{i-1}, eps_i]) = G(a_{i-1}) - G(a_i), with G(0) = 1 and
G(+inf) = 0.  Mass above the last finite grid point, including any atom at
+inf, rounds up to +inf.  The result stochastically dominates the true loss
distribution and is the least grid-supported distribution that does, and it
is itself realisable as the loss distribution of a pair.
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
    _grid_pld,
    _pair_from_kinks,
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


def _survival_from_curve(curve: HockeyStickCurve, grid: DiscretizationGrid, side: str) -> np.ndarray:
    """G(a_i) at the finite grid points, with G(0) = 1.

    side = 'right' gives A(ratio > alpha) (used for rounding mass up) and
    side = 'left' gives A(ratio >= alpha) (used for rounding mass down).
    """
    a = grid.alphas[1 : grid.k]
    dv = curve.right_derivative(a) if side == "right" else curve.left_derivative(a)
    g = np.clip(curve.value(a) - a * dv, 0.0, 1.0)
    return np.concatenate(([1.0], g))


def _bin_pair_atoms_up(pair: DiscreteDominatingPair, grid: DiscretizationGrid) -> np.ndarray:
    """Round the pair's loss atoms up to the next grid epsilon."""
    masses = np.zeros(grid.alphas.size)
    # atoms above the last finite grid epsilon land on the +inf slot
    idx = np.searchsorted(grid.finite_epsilons, pair.grid.finite_epsilons, side="left")
    np.add.at(masses, 1 + idx, pair.p_masses[1:-1])
    masses[-1] += pair.p_masses[-1]
    return masses


def pb_pessimistic_pld(
    source: HockeyStickCurve | DiscreteDominatingPair, grid: DiscretizationGrid
) -> FinitePLD:
    """Loss distribution rounded up to the grid (privacy-buckets baseline)."""
    if isinstance(source, DiscreteDominatingPair):
        masses = _bin_pair_atoms_up(source, grid)
    else:
        g = _survival_from_curve(source, grid, side="right")
        interval = -np.diff(g)
        worst = float(interval.min()) if interval.size else 0.0
        if worst < -_CLAMP_TOL:
            raise NumericalValidityError(
                f"survival function increases along the grid ({worst:.3e})"
            )
        interval = np.maximum(interval, 0.0)
        masses = np.zeros(grid.alphas.size)
        masses[1:-1] = interval
        masses[-1] = g[-1]  # everything above a_{k-1}, including the +inf atom
    return _grid_pld(grid, masses)
