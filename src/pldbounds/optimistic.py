"""Optimistic finite-support estimates of a trade-off curve.

Midpoint tangents plus lower convex hull
----------------------------------------
Unlike the pessimistic case there is no least/greatest canonical choice, so
the construction is a heuristic with a correctness guarantee: the output
pair is dominated by the true pair.  The grid must contain alpha = 1; when
it does not, even the identical pair A = B (whose loss distribution is a
point mass at 0) admits no grid-supported under-estimate at all.

Every interval [a_i, a_{i+1}] of the finite grid gets one supporting line
l_i of h, by default the tangent at its midpoint.  Node a_0 is pinned at 1,
node a_{k-1} at 0, and every interior node a_j takes the lower of its two
adjacent lines, min(l_{j-1}(a_j), l_j(a_j)).  Both end values of the
segment over [a_i, a_{i+1}] are then at most l_i at the same points, so the
segment lies under l_i and therefore under h (a supporting line of a convex
curve never exceeds it).  The midpoint tangent's bias is about
h'' * (a_{i+1} - a_i)^2 / 8 at a node, the same as the pessimistic chord's,
where a tangent taken at the neighbouring node would carry four times that.

Three kinds of interval use the endpoint tangent instead: the tangent at
a_i (right derivative) when the interval lies left of 1, the tangent at
a_{i+1} (left derivative) when it lies right of 1.  Every interval lies on
one side, because 1 is a grid point.

* Any interval whose midpoint line falls below the floor [1 - alpha]_+ at
  either end, which happens where the curve bends sharply on a coarse grid.
* The first interval [a_0, a_1] and the last, [a_{k-2}, a_{k-1}].  Their
  pinned values, 1 at a_0 = 0 and 0 at a_{k-1} >= 1, are the floor itself,
  so the segment stays under l_i only if l_i is at least the floor there.
  In exact arithmetic the floor test already selects these intervals
  whenever that fails; marking them outright keeps it from hinging on
  rounding.  The endpoint tangent meets the pinned values: at a_0 it
  passes through h(0) = 1, and at a_{k-1} it is at least 0 (the value
  h(a_{k-1}) right of 1; left of 1, a_{k-1} = 1 and the line is at least
  1 - alpha).

Every line used is thus at least [1 - alpha]_+ at both ends of its
interval: a midpoint line by the fallback test, an endpoint tangent because
h' >= -1 (left of 1, it starts at h(a_i) >= 1 - a_i and falls no faster
than the floor) and h' <= 0 (right of 1, it ends at h(a_{i+1}) >= 0 and
rises to the left).  So every node value, a minimum of two such lines or a
pinned end, is at least [1 - alpha]_+ in exact arithmetic; the final
``np.maximum`` with the floor only restores this where rounding broke it.
The lower convex hull of the node values, evaluated at the grid points,
with value 0 assigned at +inf, lies under the piecewise-linear
interpolation of the nodes and hence under h; being a convex combination of
values above the convex floor, it stays at least [1 - alpha]_+.  It is
convex and non-increasing, so it is a valid input to the discretization and
its pair is dominated by the true one.

At a kink any subgradient yields a valid tangent.  Midpoint tangents use
the right derivative; endpoint tangents use the right derivative at a_i and
the left derivative at a_{i+1}, the side facing into the interval, which
reproduces piecewise-linear curves exactly when their kinks lie on the
grid: there the midpoint line is the curve's own segment.

Candidate generation is vectorised (each line depends only on its own
interval, so the evaluation order is free).  The hull is a monotone-chain
sweep that pushes each run of nodes it would keep without a pop in one
step, from slopes computed vectorised by the sweep's own float operations,
so its vertices are exactly those of the plain sweep (see ``_lower_hull``).

Numerically the construction runs in the local coordinates of
``pld._pair_from_vertices``, the builder both estimators share: the gap
g = f - (1 - alpha) up to alpha = 1 and the value f past it.  An affine
shear takes one to the other and preserves hulls, and both have the floor 0
on their side.  The hull pass tests convexity at each vertex in its own
coordinates, and the builder takes one slope per coordinate on each edge
between the hull's vertices, by the same float operations, capped where the
curve would rise; so the kink masses are differences of a non-decreasing
float sequence and the discretization accepts the hull without any
clamping.

Masses as differences of tails
------------------------------
The loss distribution (``pld_of``) takes its masses from the hull edges'
intercepts at alpha = 0.  Each edge's line passes through its left vertex
a_u with the capped slopes above and meets alpha = 0 at B_e, the estimate's
mass strictly above eps_u; the first edge starts at h(0) = 1 and the tail
past a_{k-1} is 0.  The mass at an interior vertex is B_{e-1} - B_e, the one
at a_{k-1} the last edge's B, so the masses telescope to 1.  Left of
alpha = 1 the tail is kept as 1 - B_e = a_u sigma_e - g_u, right of it as
B_e = v_u - a_u tau_e, a sum of two non-negative terms; each rounds to
within a few ulps of its terms.

Why the result stays dominated: the hull is convex and non-increasing, so
its exact tails do not increase along the edges.  The pass
(``pld._tail_pass``) lowers each tail to the least tail before it, raises
none but a negative one to 0, and keeps each tail at most 1.  Lowering a
tail moves mass from above eps_u to at or below it, and a loss distribution
moved down in loss has a curve at least as low, because (1 - alpha / A)_+
rises with the likelihood ratio A.  The exact tails lie in [0, 1], so the
clip moves no float tail past them either.  So the pass moves mass only
toward the safe side.  What it cannot see is the few-ulp rounding of each
B_e and the error of the node values themselves, which nothing charges
yet.

Privacy-buckets baseline
------------------------
``pb_optimistic_pld`` rounds the true loss distribution's mass down to the
previous grid epsilon; ``pld._rounded_pld`` states the rule for both
directions.

Non-uniqueness fixture
----------------------
``non_uniqueness_fixture`` returns two valid under-estimates of the
randomized-response pair neither of which dominates the other, built from
the observation that an under-estimate may leave the line 1 - alpha early
and land on 0 early, or leave late and land late; the two resulting curves
cross.  The construction is parameterised by (eps, gamma) through the
straddle points e^(-eps) +/- gamma around the curve's lower kink.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .curves import HockeyStickCurve
from .errors import RequestError, _is_finite_real, _require_positive
from .grid import DiscretizationGrid
from .pld import (
    DiscreteDominatingPair,
    FinitePLD,
    _pair_from_vertices,
    _rounded_pld,
    discretize_from_curve,
)

__all__ = [
    "CandidateSet",
    "candidate_set",
    "optimistic_pair",
    "pb_optimistic_pld",
    "non_uniqueness_fixture",
]


@dataclasses.dataclass(frozen=True)
class CandidateSet:
    """Node candidate heights before the hull pass.

    Each node holds the lower of its two adjacent intervals' supporting
    lines (the pinned values 1 and 0 at a_0 and a_{k-1}).  ``forward[i]`` is
    the candidate at a_i for i = 0..i_one and ``backward[j]`` the candidate
    at a_{i_one + j} for j = 0..k-1-i_one: the nodes left and right of
    alpha = 1, both holding the same candidate at a_{i_one} = 1.
    """

    forward: np.ndarray
    backward: np.ndarray
    i_one: int


def _endpoint_lines(
    curve: HockeyStickCurve, a: np.ndarray, i_one: int, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint tangents over intervals ``idx`` in local coordinates.

    Returns each line's heights at the interval's left and right end: the
    tangent at a_i in gap coordinates for intervals left of 1, at a_{i+1}
    in value coordinates for those right of 1.
    """
    left = idx < i_one
    lo = np.empty(idx.size)
    hi = np.empty(idx.size)
    i = idx[left]
    _, lo[left], slope = curve._evaluate(a[i], right=True)
    hi[left] = lo[left] + (a[i + 1] - a[i]) * (1.0 + slope)
    i = idx[~left]
    hi[~left], _, slope = curve._evaluate(a[i + 1], right=False)
    lo[~left] = hi[~left] - (a[i + 1] - a[i]) * slope
    return lo, hi


def _local_candidates(
    curve: HockeyStickCurve, grid: DiscretizationGrid
) -> tuple[np.ndarray, int]:
    """Node candidates a_0..a_{k-1} in local coordinates.

    Local coordinates are the gap g = f - (1 - alpha) up to alpha = 1 and
    the value f from there on; both have the floor 0 on their side and they
    agree at alpha = 1.  Each interval's line is built in the coordinates of
    its side, which every interval has because 1 is a grid point.
    """
    i_one = grid.index_of_one
    if i_one is None:
        raise RequestError(
            "optimistic construction requires alpha = 1 on the grid: any pair "
            "dominated by an identical pair must carry loss mass at 0"
        )
    k = grid.k
    a = grid.alphas[:k]
    # midpoint tangent of interval i, evaluated at a_i (lo) and a_{i+1} (hi);
    # distances run from the rounded midpoint, where the curve was evaluated;
    # the first i_one intervals lie left of 1
    mid = 0.5 * (a[:-1] + a[1:])
    height, gap, slope = curve._evaluate(mid, right=True)
    height[:i_one] = gap[:i_one]
    slope[:i_one] += 1.0
    lo = height - (mid - a[:-1]) * slope
    hi = height + (a[1:] - mid) * slope
    # endpoint tangents on the first and last interval and wherever the
    # midpoint line dips below the floor
    fallback = (lo < 0.0) | (hi < 0.0)
    fallback[0] = fallback[-1] = True
    idx = np.flatnonzero(fallback)
    lo[idx], hi[idx] = _endpoint_lines(curve, a, i_one, idx)
    c = np.empty(k)
    c[0] = 0.0
    c[1:-1] = np.minimum(hi[:-1], lo[1:])
    c[-1] = 0.0
    # c >= 0 holds for every line used; restore it in float
    np.maximum(c, 0.0, out=c)
    return c, i_one


def _both_coordinates(
    c: np.ndarray, a: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gap and value heights of local-coordinate heights ``c``; ``right`` marks a suffix of ``a``."""
    split = right.size - int(np.count_nonzero(right))
    gap, value = c.copy(), c.copy()
    gap[split:] += a[split:] - 1.0
    value[:split] += 1.0 - a[:split]
    return gap, value


def candidate_set(curve: HockeyStickCurve, grid: DiscretizationGrid) -> CandidateSet:
    """Node candidates in curve coordinates (before the hull pass)."""
    c, i_one = _local_candidates(curve, grid)
    a = grid.alphas[: grid.k]
    _, f = _both_coordinates(c, a, a > 1.0)
    return CandidateSet(forward=f[: i_one + 1], backward=f[i_one:], i_one=i_one)


def _lower_hull(
    xs: np.ndarray, gaps: np.ndarray, values: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Monotone-chain lower hull over points sorted by x; returns the vertex indices, ascending.

    Convexity at a vertex is tested on slopes in its own coordinates: gap
    heights up to alpha = 1, value heights past it (``right``).  The slope
    of each stack edge is kept in its right end's coordinates.  The pop
    predicate is strict, so at every vertex the two edge slopes, in its
    coordinates, strictly increase as floats.

    Runs that the sweep would push without a pop are pushed in one step.
    For each node i, s_in[i] is the slope from i - 1 to i and s_out[i] the
    slope from i to i + 1, both in i's coordinates and computed vectorised
    by the sweep's own IEEE operations (a difference of heights over a
    difference of xs); node i is good when s_out[i] > s_in[i].  Say the
    stack ends in idx - 2, idx - 1 and node idx - 1 is good.  The top slope
    is then s_in[idx - 1], the sweep's first test at idx compares it with
    s_out[idx - 1] and keeps idx - 1, and the sweep pushes idx with slope
    s_in[idx], so the stack again ends in two consecutive nodes.  By
    induction the sweep pushes idx..j without a pop, with slopes
    s_in[idx..j], where j is the first node from idx on that is not good
    (or the last node); that is what the fast-forward pushes.  Every other
    node takes the sweep's step as written, so the vertices are exactly the
    sweep's.

    The stack is kept as runs of consecutive nodes, ``starts[r]`` up to
    ``ends[r] - 1``, so a pushed run costs no Python object per node.  A
    node's slope is s_in of it, the sweep's slope from the node before it,
    unless it starts its run; a run's first slope is kept in ``firsts``
    (none for node 0).  A node pushed onto the node just before it joins
    that node's run: the sweep's slope is then s_in's, bit for bit.  Runs
    are therefore never adjacent, which the vertex mask below relies on.
    """
    k = xs.size
    dx = xs[1:] - xs[:-1]
    s_gap = (gaps[1:] - gaps[:-1]) / dx
    s_value = (values[1:] - values[:-1]) / dx
    # s_in[i - 1] is node i's in-slope, s_out[i] its out-slope
    s_in = np.where(right[1:], s_value, s_gap)
    s_out = np.where(right[:-1], s_value, s_gap)
    good = np.zeros(k, dtype=bool)
    np.greater(s_out[1:], s_in[:-1], out=good[1:-1])
    # nodes that are not good; the two end nodes never are
    stops = np.flatnonzero(~good).tolist()
    stop = 0
    # a list reads faster than a memoryview but costs a conversion per node,
    # which pays off where the sweep's own steps are frequent
    view = np.ndarray.tolist if 8 * len(stops) > k else memoryview
    xs, gaps, values, right, good, s_in = map(view, (xs, gaps, values, right, good, s_in))
    starts, ends, firsts = [0], [1], [None]
    idx = 1
    while idx < k:
        # the top is idx - 1; the node below it is idx - 2 when its run holds both
        if good[idx - 1] and ends[-1] - starts[-1] >= 2:
            while stops[stop] < idx:
                stop += 1
            idx = ends[-1] = stops[stop] + 1
            continue
        heights = values if right[idx] else gaps
        while True:
            top = ends[-1] - 1
            slope = s_in[top - 1] if top > starts[-1] else firsts[-1]
            if slope is None:  # the stack holds node 0 alone
                break
            ys = values if right[top] else gaps
            if (ys[idx] - ys[top]) / (xs[idx] - xs[top]) > slope:
                break
            if top > starts[-1]:
                ends[-1] = top
            else:
                del starts[-1], ends[-1], firsts[-1]
        top = ends[-1] - 1
        if top == idx - 1:
            ends[-1] = idx + 1
        else:
            starts.append(idx)
            ends.append(idx + 1)
            firsts.append((heights[idx] - heights[top]) / (xs[idx] - xs[top]))
        idx += 1
    mask = np.zeros(k + 1, dtype=np.int8)
    mask[starts] = 1
    mask[ends] = -1
    return np.flatnonzero(mask.cumsum(dtype=np.int8)[:-1])


def optimistic_pair(curve: HockeyStickCurve, grid: DiscretizationGrid) -> DiscreteDominatingPair:
    """Grid-supported pair dominated by the curve's pair.

    Requires alpha = 1 on the grid and a curve vanishing at +inf (a positive
    tail cannot be under-estimated by this construction, which pins the tail
    to 0, without breaking monotonicity).
    """
    if curve.value_at_infinity > 0.0:
        raise RequestError(
            "optimistic construction supports curves vanishing at +inf only; "
            f"this curve has tail value {curve.value_at_infinity}"
        )
    a = grid.alphas[: grid.k]
    right = a > 1.0
    # the candidates are not kept: the build holds both coordinates and the
    # vertices' copies of them at its peak
    gap, value = _both_coordinates(_local_candidates(curve, grid)[0], a, right)
    vertices = _lower_hull(a, gap, value, right)
    return _pair_from_vertices(grid, vertices, gap, value, 0.0, up=False)


def pb_optimistic_pld(
    source: HockeyStickCurve | DiscreteDominatingPair, grid: DiscretizationGrid
) -> FinitePLD:
    """Loss distribution rounded down to the grid (privacy-buckets baseline), flagged improper."""
    return _rounded_pld(source, grid, up=False)


def non_uniqueness_fixture(
    epsilon: float, gamma: float | None = None
) -> tuple[DiscreteDominatingPair, DiscreteDominatingPair]:
    """Two under-estimates of randomized response, neither dominating.

    With K = e^(-eps) and E = e^eps, any valid under-estimate agrees with
    1 - alpha up to K (the curve is pinned between its floor and the
    randomized-response curve there), so the freedom lies in where the
    estimate leaves that line and where it lands on 0.  The first pair
    leaves early, at K + gamma/2, and lands at (1 + E)/2; the second leaves
    late, at (K + gamma + 1)/2, and lands at E.  The first is strictly
    higher just past its departure point (in particular at K + gamma), the
    second strictly higher past the first one's landing point, so the two
    curves cross and the pairs are incomparable under domination.
    """
    _require_positive(epsilon, "epsilon")
    try:
        k_hi = math.exp(epsilon)
    except OverflowError:
        raise RequestError(
            f"epsilon must keep e^epsilon finite (at most about 709.78), got {epsilon!r}"
        ) from None
    k_lo = math.exp(-epsilon)
    limit = min(k_hi - k_lo, k_lo)
    if gamma is None:
        gamma = 0.1 * limit
    if not (_is_finite_real(gamma) and 0.0 < gamma < limit):
        raise RequestError(
            f"gamma must lie in (0, {limit}) for straddle points "
            f"e^(-eps) +/- gamma to stay admissible, got {gamma!r}"
        )
    straddle_hi = k_lo + gamma
    if straddle_hi >= 1.0:
        raise RequestError(
            f"gamma = {gamma} pushes the upper straddle point past alpha = 1; "
            "the two-sided construction needs e^(-eps) + gamma < 1"
        )
    depart_early = k_lo + 0.5 * gamma
    land_early = 0.5 * (1.0 + k_hi)
    depart_late = 0.5 * (straddle_hi + 1.0)
    grid_early = DiscretizationGrid.from_alphas([0.0, depart_early, land_early, math.inf])
    grid_late = DiscretizationGrid.from_alphas([0.0, depart_late, k_hi, math.inf])
    pair_early = discretize_from_curve(
        [1.0, 1.0 - depart_early, 0.0, 0.0], grid_early
    )
    pair_late = discretize_from_curve([1.0, 1.0 - depart_late, 0.0, 0.0], grid_late)
    return pair_early, pair_late
