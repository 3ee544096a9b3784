"""The optimistic hull's fast-forward against the plain monotone-chain sweep.

``optimistic._lower_hull`` pushes runs of nodes that the sweep would push
without a pop in one step.  The sweep it must reproduce is kept below,
verbatim, as the oracle: the vertex lists must be equal, on random point
sets built to stress the pop predicate and on the library's real grids.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pldbounds as pb
from pldbounds import optimistic


def sweep_hull(xs: list, gaps: list, values: list, right: list) -> list[int]:
    """Monotone-chain lower hull over points sorted by x; returns vertex indices.

    Convexity at a vertex is tested on slopes in its own coordinates: gap
    heights up to alpha = 1, value heights past it (``right``).  The slope
    of each stack edge is kept in its right end's coordinates.  The pop
    predicate is strict, so at every vertex the two edge slopes, in its
    coordinates, strictly increase as floats.
    """
    stack = [0]
    slopes: list[float] = []
    for idx in range(1, len(xs)):
        heights = values if right[idx] else gaps
        while slopes:
            top = stack[-1]
            ys = values if right[top] else gaps
            s_new = (ys[idx] - ys[top]) / (xs[idx] - xs[top])
            if s_new > slopes[-1]:
                break
            stack.pop()
            slopes.pop()
        top = stack[-1]
        slopes.append((heights[idx] - heights[top]) / (xs[idx] - xs[top]))
        stack.append(idx)
    return stack


def _agrees(xs: np.ndarray, gaps: np.ndarray, values: np.ndarray, right: np.ndarray) -> list[int]:
    expected = sweep_hull(xs.tolist(), gaps.tolist(), values.tolist(), right.tolist())
    got = optimistic._lower_hull(xs, gaps, values, right)
    assert got == expected
    return got


def _both(heights: np.ndarray, xs: np.ndarray, pivot: int) -> tuple[np.ndarray, ...]:
    """Gap and value coordinates that switch at node ``pivot``, as in ``optimistic_pair``."""
    right = np.arange(xs.size) > pivot
    x1 = xs[pivot]
    gaps = np.where(right, heights + (xs - x1), heights)
    values = np.where(right, heights, heights + (x1 - xs))
    return gaps, values, right


@st.composite
def point_sets(draw):
    """Sorted points on a convex base with dips, exact collinear runs and runs of zeros."""
    k = draw(st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # small integers: differences, and so collinear runs, are exact
        xs = np.cumsum(rng.integers(1, 4, k)).astype(float)
    else:
        xs = np.cumsum(rng.uniform(1e-4, 1.0, k))
    t = (xs - xs[0]) / max(xs[-1] - xs[0], 1.0)
    heights = draw(st.sampled_from((1.0, 1e-3, 1e-12))) * np.exp(-draw(st.floats(0.0, 30.0)) * t)
    for _ in range(draw(st.integers(0, 6))):
        lo = int(rng.integers(0, k))
        hi = min(k, lo + int(rng.integers(1, 60)))
        kind = draw(st.sampled_from(("dip", "bump", "collinear", "zeros")))
        if kind == "dip":
            heights[lo:hi] -= rng.uniform(0.0, 1.0, hi - lo) * heights[lo:hi]
        elif kind == "bump":
            heights[lo:hi] += rng.uniform(0.0, 1e-3, hi - lo)
        elif kind == "collinear":
            heights[lo:hi] = float(rng.integers(0, 50)) - float(rng.integers(0, 4)) * np.arange(hi - lo)
        else:
            heights[lo:hi] = 0.0
    pivot = draw(st.integers(0, k - 1))
    return (xs, *_both(heights, xs, pivot))


@settings(max_examples=400, deadline=None)
@given(point_sets())
def test_fast_forward_matches_the_sweep(points):
    xs, gaps, values, right = points
    _agrees(xs, gaps, values, right)


def test_a_convex_run_is_pushed_whole_and_a_zigzag_step_by_step():
    xs = np.arange(500.0)
    convex = (xs - 250.0) ** 2
    gaps, values, right = _both(convex, xs, 100)
    assert _agrees(xs, gaps, values, right) == list(range(500))
    zigzag = np.where(np.arange(500) % 2 == 0, 0.0, 1.0)
    gaps, values, right = _both(zigzag, xs, 499)
    assert _agrees(xs, gaps, values, right) == [0, 498, 499]


_M = pb.MechanismSpec


@pytest.mark.parametrize(
    "spec, spacing",
    [
        (_M.gaussian(2.0), 1e-4),
        (_M.gaussian(1.0), 1e-3),
        (_M.poisson_subsampled(_M.gaussian(1.0), 0.01), 1e-4),
        (_M.poisson_subsampled(_M.gaussian(1.0), 0.01), 0.005),
        (_M.poisson_subsampled(_M.laplace(5.0), 0.01), 2e-4),
        (_M.randomized_response(1.0), 0.01),
    ],
    ids=["gaussian-2-1e-4", "gaussian-1-1e-3", "subsampled-gaussian-1e-4",
         "subsampled-gaussian-5e-3", "subsampled-laplace-2e-4", "rr-1-0.01"],
)
def test_real_grids_match_the_sweep(spec, spacing):
    curve = pb.curve_for(spec)
    grid = pb.DiscretizationGrid.uniform(spacing, *pb.default_epsilon_range(curve, spacing))
    c, _ = optimistic._local_candidates(curve, grid)
    a = grid.alphas[: grid.k]
    right = a > 1.0
    gaps, values = optimistic._both_coordinates(c, a, right)
    vertices = _agrees(a, gaps, values, right)
    assert vertices[0] == 0 and vertices[-1] == grid.k - 1
