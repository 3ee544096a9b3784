"""Single-step masses as differences of tails.

``pld_of`` takes an estimator's single-step masses as differences of the
pair's tails, the intercepts of its lines at alpha = 0, so they sum to 1
within a few ulps.  The pair's own P, a product of kink masses and alphas,
can miss 1 by 3e-13, and an n-fold composition multiplies that by n until
the composed total fails the mass gate.  The pipeline builds its single
steps by the same call, so the library route and ``run_compute`` compose the
same bits.  Randomized response is checked against binomial enumeration up
to n = 1000, where the kink products made the composition exit 3.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pldbounds as pb
from oracles import rr_epsilon_exact
from pldbounds import report
from pldbounds.pld import _exact_sum

_M = pb.MechanismSpec

#: The most a single step's exact total may miss 1 by: two ulps of 1.
_TOTAL_ATOL = 2 * math.ulp(1.0)


def _mechanisms():
    gaussian = st.floats(0.5, 50.0).map(_M.gaussian)
    laplace = st.floats(0.2, 20.0).map(_M.laplace)
    rr = st.floats(0.05, 5.0).map(_M.randomized_response)
    inner = st.one_of(st.floats(0.5, 5.0).map(_M.gaussian), st.floats(0.5, 20.0).map(_M.laplace))
    subsampled = st.builds(_M.poisson_subsampled, inner, st.floats(1e-3, 0.5))
    return st.one_of(gaussian, laplace, rr, subsampled)


@settings(max_examples=60, deadline=None)
@given(mechanism=_mechanisms(), spacing=st.floats(1e-3, 0.2), pessimistic=st.booleans())
def test_a_single_step_sums_to_one_within_two_ulps(mechanism, spacing, pessimistic):
    curve = pb.curve_for(mechanism)
    grid = pb.DiscretizationGrid.uniform(spacing, *pb.default_epsilon_range(curve, spacing))
    build = pb.pessimistic_pair if pessimistic else pb.optimistic_pair
    try:
        pair = build(curve, grid)
    except pb.NumericalValidityError:
        # the pair's own P gate refuses some fine randomized-response grids
        # (P masses sum to 1 + 2e-11); no other mechanism may be refused
        assume(mechanism.kind != "randomized_response")
        raise
    total = _exact_sum(pb.pld_of(pair).masses)
    assert abs(total - 1.0) <= _TOTAL_ATOL, total


@settings(max_examples=60, deadline=None)
@given(mechanism=_mechanisms(), spacing=st.floats(1e-3, 0.2), pessimistic=st.booleans())
def test_the_tail_differences_are_the_kink_products_within_rounding(mechanism, spacing, pessimistic):
    # one rule places both estimators' tail differences at their vertices:
    # every node for connect-the-dots, the hull's vertices for the optimistic
    # estimate, whose other nodes carry neither Q nor loss mass
    curve = pb.curve_for(mechanism)
    grid = pb.DiscretizationGrid.uniform(spacing, *pb.default_epsilon_range(curve, spacing))
    build = pb.pessimistic_pair if pessimistic else pb.optimistic_pair
    try:
        pair = build(curve, grid)
    except pb.NumericalValidityError:
        # as above, only randomized response may be refused
        assume(mechanism.kind != "randomized_response")
        raise
    masses = pb.pld_of(pair).masses
    np.testing.assert_allclose(masses, pair.p_masses, rtol=0, atol=1e-12)
    if not pessimistic:
        off = np.flatnonzero(pair.q_masses[: grid.k - 1] == 0.0)
        assert not masses[off].any()


REQUESTS = {
    "randomized-response": pb.AccountingRequest(
        _M.randomized_response(1.0), 0.01, compositions=1000, delta_target=1e-6
    ),
    "subsampled-laplace": pb.AccountingRequest(
        _M.poisson_subsampled(_M.laplace(5.0), 0.01), 2e-4, compositions=300, delta_target=1e-5
    ),
    "gaussian": pb.AccountingRequest(_M.gaussian(2.0), 1e-3, compositions=100, delta_target=1e-6),
}


@pytest.mark.parametrize("name", REQUESTS)
def test_the_library_route_gives_the_pipelines_single_steps(name):
    request = REQUESTS[name]
    singles = report._set_up(request).singles
    curve = pb.curve_for(request.mechanism)
    spacing = request.discretization
    grid = pb.DiscretizationGrid.uniform(spacing, *pb.default_epsilon_range(curve, spacing))
    for method, build in (("pessimistic", pb.pessimistic_pair), ("optimistic", pb.optimistic_pair)):
        ours = pb.pld_of(build(curve, grid))
        single = singles[method]
        assert ours.masses.tobytes() == single.masses.tobytes(), method
        assert ours.finite_epsilons.tobytes() == single.finite_epsilons.tobytes(), method
        assert ours.lattice_offset == single.lattice_offset, method


def test_the_tail_masses_sum_to_one_where_the_kink_products_do_not():
    # randomized response eps0 = 1 at spacing 0.01: P misses 1 by 3.1e-13
    request = REQUESTS["randomized-response"]
    curve = pb.curve_for(request.mechanism)
    grid = pb.DiscretizationGrid.uniform(0.01, *pb.default_epsilon_range(curve, 0.01))
    pair = pb.pessimistic_pair(curve, grid)
    assert _exact_sum(pair.p_masses) - 1.0 > 1e-13
    assert abs(_exact_sum(pb.pld_of(pair).masses) - 1.0) <= _TOTAL_ATOL
    # and the differences agree with the kink products within rounding
    np.testing.assert_allclose(pb.pld_of(pair).masses, pair.p_masses, rtol=0, atol=1e-13)


def test_a_pair_without_tails_gives_its_p_masses():
    curve = pb.GaussianCurve(1.0)
    grid = pb.DiscretizationGrid.uniform(0.05, *pb.default_epsilon_range(curve, 0.05))
    built = pb.pessimistic_pair(curve, grid)
    by_hand = pb.DiscreteDominatingPair(grid, built.p_masses, built.q_masses)
    for pair in (by_hand, dataclasses.replace(built)):
        assert pb.pld_of(pair).masses.tobytes() == pair.p_masses.tobytes()


@pytest.mark.parametrize("n", [16, 100, 1000])
def test_randomized_response_brackets_the_enumeration(n):
    request = dataclasses.replace(REQUESTS["randomized-response"], compositions=n)
    exact = rr_epsilon_exact(1.0, n, 1e-6)
    if n == 1000:
        assert exact == pytest.approx(591.0796505, abs=1e-7)
    answer = pb.run_compute(request)
    assert exact <= answer.eps_high
    # an answer is the least float whose delta meets the target, so the
    # optimistic end may sit one ulp above the real root (n = 16 does)
    assert answer.eps_low <= math.nextafter(exact, math.inf)
