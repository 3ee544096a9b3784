"""Grid construction, discretization, divergence, and serialization tests."""

import math

import numpy as np
import pytest

import pldbounds as pb
from oracles import pair_curve_values, pair_delta_direct, random_grid, random_pair

LN2 = math.log(2.0)
INF = math.inf

RR_GRID = pb.DiscretizationGrid.from_alphas([0.0, 0.5, 1.0, 2.0, INF])
RR_H = [1.0, 0.5, 1.0 / 3.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


class TestDiscretizationGrid:
    def test_uniform_contains_zero_and_snaps(self):
        grid = pb.DiscretizationGrid.uniform(0.5, -1.2, 1.7)
        assert grid.epsilons[0] == -INF and grid.epsilons[-1] == INF
        assert grid.alphas[0] == 0.0 and math.isinf(grid.alphas[-1])
        np.testing.assert_allclose(grid.finite_epsilons, np.arange(-3, 5) * 0.5, atol=0)
        assert grid.index_of_one == 4
        assert grid.lattice_offset() == -3

    def test_uniform_degenerate_point(self):
        grid = pb.DiscretizationGrid.uniform(0.25, 0.0, 0.0)
        assert list(grid.finite_epsilons) == [0.0]
        assert grid.index_of_one == 1

    def test_uniform_widens_to_cover_zero(self):
        grid = pb.DiscretizationGrid.uniform(0.1, 0.35, 0.75)
        assert grid.finite_epsilons[0] == 0.0

    def test_from_alphas_roundtrip(self):
        assert RR_GRID.k == 4
        np.testing.assert_allclose(RR_GRID.finite_epsilons, [-LN2, 0.0, LN2], atol=1e-15)
        assert RR_GRID.index_of_one == 2

    def test_rejections(self):
        with pytest.raises(pb.RequestError):
            pb.DiscretizationGrid.from_alphas([0.1, 1.0, INF])  # must start at 0
        with pytest.raises(pb.RequestError):
            pb.DiscretizationGrid.from_alphas([0.0, 2.0, 1.0, INF])  # not increasing
        with pytest.raises(pb.RequestError):
            pb.DiscretizationGrid.from_epsilons([0.0, 0.4, 1.0], spacing=0.4)  # not uniform
        with pytest.raises(pb.RequestError):
            pb.DiscretizationGrid.from_epsilons([0.4, 0.8], spacing=0.4)  # lacks 0
        with pytest.raises(pb.RequestError):
            RR_GRID.lattice_offset()  # spacing unset


_GRID3 = pb.DiscretizationGrid.from_alphas([0.0, 1.0, INF])
_REQUEST, _VALIDITY = pb.RequestError, pb.NumericalValidityError


def _grid(alphas, epsilons):
    return pb.DiscretizationGrid(np.array(alphas), np.array(epsilons))


def _pair(p, q):
    return pb.DiscreteDominatingPair(_GRID3, np.array(p, dtype=float), np.array(q, dtype=float))


@pytest.mark.parametrize(
    "make, error, message",
    [
        # DiscretizationGrid
        (lambda: _grid([0.0, INF], [-INF, INF]), _REQUEST, ">= 3 points"),
        (lambda: _grid([0.5, 1.0, INF], [-INF, 0.0, INF]), _REQUEST, "start at 0"),
        (lambda: _grid([0.0, 1.0, INF], [-INF, 0.0, 1.0]), _REQUEST, "from -inf to \\+inf"),
        (lambda: _grid([0.0, 1.0, INF], [-INF, 0.5, INF]), _REQUEST, "logs of the interior alphas"),
        (lambda: pb.DiscretizationGrid.from_epsilons([]), _REQUEST, "non-empty 1-D array"),
        (lambda: pb.DiscretizationGrid.from_epsilons([0.5, 0.0]), _REQUEST, "strictly increasing"),
        (lambda: pb.DiscretizationGrid.from_epsilons([0.0, 701.0]), _VALIDITY, "700"),
        (lambda: pb.DiscretizationGrid.uniform(0.1, 1.0, -1.0), _REQUEST, "bad epsilon range"),
        # DiscreteDominatingPair
        (lambda: _pair([0.0, 1.0], [0.0, 1.0]), _REQUEST, "match the grid size"),
        (lambda: _pair([0.0, 1.1, -0.1], [0.0, 1.1, -0.1]), _VALIDITY, "negative probability mass"),
        (lambda: _pair([0.0, 0.5, 0.5], [0.0, 0.5, 0.5]), _VALIDITY, "no mass at \\+inf"),
        (lambda: _pair([0.5, 0.5, 0.0], [0.5, 0.5, 0.0]), _VALIDITY, "no mass at alpha = 0"),
        (lambda: _pair([0.0, 0.5, 0.5], [0.4, 0.6, 0.0]), _VALIDITY, "alpha \\* Q"),
        # FinitePLD
        (lambda: pb.FinitePLD([0.0], [0.0, 1.0]), _REQUEST, "both atoms"),
        (lambda: pb.FinitePLD([0.5, 0.0], [0.0, 0.5, 0.5, 0.0]), _REQUEST, "strictly increasing"),
        (lambda: pb.FinitePLD([0.0], [0.5, 0.5, 0.0]), _VALIDITY, "no mass at -inf"),
        # discretize_from_curve
        (lambda: pb.discretize_from_curve([1.0, 0.0], _GRID3), _REQUEST, "one curve value per grid point"),
        (lambda: pb.discretize_from_curve([1.0, 1.5, 1.5], _GRID3), _VALIDITY, "outside \\[0, 1\\]"),
        (lambda: pb.non_uniqueness_fixture(0.0), _REQUEST, "epsilon must be positive"),
        # self_compose needs a lattice
        (
            lambda: pb.self_compose(pb.FinitePLD([0.0], [0.0, 1.0, 0.0]), 2, pb.CompositionPolicy("pessimistic")),
            _REQUEST,
            "uniform-lattice",
        ),
        # a policy is a CompositionPolicy, not its direction's name
        (
            lambda: pb.self_compose(pb.pld_of(rr_pair()), 2, "pessimistic"),
            _REQUEST,
            "policy must be a CompositionPolicy, got 'pessimistic'",
        ),
        (lambda: pb.self_compose(pb.pld_of(rr_pair()), 1, None), _REQUEST, "policy must be a CompositionPolicy"),
        (
            lambda: pb.convolve(pb.pld_of(rr_pair()), pb.pld_of(rr_pair()), "optimistic"),
            _REQUEST,
            "policy must be a CompositionPolicy, got 'optimistic'",
        ),
    ],
)
def test_malformed_objects_are_refused(make, error, message):
    with pytest.raises(error, match=message):
        make()


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


class TestDiscretizeFromCurve:
    def test_point_mass(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, INF])
        pair = pb.discretize_from_curve([1.0, 0.0, 0.0], grid)
        np.testing.assert_allclose(pair.q_masses, [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(pair.p_masses, [0.0, 1.0, 0.0], atol=1e-15)

    def test_rr_hand_values(self):
        pair = pb.discretize_from_curve(RR_H, RR_GRID)
        np.testing.assert_allclose(pair.q_masses, [0.0, 2 / 3, 0.0, 1 / 3, 0.0], atol=1e-15)
        np.testing.assert_allclose(pair.p_masses, [0.0, 1 / 3, 0.0, 2 / 3, 0.0], atol=1e-15)

    def test_gaussian_small_grid_pi_properties(self):
        curve = pb.GaussianCurve(1.0)
        grid = pb.DiscretizationGrid.from_alphas(
            [0.0, math.exp(-0.5), 1.0, math.exp(0.5), INF]
        )
        h = [float(curve.value(a)) for a in grid.alphas[:-1]]
        h.append(h[-1])  # constant tail: the only realisable extension
        pair = pb.discretize_from_curve(h, grid)
        # properties: P = alpha Q off infinity (exact), Q(inf) = 0, and the
        # pair's divergence reproduces the inputs at every grid point
        finite = grid.alphas[1:-1]
        np.testing.assert_array_equal(pair.p_masses[1:-1], finite * pair.q_masses[1:-1])
        assert pair.q_masses[-1] == 0.0
        np.testing.assert_allclose(pair_curve_values(pair), h, atol=1e-12)
        assert abs(math.fsum(pair.p_masses.tolist()) - 1.0) <= 1e-12
        assert abs(math.fsum(pair.q_masses.tolist()) - 1.0) <= 1e-12
        assert pair.p_masses[-1] == h[-1]

    def test_rejects_wrong_start(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, INF])
        with pytest.raises(pb.NumericalValidityError, match="alpha = 0"):
            pb.discretize_from_curve([0.9, 0.5, 0.5], grid)

    def test_rejects_increase(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, 2.0, INF])
        with pytest.raises(pb.NumericalValidityError, match="increase"):
            pb.discretize_from_curve([1.0, 0.4, 0.5, 0.5], grid)

    def test_rejects_nonconvex_with_index(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, 2.0, INF])
        with pytest.raises(pb.NumericalValidityError, match="index 1"):
            pb.discretize_from_curve([1.0, 0.9, 0.2, 0.2], grid)

    def test_rejects_tail_jump(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, 2.0, INF])
        with pytest.raises(pb.NumericalValidityError, match="constant"):
            pb.discretize_from_curve([1.0, 0.5, 0.3, 0.0], grid)

    def test_rejects_floor_violation(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 0.5, 1.0, INF])
        with pytest.raises(pb.NumericalValidityError, match="1 - alpha"):
            pb.discretize_from_curve([1.0, 0.1, 0.05, 0.05], grid)

    def test_clamps_tiny_negative_kinks(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, 2.0, 3.0, INF])
        h = [1.0, 0.7, 0.4, 0.1 - 3e-13, 0.1 - 3e-13]  # slope dips by 3e-13
        pair = pb.discretize_from_curve(h, grid)
        assert pair.clamp_count == 1
        assert np.all(pair.q_masses >= 0.0)

    def test_roundtrip_random_pairs(self):
        rng = np.random.default_rng(2026)
        for _ in range(200):
            pair = random_pair(rng, random_grid(rng))
            h = pair_curve_values(pair)
            rebuilt = pb.discretize_from_curve(h, pair.grid)
            finite = pair.grid.alphas[1:-1]
            np.testing.assert_array_equal(
                rebuilt.p_masses[1:-1], finite * rebuilt.q_masses[1:-1]
            )
            assert rebuilt.q_masses[-1] == 0.0
            np.testing.assert_allclose(pair_curve_values(rebuilt), h, atol=1e-12)
            assert abs(math.fsum(rebuilt.p_masses.tolist()) - 1.0) <= 1e-12
            assert abs(math.fsum(rebuilt.q_masses.tolist()) - 1.0) <= 1e-12

    def test_builds_as_connect_the_dots(self):
        # one rule: the pair through given values is the pessimistic pair of
        # the piecewise-linear curve through them, bit for bit.  The values
        # meet the floor 1 - alpha in floating point, as valid values must:
        # below it by rounding (a pair's h(0) summing to 1 - 2^-53), the
        # curve's default gap is zeroed while discretize_from_curve keeps it
        rng = np.random.default_rng(2027)
        for _ in range(200):
            grid = random_grid(rng, include_one=bool(rng.integers(2)))
            h = np.maximum(pair_curve_values(random_pair(rng, grid)), 1.0 - grid.alphas)
            k = grid.k
            h[k] = h[k - 1]
            pair = pb.discretize_from_curve(h, grid)
            curve = pb.PiecewiseLinearCurve(grid.alphas[:k], h[:k])
            estimate = pb.pessimistic_pair(curve, grid)
            np.testing.assert_array_equal(pair.p_masses, estimate.p_masses)
            np.testing.assert_array_equal(pair.q_masses, estimate.q_masses)
            assert pair.clamp_count == estimate.clamp_count


# ---------------------------------------------------------------------------
# loss distributions
# ---------------------------------------------------------------------------


def rr_pair() -> pb.DiscreteDominatingPair:
    return pb.discretize_from_curve(RR_H, RR_GRID)


class TestPldOf:
    def test_rr(self):
        pld = pb.pld_of(rr_pair())
        np.testing.assert_allclose(pld.masses, [0.0, 1 / 3, 0.0, 2 / 3, 0.0], atol=1e-15)

    def test_point_mass(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, INF])
        pld = pb.pld_of(pb.discretize_from_curve([1.0, 0.0, 0.0], grid))
        assert pld.masses[1] == 1.0

    def test_infinity_mass_copied(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, INF])
        pair = pb.discretize_from_curve([1.0, 0.2, 0.2], grid)
        assert pb.pld_of(pair).mass_at_infinity == 0.2


class TestDeltaAt:
    def test_rr_at_zero(self):
        assert pb.delta_at(pb.pld_of(rr_pair()), 0.0) == pytest.approx(1 / 3, abs=1e-15)

    def test_point_mass_at_zero(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, INF])
        pld = pb.pld_of(pb.discretize_from_curve([1.0, 0.0, 0.0], grid))
        assert pb.delta_at(pld, 0.0) == 0.0
        assert pb.delta_at(pld, -LN2) == pytest.approx(0.5, abs=1e-15)

    def test_boundary_epsilons(self):
        pld = pb.pld_of(rr_pair())
        assert pb.delta_at(pld, -INF) == pytest.approx(1.0, abs=1e-15)
        assert pb.delta_at(pld, INF) == 0.0

    def test_nan_epsilon_rejected(self):
        # searchsorted puts NaN past every epsilon, which would read the +inf atom
        curve = pb.GaussianCurve(1.0)
        grid = pb.DiscretizationGrid.uniform(0.1, *pb.default_epsilon_range(curve, 0.1))
        with pytest.raises(pb.RequestError, match="NaN"):
            pb.delta_at(pb.pld_of(pb.pessimistic_pair(curve, grid)), math.nan)

    def test_matches_direct_divergence(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pair = random_pair(rng, random_grid(rng))
            pld = pb.pld_of(pair)
            for eps in rng.uniform(-8.0, 8.0, size=100):
                assert abs(
                    pb.delta_at(pld, float(eps)) - pair_delta_direct(pair, float(eps))
                ) <= 1e-12

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(12)
        pair = random_pair(rng, random_grid(rng))
        pld = pb.pld_of(pair)
        eps = np.linspace(-10, 10, 201)
        deltas = [pb.delta_at(pld, float(e)) for e in eps]
        assert all(a >= b - 1e-15 for a, b in zip(deltas, deltas[1:]))
        assert all(pld.mass_at_infinity - 1e-15 <= d <= 1.0 + 1e-15 for d in deltas)


class TestCurveOf:
    def test_rr_midpoint(self):
        curve = pb.curve_of(rr_pair())
        assert float(curve.value(0.75)) == pytest.approx(5.0 / 12.0, abs=1e-15)

    def test_point_mass_is_identity_curve(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, INF])
        curve = pb.curve_of(pb.discretize_from_curve([1.0, 0.0, 0.0], grid))
        for a in [0.0, 0.3, 0.7, 1.0]:
            assert float(curve.value(a)) == pytest.approx(1.0 - a, abs=1e-15)

    def test_constant_beyond_last_node(self):
        curve = pb.curve_of(rr_pair())
        assert float(curve.value(10.0)) == 0.0
        assert float(curve.value(INF)) == 0.0


class TestEpsilonForDelta:
    def test_rr_exact_third(self):
        eps = pb.epsilon_for_delta(pb.pld_of(rr_pair()), 1.0 / 3.0)
        assert abs(eps) <= 1e-8
        # just below the target the divergence exceeds it
        assert pb.delta_at(pb.pld_of(rr_pair()), -1e-6) > 1.0 / 3.0

    def test_point_mass_closed_form(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, INF])
        pld = pb.pld_of(pb.discretize_from_curve([1.0, 0.0, 0.0], grid))
        assert pb.epsilon_for_delta(pld, 0.5) == pytest.approx(-LN2, abs=1e-8)

    def test_floor_returns_infinity(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, INF])
        pld = pb.pld_of(pb.discretize_from_curve([1.0, 0.1, 0.1], grid))
        assert pb.epsilon_for_delta(pld, 0.05) == INF

    def test_target_one_returns_negative_infinity(self):
        assert pb.epsilon_for_delta(pb.pld_of(rr_pair()), 1.0) == -INF

    def test_rejects_bad_targets(self):
        pld = pb.pld_of(rr_pair())
        with pytest.raises(pb.RequestError):
            pb.epsilon_for_delta(pld, 0.0)
        with pytest.raises(pb.RequestError):
            pb.epsilon_for_delta(pld, -0.5)
        with pytest.raises(pb.RequestError):
            pb.epsilon_for_delta(pld, 1.5)

    def test_inverse_consistency(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            pair = random_pair(rng, random_grid(rng))
            pld = pb.pld_of(pair)
            for eps0 in rng.uniform(-4.0, 4.0, size=8):
                d = pb.delta_at(pld, float(eps0))
                if d <= 0.0:
                    continue
                assert pb.epsilon_for_delta(pld, d) <= eps0 + 1e-8


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_roundtrip(self):
        grid = pb.DiscretizationGrid.uniform(LN2, -LN2, LN2)
        curve = pb.curve_for(pb.MechanismSpec.randomized_response(LN2))
        pld = pb.pld_of(pb.pessimistic_pair(curve, grid))
        payload = pb.pld_to_json_dict(pld)
        assert set(payload) == {
            "discretization",
            "epsilon_offset",
            "masses",
            "mass_at_infinity",
        }
        assert payload["epsilon_offset"] == 1
        back = pb.pld_from_json(pb.pld_to_json(pld))
        np.testing.assert_allclose(back.masses, pld.masses, rtol=0, atol=0)
        assert back.spacing == pld.spacing

    def test_improper_distribution_keeps_neg_infinity_mass(self):
        grid = pb.DiscretizationGrid.uniform(LN2, -LN2, LN2)
        curve = pb.curve_for(pb.MechanismSpec.randomized_response(1.0))
        pld = pb.pb_optimistic_pld(curve, grid)
        payload = pb.pld_to_json_dict(pld)
        assert payload["mass_at_neg_infinity"] > 0.0
        back = pb.pld_from_json_dict(payload)
        assert not back.proper
        np.testing.assert_allclose(back.masses, pld.masses, atol=0)

    def test_non_uniform_grid_rejected(self):
        pld = pb.pld_of(rr_pair())
        # the RR grid carries no declared spacing
        with pytest.raises(pb.RequestError):
            pb.pld_to_json_dict(pld)
