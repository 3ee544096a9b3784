"""Tangent + hull optimistic estimator, rounding-down baseline, fixture."""

import math

import numpy as np
import pytest

import pldbounds as pb
from oracles import mech_to_spec, oracle_curve_value, rr_curve_exact

LN2 = math.log(2.0)
INF = math.inf

RR_GRID = pb.DiscretizationGrid.from_alphas([0.0, 0.5, 1.0, 2.0, INF])

MATRIX = [
    ({"kind": "gaussian", "noise_scale": 1.0}, 0.5),
    ({"kind": "gaussian", "noise_scale": 1.0}, 0.05),
    ({"kind": "laplace", "noise_scale": 5.0}, 0.05),
    ({"kind": "randomized-response", "epsilon": LN2}, 0.3),
    (
        {
            "kind": "subsampled-gaussian",
            "noise_scale": 1.0,
            "sampling_prob": 0.01,
            "direction": "both",
        },
        0.05,
    ),
]


def build(mech: dict, spacing: float):
    curve = pb.curve_for(mech_to_spec(mech))
    lo, hi = pb.default_epsilon_range(curve, spacing)
    grid = pb.DiscretizationGrid.uniform(spacing, lo, hi)
    return curve, grid


class TestOptimisticPair:
    def test_identical_pair_is_exact(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, INF])
        pair = pb.optimistic_pair(pb.identical_pair_curve(), grid)
        np.testing.assert_allclose(pair.p_masses, [0.0, 1.0, 0.0], atol=1e-15)

    def test_rr_exact_grid_is_exact(self):
        curve = pb.RandomizedResponseCurve(LN2)
        pair = pb.optimistic_pair(curve, RR_GRID)
        pld = pb.pld_of(pair)
        np.testing.assert_allclose(pld.masses, [0, 1 / 3, 0, 2 / 3, 0], atol=1e-12)
        # tangent candidates across the kinks hit the curve exactly
        cands = pb.candidate_set(curve, RR_GRID)
        np.testing.assert_allclose(cands.forward, [1.0, 0.5, 1 / 3], atol=1e-15)
        np.testing.assert_allclose(cands.backward, [1 / 3, 0.0], atol=1e-15)

    def test_gaussian_small_grid_under_estimates(self):
        mech = {"kind": "gaussian", "noise_scale": 1.0}
        curve = pb.GaussianCurve(1.0)
        grid = pb.DiscretizationGrid.from_alphas(
            [0.0, math.exp(-0.5), 1.0, math.exp(0.5), INF]
        )
        pair = pb.optimistic_pair(curve, grid)
        est = pb.curve_of(pair)
        for a in grid.alphas[:-1]:
            assert float(est.value(a)) <= float(curve.value(a)) + 1e-15
        eps = 0.25
        delta_low = pb.delta_at(pb.pld_of(pair), eps)
        assert delta_low <= oracle_curve_value(mech, math.exp(eps)) + 1e-15

    @pytest.mark.parametrize("case", range(len(MATRIX)))
    def test_domination_candidates_and_validity(self, case):
        mech, spacing = MATRIX[case]
        curve, grid = build(mech, spacing)
        pair = pb.optimistic_pair(curve, grid)
        assert pair.clamp_count == 0, "hull output must pass the gates unclamped"
        est = pb.curve_of(pair)
        rng = np.random.default_rng(31)
        alphas = np.concatenate(
            [grid.alphas[:-1], rng.uniform(0.0, 10.0 * grid.alphas[-2], size=1000)]
        )
        assert np.all(
            np.asarray(est.value(alphas)) <= np.asarray(curve.value(alphas)) + 1e-12
        )
        # candidate bounds before the hull
        cands = pb.candidate_set(curve, grid)
        i_one = cands.i_one
        a_fwd = grid.alphas[: i_one + 1]
        a_bwd = grid.alphas[i_one : grid.k]
        assert np.all(cands.forward >= 1.0 - a_fwd - 1e-12)
        assert np.all(cands.backward >= -1e-12)
        assert np.all(cands.forward <= np.asarray(curve.value(a_fwd)) + 1e-12)
        assert np.all(cands.backward <= np.asarray(curve.value(a_bwd)) + 1e-12)

    @pytest.mark.parametrize("case", range(len(MATRIX)))
    def test_sandwich_against_pessimistic(self, case):
        mech, spacing = MATRIX[case]
        curve, grid = build(mech, spacing)
        low = pb.pld_of(pb.optimistic_pair(curve, grid))
        high = pb.pld_of(pb.pessimistic_pair(curve, grid))
        for eps in np.linspace(grid.finite_epsilons[0], grid.finite_epsilons[-1], 60):
            assert pb.delta_at(low, float(eps)) <= pb.delta_at(high, float(eps)) + 1e-12

    @pytest.mark.parametrize(
        "mech",
        [
            {"kind": "gaussian", "noise_scale": 1.0},
            {
                "kind": "subsampled-gaussian",
                "noise_scale": 1.0,
                "sampling_prob": 0.01,
                "direction": "both",
            },
        ],
    )
    def test_endpoint_fallback_on_coarse_grid(self, mech):
        curve, grid = build(mech, 0.5)
        nodes = grid.alphas[: grid.k]
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        # on this grid many midpoint tangents dip below [1 - alpha]_+ at an
        # interval end, so the endpoint-tangent fallback carries the estimate
        h_mid = np.asarray(curve.value(mids))
        d_mid = np.asarray(curve.right_derivative(mids))

        def floor(x):
            return np.maximum(1.0 - x, 0.0)

        dips = (h_mid + (nodes[:-1] - mids) * d_mid < floor(nodes[:-1])) | (
            h_mid + (nodes[1:] - mids) * d_mid < floor(nodes[1:])
        )
        assert dips.sum() >= mids.size // 2
        pair = pb.optimistic_pair(curve, grid)
        assert pair.clamp_count == 0
        est = pb.curve_of(pair)
        rng = np.random.default_rng(7)
        alphas = np.concatenate(
            [nodes, mids, rng.uniform(0.0, 10.0 * nodes[-1], size=1000)]
        )
        assert np.all(
            np.asarray(est.value(alphas)) <= np.asarray(curve.value(alphas)) + 1e-12
        )
        # node candidates meet the floor exactly; the pair's curve, rebuilt
        # from its masses, up to rounding
        cands = pb.candidate_set(curve, grid)
        assert np.all(cands.forward >= floor(nodes[: cands.i_one + 1]))
        assert np.all(cands.backward >= floor(nodes[cands.i_one :]))
        assert np.all(np.asarray(est.value(nodes)) >= floor(nodes) - 1e-15)

    @pytest.mark.parametrize("sigma, spacing", [(0.1, 0.3), (0.1, 0.01), (0.5, 0.3), (0.5, 0.01)])
    def test_kinks_far_right_of_one_keep_their_precision(self, sigma, spacing):
        # past alpha = 1 the curve's slopes h' fall below 1e-16; as slopes of
        # the gap, 1 + h', they rounded to 1, and P = alpha * Q summed to 2.1
        # (sigma = 0.1) or to 1 + 2e-11 (sigma = 0.5) instead of 1
        curve, grid = build({"kind": "gaussian", "noise_scale": sigma}, spacing)
        pair = pb.optimistic_pair(curve, grid)
        assert pair.clamp_count == 0
        est = pb.curve_of(pair)
        nodes = grid.alphas[: grid.k]
        h = np.asarray(curve.value(nodes))
        assert np.all(np.asarray(est.value(nodes)) <= h * (1.0 + 1e-9) + 1e-15)

    def test_single_step_bracket_holds_at_small_delta(self):
        # delta = 1e-9 sits at alpha = e^10.5; the rounded kinks there put the
        # optimistic epsilon above the exact one and above the pessimistic one
        from oracles import gaussian_epsilon_exact

        request = pb.AccountingRequest(
            mechanism=pb.MechanismSpec.gaussian(0.625),
            discretization=1 / 128,
            compositions=1,
            delta_target=1e-9,
        )
        report = pb.run_compute(request)
        assert report.eps_low <= gaussian_epsilon_exact(0.625, 1e-9) <= report.eps_high

    def test_requires_alpha_one(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 0.5, 2.0, INF])
        with pytest.raises(pb.RequestError, match="alpha = 1"):
            pb.optimistic_pair(pb.RandomizedResponseCurve(LN2), grid)

    def test_rejects_positive_tail(self):
        # a curve with mass at +inf cannot be under-estimated by this scheme
        curve = pb.PiecewiseLinearCurve([0.0, 0.5], [1.0, 0.4])
        assert curve.value_at_infinity == 0.4
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, INF])
        with pytest.raises(pb.RequestError, match="vanishing at \\+inf"):
            pb.optimistic_pair(curve, grid)

    def test_sequential_tangent_chaining_fails_where_hull_succeeds(self):
        # chaining tangent steps left to right dives below zero on a coarse
        # Laplace grid; the candidate + hull construction stays valid
        curve = pb.LaplaceCurve(1.0)
        grid = pb.DiscretizationGrid.uniform(1.0, -3.0, 3.0)
        nodes = grid.alphas[: grid.k]
        chained = [1.0]
        for a, a_next in zip(nodes, nodes[1:]):
            slope = float(curve.right_derivative(a))
            chained.append(chained[-1] + (a_next - a) * slope)
        assert min(chained) < 0.0, "the naive chain must exhibit the failure"
        pair = pb.optimistic_pair(curve, grid)
        assert pair.clamp_count == 0
        est = pb.curve_of(pair)
        alphas = np.linspace(0.0, float(nodes[-1]), 400)
        assert np.all(np.asarray(est.value(alphas)) >= np.maximum(1 - alphas, 0) - 1e-15)
        assert np.all(
            np.asarray(est.value(alphas)) <= np.asarray(curve.value(alphas)) + 1e-12
        )


def test_candidate_generation_is_safe_under_concurrency():
    # curves are immutable and candidate generation is pointwise, so parallel
    # evaluation must agree with the sequential result
    from concurrent.futures import ThreadPoolExecutor

    curve, grid = build(MATRIX[4][0], MATRIX[4][1])
    sequential = pb.candidate_set(curve, grid)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: pb.candidate_set(curve, grid), range(16)))
    for res in results:
        np.testing.assert_array_equal(res.forward, sequential.forward)
        np.testing.assert_array_equal(res.backward, sequential.backward)


@pytest.mark.parametrize(
    "mech, node_tol",
    [
        ({"kind": "gaussian", "noise_scale": 1.0}, 1e-15),
        ({"kind": "laplace", "noise_scale": 1.0}, 1e-15),
        (
            {
                "kind": "subsampled-gaussian",
                "noise_scale": 1.0,
                "sampling_prob": 0.1,
                "direction": "both",
            },
            1e-15,
        ),
        # randomized response is straight between its kinks, where the chord
        # slopes leave kink masses of rounding size and either sign; zeroing
        # the negative ones lifts the curve by their sum (2.3e-15 here)
        ({"kind": "randomized-response", "epsilon": 1.0}, 1e-14),
    ],
)
def test_both_estimators_on_a_grid_ending_at_one(mech, node_tol):
    # the last kink sits at alpha = 1, so it is taken in gap coordinates
    grid = pb.DiscretizationGrid.uniform(0.1, -3.0, 1e-12)
    assert grid.k == 32 and grid.alphas[grid.k - 1] == 1.0
    curve = pb.curve_for(mech_to_spec(mech))
    nodes = grid.alphas[: grid.k]
    points = np.concatenate([nodes, np.linspace(0.0, 1.5, 151)])

    def tradeoff(pair, alphas):
        # sum over the support of [P - alpha Q]_+, summed exactly
        return np.array(
            [math.fsum(np.maximum(pair.p_masses - x * pair.q_masses, 0.0)) for x in alphas]
        )

    high = pb.pessimistic_pair(curve, grid)
    low = pb.optimistic_pair(curve, grid)
    assert np.all(np.abs(tradeoff(high, nodes) - curve.value(nodes)) <= node_tol)
    assert high.p_masses[-1] == float(curve.value(1.0))
    assert np.all(tradeoff(low, points) <= curve.value(points))


class TestPbOptimistic:
    def test_rr_coarse_grid_all_finite_mass_at_zero(self):
        curve = pb.RandomizedResponseCurve(LN2)
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, INF])
        pld = pb.pb_optimistic_pld(curve, grid)
        assert not pld.proper
        np.testing.assert_allclose(pld.masses, [1 / 3, 2 / 3, 0.0], atol=1e-12)
        assert pb.delta_at(pld, 0.0) == 0.0

    def test_rr_exact_grid_reproduces_atoms(self):
        curve = pb.RandomizedResponseCurve(LN2)
        pld = pb.pb_optimistic_pld(curve, RR_GRID)
        np.testing.assert_allclose(pld.masses, [0, 1 / 3, 0, 2 / 3, 0], atol=1e-12)

    def test_gaussian_under_estimates(self):
        mech = {"kind": "gaussian", "noise_scale": 1.0}
        curve = pb.GaussianCurve(1.0)
        grid = pb.DiscretizationGrid.uniform(0.5, -2.0, 2.0)
        pld = pb.pb_optimistic_pld(curve, grid)
        assert pb.delta_at(pld, 1.0) <= oracle_curve_value(mech, math.e) + 1e-12

    def test_curve_path_matches_atom_binning_on_rr(self):
        curve = pb.RandomizedResponseCurve(LN2)
        exact_pair = pb.discretize_from_curve(
            [float(curve.value(a)) for a in RR_GRID.alphas[:-1]] + [0.0], RR_GRID
        )
        for grid in [RR_GRID, pb.DiscretizationGrid.uniform(0.25, -1.0, 1.0)]:
            from_curve = pb.pb_optimistic_pld(curve, grid)
            from_pair = pb.pb_optimistic_pld(exact_pair, grid)
            np.testing.assert_allclose(from_curve.masses, from_pair.masses, atol=1e-12)

    def test_stochastically_dominated_by_exact(self):
        from oracles import rr_atoms

        curve = pb.RandomizedResponseCurve(LN2)
        grid = pb.DiscretizationGrid.uniform(0.25, -1.0, 1.0)
        rounded = pb.pb_optimistic_pld(curve, grid)
        eps_f = grid.finite_epsilons
        # rounding down piles the CDF up at least as fast as the exact one
        cdf_rounded = rounded.masses[0] + np.cumsum(rounded.masses[1:-1])
        cdf_exact = np.array([sum(m for v, m in rr_atoms(LN2) if v <= e) for e in eps_f])
        assert np.all(cdf_rounded >= cdf_exact - 1e-12)


class TestNonUniquenessFixture:
    def test_both_under_estimate_randomized_response(self):
        pair_a, pair_b = pb.non_uniqueness_fixture(LN2, 0.1)
        rng = np.random.default_rng(5)
        alphas = np.concatenate([rng.uniform(0.0, 4.0, size=500), [0.4, 0.6]])
        for pair in (pair_a, pair_b):
            est = pb.curve_of(pair)
            for a in alphas:
                assert float(est.value(float(a))) <= rr_curve_exact(LN2, float(a)) + 1e-12

    def test_neither_dominates_the_other(self):
        pair_a, pair_b = pb.non_uniqueness_fixture(LN2, 0.1)
        curve_a = pb.curve_of(pair_a)
        curve_b = pb.curve_of(pair_b)
        alphas = np.linspace(0.0, 2.5, 2001)
        va = np.asarray(curve_a.value(alphas))
        vb = np.asarray(curve_b.value(alphas))
        assert np.any(va > vb + 1e-9), "first estimate must win somewhere"
        assert np.any(vb > va + 1e-9), "second estimate must win somewhere"

    def test_witness_near_upper_straddle_point(self):
        eps, gamma = LN2, 0.1
        pair_a, pair_b = pb.non_uniqueness_fixture(eps, gamma)
        alpha_2 = math.exp(-eps) + gamma
        va = float(pb.curve_of(pair_a).value(alpha_2))
        vb = float(pb.curve_of(pair_b).value(alpha_2))
        assert va > vb + 1e-12, "early departure stays above the floor at alpha_2"
        assert vb == pytest.approx(1.0 - alpha_2, abs=1e-15)

    def test_default_gamma_and_validation(self):
        pair_a, pair_b = pb.non_uniqueness_fixture(LN2)
        assert pair_a.grid.alphas[1] != pair_b.grid.alphas[1]
        with pytest.raises(pb.RequestError):
            pb.non_uniqueness_fixture(LN2, 0.6)  # beyond min(e^eps - e^-eps, e^-eps)
        with pytest.raises(pb.RequestError):
            pb.non_uniqueness_fixture(LN2, -0.1)
        with pytest.raises(pb.RequestError):
            pb.non_uniqueness_fixture(0.05, 0.9 * min(math.e**0.05 - math.e**-0.05, math.e**-0.05))
