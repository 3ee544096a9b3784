"""Connect-the-dots pessimistic estimator and the rounding-up baseline."""

import math

import numpy as np
import pytest

import pldbounds as pb
from oracles import mech_to_spec, oracle_curve_value, rr_atoms, rr_pld_on_grid

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


class TestPessimisticPair:
    def test_rr_exact_grid_is_lossless(self):
        curve = pb.RandomizedResponseCurve(LN2)
        pair = pb.pessimistic_pair(curve, RR_GRID)
        pld = pb.pld_of(pair)
        np.testing.assert_allclose(pld.masses, [0, 1 / 3, 0, 2 / 3, 0], atol=1e-12)
        assert pb.delta_at(pld, 0.0) == pytest.approx(1 / 3, abs=1e-12)

    def test_identical_pair_collapses_to_point_mass(self):
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, INF])
        pair = pb.pessimistic_pair(pb.identical_pair_curve(), grid)
        pld = pb.pld_of(pair)
        np.testing.assert_allclose(pld.masses, [0.0, 1.0, 0.0], atol=1e-15)
        for eps in [0.0, 0.5, 3.0]:
            assert pb.delta_at(pld, eps) == 0.0

    def test_gaussian_small_grid_interpolation_dominates(self):
        mech = {"kind": "gaussian", "noise_scale": 1.0}
        curve = pb.GaussianCurve(1.0)
        grid = pb.DiscretizationGrid.from_alphas(
            [0.0, math.exp(-0.5), 1.0, math.exp(0.5), INF]
        )
        est = pb.curve_of(pb.pessimistic_pair(curve, grid))
        probe = math.exp(0.25)
        assert float(est.value(probe)) >= oracle_curve_value(mech, probe)
        # node exactness
        for a in grid.alphas[:-1]:
            assert float(est.value(a)) == pytest.approx(float(curve.value(a)), abs=1e-12)

    @pytest.mark.parametrize("case", range(len(MATRIX)))
    def test_domination_and_node_exactness(self, case):
        mech, spacing = MATRIX[case]
        curve, grid = build(mech, spacing)
        est = pb.curve_of(pb.pessimistic_pair(curve, grid))
        nodes = grid.alphas[:-1]
        np.testing.assert_allclose(
            np.asarray(est.value(nodes)), np.asarray(curve.value(nodes)), atol=1e-12
        )
        rng = np.random.default_rng(21)
        alphas = rng.uniform(0.0, 10.0 * grid.alphas[-2], size=500)
        assert np.all(
            np.asarray(est.value(alphas)) >= np.asarray(curve.value(alphas)) - 1e-12
        )
        assert float(est.value(INF)) >= curve.value_at_infinity - 1e-15

    def test_tail_value_is_last_node(self):
        # grids that stop short of the curve's range keep the last node value
        curve = pb.RandomizedResponseCurve(LN2)
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, INF])
        pair = pb.pessimistic_pair(curve, grid)
        assert pair.mass_at_infinity == pytest.approx(1 / 3, abs=1e-15)
        est = pb.curve_of(pair)
        assert float(est.value(100.0)) == pytest.approx(1 / 3, abs=1e-15)


    def test_refuses_a_curve_below_one_at_zero(self):
        # the gap at 0 clips to 0 whatever h(0) is, so h(0) must be read as a value
        curve = pb.PiecewiseLinearCurve([0.0, 1.0, 2.0], [0.9, 0.1, 0.0])
        grid = pb.DiscretizationGrid.uniform(0.1, -1.0, 1.0)
        with pytest.raises(pb.NumericalValidityError, match=r"curve value at alpha = 0 is \S*0\.9"):
            pb.pessimistic_pair(curve, grid)


class TestPbPessimistic:
    def test_rr_coarse_grid(self):
        curve = pb.RandomizedResponseCurve(LN2)
        grid = pb.DiscretizationGrid.from_alphas([0.0, 1.0, INF])
        pld = pb.pb_pessimistic_pld(curve, grid)
        np.testing.assert_allclose(pld.masses, [0.0, 1 / 3, 2 / 3], atol=1e-12)
        assert pb.delta_at(pld, 0.0) == pytest.approx(2 / 3, abs=1e-12)
        # connect-the-dots on the same grid answers 1/3
        ours = pb.pld_of(pb.pessimistic_pair(curve, grid))
        assert pb.delta_at(ours, 0.0) == pytest.approx(1 / 3, abs=1e-12)

    def test_rr_exact_grid_reproduces_atoms(self):
        curve = pb.RandomizedResponseCurve(LN2)
        pld = pb.pb_pessimistic_pld(curve, RR_GRID)
        np.testing.assert_allclose(pld.masses, [0, 1 / 3, 0, 2 / 3, 0], atol=1e-12)

    def test_curve_path_matches_atom_binning_on_rr(self):
        curve = pb.RandomizedResponseCurve(LN2)
        exact_pair = pb.discretize_from_curve(
            [float(curve.value(a)) for a in RR_GRID.alphas[:-1]] + [0.0], RR_GRID
        )
        for grid in [
            RR_GRID,
            pb.DiscretizationGrid.uniform(0.25, -1.0, 1.0),
            pb.DiscretizationGrid.uniform(0.11, -0.9, 0.9),
        ]:
            from_curve = pb.pb_pessimistic_pld(curve, grid)
            from_pair = pb.pb_pessimistic_pld(exact_pair, grid)
            np.testing.assert_allclose(from_curve.masses, from_pair.masses, atol=1e-12)

    def test_gaussian_ordering_at_unit_epsilon(self):
        mech = {"kind": "gaussian", "noise_scale": 1.0}
        curve = pb.GaussianCurve(1.0)
        grid = pb.DiscretizationGrid.uniform(0.5, -2.0, 2.0)
        pb_delta = pb.delta_at(pb.pb_pessimistic_pld(curve, grid), 1.0)
        ours_delta = pb.delta_at(pb.pld_of(pb.pessimistic_pair(curve, grid)), 1.0)
        true_delta = oracle_curve_value(mech, math.e)
        assert pb_delta >= ours_delta - 1e-12
        assert ours_delta >= true_delta - 1e-12

    def test_stochastic_dominance_over_exact_rr(self):
        curve = pb.RandomizedResponseCurve(LN2)
        grid = pb.DiscretizationGrid.uniform(0.25, -1.0, 1.0)
        rounded = pb.pb_pessimistic_pld(curve, grid)
        eps_f = grid.finite_epsilons
        cdf_rounded = np.cumsum(rounded.masses[1:-1])
        cdf_exact = np.array(
            [sum(m for v, m in rr_atoms(LN2) if v <= e) for e in eps_f]
        )
        assert np.all(cdf_rounded <= cdf_exact + 1e-12)

    @pytest.mark.parametrize("build_pb", [pb.pb_pessimistic_pld, pb.pb_optimistic_pld])
    def test_both_directions_refuse_a_rising_survival_function(self, build_pb):
        # the 2e-12 bump at alpha = 2 makes the curve non-convex there, so its
        # survival function rises by 6e-12 between grid points
        grid = pb.DiscretizationGrid.from_alphas([0.0, 0.5, 1.0, 2.0, 4.0, INF])
        nodes = [0.0, 0.5, 1.0, 2.0, 4.0]
        bumped = pb.PiecewiseLinearCurve(nodes, [1.0, 0.6, 0.3, 0.2 + 2e-12, 0.0])
        with pytest.raises(pb.NumericalValidityError, match="survival function increases"):
            build_pb(bumped, grid)
        flat = pb.PiecewiseLinearCurve(nodes, [1.0, 0.6, 0.3, 0.2, 0.0])
        np.testing.assert_allclose(build_pb(flat, grid).masses, [0, 0.1, 0.5, 0, 0.4, 0], atol=1e-15)

    @pytest.mark.parametrize("case", range(len(MATRIX)))
    def test_never_beats_connect_the_dots(self, case):
        mech, spacing = MATRIX[case]
        curve, grid = build(mech, spacing)
        ours = pb.pld_of(pb.pessimistic_pair(curve, grid))
        rounded = pb.pb_pessimistic_pld(curve, grid)
        lo, hi = grid.finite_epsilons[0], grid.finite_epsilons[-1]
        rng = np.random.default_rng(41)
        probes = np.concatenate(
            [grid.finite_epsilons, rng.uniform(lo - 1.0, hi + 1.0, size=500)]
        )
        for eps in probes:
            assert pb.delta_at(ours, float(eps)) <= pb.delta_at(rounded, float(eps)) + 1e-12


def test_exact_rr_pld_oracle_matches_library():
    grid = pb.DiscretizationGrid.uniform(LN2, -LN2, LN2)
    oracle = rr_pld_on_grid(LN2, grid)
    lib = pb.pld_of(pb.pessimistic_pair(pb.RandomizedResponseCurve(LN2), grid))
    np.testing.assert_allclose(lib.masses, oracle.masses, atol=1e-12)
