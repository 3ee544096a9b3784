"""Convolution composition: correctness, fft/direct agreement, truncation.

``convolve`` and ``self_compose`` share one engine; a budgeted two-operand
composition is windowed and charged as a self-composition is, so it must
stay on its own side of the ``method="direct"`` reference at every epsilon.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pldbounds as pb
from oracles import rr_product_delta
from pldbounds import compose

LN2 = math.log(2.0)

PESS = pb.CompositionPolicy(direction="pessimistic")
OPT = pb.CompositionPolicy(direction="optimistic")
PESS_DIRECT = pb.CompositionPolicy(direction="pessimistic", method="direct")
NO_TRUNC = pb.CompositionPolicy(direction="pessimistic", truncation_tail_mass=0.0)


def rr_pld(spacing: float = LN2) -> pb.FinitePLD:
    grid = pb.DiscretizationGrid.uniform(spacing, -LN2, LN2)
    curve = pb.RandomizedResponseCurve(LN2)
    return pb.pld_of(pb.pessimistic_pair(curve, grid))


def random_pld(
    rng: np.random.Generator, spacing: float, size: int, with_atom: bool = True
) -> pb.FinitePLD:
    j0 = -int(rng.integers(0, size))
    grid = pb.DiscretizationGrid.uniform(spacing, j0 * spacing, (j0 + size - 1) * spacing)
    finite = rng.random(size) ** 3
    inf_mass = float(rng.random() * 0.05) if with_atom else 0.0
    finite *= (1.0 - inf_mass) / finite.sum()
    masses = np.concatenate(([0.0], finite, [inf_mass]))
    return pb.FinitePLD(finite_epsilons=grid.finite_epsilons, masses=masses, spacing=grid.spacing)


class TestConvolve:
    def test_rr_squared_matches_product_enumeration(self):
        pld = rr_pld()
        two = pb.convolve(pld, pld, NO_TRUNC)
        eps_f = two.finite_epsilons
        expected = {round(-2 * LN2, 9): 1 / 9, 0.0: 4 / 9, round(2 * LN2, 9): 4 / 9}
        for eps, mass in zip(eps_f, two.masses[1:-1]):
            assert mass == pytest.approx(expected.get(round(float(eps), 9), 0.0), abs=1e-12)
        assert pb.delta_at(two, 0.0) == pytest.approx(1 / 3, abs=1e-12)
        assert pb.delta_at(two, 0.0) == pytest.approx(rr_product_delta(LN2, 0.0), abs=1e-12)

    def test_identity_element(self):
        pld = rr_pld()
        ident = pb.point_mass_pld(pld.spacing)
        out = pb.convolve(pld, ident, NO_TRUNC)
        np.testing.assert_allclose(out.masses[1:-1], pld.masses[1:-1], atol=1e-15)
        np.testing.assert_allclose(out.finite_epsilons, pld.finite_epsilons, atol=1e-12)

    def test_infinity_atom_inclusion_exclusion(self):
        rng = np.random.default_rng(3)
        a = random_pld(rng, 0.1, 12)
        b = random_pld(rng, 0.1, 9)
        a = pb.FinitePLD(finite_epsilons=a.finite_epsilons, spacing=a.spacing, masses=np.concatenate(([0.0], a.masses[1:-1] * (0.9 / (1 - a.mass_at_infinity)), [0.1])))
        b = pb.FinitePLD(finite_epsilons=b.finite_epsilons, spacing=b.spacing, masses=np.concatenate(([0.0], b.masses[1:-1] * (0.8 / (1 - b.mass_at_infinity)), [0.2])))
        out = pb.convolve(a, b, NO_TRUNC)
        assert out.mass_at_infinity == pytest.approx(0.28, abs=1e-12)

    def test_fft_and_direct_agree(self):
        rng = np.random.default_rng(4)
        for size in [8, 100, 1000, 4096]:
            a = random_pld(rng, 0.01, size)
            b = random_pld(rng, 0.01, size)
            fft = pb.convolve(a, b, NO_TRUNC)
            direct = pb.convolve(a, b, pb.CompositionPolicy("pessimistic", method="direct", truncation_tail_mass=0.0))
            assert np.abs(fft.masses - direct.masses).sum() <= 1e-10

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(5)
        a = random_pld(rng, 0.2, 20)
        b = random_pld(rng, 0.2, 13)
        c = random_pld(rng, 0.2, 7)
        ab = pb.convolve(a, b, NO_TRUNC)
        ba = pb.convolve(b, a, NO_TRUNC)
        assert np.abs(ab.masses - ba.masses).sum() <= 1e-11
        abc1 = pb.convolve(pb.convolve(a, b, NO_TRUNC), c, NO_TRUNC)
        abc2 = pb.convolve(a, pb.convolve(b, c, NO_TRUNC), NO_TRUNC)
        assert np.abs(abc1.masses - abc2.masses).sum() <= 1e-11

    def test_mismatched_spacing_rejected(self):
        a = rr_pld(LN2)
        b = rr_pld(LN2 / 2)
        with pytest.raises(pb.RequestError, match="spacing"):
            pb.convolve(a, b, PESS)

    @pytest.mark.parametrize("budget", [0.0, 1e-15, 1e-9])
    def test_support_cap_enforced_before_any_transform(self, monkeypatch, budget):
        def fail(*args, **kwargs):
            raise AssertionError("transform ran")

        monkeypatch.setattr(compose, "rfft", fail)
        rng = np.random.default_rng(6)
        a = random_pld(rng, 0.1, 64)
        tight = pb.CompositionPolicy("pessimistic", truncation_tail_mass=budget, max_support=64)
        with pytest.raises(pb.RequestError, match="max_support"):
            pb.convolve(a, a, tight)

    def test_direct_is_np_convolve_at_full_support_whatever_the_budget(self):
        # a bulk whose tails hold far less than the budget: nothing is cut
        bulk = np.exp(-0.5 * ((np.arange(300) - 150) / 20.0) ** 2)
        masses = np.concatenate(([0.0], bulk / bulk.sum(), [0.0]))
        a = pb.FinitePLD(np.arange(300) * 0.05, masses, spacing=0.05)
        b = random_pld(np.random.default_rng(12), 0.05, 41, with_atom=False)
        for direction in ("pessimistic", "optimistic"):
            policy = pb.CompositionPolicy(direction, method="direct", truncation_tail_mass=1e-6)
            out = pb.convolve(a, b, policy)
            assert out.support_size == a.support_size + b.support_size - 1
            assert np.array_equal(out.masses[1:-1], np.convolve(a.masses[1:-1], b.masses[1:-1]))
            assert out.truncated_low == out.truncated_high == out.rounding_charge == 0.0

    def test_mass_conservation(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_pld(rng, 0.05, int(rng.integers(5, 200)))
            b = random_pld(rng, 0.05, int(rng.integers(5, 200)))
            out = pb.convolve(a, b, PESS)
            assert abs(math.fsum(out.masses.tolist()) - 1.0) <= 1e-11


class TestSelfCompose:
    def test_zero_is_point_mass(self):
        out = pb.self_compose(rr_pld(), 0, PESS)
        assert out.masses[1 + list(out.finite_epsilons).index(0.0)] == 1.0
        assert pb.delta_at(out, 0.0) == 0.0

    def test_one_is_identity(self):
        pld = rr_pld()
        assert pb.self_compose(pld, 1, PESS) is pld

    def test_two_matches_convolve(self):
        pld = rr_pld()
        np.testing.assert_allclose(
            pb.self_compose(pld, 2, NO_TRUNC).masses,
            pb.convolve(pld, pld, NO_TRUNC).masses,
            atol=0,
        )

    def test_power_matches_repeated_convolution(self):
        pld = rr_pld()
        by_squaring = pb.self_compose(pld, 5, NO_TRUNC)
        step = pld
        for _ in range(4):
            step = pb.convolve(step, pld, NO_TRUNC)
        assert by_squaring.masses.size == step.masses.size
        np.testing.assert_allclose(by_squaring.masses, step.masses, atol=1e-13)

    def test_direct_and_fft_paths_agree_after_power(self):
        rng = np.random.default_rng(8)
        pld = random_pld(rng, 0.02, 257)
        fft = pb.self_compose(pld, 9, pb.CompositionPolicy("pessimistic", truncation_tail_mass=0.0))
        direct = pb.self_compose(pld, 9, pb.CompositionPolicy("pessimistic", method="direct", truncation_tail_mass=0.0))
        assert np.abs(fft.masses - direct.masses).sum() <= 1e-10

    def test_truncation_directions_bracket_untruncated(self):
        # a +inf atom would forbid the optimistic direction (its -inf dumps
        # cannot meet +inf mass), matching the rule that optimistic pipelines
        # only ever see curves vanishing at +inf
        rng = np.random.default_rng(9)
        pld = random_pld(rng, 0.05, 101, with_atom=False)
        untrunc = pb.self_compose(pld, 6, NO_TRUNC)
        heavy_pess = pb.self_compose(
            pld, 6, pb.CompositionPolicy("pessimistic", truncation_tail_mass=1e-6)
        )
        heavy_opt = pb.self_compose(
            pld, 6, pb.CompositionPolicy("optimistic", truncation_tail_mass=1e-6)
        )
        assert heavy_pess.masses.size < untrunc.masses.size
        for eps in np.linspace(-3.0, 3.0, 31):
            base = pb.delta_at(untrunc, float(eps))
            assert pb.delta_at(heavy_pess, float(eps)) >= base - 1e-15
            assert pb.delta_at(heavy_opt, float(eps)) <= base + 1e-15

    def test_truncation_bookkeeping_and_conservation(self):
        rng = np.random.default_rng(10)
        pld = random_pld(rng, 0.05, 101, with_atom=False)
        out = pb.self_compose(pld, 8, pb.CompositionPolicy("optimistic", truncation_tail_mass=1e-7))
        total = math.fsum(out.masses.tolist())
        assert abs(total - 1.0) <= 1e-11  # -inf dumps stay inside the mass vector
        assert out.masses[0] >= 0.0
        assert not out.proper or out.masses[0] == 0.0
        assert out.truncated_low >= 0.0 and out.truncated_high >= 0.0

    def test_gaussian_80_composition_upper_bounds_analytic(self):
        from oracles import gaussian_epsilon_exact

        curve = pb.GaussianCurve(80.0)
        lo, hi = pb.default_epsilon_range(curve, 0.005)
        grid = pb.DiscretizationGrid.uniform(0.005, lo, hi)
        pld = pb.pld_of(pb.pessimistic_pair(curve, grid))
        composed = pb.self_compose(pld, 1000, PESS)
        eps_up = pb.epsilon_for_delta(composed, 1e-5)
        eps_exact = gaussian_epsilon_exact(80.0 / math.sqrt(1000.0), 1e-5)
        assert eps_up >= eps_exact - 1e-9

    def test_negative_count_rejected(self):
        with pytest.raises(pb.RequestError):
            pb.self_compose(rr_pld(), -1, PESS)

    def test_non_integral_count_rejected_and_numpy_integers_accepted(self):
        pld = rr_pld()
        for count in (2.5, 2.0, "2"):
            with pytest.raises(pb.RequestError, match="integer"):
                pb.self_compose(pld, count, PESS)
        expected = pb.pld_to_json(pb.self_compose(pld, 2, PESS))
        assert pb.pld_to_json(pb.self_compose(pld, np.int64(2), PESS)) == expected


def test_requests_take_integral_composition_counts_only():
    def request(count):
        return pb.AccountingRequest(
            mechanism=pb.MechanismSpec.randomized_response(LN2),
            discretization=0.05,
            compositions=count,
            delta_target=1e-3,
        )

    for count in (2.5, 3.0, None, True):
        with pytest.raises(pb.RequestError, match="integer"):
            request(count)
    with pytest.raises(pb.RequestError, match="non-negative"):
        request(-1)
    expected = pb.run_compute(request(3))
    answer = pb.run_compute(request(np.int64(3)))
    assert (answer.eps_low, answer.eps_high) == (expected.eps_low, expected.eps_high)


def test_policy_validation():
    with pytest.raises(pb.RequestError):
        pb.CompositionPolicy(direction="sideways")
    with pytest.raises(pb.RequestError):
        pb.CompositionPolicy(direction="pessimistic", method="magic")
    with pytest.raises(pb.RequestError):
        pb.CompositionPolicy(direction="pessimistic", truncation_tail_mass=1e-3)
    with pytest.raises(pb.RequestError):
        pb.CompositionPolicy(direction="pessimistic", max_support=1)


def test_improper_low_mass_composes_absorbingly():
    grid = pb.DiscretizationGrid.uniform(0.5, -0.5, 0.5)
    masses = np.array([0.25, 0.25, 0.25, 0.25, 0.0])
    pld = pb.FinitePLD(finite_epsilons=grid.finite_epsilons, masses=masses, spacing=grid.spacing, proper=False)
    out = pb.convolve(pld, pld, pb.CompositionPolicy("optimistic", truncation_tail_mass=0.0))
    assert out.masses[0] == pytest.approx(0.25 + 0.25 - 0.0625, abs=1e-15)
    assert not out.proper


def test_cross_infinity_composition_rejected():
    grid = pb.DiscretizationGrid.uniform(0.5, -0.5, 0.5)
    low = pb.FinitePLD(finite_epsilons=grid.finite_epsilons, masses=np.array([0.5, 0.2, 0.2, 0.1, 0.0]), spacing=grid.spacing, proper=False)
    high = pb.FinitePLD(finite_epsilons=grid.finite_epsilons, masses=np.array([0.0, 0.2, 0.2, 0.1, 0.5]), spacing=grid.spacing)
    with pytest.raises(pb.RequestError, match="-inf mass against \\+inf"):
        pb.convolve(low, high, OPT)


def _atom_only(atom: str) -> pb.FinitePLD:
    """A 50-point lattice distribution whose +inf (or -inf) atom holds all its mass."""
    masses = np.zeros(52)
    masses[-1 if atom == "inf" else 0] = 1.0
    return pb.FinitePLD(np.arange(50) * 0.1, masses, spacing=0.1, proper=atom == "inf")


@pytest.mark.parametrize("atom", ["inf", "neg"])
@pytest.mark.parametrize(
    "operation, n, method, budget",
    [
        ("self_compose", 3, "fft", 1e-9),
        ("self_compose", 3, "fft", 0.0),
        ("self_compose", 3, "direct", 1e-9),
        # a full support of 9801 points exceeds _DIRECT_MAX: the window finds
        # no positive finite mass, and the transform and its charge run
        ("self_compose", 200, "fft", 1e-9),
        ("convolve", 1, "fft", 1e-9),
        ("convolve", 1, "direct", 1e-9),
    ],
)
@pytest.mark.parametrize("direction", ["pessimistic", "optimistic"])
def test_an_atom_that_holds_all_the_mass_composes_to_itself(atom, operation, n, method, budget, direction):
    # the atom fold took log1p(-1.0) and raised "math domain error"
    pld = _atom_only(atom)
    policy = pb.CompositionPolicy(direction, method=method, truncation_tail_mass=budget)
    out = pb.self_compose(pld, n, policy) if operation == "self_compose" else pb.convolve(pld, pld, policy)
    assert out.masses[-1 if atom == "inf" else 0] == 1.0
    assert not out.masses[1:-1].any()
    assert out.proper == (atom == "inf")
    if atom == "inf":
        assert (pb.delta_at(out, 3.0), pb.epsilon_for_delta(out, 0.5)) == (1.0, math.inf)
    else:
        assert (pb.delta_at(out, 3.0), pb.epsilon_for_delta(out, 0.5)) == (0.0, -math.inf)


def test_a_plan_is_made_before_any_transform_and_executed_bit_for_bit(monkeypatch):
    pld = random_pld(np.random.default_rng(7), 0.01, 400)
    n = 60
    policy = pb.CompositionPolicy("pessimistic", truncation_tail_mass=1e-9)

    def fail(*args, **kwargs):
        raise AssertionError("transform ran")

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(compose, name, fail)
    monkeypatch.setattr(np, "convolve", fail)
    plan = compose._plan([(pld, n)], policy)
    monkeypatch.undo()
    # a window shorter than the full support, which is already a fast length
    assert plan.full == n * (pld.support_size - 1) + 1
    assert 0 < plan.start < plan.start + plan.length < plan.full
    assert plan.size == plan.length == compose._fast_length(plan.length)
    out = compose._execute(plan, policy.direction)
    expected = pb.self_compose(pld, n, policy)
    assert pb.pld_to_json(out) == pb.pld_to_json(expected)
    fields = ("truncated_low", "truncated_high", "rounding_charge")
    assert [getattr(out, f) for f in fields] == [getattr(expected, f) for f in fields]
    assert out.finite_epsilons[0] >= (plan.j0 + plan.start) * pld.spacing - 1e-9


def _readme_step(direction: str) -> pb.FinitePLD:
    """A fresh single step of the README's subsampled-Gaussian sweep (sigma 1, q 0.01, spacing 0.005)."""
    curve = pb.curve_for(pb.MechanismSpec.poisson_subsampled(pb.MechanismSpec.gaussian(1.0), 0.01))
    grid = pb.DiscretizationGrid.uniform(0.005, *pb.default_epsilon_range(curve, 0.005))
    build = pb.pessimistic_pair if direction == "pessimistic" else pb.optimistic_pair
    return pb.pld_of(build(curve, grid))


def _plan_fields(plan) -> tuple:
    return (plan.n, plan.j0, plan.full, plan.budget, plan.start, plan.length, plan.size)


@pytest.mark.parametrize("direction", ["pessimistic", "optimistic"])
def test_plans_do_not_depend_on_the_order_of_counts_or_the_memo(direction):
    # the memoised lattice values are pure functions of the step, so a
    # count's window is the same whatever was planned before it
    counts = range(100, 1001, 100)
    policy = pb.CompositionPolicy(direction, truncation_tail_mass=1e-8)

    def plans(step, order):
        return {n: _plan_fields(compose._plan([(step, n)], policy)) for n in order}

    ascending = _readme_step(direction)
    reference = plans(ascending, counts)
    assert plans(ascending, counts) == reference  # warm memo
    assert plans(_readme_step(direction), reversed(counts)) == reference
    for n in counts:
        assert plans(_readme_step(direction), [n]) == {n: reference[n]}
    # every window lies inside the full support and is shorter than it
    for _, _, full, _, start, length, _ in reference.values():
        assert 0 <= start < start + length < full


def test_a_window_edge_is_the_least_chernoff_bound_on_the_lattice():
    step = compose._step(_readme_step("pessimistic"))
    n, log_inv_w = 500, -math.log(1e-8 / 500)
    for sign in (1.0, -1.0):
        edge = compose._tail_edge([(step, n)], n, sign, log_inv_w)
        # a wide lattice range around the edge: none of its bounds is lower
        ts = compose._TS[compose._WALK_MAX - 120 : compose._WALK_MAX + 41]
        log_m = compose._log_mgf(step.log_f, sign * step.offsets, ts)
        bounds = (n * log_m + log_inv_w) / ts
        assert edge == bounds.min()
        # and one lattice value does not depend on the call it came from
        at = int(np.argmin(bounds))
        alone = compose._log_mgf(step.log_f, sign * step.offsets, ts[at : at + 1])
        assert alone[0] == log_m[at]


@st.composite
def lattice_pairs(draw) -> tuple[pb.FinitePLD, pb.FinitePLD]:
    """Two random lattice PLDs of 200 to 3000 points whose atoms may compose.

    A spread shape puts mass on every point, so windows cover the support;
    a bulk shape has tails thin enough that the transform window is narrower.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atom = draw(st.sampled_from(("none", "inf", "neg")))
    pair = []
    for _ in range(2):
        size = draw(st.integers(200, 3000))
        finite = rng.random(size) ** rng.uniform(1.0, 30.0)
        if draw(st.sampled_from(("spread", "bulk"))) == "bulk":
            width = size * rng.uniform(0.02, 0.3)
            finite *= np.exp(-0.5 * ((np.arange(size) - rng.uniform(0, size)) / width) ** 2)
            finite[finite < 1e-300] = 0.0
        if not finite.any():
            finite[0] = 1.0
        mass = draw(st.floats(1e-9, 0.2)) if atom != "none" else 0.0
        finite *= (1.0 - mass) / finite.sum()
        masses = np.concatenate(([mass if atom == "neg" else 0.0], finite, [mass if atom == "inf" else 0.0]))
        j0 = draw(st.integers(-size, 0))
        pair.append(pb.FinitePLD((j0 + np.arange(size)) * 0.01, masses, spacing=0.01, proper=atom != "neg"))
    return pair[0], pair[1]


@settings(max_examples=40, deadline=None)
@given(lattice_pairs(), st.sampled_from((1e-15, 1e-9)))
def test_budgeted_compositions_stay_on_their_side_of_direct(pair, budget):
    # exact comparisons: the charges, not a tolerance, must keep each side
    a, b = pair
    for direction in ("pessimistic", "optimistic"):
        policy = pb.CompositionPolicy(direction, truncation_tail_mass=budget)
        reference = dataclasses.replace(policy, method="direct")
        for compose_with in (lambda p: pb.convolve(a, b, p), lambda p: pb.self_compose(a, 2, p)):
            out, exact = compose_with(policy), compose_with(reference)
            eps_f = exact.finite_epsilons
            for eps in np.linspace(float(eps_f[0]) - 1.0, float(eps_f[-1]) + 1.0, 60):
                got, want = pb.delta_at(out, float(eps)), pb.delta_at(exact, float(eps))
                assert got >= want if direction == "pessimistic" else got <= want
