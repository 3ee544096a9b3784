"""One-shot self-composition: one transform, one power of the spectrum, one inverse.

The reference is ``method="direct"``: binary powering over ``np.convolve`` at
full support, which is exact up to rounding.  With a zero budget the power
must match it; with a positive budget the Chernoff window may let the tails
wrap around, and the charge must keep each estimate on its own side of the
reference at every epsilon.

``_spectral_power`` sets spectrum entries whose n-th power underflows to 0
instead of powering them.  The plain power of the whole spectrum, kept below
as the oracle, must give the same masses wherever they reach ``_MASS_FLOOR``,
unless the n-fold finite mass itself nears underflow.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import irfft, next_fast_len, rfft

import pldbounds as pb
from oracles import gaussian_epsilon_exact
from pldbounds import compose

SPACING = 0.1
_M = pb.MechanismSpec


def _policy(direction: str, budget: float, method: str = "fft") -> pb.CompositionPolicy:
    return pb.CompositionPolicy(direction, method=method, truncation_tail_mass=budget)


def _pld(finite: np.ndarray, j0: int, neg: float = 0.0, inf: float = 0.0) -> pb.FinitePLD:
    finite = finite * ((1.0 - neg - inf) / finite.sum())
    return pb.FinitePLD(
        finite_epsilons=(j0 + np.arange(finite.size)) * SPACING,
        masses=np.concatenate(([neg], finite, [inf])),
        spacing=SPACING,
        proper=neg == 0.0,
    )


@st.composite
def lattice_plds(draw) -> pb.FinitePLD:
    """Random lattice PLDs: proper, with a +inf atom, or improper with a -inf atom."""
    size = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # high powers concentrate the mass on a few points, so windows get narrow
    finite = rng.random(size) ** rng.uniform(1.0, 30.0)
    if not finite.any():
        finite[0] = 1.0
    atom = draw(st.sampled_from(("none", "inf", "neg")))
    mass = draw(st.floats(1e-9, 0.2))
    return _pld(
        finite,
        draw(st.integers(-300, 300)),
        neg=mass if atom == "neg" else 0.0,
        inf=mass if atom == "inf" else 0.0,
    )


def _on_its_side(out: pb.FinitePLD, exact: pb.FinitePLD, direction: str, epsilons) -> bool:
    """Whether ``out`` bounds ``exact`` from its side at every epsilon, within 1e-15."""
    for eps in epsilons:
        got, want = pb.delta_at(out, float(eps)), pb.delta_at(exact, float(eps))
        if (got < want - 1e-15) if direction == "pessimistic" else (got > want + 1e-15):
            return False
    return True


def _eps_sweep(pld: pb.FinitePLD, n: int) -> np.ndarray:
    lo = n * float(pld.finite_epsilons[0])
    hi = n * float(pld.finite_epsilons[-1])
    return np.linspace(lo - 1.0, hi + 1.0, 61)


def _outside_window(exact: pb.FinitePLD, single: pb.FinitePLD, n: int, start: int, length: int):
    """Finite masses of ``exact`` below and above the window, enumerated."""
    j0 = n * round(float(single.finite_epsilons[0]) / SPACING)
    first = round(float(exact.finite_epsilons[0]) / SPACING) - j0
    finite = exact.masses[1:-1]
    index = first + np.arange(finite.size)
    below = math.fsum(finite[index < start].tolist())
    above = math.fsum(finite[index >= start + length].tolist())
    return below, above


class TestAgainstDirect:
    @settings(max_examples=60, deadline=None)
    @given(lattice_plds(), st.integers(2, 40), st.sampled_from(("pessimistic", "optimistic")))
    def test_zero_budget_matches_direct(self, pld, n, direction):
        fft = pb.self_compose(pld, n, _policy(direction, 0.0))
        direct = pb.self_compose(pld, n, _policy(direction, 0.0, "direct"))
        assert np.array_equal(fft.finite_epsilons, direct.finite_epsilons)
        assert np.abs(fft.masses - direct.masses).sum() <= 1e-12
        assert fft.truncated_low == fft.truncated_high == fft.rounding_charge == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        lattice_plds(),
        st.integers(2, 40),
        st.sampled_from(("pessimistic", "optimistic")),
        st.sampled_from((1e-12, 1e-9, 1e-6)),
    )
    def test_charge_keeps_each_side(self, pld, n, direction, budget):
        out = pb.self_compose(pld, n, _policy(direction, budget))
        exact = pb.self_compose(pld, n, _policy(direction, 0.0, "direct"))
        assert out.truncated_low <= budget and out.truncated_high <= budget
        assert _on_its_side(out, exact, direction, _eps_sweep(pld, n))

    @settings(max_examples=60, deadline=None)
    @given(lattice_plds(), st.integers(2, 40), st.sampled_from((1e-12, 1e-9, 1e-6)))
    def test_mass_outside_the_window_is_at_most_w(self, pld, n, budget):
        single = pld.masses[1:-1]
        full = n * (single.size - 1) + 1
        w = budget / n
        plan = compose._plan([(pld, n)], _policy("pessimistic", budget))
        start, length = plan.start, plan.length
        assert 0 <= start and start + length <= full
        exact = pb.self_compose(pld, n, _policy("pessimistic", 0.0, "direct"))
        below, above = _outside_window(exact, pld, n, start, length)
        assert below <= w and above <= w


def test_narrow_windows_charge_the_wrap():
    # concentrated masses and many folds: the window is a small share of the support
    rng = np.random.default_rng(11)
    pld = _pld(rng.random(60) ** 20, -30)
    n = 40
    exact = pb.self_compose(pld, n, _policy("pessimistic", 0.0, "direct"))
    for direction in ("pessimistic", "optimistic"):
        out = pb.self_compose(pld, n, _policy(direction, 1e-6))
        assert out.support_size < exact.support_size // 2
        charged = out.truncated_high if direction == "pessimistic" else out.truncated_low
        plan = compose._plan([(pld, n)], _policy(direction, 1e-6))
        below, above = _outside_window(exact, pld, n, plan.start, plan.length)
        assert (above if direction == "pessimistic" else below) <= charged <= 1e-6 / n
        assert 0.0 < charged
        assert _on_its_side(out, exact, direction, _eps_sweep(pld, n))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 64),
    st.sampled_from(("pessimistic", "optimistic")),
    st.floats(1e-9, 1e-6),
)
def test_the_recorded_wrap_bounds_the_mass_the_window_leaves_out(seed, n, direction, budget):
    # concentrated masses, so windows are narrow and the certified wrap is
    # below W; the exact masses beyond the window on the charged side (high
    # for pessimistic, low for optimistic) must not exceed what was charged
    pld = _pld(np.random.default_rng(seed).random(60) ** 20, -30)
    policy = _policy(direction, budget)
    plan = compose._plan([(pld, n)], policy)
    exact = pb.self_compose(pld, n, _policy(direction, 0.0, "direct"))
    below, above = _outside_window(exact, pld, n, plan.start, plan.length)
    out = pb.self_compose(pld, n, policy)
    charged = out.truncated_high if direction == "pessimistic" else out.truncated_low
    assert (above if direction == "pessimistic" else below) <= charged <= budget / n
    assert _on_its_side(out, exact, direction, _eps_sweep(pld, n))


def test_a_window_shorter_than_the_single_step_folds_it():
    # a narrow bulk plus a flat floor of 1e-13 per point over 4001 points: the
    # two-fold window is shorter than the single step, and dropping the
    # entries beyond it (as rfft's cropping would) loses about 1e-10
    offsets = np.arange(-2000, 2001)
    finite = np.exp(-0.5 * (offsets / 3.0) ** 2)
    finite /= finite.sum()
    finite = finite * (1.0 - 4001e-13) + 1e-13
    pld = _pld(finite, -2000)
    single = pld.masses[1:-1]
    n = 2
    plan = compose._plan([(pld, n)], _policy("pessimistic", 1e-6))
    start, length = plan.start, plan.length
    assert length < single.size
    exact = pb.self_compose(pld, n, _policy("pessimistic", 0.0, "direct"))
    for direction in ("pessimistic", "optimistic"):
        out = pb.self_compose(pld, n, _policy(direction, 1e-6))
        assert abs(math.fsum(out.masses.tolist()) - 1.0) <= 1e-13
        assert _on_its_side(out, exact, direction, _eps_sweep(pld, n))


def test_a_heavy_extreme_atom_stays_in_the_window():
    # two points 1000 lattice steps apart, 0.9 of the mass on the top one: the
    # n-fold top point keeps 0.9^20 = 0.12 and must not wrap
    finite = np.zeros(1001)
    finite[0], finite[-1] = 0.1, 0.9
    pld = _pld(finite, -500)
    n = 20
    single = pld.masses[1:-1]
    full = n * (single.size - 1) + 1
    plan = compose._plan([(pld, n)], _policy("pessimistic", 1e-9))
    start, length = plan.start, plan.length
    assert start + length == full
    exact = pb.self_compose(pld, n, _policy("pessimistic", 0.0, "direct"))
    for direction in ("pessimistic", "optimistic"):
        out = pb.self_compose(pld, n, _policy(direction, 1e-9))
        assert out.finite_epsilons[-1] == exact.finite_epsilons[-1]
        # the wrapped low tail may land on the top point, by at most W, and
        # the optimistic charge may take W plus the round-off charge from it
        assert abs(out.masses[-2] - 0.9**n) <= 1e-9 / n + out.rounding_charge
        assert _on_its_side(out, exact, direction, _eps_sweep(pld, n))


def test_support_cap_is_checked_before_the_transform(monkeypatch):
    def fail(*args):
        raise AssertionError("transform ran")

    monkeypatch.setattr(compose, "_spectral_power", fail)
    pld = _pld(np.ones(64), 0)
    with pytest.raises(pb.RequestError, match="max_support"):
        pb.self_compose(pld, 8, pb.CompositionPolicy("pessimistic", max_support=64))


def test_direct_self_composition_never_truncates():
    # the budget sizes the fft window only; the reference keeps the full support
    rng = np.random.default_rng(5)
    pld = _pld(rng.random(60) ** 20, -30)
    n = 40
    full = n * (pld.support_size - 1) + 1
    out = pb.self_compose(pld, n, _policy("pessimistic", 1e-6, "direct"))
    assert out.support_size == full
    assert out.truncated_low == out.truncated_high == out.rounding_charge == 0.0
    capped = dataclasses.replace(_policy("pessimistic", 1e-6, "direct"), max_support=full - 1)
    with pytest.raises(pb.RequestError, match="max_support"):
        pb.self_compose(pld, n, capped)
    fft = pb.self_compose(pld, n, dataclasses.replace(capped, method="fft"))
    assert fft.support_size < full


def test_cross_infinity_self_composition_rejected():
    pld = _pld(np.ones(3), -1, neg=0.1, inf=0.1)
    with pytest.raises(pb.RequestError, match="-inf mass against \\+inf"):
        pb.self_compose(pld, 2, _policy("optimistic", 0.0))


def test_atoms_compose_in_closed_form():
    pld = _pld(np.ones(5), -2, inf=0.01)
    out = pb.self_compose(pld, 300, _policy("pessimistic", 0.0))
    assert out.mass_at_infinity == pytest.approx(1.0 - 0.99**300, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    sigma=st.floats(0.6, 4.0),
    n=st.integers(1, 3000),
    spacing=st.floats(2e-3, 2e-2),
    delta=st.floats(1e-9, 1e-3),
)
# two draws whose single steps' kink products summed past 1 + 7e-15, so the
# 1408-fold composition exited 3 ("PLD masses sum to 1.0000000000100044")
@example(sigma=0.7421875, n=1408, spacing=0.0078125, delta=1e-3)
@example(sigma=1.578125, n=1408, spacing=0.00390625, delta=9.936e-4)
def test_gaussian_bracket_contains_the_closed_form(sigma, n, spacing, delta):
    request = pb.AccountingRequest(
        mechanism=pb.MechanismSpec.gaussian(sigma),
        discretization=spacing,
        compositions=n,
        delta_target=delta,
    )
    report = pb.run_compute(request)
    exact = gaussian_epsilon_exact(sigma / math.sqrt(n), delta)
    assert report.eps_low <= exact + 1e-9
    assert exact <= report.eps_high + 1e-9


@pytest.mark.parametrize("direction", ["pessimistic", "optimistic"])
@pytest.mark.parametrize(
    "center, n, budget, placement",
    [
        (50.0, 40, 1e-6, "starts past the transform size and wraps"),
        (10.0, 4, 1e-6, "starts inside the transform and wraps"),
        (30.0, 3, 0.0, "covers the whole support and starts at 0"),
    ],
)
def test_the_window_is_the_rolled_power(monkeypatch, center, n, budget, placement, direction):
    # the window is taken from the circular power at start modulo its size;
    # compare it with np.roll, which takes the same modulo itself
    offsets = np.arange(61.0)
    pld = _pld(np.exp(-0.5 * ((offsets - center) / 3.0) ** 2), -20)
    single = pld.masses[1:-1]
    plan = compose._plan([(pld, n)], _policy(direction, budget))
    start, length = plan.start, plan.length
    size = next_fast_len(length, True)
    wraps = start % size + length > size
    assert (start >= size, wraps) == {
        "starts past the transform size and wraps": (True, True),
        "starts inside the transform and wraps": (False, True),
        "covers the whole support and starts at 0": (False, False),
    }[placement]
    expected = np.roll(compose._spectral_power([(single, n)], size), -start)[:length]
    np.maximum(expected, 0.0, out=expected)
    expected[expected < compose._MASS_FLOOR] = 0.0
    charged = []
    charge = compose._charge

    def record(finite, *args):
        charged.append(finite.copy())
        return charge(finite, *args)

    monkeypatch.setattr(compose, "_charge", record)
    out = pb.self_compose(pld, n, _policy(direction, budget))
    # a positive budget charges the window; a zero one returns it as is
    window = charged[0] if budget > 0.0 else out.masses[1:-1]
    assert len(charged) == (budget > 0.0)
    assert np.array_equal(window, expected)


#: taken before any test patches ``compose._binary_power``
_plain_binary_power = compose._binary_power


def plain_power(single: np.ndarray, n: int, size: int) -> np.ndarray:
    """The circular n-fold power with every spectrum entry powered, in place."""
    if single.size > size:
        single = np.pad(single, (0, -single.size % size)).reshape(-1, size).sum(axis=0)
    spectrum = _plain_binary_power(rfft(single, size), n, lambda a, b: np.multiply(a, b, out=a))
    return irfft(spectrum, size)


def _kept(power: np.ndarray) -> np.ndarray:
    """The masses ``self_compose`` keeps from a power: clipped at 0, flushed below the floor."""
    power = np.maximum(power, 0.0)
    power[power < compose._MASS_FLOOR] = 0.0
    return power


def _assert_flush_keeps_the_masses(single: np.ndarray, n: int, size: int) -> None:
    flushed = _kept(compose._spectral_power([(single, n)], size))
    plain = _kept(plain_power(single, n, size))
    if float(single.sum()) ** n >= 2.0**-900:
        # the largest power, mass^n at frequency 0, rounds far above the
        # powers the flush leaves out (below 2^-1022), so they vanish
        assert np.array_equal(flushed, plain)
    else:
        # near underflow the masses may move by less than the floor's charge
        assert np.abs(flushed - plain).sum() <= size * compose._MASS_FLOOR


def _transform_size(pld: pb.FinitePLD, n: int, budget: float) -> int:
    length = compose._plan([(pld, n)], _policy("pessimistic", budget)).length
    return next_fast_len(length, True)


class TestUnderflowFlush:
    @settings(max_examples=150, deadline=None)
    @given(lattice_plds(), st.integers(2, 3000), st.sampled_from((0.0, 1e-9, 1e-6)))
    def test_the_masses_equal_the_plain_power(self, pld, n, budget):
        single = pld.masses[1:-1]
        _assert_flush_keeps_the_masses(single, n, _transform_size(pld, n, budget))

    def test_near_underflow_the_masses_move_less_than_the_floor_charge(self):
        # a +inf atom of 0.2 leaves 0.8^3000 = 1e-291 of finite mass
        pld = _pld(np.random.default_rng(3).random(40) ** 5, -20, inf=0.2)
        single = pld.masses[1:-1]
        for n in (2500, 3000):
            _assert_flush_keeps_the_masses(single, n, _transform_size(pld, n, 0.0))

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
    @pytest.mark.parametrize("direction", ["pessimistic", "optimistic"])
    def test_real_grids_keep_their_masses_and_power_no_underflowing_entry(
        self, monkeypatch, spec, spacing, direction
    ):
        curve = pb.curve_for(spec)
        grid = pb.DiscretizationGrid.uniform(spacing, *pb.default_epsilon_range(curve, spacing))
        build = pb.pessimistic_pair if direction == "pessimistic" else pb.optimistic_pair
        pld = pb.pld_of(build(curve, grid))
        single = pld.masses[1:-1]
        bases = []

        def record(base, n, times):
            bases.append(base.copy())
            return _plain_binary_power(base, n, times)

        monkeypatch.setattr(compose, "_binary_power", record)
        for n in (16, 100, 1000):
            bases.clear()
            size = _transform_size(pld, n, 1e-9)
            _assert_flush_keeps_the_masses(single, n, size)
            (base,) = bases
            live = np.abs(base) >= compose._live_threshold(n)
            if base.size == size // 2 + 1:  # powered in place: the rest are zeros
                assert np.all(live | (base == 0.0))
            else:  # a gathered band
                assert np.all(live)


@pytest.mark.parametrize("n", [2, 100, 10**5])
def test_the_bound_charges_the_entries_set_to_zero(n):
    # a step without mass leaves no power and no error of it: what remains
    # is the output floor's charge and the zeroed entries' sqrt(size + 2) tau^n
    size = 4096
    bound = compose._rounding_bound([(np.zeros(8), n)], [0.0], size, np.zeros(size))
    zeroed = math.sqrt(size + 2) * compose._live_threshold(n) ** n
    assert bound >= (size * compose._MASS_FLOOR + zeroed) * (1.0 + 1e-6)
