"""Lattice loss distributions: exact epsilon inversion, large epsilons, JSON.

Composed distributions carry only their lattice epsilons and masses, so
supports may exclude epsilon = 0 or lie beyond +/-700 (where e^epsilon
overflows).  The epsilon query inverts delta in closed form between two
support points; the properties below pin its contract on random lattices.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import pldbounds as pb
from oracles import gaussian_epsilon_exact, random_grid, random_pair, rr_product_delta
from pldbounds import cli
from pldbounds.grid import _SPACING_ATOL


@st.composite
def lattice_plds(draw) -> pb.FinitePLD:
    spacing = draw(st.floats(1e-3, 2.0))
    first = draw(st.floats(-2000.0, 2000.0))
    size = draw(st.integers(1, 40))
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size)))
    inf_mass = draw(st.one_of(st.just(0.0), st.floats(1e-12, 0.3)))
    neg_mass = draw(st.one_of(st.just(0.0), st.floats(1e-12, 0.3)))
    j0 = round(first / spacing)
    masses = np.concatenate(([neg_mass], raw * ((1.0 - inf_mass - neg_mass) / raw.sum()), [inf_mass]))
    return pb.FinitePLD(
        finite_epsilons=(j0 + np.arange(size)) * spacing,
        masses=masses,
        spacing=spacing,
        proper=neg_mass == 0.0,
    )


def _slope(pld: pb.FinitePLD, epsilon: float) -> float:
    """-d delta / d epsilon: the mass above epsilon, weighted by e^(epsilon - eps_i)."""
    above = pld.finite_epsilons > epsilon
    return float(np.sum(pld.masses[1:-1][above] * np.exp(epsilon - pld.finite_epsilons[above])))


@settings(max_examples=300, deadline=None)
@given(pld=lattice_plds(), share=st.floats(0.0, 1.0))
def test_epsilon_for_delta_is_the_smallest_epsilon_meeting_the_target(pld, share):
    top = pb.delta_at(pld, -math.inf)
    target = min(max(pld.mass_at_infinity + share * (top - pld.mass_at_infinity), 1e-300), 1.0)
    eps = pb.epsilon_for_delta(pld, target)
    assert pb.delta_at(pld, eps) <= target
    if math.isfinite(eps):
        step = 1e-12 * max(1.0, abs(eps))
        # delta_at sums up to 42 terms, so it cannot resolve a drop below
        # about 1e-14; where delta is that flat no float epsilon is "smaller"
        if _slope(pld, eps - step) * step > 1e-14:
            assert pb.delta_at(pld, eps - step) > target


@settings(max_examples=100, deadline=None)
@given(pld=lattice_plds())
def test_json_round_trip_is_exact(pld):
    back = pb.pld_from_json(pb.pld_to_json(pld))
    assert back.spacing == pld.spacing
    assert np.array_equal(back.finite_epsilons, pld.finite_epsilons)
    assert np.array_equal(back.masses, pld.masses)
    assert back.proper == pld.proper


_RECORDS = ("truncated_low", "truncated_high", "rounding_charge")


@pytest.mark.parametrize("direction", ["pessimistic", "optimistic"])
def test_json_keeps_a_compositions_truncation_and_rounding_records(direction):
    # the payload kept rounding_charge but dropped truncated_low and
    # truncated_high, so a reloaded composition read 0 for both and its
    # next compositions recorded 3.33e-10 where the original recorded 3.63e-10
    curve = pb.curve_for(pb.MechanismSpec.gaussian(2.0))
    grid = pb.DiscretizationGrid.uniform(0.01, *pb.default_epsilon_range(curve, 0.01))
    build = pb.pessimistic_pair if direction == "pessimistic" else pb.optimistic_pair
    single = pb.pld_of(build(curve, grid))
    assert not set(_RECORDS) & set(pb.pld_to_json_dict(single))
    policy = pb.CompositionPolicy(direction, truncation_tail_mass=1e-9)
    composed = pb.self_compose(single, 100, policy)
    truncated = "truncated_high" if direction == "pessimistic" else "truncated_low"
    assert getattr(composed, truncated) > 0.0
    back = pb.pld_from_json(pb.pld_to_json(composed))
    assert back.masses.tobytes() == composed.masses.tobytes()
    for name in _RECORDS:
        assert getattr(back, name) == getattr(composed, name), name
    again, reloaded = (pb.self_compose(pld, 3, policy) for pld in (composed, back))
    assert again.masses.tobytes() == reloaded.masses.tobytes()
    for name in _RECORDS:
        assert getattr(reloaded, name) == getattr(again, name), name


def test_pair_atoms_round_to_the_neighbouring_lattice_points():
    # atoms beyond either end of the lattice land on the +inf / -inf slots
    rng = np.random.default_rng(17)
    lattice = pb.DiscretizationGrid.uniform(0.5, -3.0, 3.0)
    grid_eps = list(lattice.finite_epsilons)
    for _ in range(20):
        pair = random_pair(rng, random_grid(rng))
        up = np.zeros(lattice.alphas.size)
        down = np.zeros(lattice.alphas.size)
        for e, m in zip(pair.grid.finite_epsilons, pair.p_masses[1:-1]):
            up[1 + sum(g < e for g in grid_eps)] += m
            down[sum(g <= e for g in grid_eps)] += m
        up[-1] += pair.p_masses[-1]
        down[-1] += pair.p_masses[-1]
        assert np.array_equal(pb.pb_pessimistic_pld(pair, lattice).masses, up)
        assert np.array_equal(pb.pb_optimistic_pld(pair, lattice).masses, down)


def test_randomized_response_bracket_meets_enumeration():
    # 16 folds of 1-randomized response: every loss value lies on the 0.01
    # lattice, so both estimates are exact and only the query can err
    request = pb.AccountingRequest(
        mechanism=pb.MechanismSpec.randomized_response(1.0),
        discretization=0.01,
        compositions=16,
        delta_target=1e-6,
    )
    report = pb.run_compute(request)
    root = brentq(lambda e: rr_product_delta(1.0, e, folds=16) - 1e-6, 0.0, 16.0, xtol=1e-15)
    assert abs(report.eps_low - root) <= 1e-12
    assert abs(report.eps_high - root) <= 1e-12


def test_gaussian_epsilon_beyond_alpha_range(capsys):
    # the composed support reaches epsilons where e^epsilon overflows
    flags = [
        "--mechanism", "gaussian", "--noise-scale", "1", "--discretization", "1e-3",
        "--compositions", "1000", "--delta", "1e-5",
    ]
    request = pb.AccountingRequest(
        mechanism=pb.MechanismSpec.gaussian(1.0),
        discretization=1e-3,
        compositions=1000,
        delta_target=1e-5,
    )
    report = pb.run_compute(request)
    exact = gaussian_epsilon_exact(1.0 / math.sqrt(1000.0), 1e-5)
    assert report.eps_low <= exact <= report.eps_high
    assert cli.main(["compute", *flags]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eps_low"] <= exact <= payload["eps_high"]


def _five_point(masses: np.ndarray, epsilons: np.ndarray | None = None) -> pb.FinitePLD:
    if epsilons is None:
        epsilons = np.arange(-2, 3) * 0.1
    return pb.FinitePLD(finite_epsilons=epsilons, masses=masses, spacing=0.1)


_MASSES = np.array([0.0, 0.1, 0.2, 0.4, 0.2, 0.1, 0.0])


def test_epsilons_off_the_lattice_are_rejected():
    epsilons = np.arange(-2, 3) * 0.1
    epsilons[3] += 0.5 * _SPACING_ATOL
    assert _five_point(_MASSES.copy(), epsilons.copy()).support_size == 5
    epsilons[3] += _SPACING_ATOL
    with pytest.raises(pb.RequestError, match="not consecutive multiples of the spacing"):
        _five_point(_MASSES.copy(), epsilons)


def test_the_grid_and_the_pld_share_one_lattice_check():
    # each gap is 5e-10 off the spacing, within the tolerance, but the
    # epsilons drift 1.95e-8 off the lattice by j = 39
    drifted = np.arange(40) * 0.1 + np.arange(40) * 5e-10
    with pytest.raises(pb.RequestError, match="not consecutive multiples of the spacing"):
        pb.DiscretizationGrid.from_epsilons(drifted, spacing=0.1)
    masses = np.concatenate(([0.0], np.full(40, 0.025), [0.0]))
    with pytest.raises(pb.RequestError, match="not consecutive multiples of the spacing"):
        pb.FinitePLD(finite_epsilons=drifted, masses=masses, spacing=0.1)
    nudged = np.arange(-2, 3) * 0.1
    nudged[3] += 0.5 * _SPACING_ATOL
    grid = pb.DiscretizationGrid.from_epsilons(nudged, spacing=0.1)
    assert grid.lattice_offset() == -2
    pair = pb.discretize_from_curve(np.maximum(1.0 - grid.alphas, 0.0), grid)
    assert pb.pld_of(pair).lattice_offset == -2


def test_masses_below_the_slack_are_rejected_and_nan_masses_too():
    masses = _MASSES.copy()
    masses[2] = -3e-15
    masses[3] += 0.2 + 3e-15
    with pytest.raises(pb.NumericalValidityError, match="negative probability mass in PLD"):
        _five_point(masses)
    masses[2] = np.nan
    with pytest.raises(pb.NumericalValidityError, match="PLD masses sum to nan"):
        _five_point(masses)


def test_the_callers_masses_stay_writable_and_unchanged():
    masses = _MASSES.copy()
    masses[2] = -5e-16
    masses[3] += 0.2 + 5e-16
    before = masses.copy()
    pld = _five_point(masses)
    assert masses.flags.writeable
    assert np.array_equal(masses, before)
    assert pld.masses is not masses and not pld.masses.flags.writeable
    # the slack is clamped in the PLD's own copy only
    assert pld.masses[2] == 0.0 and masses[2] == -5e-16


def test_the_callers_epsilons_stay_writable_and_the_plds_are_frozen():
    epsilons = np.arange(-2, 3) * 0.1
    pld = _five_point(_MASSES.copy(), epsilons)
    assert epsilons.flags.writeable
    assert not pld.finite_epsilons.flags.writeable
    # a view, not a copy
    assert np.shares_memory(pld.finite_epsilons, epsilons)
    with pytest.raises(ValueError, match="read-only"):
        pld.finite_epsilons[0] = -0.2
    # the grid and the pair keep read-only views of their inputs too
    finite = np.arange(-2, 3) * 0.1
    alphas = np.concatenate(([0.0], np.exp(finite), [math.inf]))
    grid_epsilons = np.concatenate(([-math.inf], finite, [math.inf]))
    grid = pb.DiscretizationGrid(alphas=alphas, epsilons=grid_epsilons, spacing=0.1)
    q = _MASSES.copy()
    q /= float(q[1:-1] @ alphas[1:-1])
    q[0] = 1.0 - q.sum()
    p = np.concatenate(([0.0], alphas[1:-1] * q[1:-1], [0.0]))
    pair = pb.DiscreteDominatingPair(grid=grid, p_masses=p, q_masses=q)
    for caller, kept in (
        (alphas, grid.alphas),
        (grid_epsilons, grid.epsilons),
        (p, pair.p_masses),
        (q, pair.q_masses),
    ):
        assert caller.flags.writeable
        assert not kept.flags.writeable
        assert np.shares_memory(kept, caller)


def test_lattices_beyond_two_to_the_53_are_refused():
    # 1e29 / 0.1 is far past 2^53: both epsilons used to be accepted as two
    # "lattice points" of equal value, and self_compose returned four more
    with pytest.raises(pb.RequestError, match="beyond"):
        pb.FinitePLD([1e29, 1e29], [0.0, 0.5, 0.5, 0.0], spacing=0.1)
    top = 2**53
    edge = pb.FinitePLD([top - 1.0, float(top)], [0.0, 0.5, 0.5, 0.0], spacing=1.0)
    assert edge.lattice_offset == top - 1
    # 2^53 + 1 rounds to 2^53: the second point would repeat the first
    with pytest.raises(pb.RequestError, match="beyond"):
        pb.FinitePLD([float(top), float(top)], [0.0, 0.5, 0.5, 0.0], spacing=1.0)
    low = pb.FinitePLD([-float(top)], [0.0, 1.0, 0.0], spacing=1.0)
    assert low.lattice_offset == -top
    # the trusted path of composition results is checked too
    half = pb.FinitePLD([2.0**52 - 1.0, 2.0**52], [0.0, 0.5, 0.5, 0.0], spacing=1.0)
    policy = pb.CompositionPolicy("pessimistic", method="direct")
    assert pb.self_compose(half, 2, policy).finite_epsilons[-1] == top
    with pytest.raises(pb.RequestError, match="beyond"):
        pb.self_compose(half, 3, policy)


_PAYLOAD = {"discretization": 0.1, "epsilon_offset": 1, "masses": [0.5, 0.5], "mass_at_infinity": 0.0}


@pytest.mark.parametrize(
    "key, value",
    [
        # a float offset used to be truncated; the rest were accepted
        ("epsilon_offset", 1.5),
        ("epsilon_offset", True),
        ("epsilon_offset", "2"),
        ("epsilon_offset", 10**30),
        ("discretization", "0.1"),
        ("discretization", True),
        ("masses", ["0.5", 0.5]),
        ("masses", [0.5, True]),
        ("mass_at_infinity", "0"),
        ("mass_at_neg_infinity", "0"),
        # these used to raise TypeError
        ("masses", None),
        ("mass_at_infinity", None),
        # non-finite numbers exited as "PLD masses sum to nan" (or inf), a
        # non-finite spacing and empty masses as "need a non-empty 1-D array
        # of finite epsilons", and an integer beyond float range as OverflowError
        ("masses", [math.nan, 1.0]),
        ("masses", [math.inf, 0.5]),
        ("masses", [-math.inf, 1.0]),
        ("masses", [10**400, 0.5]),
        ("masses", []),
        ("mass_at_infinity", math.nan),
        ("mass_at_infinity", math.inf),
        ("mass_at_neg_infinity", math.nan),
        ("mass_at_neg_infinity", -math.inf),
        ("discretization", math.nan),
        ("discretization", math.inf),
        # negative masses and totals off 1 exited 3 as "negative probability
        # mass in PLD" and "PLD masses sum to 0.9, expected 1"
        ("masses", [0.6, -0.1, 0.5]),
        ("masses", [1.0, -1e-20]),
        ("mass_at_infinity", -0.1),
        ("mass_at_neg_infinity", -1e-20),
        ("masses", [0.5, 0.4]),
        ("masses", [0.5, 0.5 + 2e-11]),
        ("rounding_charge", -1e-12),
        ("rounding_charge", math.nan),
        ("rounding_charge", math.inf),
        ("rounding_charge", True),
        ("rounding_charge", "1e-9"),
        ("truncated_low", -1e-12),
        ("truncated_low", math.nan),
        ("truncated_low", math.inf),
        ("truncated_low", True),
        ("truncated_low", "1e-9"),
        ("truncated_high", -1e-12),
        ("truncated_high", math.nan),
        ("truncated_high", -math.inf),
        ("truncated_high", False),
        ("truncated_high", None),
    ],
)
def test_malformed_json_payloads_are_refused_naming_the_key(key, value):
    text = json.dumps({**_PAYLOAD, key: value})
    with pytest.raises(pb.RequestError, match=f"'{key}'"):
        pb.pld_from_json(text)


@pytest.mark.parametrize("key", ["discretization", "epsilon_offset", "masses", "mass_at_infinity"])
def test_json_payloads_lacking_a_key_are_refused_naming_it(key):
    # a missing key used to raise KeyError
    payload = {name: value for name, value in _PAYLOAD.items() if name != key}
    with pytest.raises(pb.RequestError, match=f"'{key}'"):
        pb.pld_from_json_dict(payload)


def test_json_payloads_must_be_objects():
    # a list used to raise AttributeError
    with pytest.raises(pb.RequestError, match="JSON object"):
        pb.pld_from_json("[0.1, 1, [0.5, 0.5], 0.0]")
    assert pb.pld_from_json(json.dumps(_PAYLOAD)).lattice_offset == -1
