"""Work done once: the epsilon query's one-pass locate, the batched range search,
the per-step window and the lattices the library trusts.

Each shortcut keeps the answer of the code it replaced bit for bit.  That
code is kept here as the reference: the bisection over support indices for
``epsilon_for_delta`` and the scalar doubling plus bisection for
``default_epsilon_range``.
"""

import bisect
import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pldbounds as pb
from pldbounds import compose, grid, pld
from pldbounds.grid import _lattice, _lattice_offset

_M = pb.MechanismSpec

# ---------------------------------------------------------------------------
# epsilon_for_delta
# ---------------------------------------------------------------------------


def bisection_epsilon_for_delta(dist: pb.FinitePLD, delta_target: float) -> float:
    """``epsilon_for_delta`` as it was before the one-pass locate: bisection over the support."""
    if dist.mass_at_infinity > delta_target:
        return math.inf
    if pld._mass_total(dist.masses[1:], delta_target) <= delta_target:
        return -math.inf
    eps_f = dist.finite_epsilons
    k = bisect.bisect_left(
        range(eps_f.size), True, key=lambda i: pb.delta_at(dist, float(eps_f[i])) <= delta_target
    )
    top = float(eps_f[k])
    above = dist.masses[1 + k :]
    a = pld._exact_sum(above)
    t = float(np.dot(above[:-1], np.exp(top - eps_f[k:])))
    lower = float(eps_f[k - 1]) if k else -math.inf
    if a > delta_target and t > 0.0:
        eps = min(max(top + math.log((a - delta_target) / t), lower), top)
    else:
        eps = lower if k else top
    stride = 0.0
    while pb.delta_at(dist, eps) > delta_target:
        stride = max(2.0 * stride, math.ulp(eps))
        eps = min(eps + stride, top)
    return eps


@st.composite
def plds(draw) -> pb.FinitePLD:
    """Lattice and non-lattice PLDs, size 1 up, with zero runs and both atoms."""
    size = draw(st.one_of(st.integers(1, 3), st.integers(1, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    finite = rng.random(size) ** rng.uniform(1.0, 30.0)
    finite[rng.random(size) < draw(st.sampled_from((0.0, 0.3)))] = 0.0
    if not finite.any():
        finite[rng.integers(size)] = 1.0
    inf_mass = draw(st.one_of(st.just(0.0), st.floats(1e-12, 0.4)))
    neg_mass = draw(st.one_of(st.just(0.0), st.floats(1e-12, 0.3)))
    finite *= (1.0 - inf_mass - neg_mass) / finite.sum()
    masses = np.concatenate(([neg_mass], finite, [inf_mass]))
    if draw(st.booleans()):
        spacing = draw(st.floats(1e-4, 2.0))
        j0 = round(draw(st.floats(-900.0, 900.0)) / spacing)
        epsilons = (j0 + np.arange(size)) * spacing
        return pb.FinitePLD(epsilons, masses, spacing=spacing, proper=neg_mass == 0.0)
    gaps = rng.uniform(1e-3, draw(st.sampled_from((0.01, 1.0, 40.0))), size)
    epsilons = draw(st.floats(-300.0, 300.0)) + np.cumsum(gaps)
    return pb.FinitePLD(epsilons, masses, proper=neg_mass == 0.0)


def _targets(dist: pb.FinitePLD, share: float, index: int) -> list[float]:
    """At the +inf atom, at the total, at a share between, and at a support point's delta."""
    total = pb.delta_at(dist, -math.inf)
    m_inf = dist.mass_at_infinity
    at_point = pb.delta_at(dist, float(dist.finite_epsilons[index % dist.support_size]))
    targets = [m_inf, total, m_inf + share * (total - m_inf), at_point]
    return [t for t in targets if 0.0 < t <= 1.0]


@settings(max_examples=400, deadline=None)
@given(plds(), st.floats(0.0, 1.0), st.integers(0, 10**6))
def test_epsilon_for_delta_equals_the_bisection(dist, share, index):
    for target in _targets(dist, share, index):
        expected = bisection_epsilon_for_delta(dist, target)
        assert pb.epsilon_for_delta(dist, target).hex() == expected.hex(), target


@settings(max_examples=150, deadline=None)
@given(plds(), st.floats(0.0, 1.0), st.integers(0, 10**6), st.integers(0, 10**6))
def test_a_wrong_locate_falls_back_to_the_bisection(dist, share, index, wrong):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pld, "_first_meeting", lambda d, t: wrong % d.support_size)
        for target in _targets(dist, share, index):
            expected = bisection_epsilon_for_delta(dist, target)
            assert pb.epsilon_for_delta(dist, target).hex() == expected.hex(), target


def _composed(spec, spacing: float, n: int, direction: str) -> pb.FinitePLD:
    curve = pb.curve_for(spec)
    uniform = pb.DiscretizationGrid.uniform(spacing, *pb.default_epsilon_range(curve, spacing))
    build = pb.pessimistic_pair if direction == "pessimistic" else pb.optimistic_pair
    single = pb.pld_of(build(curve, uniform))
    return pb.self_compose(single, n, pb.CompositionPolicy(direction, truncation_tail_mass=1e-9))


@pytest.mark.parametrize("direction", ["pessimistic", "optimistic"])
@pytest.mark.parametrize(
    "spec, spacing, n",
    [
        (_M.gaussian(2.0), 1e-3, 100),
        (_M.poisson_subsampled(_M.gaussian(1.0), 0.01), 0.005, 1000),
        (_M.randomized_response(1.0), 0.01, 16),
    ],
    ids=["gaussian", "subsampled-gaussian", "randomized-response"],
)
def test_composed_queries_equal_the_bisection_within_four_delta_evaluations(
    monkeypatch, spec, spacing, n, direction
):
    dist = _composed(spec, spacing, n, direction)
    calls = []
    delta_at = pld.delta_at
    monkeypatch.setattr(pld, "delta_at", lambda *args: calls.append(1) or delta_at(*args))
    for target in (1e-3, 1e-5, 1e-7, 1e-9):
        calls.clear()
        eps = pb.epsilon_for_delta(dist, target)
        assert len(calls) <= 4, (target, len(calls))
        assert eps.hex() == bisection_epsilon_for_delta(dist, target).hex()


_COMPOSED_CASES = pytest.mark.parametrize(
    "spec, spacing, n",
    [
        (_M.gaussian(2.0), 1e-3, 100),
        (_M.poisson_subsampled(_M.gaussian(1.0), 0.01), 0.005, 1000),
        (_M.randomized_response(1.0), 0.01, 16),
    ],
    ids=["gaussian", "subsampled-gaussian", "randomized-response"],
)


def _counted_reads(monkeypatch) -> list[float]:
    """The epsilons of every ``delta_at`` call the library makes from now on (not the oracle's)."""
    reads = []
    delta_at = pld.delta_at
    monkeypatch.setattr(pld, "delta_at", lambda dist, eps: reads.append(eps) or delta_at(dist, eps))
    return reads


@pytest.mark.parametrize("direction", ["pessimistic", "optimistic"])
@_COMPOSED_CASES
def test_a_certified_locate_reads_neither_of_its_points(monkeypatch, spec, spacing, n, direction):
    # the locate's own pass bounds delta at eps_k and eps_{k-1}; where those
    # bounds clear the target by delta_at's rounding, only the step-up reads
    dist = _composed(spec, spacing, n, direction)
    eps_f = dist.finite_epsilons
    slack = 1.0 + 6.0 * (eps_f.size + 8) * pld._U
    reads = _counted_reads(monkeypatch)
    certified = 0
    for target in (1e-3, 1e-5, 1e-7, 1e-9):
        k, high, low = pld._first_meeting(dist, target)
        reads.clear()
        eps = pb.epsilon_for_delta(dist, target)
        if high * slack <= target and (k == 0 or low > target * slack):
            certified += 1
            assert float(eps_f[k]) not in reads and (k == 0 or float(eps_f[k - 1]) not in reads)
        assert eps.hex() == bisection_epsilon_for_delta(dist, target).hex()
    assert certified


def _perturbed(dist: pb.FinitePLD, rng: np.random.Generator) -> pb.FinitePLD:
    """``dist`` with each positive mass moved by -2 to 2 ulps."""
    masses = dist.masses.copy()
    steps = rng.integers(-2, 3, masses.size) * (masses > 0.0)
    for _ in range(2):
        moving = steps != 0
        masses[moving] = np.nextafter(masses[moving], np.where(steps[moving] > 0, np.inf, -np.inf))
        steps -= np.sign(steps)
    return pb.FinitePLD(
        dist.finite_epsilons, masses, spacing=dist.spacing, proper=dist.proper,
        rounding_charge=dist.rounding_charge,
    )


@pytest.mark.parametrize("direction", ["pessimistic", "optimistic"])
@_COMPOSED_CASES
def test_composed_queries_keep_their_read_budget_when_the_last_bits_move(
    monkeypatch, spec, spacing, n, direction
):
    # the read count must not hang on where the root estimate lands within a
    # few ulps: 16 draws of the composition's masses, each moved by 2 ulps at most
    dist = _composed(spec, spacing, n, direction)
    rng = np.random.default_rng(2026)
    reads = _counted_reads(monkeypatch)
    for _ in range(16):
        moved = _perturbed(dist, rng)
        for target in (1e-3, 1e-5, 1e-7, 1e-9):
            reads.clear()
            eps = pb.epsilon_for_delta(moved, target)
            assert len(reads) <= 4, (target, len(reads))
            assert eps.hex() == bisection_epsilon_for_delta(moved, target).hex()


# ---------------------------------------------------------------------------
# default_epsilon_range
# ---------------------------------------------------------------------------


def scalar_epsilon_range(curve, spacing: float) -> tuple[float, float]:
    """``default_epsilon_range`` as it was before batching: one curve call per step."""

    def smallest_step(predicate) -> int:
        j = 1
        while not predicate(j):
            j *= 2
            if j > grid._RANGE_MAX_STEPS:
                raise pb.NumericalValidityError("curve tail does not decay")
        lo, hi = j // 2, j
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if predicate(mid):
                hi = mid
            else:
                lo = mid
        return hi

    threshold = grid.CURVE_TAIL_THRESHOLD
    j_hi = smallest_step(lambda j: curve.value(math.exp(j * spacing)) < threshold)
    j_lo = smallest_step(lambda j: curve.gap(math.exp(-j * spacing)) < threshold)
    return (-j_lo * spacing, j_hi * spacing)


_SPECS = {
    "gaussian-0.5": _M.gaussian(0.5),
    "gaussian-2": _M.gaussian(2.0),
    "gaussian-80": _M.gaussian(80.0),
    "laplace-0.5": _M.laplace(0.5),
    "laplace-5": _M.laplace(5.0),
    "rr-0.1": _M.randomized_response(0.1),
    "rr-1": _M.randomized_response(1.0),
    "rr-4": _M.randomized_response(4.0),
    "subsampled-gaussian-both": _M.poisson_subsampled(_M.gaussian(1.0), 0.01),
    "subsampled-gaussian-add": _M.poisson_subsampled(_M.gaussian(0.8), 1e-3, "add"),
    "subsampled-gaussian-remove": _M.poisson_subsampled(_M.gaussian(0.8), 0.3, "remove"),
    "subsampled-laplace-both": _M.poisson_subsampled(_M.laplace(5.0), 0.01),
    "subsampled-rr-both": _M.poisson_subsampled(_M.randomized_response(2.0), 0.1),
}


@pytest.mark.parametrize("spacing", [1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 0.01, 0.02, 0.05])
@pytest.mark.parametrize("name", _SPECS)
def test_the_batched_range_equals_the_scalar_search(name, spacing):
    curve = pb.curve_for(_SPECS[name])
    assert pb.default_epsilon_range(curve, spacing) == scalar_epsilon_range(curve, spacing)


def test_a_curve_that_does_not_decay_is_refused():
    flat = pb.PiecewiseLinearCurve([0.0, 1.0, 2.0], [1.0, 0.3, 0.2])
    # small enough that the scalar search never overflows math.exp
    with pytest.raises(pb.NumericalValidityError, match="does not decay"):
        scalar_epsilon_range(flat, 1e-6)
    for spacing in (1e-6, 0.01):
        with pytest.raises(pb.NumericalValidityError, match="does not decay"):
            pb.default_epsilon_range(flat, spacing)


def test_uniform_refuses_a_lattice_too_long_to_allocate():
    with pytest.raises(pb.RequestError, match="holds 10000000001 points, more than 134217729"):
        pb.DiscretizationGrid.uniform(1e-300, 0.0, 1e-290)
    with pytest.raises(pb.RequestError, match="holds inf points"):
        pb.DiscretizationGrid.uniform(1e-300, -1e10, 1e10)
    with pytest.raises(pb.RequestError, match="more than 134217729"):
        pb.DiscretizationGrid.uniform(1.0, -(2.0**26), 2.0**26 + 1.0)


# ---------------------------------------------------------------------------
# per-step window and trusted lattices
# ---------------------------------------------------------------------------


def _count_lattice_calls(monkeypatch) -> list[int]:
    """The number of lattice points of each ``compose._log_mgf`` call made from now on."""
    calls = []
    log_mgf = compose._log_mgf
    monkeypatch.setattr(compose, "_log_mgf", lambda *args: calls.append(args[-1].size) or log_mgf(*args))
    return calls


def test_the_window_moments_are_computed_once_per_single_step(monkeypatch):
    single = _composed(_M.gaussian(2.0), 0.05, 1, "pessimistic")
    calls = _count_lattice_calls(monkeypatch)
    policy = pb.CompositionPolicy("pessimistic", truncation_tail_mass=1e-9)
    for n in (10, 100, 1000):
        pb.self_compose(single, n, policy)
    made = len(calls)
    assert made
    # the lattice values are memoised on the step, so the same counts read them back
    for n in (1000, 100, 10):
        pb.self_compose(single, n, policy)
    assert len(calls) == made
    fresh = pb.FinitePLD(single.finite_epsilons, single.masses, spacing=single.spacing)
    assert compose._step(fresh) is not compose._step(single)


def test_a_readme_sweep_reads_its_window_edges_from_few_lattice_calls(monkeypatch):
    # 10 counts times 4 estimators make 80 window edges, which a Newton
    # search per edge served with 424 evaluations of log M
    calls = _count_lattice_calls(monkeypatch)
    request = pb.AccountingRequest(
        _M.poisson_subsampled(_M.gaussian(1.0), 0.01), 0.005, delta_target=1e-5, baseline="pb"
    )
    pb.run_sweep(request, list(range(100, 1001, 100)))
    assert 0 < len(calls) <= 120


def test_a_gaussian_step_finds_each_window_edge_in_one_lattice_call(monkeypatch):
    # the Gaussian start is the lattice minimum, and the first block holds its neighbours
    calls = _count_lattice_calls(monkeypatch)
    pb.run_compute(pb.AccountingRequest(_M.gaussian(2.0), 1e-3, compositions=100, delta_target=1e-6))
    assert calls == [3] * 4


def _public(dist: pb.FinitePLD) -> pb.FinitePLD:
    return pb.FinitePLD(dist.finite_epsilons, dist.masses, spacing=dist.spacing, proper=dist.proper)


@pytest.mark.parametrize("direction", ["pessimistic", "optimistic"])
def test_trusted_lattices_equal_what_the_public_check_gives(direction):
    curve = pb.curve_for(_M.poisson_subsampled(_M.gaussian(1.0), 0.01))
    uniform = pb.DiscretizationGrid.uniform(0.01, *pb.default_epsilon_range(curve, 0.01))
    build = pb.pessimistic_pair if direction == "pessimistic" else pb.optimistic_pair
    baseline = pb.pb_pessimistic_pld if direction == "pessimistic" else pb.pb_optimistic_pld
    single = pb.pld_of(build(curve, uniform))
    policy = pb.CompositionPolicy(direction, truncation_tail_mass=1e-9)
    made = [
        single,
        baseline(curve, uniform),
        pb.self_compose(single, 50, policy),
        pb.self_compose(single, 50, dataclasses.replace(policy, truncation_tail_mass=0.0)),
        pb.convolve(single, single, policy),
        pb.pld_from_json(pb.pld_to_json(single)),
        compose.point_mass_pld(0.01),
    ]
    for dist in made:
        assert dist.lattice_offset == _public(dist).lattice_offset
        assert dist.lattice_offset == _lattice_offset(dist.finite_epsilons, dist.spacing)
        lattice = _lattice(dist.lattice_offset, dist.support_size, dist.spacing)
        assert np.array_equal(dist.finite_epsilons, lattice)
    assert uniform.lattice_offset() == _lattice_offset(uniform.finite_epsilons, 0.01)


def test_the_public_constructor_still_checks_every_lattice():
    uniform = pb.DiscretizationGrid.uniform(0.1, -3.0, 3.0)
    single = pb.pld_of(pb.optimistic_pair(pb.GaussianCurve(2.0), uniform))
    shifted = single.finite_epsilons + 0.05
    with pytest.raises(pb.RequestError, match="not consecutive multiples of the spacing"):
        pb.FinitePLD(shifted, single.masses, spacing=0.1)
    with pytest.raises(pb.RequestError, match="not consecutive multiples of the spacing"):
        dataclasses.replace(single, finite_epsilons=shifted)


@pytest.mark.parametrize(
    "spacing, message, payload_message",
    [
        (0.0, "spacing must be positive and finite", "spacing must be positive and finite"),
        (-0.1, "spacing must be positive and finite", "spacing must be positive and finite"),
        (math.nan, "finite epsilons", "'discretization' must be a finite number"),
        (math.inf, "finite epsilons", "'discretization' must be a finite number"),
    ],
)
def test_a_trusted_lattice_still_needs_a_positive_finite_spacing(spacing, message, payload_message):
    payload = pb.pld_to_json_dict(compose.point_mass_pld(0.1))
    payload["discretization"] = spacing
    payload["epsilon_offset"] = 3
    with pytest.raises(pb.RequestError, match=payload_message):
        pb.pld_from_json_dict(payload)
    # the payload reader refuses a non-finite spacing itself, naming the key,
    # before the lattice it builds would
    masses = compose.point_mass_pld(0.1).masses.copy()
    with pytest.raises(pb.RequestError, match=message):
        pld._lattice_pld(spacing, -3, masses)


def test_the_public_constructor_takes_no_offset():
    public = [f.name for f in dataclasses.fields(pb.FinitePLD) if f.init]
    assert public == [
        "finite_epsilons", "masses", "spacing", "proper",
        "truncated_low", "truncated_high", "rounding_charge",
    ]
    assert list(inspect.signature(pb.FinitePLD).parameters) == public
