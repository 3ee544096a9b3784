"""The mass gate of a composed distribution reads its own rounding charge.

A composition moves R, a bound on its round-off, to the safe side
(``compose._execute``), so any round-off e with ||e||_1 <= R is already paid
for.  A composed total that misses 1 by at most that charge is such a
round-off, and ``FinitePLD`` admits it; one that misses by more still fails
the gate.  Distributions without a charge meet the fixed 1e-11 as before.

At n = 10^5 the transform's zero-frequency term, one ulp off and raised to
the n-th power, puts the composed total near 1 + 1.1e-11, far inside a
charge of about 1e-7; those requests exited 3 before and now answer.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pldbounds as pb
from oracles import gaussian_epsilon_exact
from pldbounds import cli, compose, report
from pldbounds.pld import _MASS_ATOL, _exact_sum

_M = pb.MechanismSpec

#: Gaussian sigma = 300 over 10^5 steps: one Gaussian of sigma 300 / sqrt(10^5).
_G300 = pb.AccountingRequest(_M.gaussian(300.0), 2e-4, compositions=10**5, delta_target=1e-5)

#: The last ``bracket-audit`` case: DP-SGD's subsampled Gaussian at n = 10^5.
_SG08 = pb.AccountingRequest(
    _M.poisson_subsampled(_M.gaussian(0.8), 1e-3), 1e-3, compositions=10**5, delta_target=1e-5
)


def _composed(request: pb.AccountingRequest, direction: str) -> pb.FinitePLD:
    single = report._set_up(request).singles[direction]
    policy = pb.CompositionPolicy(direction, truncation_tail_mass=report._truncation_budget(request))
    return pb.self_compose(single, request.compositions, policy)


def test_the_gaussian_at_n_1e5_contains_the_closed_form():
    sigma = 300.0 / math.sqrt(_G300.compositions)
    exact = gaussian_epsilon_exact(sigma, _G300.delta_target)
    assert exact == pytest.approx(4.652984530968504, abs=1e-9)
    out = pb.run_compute(_G300)
    assert out.eps_low <= exact <= out.eps_high
    body = out.to_dict()["bounds"]
    for name, outcome in out.outcomes.items():
        assert 0.0 < outcome.rounding_charge < 1e-6, name
        assert body[name]["rounding_charge"] == outcome.rounding_charge


def test_the_subsampled_gaussian_at_n_1e5_answers():
    out = pb.run_compute(_SG08)
    assert math.isfinite(out.eps_low) and math.isfinite(out.eps_high)
    assert 0.0 < out.eps_low <= out.eps_high


def test_the_composed_total_lies_past_the_fixed_gate_and_inside_its_charge():
    composed = _composed(_G300, "pessimistic")
    defect = abs(_exact_sum(composed.masses) - 1.0)
    assert _MASS_ATOL < defect <= composed.rounding_charge


def test_a_charged_distribution_round_trips_through_json_bit_for_bit():
    composed = _composed(_G300, "pessimistic")
    payload = pb.pld_to_json_dict(composed)
    assert payload["rounding_charge"] == composed.rounding_charge
    back = pb.pld_from_json(pb.pld_to_json(composed))
    assert back.masses.tobytes() == composed.masses.tobytes()
    assert back.finite_epsilons.tobytes() == composed.finite_epsilons.tobytes()
    assert back.rounding_charge == composed.rounding_charge
    assert back.lattice_offset == composed.lattice_offset


def test_a_payload_beyond_its_stated_charge_is_refused():
    payload = {
        "discretization": 0.1, "epsilon_offset": 1, "masses": [0.5, 0.5 + 2e-9],
        "mass_at_infinity": 0.0, "rounding_charge": 1e-9,
    }
    with pytest.raises(pb.RequestError, match="'masses' and the atoms must sum to 1 within 1e-09"):
        pb.pld_from_json_dict(payload)
    back = pb.pld_from_json_dict({**payload, "rounding_charge": 3e-9})
    assert back.rounding_charge == 3e-9


def test_a_distribution_without_a_charge_keeps_the_fixed_gate():
    masses = np.array([0.0, 0.5, 0.5 + 2e-11, 0.0])
    with pytest.raises(pb.NumericalValidityError, match=r"^PLD masses sum to 1\.00000000002, expected 1$"):
        pb.FinitePLD(finite_epsilons=np.array([0.0, 0.1]), masses=masses, spacing=0.1)
    charged = pb.FinitePLD(
        finite_epsilons=np.array([0.0, 0.1]), masses=masses, spacing=0.1, rounding_charge=3e-11
    )
    assert charged.rounding_charge == 3e-11


@pytest.mark.parametrize("direction", ["pessimistic", "optimistic"])
def test_an_excess_of_twice_the_round_off_bound_at_n_1e5_exits_3(capsys, direction):
    bounds = []
    rounding_bound = compose._rounding_bound

    def inject(factors, masses, size, power):
        bound = rounding_bound(factors, masses, size, power)
        if not bounds:
            power[int(np.argmax(power))] += 2.0 * bound
        bounds.append(bound)
        return bound

    with mock.patch.object(compose, "_rounding_bound", inject):
        code = cli.main(
            [
                "compute", "--mechanism", "subsampled-gaussian", "--noise-scale", "0.8",
                "--sampling-prob", "1e-3", "--compositions", "100000", "--delta", "1e-5",
                "--discretization", "1e-3", "--estimate", direction,
            ]
        )
    err = capsys.readouterr().err
    assert code == 3
    assert "PLD masses sum to 1.0000" in err and ", expected 1 within the rounding charge" in err
    assert len(bounds) == 1 and bounds[0] > 1e-8


def _mechanisms():
    gaussian = st.floats(1.0, 20.0).map(_M.gaussian)
    laplace = st.floats(1.0, 20.0).map(_M.laplace)
    rr = st.floats(0.05, 1.0).map(_M.randomized_response)
    subsampled = st.builds(
        _M.poisson_subsampled, st.floats(0.6, 2.0).map(_M.gaussian), st.sampled_from((1e-3, 1e-2, 0.1))
    )
    return st.one_of(gaussian, laplace, rr, subsampled)


#: Composition counts 1 to 10^4, about ten to a decade.
_COUNTS = st.integers(0, 40).map(lambda k: round(10 ** (k / 10)))


@settings(max_examples=25, deadline=None)
@given(
    mechanism=_mechanisms(),
    spacing=st.sampled_from((0.005, 0.01, 0.02)),
    counts=st.lists(_COUNTS, min_size=2, max_size=2, unique=True).map(sorted),
    delta=st.sampled_from((1e-3, 1e-5, 1e-7, 1e-9)),
)
@example(
    mechanism=_M.poisson_subsampled(_M.gaussian(0.8), 1e-3), spacing=1e-3,
    counts=[10**4, 10**5], delta=1e-5,
)
def test_both_ends_are_monotone_in_n(mechanism, spacing, counts, delta):
    request = pb.AccountingRequest(mechanism, spacing, delta_target=delta)
    try:
        _, rows = pb.run_sweep(request, counts)
    except pb.NumericalValidityError as exc:
        # the pair's own P gate refuses some fine randomized-response grids;
        # no composition may be refused
        assume(mechanism.kind != "randomized_response" or not str(exc).startswith("P masses"))
        raise
    fewer, more = rows
    for end in ("eps_optimistic", "eps_pessimistic"):
        assert fewer[end] <= more[end], (end, fewer, more)
    assert more["eps_optimistic"] <= more["eps_pessimistic"]
