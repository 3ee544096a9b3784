"""One number rule at every public door.

``errors._is_finite_real`` decides every real a caller hands in and
``compose._composition_count`` every integer.  Each door below refuses a
bool, a numeric string, None, NaN and +-inf (where it needs a finite
number) with a ``RequestError`` that names the argument, and still answers
a number it took before with the same bits.
"""

import math

import numpy as np
import pytest

import pldbounds as pb
from pldbounds import cli, compose

_GRID = pb.DiscretizationGrid.uniform(0.1, -3.0, 3.0)
_CURVE = pb.GaussianCurve(1.0)
_PLD = pb.pld_of(pb.pessimistic_pair(_CURVE, _GRID))
_MASSES = [0.0, 0.5, 0.5, 0.0]


def _finite_pld(**fields):
    return pb.FinitePLD([0.0, 0.1], _MASSES, **{"spacing": 0.1, **fields})


#: door -> (call with the value, what the message names, a value it accepts,
#: the ``BAD`` values it takes by design: +-inf for ``delta_at``, and None
#: for no lattice, the default gamma or an unset config key).
DOORS = {
    "policy-budget": (lambda v: pb.CompositionPolicy("pessimistic", truncation_tail_mass=v), "truncation_tail_mass", 1e-9, ()),
    "policy-max-support": (lambda v: pb.CompositionPolicy("pessimistic", max_support=v), "max_support", 64, ()),
    "epsilon-for-delta": (lambda v: pb.epsilon_for_delta(_PLD, v), "delta target", 1e-5, ()),
    "delta-at": (lambda v: pb.delta_at(_PLD, v), "epsilon", 0.5, ("inf", "-inf")),
    "default-epsilon-range": (lambda v: pb.default_epsilon_range(_CURVE, v), "spacing", 0.1, ()),
    "uniform-spacing": (lambda v: pb.DiscretizationGrid.uniform(v, -1.0, 1.0), "spacing", 0.1, ()),
    "uniform-low": (lambda v: pb.DiscretizationGrid.uniform(0.1, v, 1.0), "epsilon range", -1.0, ()),
    "uniform-high": (lambda v: pb.DiscretizationGrid.uniform(0.1, -1.0, v), "epsilon range", 1.0, ()),
    "finite-pld-spacing": (lambda v: _finite_pld(spacing=v), "spacing", 0.1, ("none",)),
    "point-mass-pld": (compose.point_mass_pld, "spacing", 0.1, ()),
    "truncated-low": (lambda v: _finite_pld(truncated_low=v), "truncated_low", 1e-12, ()),
    "truncated-high": (lambda v: _finite_pld(truncated_high=v), "truncated_high", 1e-12, ()),
    "rounding-charge": (lambda v: _finite_pld(rounding_charge=v), "rounding_charge", 1e-12, ()),
    "derivative-at": (lambda v: pb.derivative_at(_CURVE, v, "left"), "alpha", 0.5, ()),
    "fixture-epsilon": (pb.non_uniqueness_fixture, "epsilon", 1.0, ()),
    "fixture-gamma": (lambda v: pb.non_uniqueness_fixture(1.0, v), "gamma", 0.01, ("none",)),
    "config-delta": (lambda v: cli._config_value("delta", "delta", v), "config key 'delta'", 1e-5, ("none",)),
    "config-grid-range": (lambda v: cli._config_value("grid_range", "grid_range", [-1.0, v]), "config key 'grid_range'", 1.0, ()),
}

BAD = {"true": True, "string": "0.1", "none": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _cases():
    for door, (_, _, _, takes) in DOORS.items():
        for label, value in BAD.items():
            if label not in takes:
                yield pytest.param(door, value, id=f"{door}-{label}")


@pytest.mark.parametrize("door, value", _cases())
def test_every_door_refuses_what_is_not_a_number_naming_the_argument(door, value):
    call, name, _, _ = DOORS[door]
    with pytest.raises(pb.RequestError, match=name):
        call(value)


def _bits(result):
    """A float answer's bits, a tuple's element by element; any other answer reads as answered."""
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, tuple):
        return tuple(map(_bits, result))
    return "answered"


@pytest.mark.parametrize("door", list(DOORS))
def test_every_door_answers_a_number_as_before(door):
    # a numpy scalar is a number as much as a Python one is
    call, _, good, _ = DOORS[door]
    numpy_good = np.float64(good) if isinstance(good, float) else np.int64(good)
    assert _bits(call(good)) == _bits(call(numpy_good))


def test_delta_at_still_takes_both_infinities():
    assert pb.delta_at(_PLD, math.inf) == _PLD.mass_at_infinity
    assert pb.delta_at(_PLD, -math.inf) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"max_support": 2.5}, "max_support must be an integer, got 2.5"),
        ({"max_support": 1}, "max_support must be at least 2, got 1"),
        ({"truncation_tail_mass": 1e-3}, r"truncation_tail_mass must lie in \[0, 1e-6\], got 0.001"),
    ],
)
def test_policy_numbers_are_refused_in_range_too(fields, message):
    with pytest.raises(pb.RequestError, match=message):
        pb.CompositionPolicy("pessimistic", **fields)


def test_a_nan_support_cap_no_longer_switches_the_cap_off():
    # max_support=nan used to be accepted and let a 12,500-point window through
    step = pb.pld_of(pb.pessimistic_pair(_CURVE, pb.DiscretizationGrid.uniform(0.01, *pb.default_epsilon_range(_CURVE, 0.01))))
    with pytest.raises(pb.RequestError, match="exceeds max_support 64"):
        pb.self_compose(step, 50, pb.CompositionPolicy("pessimistic", max_support=64))
    with pytest.raises(pb.RequestError, match="max_support must be an integer, got nan"):
        pb.CompositionPolicy("pessimistic", max_support=math.nan)


def test_a_nan_charge_no_longer_composes_into_the_report():
    with pytest.raises(pb.RequestError, match="truncated_high must be a finite number >= 0, got nan"):
        _finite_pld(truncated_high=math.nan)
    with pytest.raises(pb.RequestError, match="rounding_charge must be a finite number >= 0, got -1e-12"):
        _finite_pld(rounding_charge=-1e-12)
