"""``pld._exact_sum`` against ``math.fsum``: the same float, bit for bit.

Both round the exact sum correctly, so they must agree on every input:
signs of zero included, and with the same value or the same exception on
infinities, NaNs and overflow.  Sizes from ``_EXACT_SUM_MIN`` on take the
binned path; shorter arrays go to fsum itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pldbounds.pld import _EXACT_SUM_MIN, _exact_sum

#: Values that are easy to get wrong: zeros of both signs, the least
#: subnormal, the least normal, a subnormal with a full mantissa, masses'
#: negative slack, and magnitudes at the ends of the range.
_SPECIAL = (
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    2.225073858507201e-308,
    -1e-15,
    -3e-16,
    1e-300,
    -1e300,
    1e300,
)


def _outcome(total, values: np.ndarray) -> tuple:
    """The float's bits, or the exception's type and message."""
    try:
        return ("value", float(total(values)).hex())
    except (OverflowError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _fsum(values: np.ndarray) -> float:
    return math.fsum(values.tolist())


@st.composite
def arrays(draw) -> np.ndarray:
    """Float arrays of 0 to 2e5 entries, as views with a random stride."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # the binned path, up to 2e5 values, or fsum's own range
    low, high = draw(st.sampled_from(((_EXACT_SUM_MIN, 50_000), (0, 200_000), (0, _EXACT_SUM_MIN))))
    size = int(rng.integers(low, high + 1))
    kind = draw(st.sampled_from(("masses", "signed", "subnormal", "positive")))
    if kind == "masses":
        # probabilities of a wide range, some negative by up to 1e-15
        values = rng.random(size) ** draw(st.floats(1.0, 60.0))
        values /= max(values.sum(), 1e-300)
        slack = rng.random(size) < draw(st.floats(0.0, 0.2))
        values[slack] = -1e-15 * rng.random(int(slack.sum()))
    elif kind == "subnormal":
        values = rng.integers(-(2**52), 2**52, size) * 5e-324
    else:
        low = draw(st.integers(-300, 300))
        values = 10.0 ** rng.uniform(low, draw(st.integers(low, 300)), size)
        if kind == "signed":
            values *= rng.choice((-1.0, 1.0), size)
    extra = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_SPECIAL),
                st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True),
            ),
            max_size=12,
        )
    )
    if size:
        values[rng.integers(0, size, len(extra))] = extra
    start = draw(st.integers(0, 3))
    return values[start :: draw(st.sampled_from((1, 2, 3, -1, -5)))]


@settings(max_examples=300, deadline=None)
@given(arrays())
def test_the_sum_is_fsums_bit_for_bit(values):
    assert _outcome(_exact_sum, values) == _outcome(_fsum, values)


@pytest.mark.parametrize("size", [0, 1, _EXACT_SUM_MIN - 1, _EXACT_SUM_MIN, 49_157])
@pytest.mark.parametrize(
    "fill",
    [
        (0.0,),
        (-0.0,),
        (1.0, -1.0),
        (1.0 + 2.0**-40, -1.0),
        (math.inf,),
        (-math.inf,),
        (math.nan,),
        (math.inf, -math.inf),
        (1e308, 1e308, -1e308),
        (1e308, 1e308, -1e308, -1e308),
        (1.7e308, 0.1),
        (5e-324, -0.0),
    ],
    ids=["zeros", "negative-zeros", "cancelling", "high-halves-cancel", "inf", "minus-inf", "nan",
         "inf-minus-inf", "overflowing", "overflowing-then-cancelling", "near-overflow",
         "subnormal"],
)
def test_special_values_behave_as_in_fsum(size, fill):
    # the fill repeats over the array, the last copy cut short
    values = np.resize(np.array(fill), size)
    if size > _EXACT_SUM_MIN:
        values[: size // 2] = np.random.default_rng(size).random(size // 2)
    assert _outcome(_exact_sum, values) == _outcome(_fsum, values)
