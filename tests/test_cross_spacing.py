"""Brackets at different spacings of one request must overlap.

Every spacing's bracket [eps_low, eps_high] is proven, so the largest low
end over the spacings cannot exceed the smallest high end.  This oracle
needs no closed form, so it covers the mechanisms that have none:
subsampled Gaussian and Laplace, and Laplace under composition.  Six fixed
rows check it, and a hypothesis property checks it over random requests.
"""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import pldbounds as pb

_M = pb.MechanismSpec

#: (label, mechanism, compositions, delta, spacings); each row answers in
#: about 0.03 s.
ROWS = [
    ("laplace-1e-5", _M.laplace(1.0), 100, 1e-5, (0.04, 0.02, 0.01)),
    ("laplace-1e-9", _M.laplace(1.0), 100, 1e-9, (0.04, 0.02, 0.01)),
    ("subsampled-gaussian", _M.poisson_subsampled(_M.gaussian(1.0), 0.01), 500, 1e-5, (0.01, 0.005, 0.0025)),
    ("subsampled-laplace", _M.poisson_subsampled(_M.laplace(5.0), 0.01), 200, 1e-5, (1e-3, 5e-4, 2.5e-4)),
    ("subsampled-gaussian-small-q", _M.poisson_subsampled(_M.gaussian(0.8), 1e-3), 1000, 1e-5, (0.004, 0.002, 0.001)),
    ("randomized-response", _M.randomized_response(1.0), 16, 1e-5, (0.02, 0.01)),
]


def _bracket(mechanism, spacing, n, delta):
    """[eps_low, eps_high] of one request, which must be in order."""
    report = pb.run_compute(pb.AccountingRequest(mechanism, spacing, compositions=n, delta_target=delta))
    assert report.eps_low <= report.eps_high
    return report.eps_low, report.eps_high


def _assert_overlap(brackets):
    assert max(low for low, _ in brackets) <= min(high for _, high in brackets), brackets


@pytest.mark.parametrize("mechanism, n, delta, spacings", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_brackets_across_spacings_overlap(mechanism, n, delta, spacings):
    _assert_overlap([_bracket(mechanism, spacing, n, delta) for spacing in spacings])


#: Mechanism families of the property: a strategy for the mechanism and the
#: family's base spacing s; each request runs at s, s/2 and s/4.
FAMILIES = {
    "laplace": (st.builds(_M.laplace, st.floats(0.5, 5.0)), 0.04),
    "subsampled-gaussian": (
        st.builds(lambda s, q: _M.poisson_subsampled(_M.gaussian(s), q), st.floats(0.6, 2.0), st.sampled_from([1e-3, 1e-2])),
        0.01,
    ),
    "subsampled-laplace": (st.builds(lambda b: _M.poisson_subsampled(_M.laplace(b), 0.01), st.floats(1.0, 5.0)), 1e-3),
    "randomized-response": (st.builds(_M.randomized_response, st.floats(0.3, 2.0)), 0.02),
    "gaussian": (st.builds(_M.gaussian, st.floats(0.5, 5.0)), 0.02),
}


@st.composite
def _requests(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    mechanism, base = FAMILIES[family]
    return family, draw(mechanism), base, draw(st.sampled_from([1, 2, 10, 50, 100, 300])), draw(st.sampled_from([1e-5, 1e-7, 1e-9]))


@settings(max_examples=60, deadline=None)
@given(_requests())
def test_brackets_across_spacings_overlap_on_random_requests(drawn):
    # a spacing whose composition fails a validity gate (exit 3) answers
    # nothing and is left out of the comparison
    family, mechanism, base, n, delta = drawn
    brackets = []
    for spacing in (base, base / 2, base / 4):
        try:
            brackets.append(_bracket(mechanism, spacing, n, delta))
        except pb.NumericalValidityError:
            event(f"{family}: a spacing exits 3")
    event(f"{len(brackets)} of 3 spacings answer")
    if brackets:
        _assert_overlap(brackets)
