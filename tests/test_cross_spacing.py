"""Brackets at different spacings of one request must overlap.

Every spacing's bracket [eps_low, eps_high] is proven, so the largest low
end over the spacings cannot exceed the smallest high end.  This oracle
needs no closed form, so it covers the mechanisms that have none:
subsampled Gaussian and Laplace, and Laplace under composition.
"""

import pytest

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


@pytest.mark.parametrize("mechanism, n, delta, spacings", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_brackets_across_spacings_overlap(mechanism, n, delta, spacings):
    brackets = []
    for spacing in spacings:
        request = pb.AccountingRequest(mechanism, spacing, compositions=n, delta_target=delta)
        report = pb.run_compute(request)
        assert report.eps_low <= report.eps_high
        brackets.append((report.eps_low, report.eps_high))
    assert max(low for low, _ in brackets) <= min(high for _, high in brackets), brackets
