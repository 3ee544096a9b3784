"""The DP-SGD-scale yardstick's checks, on every row of its grid.

``tools/scale_audit.py`` runs a fixed grid of subsampled-Gaussian,
Gaussian and randomized-response requests, n = 10^5 and 10^6 included, and
checks every row that answers: the exact epsilon inside the bracket,
brackets that overlap across spacings, and both ends monotone in n and in
delta.  All of its rows run here, and the checks must hold on each of them
that answers.  Which rows answer is not checked: that is the outcome, not
the bracket.
"""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import scale_audit  # noqa: E402


@pytest.fixture(scope="module")
def rows():
    return [scale_audit.run(request) for request in scale_audit.GRID]


def test_the_rows_that_answer_pass_every_check(rows):
    failures = [f"{row.request.label}: {what}" for row, what in scale_audit.failed_checks(rows)]
    assert failures == []


def test_an_answer_records_both_composed_sides(rows):
    for row in rows:
        if row.outcome == "ok":
            assert sorted(row.composed) == ["optimistic", "pessimistic"], row.request.label
        else:
            assert row.outcome.startswith("exit "), row.outcome


def _forged(request, low, high):
    return scale_audit.Row(request, "ok", 0.0, low, high)


def test_the_checks_catch_what_they_are_for():
    gaussian = scale_audit.Request("gaussian", 80.0, 1.0, 1000, 1e-5, 1e-3)
    exact = gaussian.reference()
    coarse = dataclasses.replace(gaussian, spacing=2e-3)
    more = dataclasses.replace(gaussian, n=2000)
    looser = dataclasses.replace(gaussian, delta=1e-3)
    cases = {
        "outside": [_forged(gaussian, exact + 0.01, exact + 0.02)],
        "do not overlap": [_forged(gaussian, 1.0, 1.1), _forged(coarse, 1.2, math.inf)],
        "below": [_forged(gaussian, exact - 0.01, exact + 0.01), _forged(more, 1.0, 10.0)],
        "above": [_forged(gaussian, exact - 0.01, exact + 0.01), _forged(looser, 1.0, 10.0)],
    }
    for what, forged in cases.items():
        found = [message for _, message in scale_audit.failed_checks(forged)]
        assert any(what in message for message in found), (what, found)
