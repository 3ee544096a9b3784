"""Sweeps build the curve, grid and single-step distributions once.

Every ``run_sweep`` row must equal ``run_compute`` at the same count bit for
bit, and the count-independent set-up must run once per sweep, repeats
included.
"""

import dataclasses

import pytest

import pldbounds as pb
from pldbounds import report

SWEEPS = {
    "readme-subsampled-gaussian": (
        pb.AccountingRequest(
            mechanism=pb.MechanismSpec.poisson_subsampled(pb.MechanismSpec.gaussian(1.0), 0.01),
            discretization=0.005,
            delta_target=1e-5,
            baseline="pb",
        ),
        list(range(100, 1001, 100)),
    ),
    "gaussian-80": (
        pb.AccountingRequest(
            mechanism=pb.MechanismSpec.gaussian(80.0),
            discretization=0.005,
            delta_target=1e-5,
        ),
        [1, 100, 1000, 5000],
    ),
    "randomized-response": (
        pb.AccountingRequest(
            mechanism=pb.MechanismSpec.randomized_response(1.0),
            discretization=0.01,
            delta_target=1e-6,
            estimate="both",
        ),
        [0, 1, 2, 5, 16],
    ),
}


@pytest.mark.parametrize("name", SWEEPS)
def test_rows_equal_compute_bit_for_bit(name):
    request, counts = SWEEPS[name]
    columns, rows = pb.run_sweep(request, counts)
    methods = [c[len("eps_") :] for c in columns if c.startswith("eps_")]
    assert methods == report._estimator_plan(request)
    assert [row["compositions"] for row in rows] == counts
    for row in rows:
        single = pb.run_compute(dataclasses.replace(request, compositions=row["compositions"]))
        for m in methods:
            assert row[f"eps_{m}"].hex() == single.outcomes[m].epsilon.hex(), (row, m)


@pytest.mark.parametrize("repeats", [1, 3])
def test_set_up_runs_once_per_sweep(monkeypatch, repeats):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        report,
        "default_epsilon_range",
        counted("default_epsilon_range", report.default_epsilon_range),
    )
    for name, build in list(report._SINGLE_STEP_BUILDERS.items()):
        monkeypatch.setitem(report._SINGLE_STEP_BUILDERS, name, counted(name, build))
    request = pb.AccountingRequest(
        mechanism=pb.MechanismSpec.gaussian(2.0),
        discretization=0.05,
        delta_target=1e-5,
        baseline="pb",
    )
    _, rows = pb.run_sweep(request, [1, 2, 4, 8], repeats=repeats)
    assert len(rows) == 4
    assert sorted(calls) == sorted(["default_epsilon_range", *report._SINGLE_STEP_BUILDERS])
