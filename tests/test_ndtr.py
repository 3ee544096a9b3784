"""The normal CDF kernel behind the Gaussian curves, against 40-digit values."""

import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr

import pldbounds as pb
from pldbounds.curves import _NDTR_BLOCK, _ndtr

#: Range over which Phi is a normal binary64 number or 1 - Phi is not yet 0.
LOW, HIGH = -37.5, 8.3

#: Region boundaries of the kernel (x = +-sqrt(2) z at z = 1 and z = 8) and
#: the standard normal's own landmarks.
EDGES = (-1.0, 1.0, -math.sqrt(2.0), math.sqrt(2.0), -8.0 * math.sqrt(2.0), 8.0 * math.sqrt(2.0), LOW, HIGH)


def _with_neighbours(points: np.ndarray, ulps: int = 2) -> np.ndarray:
    out = [points]
    up = down = points
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def _reference(points: np.ndarray) -> np.ndarray:
    with mpmath.workdps(40):
        return np.array([float(mpmath.ncdf(mpmath.mpf(float(x)))) for x in points])


@pytest.fixture(scope="module")
def accuracy_points():
    lattice = np.linspace(LOW, HIGH, 40_001)
    random = np.random.default_rng(17).uniform(LOW, HIGH, 2_000)
    points = np.concatenate((lattice, random, _with_neighbours(np.array(EDGES))))
    return points, _reference(points)


def _worst_relative_error(got: np.ndarray, want: np.ndarray) -> float:
    normal = want >= np.finfo(float).tiny
    return float(np.max(np.abs(got[normal] - want[normal]) / want[normal]))


def test_matches_forty_digit_values_at_least_as_well_as_scipy(accuracy_points):
    points, want = accuracy_points
    ours = _worst_relative_error(_ndtr(points), want)
    theirs = _worst_relative_error(scipy_ndtr(points), want)
    assert ours <= 2.5e-13
    assert ours <= theirs, (ours, theirs)


def test_exact_at_the_ends_and_the_centre():
    assert _ndtr(np.array([-np.inf, 0.0, np.inf])).tolist() == [0.0, 0.5, 1.0]


def test_stays_in_the_unit_interval():
    points = np.sort(np.concatenate((np.linspace(-60.0, 60.0, 20_001), [-1e300, 1e300, -38.5])))
    values = _ndtr(points)
    assert np.all((values >= 0.0) & (values <= 1.0))
    # subnormal results may flush to 0, but never below
    assert np.all(np.diff(values) >= 0.0)


def test_nan_stays_nan():
    assert np.isnan(_ndtr(np.array([np.nan, 0.0]))).tolist() == [True, False]


def test_bits_do_not_depend_on_the_batch():
    rng = np.random.default_rng(3)
    points = np.concatenate((rng.uniform(-45.0, 12.0, _NDTR_BLOCK + 777), _with_neighbours(np.array(EDGES))))
    rng.shuffle(points)
    whole = _ndtr(points)
    one_by_one = np.array([_ndtr(np.array([x]))[0] for x in points[:3_000]])
    assert np.array_equal(whole[:3_000], one_by_one)
    assert np.array_equal(whole, np.concatenate([_ndtr(chunk) for chunk in np.array_split(points, 7)]))
    assert np.array_equal(_ndtr(points.reshape(-1, 1)).ravel(), whole)


def test_gaussian_curve_reads_one_kernel_call_per_evaluation(monkeypatch):
    from pldbounds import curves

    calls = []
    kernel = curves._ndtr
    monkeypatch.setattr(curves, "_ndtr", lambda x: calls.append(np.size(x)) or kernel(x))
    curve = pb.GaussianCurve(2.0)
    alphas = np.exp(np.linspace(-20.0, 20.0, 4_001))
    for method in (curve.value, curve.gap, curve.right_derivative, curve.left_derivative):
        calls.clear()
        method(alphas)
        assert len(calls) == 1


def test_a_gaussian_run_loads_no_scipy():
    src = Path(pb.__file__).resolve().parent.parent
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import json, pldbounds as pb; "
        "pb.run_compute(pb.AccountingRequest(pb.MechanismSpec.gaussian(2.0), 1e-2, compositions=10, "
        "delta_target=1e-6)); "
        "print(json.dumps([pb.__file__, [m for m in sys.modules if m.split('.')[0] == 'scipy']]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, str(src)], capture_output=True, text=True, check=True
    )
    path, loaded = json.loads(done.stdout)
    assert Path(path).resolve().parent == src / "pldbounds"
    assert loaded == []
