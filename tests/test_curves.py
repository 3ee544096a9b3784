"""Mechanism curve tests: closed forms vs quadrature, shape, derivatives."""

import math
import warnings

import numpy as np
import pytest

import pldbounds as pb
from oracles import mech_to_spec, oracle_curve_value

LN2 = math.log(2.0)

MECHS = {
    "gaussian-1": {"kind": "gaussian", "noise_scale": 1.0},
    "gaussian-80": {"kind": "gaussian", "noise_scale": 80.0},
    "laplace-1": {"kind": "laplace", "noise_scale": 1.0},
    "laplace-5": {"kind": "laplace", "noise_scale": 5.0},
    "rr-ln2": {"kind": "randomized-response", "epsilon": LN2},
    "subgauss-add": {
        "kind": "subsampled-gaussian",
        "noise_scale": 1.0,
        "sampling_prob": 0.01,
        "direction": "add",
    },
    "subgauss-remove": {
        "kind": "subsampled-gaussian",
        "noise_scale": 1.0,
        "sampling_prob": 0.01,
        "direction": "remove",
    },
    "subgauss-both": {
        "kind": "subsampled-gaussian",
        "noise_scale": 1.0,
        "sampling_prob": 0.01,
        "direction": "both",
    },
    "sublap-both": {
        "kind": "subsampled-laplace",
        "noise_scale": 5.0,
        "sampling_prob": 0.01,
        "direction": "both",
    },
}

# kink locations per mechanism, to exclude from smooth-derivative checks
KINKS = {
    "laplace-1": [math.exp(-1.0), math.exp(1.0)],
    "laplace-5": [math.exp(-0.2), math.exp(0.2)],
    "rr-ln2": [0.5, 2.0],
    "subgauss-add": [1.0 / 0.99],
    "subgauss-remove": [0.99],
}


def curve_of_mech(name: str) -> pb.HockeyStickCurve:
    return pb.curve_for(mech_to_spec(MECHS[name]))


ALPHAS_200 = np.logspace(-6, 6, 200)


@pytest.mark.parametrize("name", sorted(MECHS))
def test_curve_matches_quadrature(name):
    mech = MECHS[name]
    curve = curve_of_mech(name)
    values = curve.value(ALPHAS_200)
    for alpha, val in zip(ALPHAS_200, values):
        assert abs(val - oracle_curve_value(mech, float(alpha))) <= 1e-9


@pytest.mark.parametrize("name", sorted(MECHS))
def test_curve_shape(name):
    curve = curve_of_mech(name)
    alphas = np.logspace(-6, 6, 400)
    h = curve.value(alphas)
    assert curve.value(0.0) == 1.0
    assert np.all(np.diff(h) <= 1e-12), "curve must be non-increasing"
    assert np.all(h >= np.maximum(1.0 - alphas, 0.0) - 1e-12)
    # convexity over consecutive and random triples
    rng = np.random.default_rng(7)
    idx = np.arange(len(alphas) - 2)
    triples = [(i, i + 1, i + 2) for i in idx]
    picks = rng.integers(0, len(alphas), size=(500, 3))
    triples += [tuple(sorted(p)) for p in picks if len(set(p)) == 3]
    for i, j, k in triples:
        a1, a2, a3 = alphas[i], alphas[j], alphas[k]
        w = (a2 - a1) / (a3 - a1)
        interp = (1.0 - w) * h[i] + w * h[k]
        assert h[j] <= interp + 1e-12


@pytest.mark.parametrize("name", sorted(MECHS))
def test_curve_gap_consistency(name):
    curve = curve_of_mech(name)
    alphas = np.logspace(-4, 4, 200)
    g = curve.gap(alphas)
    assert np.all(np.asarray(g) >= 0.0)
    assert np.all(np.diff(g) >= -1e-12), "gap must be non-decreasing"
    ref = curve.value(alphas) - (1.0 - alphas)
    assert np.max(np.abs(g - ref)) <= 1e-12
    assert curve.gap(0.0) == 0.0


@pytest.mark.parametrize("name", sorted(MECHS))
def test_right_derivative_matches_forward_differences(name):
    curve = curve_of_mech(name)
    kinks = KINKS.get(name, [])
    for alpha in np.logspace(-3, 3, 60):
        if any(abs(alpha - k) < 0.05 * max(1.0, k) for k in kinks):
            continue
        step = 1e-6 * max(1.0, alpha)
        fd = (curve.value(alpha + step) - curve.value(alpha)) / step
        dv = float(curve.right_derivative(alpha))
        assert abs(fd - dv) <= max(1e-5, 1e-3 * abs(dv))
        assert dv <= 1e-15
        assert float(curve.left_derivative(alpha)) <= dv + 1e-12


def test_derivatives_at_zero_and_bounds():
    for name in MECHS:
        curve = curve_of_mech(name)
        assert -1.0 - 1e-12 <= float(curve.right_derivative(0.0)) <= 0.0


def test_rr_closed_form_values():
    curve = curve_of_mech("rr-ln2")
    # middle branch: h(alpha) = e^eps/(e^eps+1) - alpha/(e^eps+1)
    assert curve.value(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert curve.value(0.75) == pytest.approx((2.0 - 0.75) / 3.0, abs=1e-15)
    assert curve.value(0.25) == pytest.approx(0.75, abs=1e-15)
    assert curve.value(5.0) == 0.0


def test_rr_derivative_sides_at_kink():
    curve = curve_of_mech("rr-ln2")
    # forward difference at alpha = 1 (smooth point of the middle branch)
    fd = (curve.value(1.0 + 1e-6) - curve.value(1.0)) / 1e-6
    assert abs(fd - (-1.0 / 3.0)) <= 1e-5
    assert pb.derivative_at(curve, 1.0, "right") == pytest.approx(-1.0 / 3.0, abs=1e-15)
    # kink at alpha = e^{-eps} = 1/2: left slope -1, right slope -1/3
    assert pb.derivative_at(curve, 0.5, "left") == -1.0
    assert pb.derivative_at(curve, 0.5, "right") == pytest.approx(-1.0 / 3.0, abs=1e-15)
    fd_left = (curve.value(0.5) - curve.value(0.5 - 1e-7)) / 1e-7
    fd_right = (curve.value(0.5 + 1e-7) - curve.value(0.5)) / 1e-7
    assert abs(fd_left - (-1.0)) <= 1e-6
    assert abs(fd_right - (-1.0 / 3.0)) <= 1e-6


def test_identical_pair_curve():
    curve = pb.identical_pair_curve()
    assert curve.value(0.5) == 0.5
    assert pb.derivative_at(curve, 0.5, "left") == -1.0
    assert pb.derivative_at(curve, 0.5, "right") == -1.0
    assert curve.value_at_infinity == 0.0


def test_gaussian_unit_alpha_one_quadrature():
    curve = curve_of_mech("gaussian-1")
    from scipy import integrate
    from scipy.stats import norm

    val, err = integrate.quad(
        lambda x: max(norm.pdf(x, 1, 1) - norm.pdf(x, 0, 1), 0.0),
        -12.0,
        13.0,
        points=[0.5],
        epsabs=1e-12,
        epsrel=1e-12,
        limit=300,
    )
    assert abs(float(curve.value(1.0)) - val) <= 1e-12


def test_all_shipped_curves_vanish_at_infinity():
    for name in MECHS:
        curve = curve_of_mech(name)
        assert curve.value_at_infinity == 0.0
        assert float(curve.value(math.inf)) == 0.0


@pytest.mark.parametrize(
    "inner",
    [
        pb.MechanismSpec.gaussian(1.0),
        pb.MechanismSpec.laplace(1.0),
        pb.MechanismSpec.randomized_response(1.0),
    ],
    ids=["gaussian", "laplace", "rr"],
)
def test_huge_alphas_of_a_removal_curve_warn_of_nothing(inner):
    # the range search probes alphas whose beta = (alpha - (1 - q)) / q
    # overflows; that is the inner curve's limit, not a numerical fault
    spec = pb.MechanismSpec.poisson_subsampled(inner, 0.001953125)
    alphas = np.array([1e300, np.finfo(float).max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = pb.curve_for(spec)
        values, gaps = curve.value(alphas), curve.gap(alphas)
        removal = pb.curve_for(pb.MechanismSpec.poisson_subsampled(inner, 0.001953125, "remove"))
        assert np.array_equal(removal.value(alphas), [0.0, 0.0])
        if inner.kind == "gaussian":
            assert pb.default_epsilon_range(curve, 0.171875) == (-2.40625, 2.75)
    assert np.array_equal(values, [0.0, 0.0])
    assert np.all(gaps > 0.0)


def test_mechanism_spec_validation():
    with pytest.raises(pb.RequestError):
        pb.MechanismSpec.gaussian(0.0)
    with pytest.raises(pb.RequestError):
        pb.MechanismSpec.laplace(-1.0)
    with pytest.raises(pb.RequestError):
        pb.MechanismSpec.randomized_response(0.0)
    with pytest.raises(pb.RequestError):
        pb.MechanismSpec.poisson_subsampled(pb.MechanismSpec.gaussian(1.0), 1.5)
    sub = pb.MechanismSpec.poisson_subsampled(pb.MechanismSpec.gaussian(1.0), 0.1)
    assert sub.adjacency_direction == "both"
    with pytest.raises(pb.RequestError):
        pb.MechanismSpec.poisson_subsampled(sub, 0.1)  # no double nesting
    with pytest.raises(pb.RequestError):
        pb.MechanismSpec(kind="gaussian", noise_scale=1.0, sampling_prob=0.5)


# a string raised TypeError, True was accepted as 1.0, and an int beyond
# float range raised OverflowError
@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, None, "1", True, 10**400, np.float32("inf")]
)
@pytest.mark.parametrize("make", ["gaussian", "laplace", "randomized_response"])
def test_mechanism_spec_refuses_non_finite_parameters(make, value):
    # refused at construction, as the curve itself would refuse it
    with pytest.raises(pb.RequestError, match="must be positive"):
        getattr(pb.MechanismSpec, make)(value)


_G = pb.MechanismSpec.gaussian(1.0)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"kind": "poisson_subsampled", "sampling_prob": 0.1}, "requires an inner mechanism"),
        # a non-spec inner raised AttributeError
        ({"kind": "poisson_subsampled", "inner": "gaussian", "sampling_prob": 0.1}, "requires an inner"),
        ({"kind": "poisson_subsampled", "inner": _G}, r"sampling_prob must be in \(0, 1\], got None"),
        # a string raised TypeError, and True was accepted as 1
        ({"kind": "poisson_subsampled", "inner": _G, "sampling_prob": "0.1"}, "sampling_prob must be in"),
        ({"kind": "poisson_subsampled", "inner": _G, "sampling_prob": True}, "sampling_prob must be in"),
        (
            {"kind": "poisson_subsampled", "inner": _G, "sampling_prob": 0.1, "adjacency_direction": "up"},
            "adjacency_direction must be one of",
        ),
        (
            {"kind": "poisson_subsampled", "inner": _G, "sampling_prob": 0.1, "noise_scale": 1.0},
            "noise parameters belong on the inner mechanism",
        ),
        ({"kind": "bogus", "noise_scale": 1.0}, "unknown mechanism kind 'bogus'"),
        ({"kind": "gaussian", "noise_scale": 1.0, "rr_epsilon": 1.0}, "rr_epsilon applies to randomized response only"),
        (
            {"kind": "randomized_response", "rr_epsilon": 1.0, "noise_scale": 1.0},
            "noise_scale applies to gaussian or laplace only",
        ),
        ({"kind": "laplace", "noise_scale": 1.0, "inner": _G}, "inner applies to subsampled"),
    ],
)
def test_mechanism_spec_refusals_name_the_field(fields, message):
    with pytest.raises(pb.RequestError, match=message):
        pb.MechanismSpec(**fields)


def test_a_subsampled_spec_without_adjacency_covers_both():
    spec = pb.MechanismSpec(kind="poisson_subsampled", inner=_G, sampling_prob=0.1)
    assert spec.adjacency_direction == "both"
    assert spec == pb.MechanismSpec.poisson_subsampled(_G, 0.1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: pb.PoissonSubsampledCurve(pb.GaussianCurve(1.0), 0.0, "add"), r"sampling_prob must be in \(0, 1\]"),
        (lambda: pb.PoissonSubsampledCurve(pb.GaussianCurve(1.0), 0.1, "both"), "direction must be 'add' or"),
        (
            lambda: pb.PoissonSubsampledCurve(pb.PiecewiseLinearCurve([0.0, 1.0], [1.0, 0.0]), 0.1, "add"),
            "symmetric dominating pair",
        ),
        (lambda: pb.PointwiseMaxCurve([pb.GaussianCurve(1.0)]), "at least two curves"),
        (lambda: pb.PiecewiseLinearCurve([0.0], [1.0]), ">= 2 nodes"),
        (lambda: pb.PiecewiseLinearCurve([0.0, 2.0, 1.0], [1.0, 0.5, 0.2]), "strictly increasing"),
    ],
)
def test_curve_constructors_refuse_bad_parameters(make, message):
    with pytest.raises(pb.RequestError, match=message):
        make()


def test_derivative_at_rejects_boundary():
    curve = curve_of_mech("gaussian-1")
    with pytest.raises(pb.RequestError):
        pb.derivative_at(curve, 0.0, "right")
    with pytest.raises(pb.RequestError):
        pb.derivative_at(curve, math.inf, "left")
    with pytest.raises(pb.RequestError):
        pb.derivative_at(curve, 1.0, "up")


def test_max_curve_derivative_uses_active_branch():
    curve = curve_of_mech("subgauss-both")
    add = curve_of_mech("subgauss-add")
    remove = curve_of_mech("subgauss-remove")
    for alpha in [0.5, 0.999, 1.0, 1.001, 1.5]:
        top = max(float(add.value(alpha)), float(remove.value(alpha)))
        assert float(curve.value(alpha)) == pytest.approx(top, abs=1e-15)
        # one-sided derivatives must belong to the envelope's active branches
        rd = float(curve.right_derivative(alpha))
        candidates = [
            float(c.right_derivative(alpha))
            for c in (add, remove)
            if abs(float(c.value(alpha)) - top) <= 1e-12
        ]
        assert rd == pytest.approx(max(candidates), abs=1e-15)


# -- the evaluation contract: one validation, scalar or array -----------------

METHODS = ("value", "gap", "right_derivative", "left_derivative")
PWL_NODES = [0.0, 0.3, 1.0, 2.5, 4.0]


def subsampled_kinks(inner_kinks, q):
    """Kinks of both subsampled directions: 1 - q, 1/(1 - q) and the inner kinks' images."""
    keep = 1.0 - q
    return (
        [keep, 1.0 / keep]
        + [keep + q * k for k in inner_kinks]
        + [k / (q + k * keep) for k in inner_kinks]
    )


#: Subsampled curves not in ``MECHS``, so that every inner mechanism is
#: subsampled in each direction: name -> (spec, the inner curve's kinks).
SUBSAMPLED = {
    f"sub{label}-{side}": (
        pb.MechanismSpec.poisson_subsampled(inner, 0.01, side),
        subsampled_kinks(inner_kinks, 0.01),
    )
    for label, inner, inner_kinks in (
        ("lap", pb.MechanismSpec.laplace(5.0), [math.exp(-0.2), math.exp(0.2)]),
        ("rr", pb.MechanismSpec.randomized_response(LN2), [0.5, 2.0]),
    )
    for side in ("add", "remove", "both")
    if f"sub{label}-{side}" not in MECHS
}

CONTRACT_KINKS = {
    **KINKS,
    "subgauss-both": subsampled_kinks([], 0.01),
    "sublap-both": subsampled_kinks([math.exp(-0.2), math.exp(0.2)], 0.01),
    **{name: kinks for name, (_, kinks) in SUBSAMPLED.items()},
    "piecewise-linear": PWL_NODES,
    "identical": [1.0],
}


def contract_curve(name: str) -> pb.HockeyStickCurve:
    if name == "piecewise-linear":
        return pb.PiecewiseLinearCurve(PWL_NODES, [1.0, 0.75, 0.3, 0.05, 0.02])
    if name == "identical":
        return pb.identical_pair_curve()
    if name in SUBSAMPLED:
        return pb.curve_for(SUBSAMPLED[name][0])
    return curve_of_mech(name)


CONTRACT_NAMES = sorted(MECHS) + sorted(SUBSAMPLED) + ["piecewise-linear", "identical"]


def with_neighbours(x: float, n: int = 2) -> list[float]:
    """x and its n nearest floats on each side."""
    out, lo, hi = [x], x, x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


@pytest.mark.parametrize("name", CONTRACT_NAMES)
@pytest.mark.parametrize("method", METHODS)
def test_public_methods_reject_nan_and_negative_alpha(name, method):
    evaluate = getattr(contract_curve(name), method)
    for bad in (math.nan, -1.0, -5e-324, -math.inf):
        with pytest.raises(pb.RequestError):
            evaluate(bad)
        with pytest.raises(pb.RequestError):
            evaluate(np.array([0.5, bad, 2.0]))


#: Positive alphas of the kernel check, beyond each curve's points.
LATTICE = np.concatenate([np.linspace(0.025, 4.0, 160), np.exp(np.linspace(-20.0, 20.0, 401))])


@pytest.mark.parametrize("name", CONTRACT_NAMES)
def test_scalar_call_equals_array_element(name):
    # ... and both equal the component of ``_evaluate`` that the method reads
    curve = contract_curve(name)
    points = [0.0, 1.0, math.inf]
    for kink in CONTRACT_KINKS.get(name, []):
        points += with_neighbours(kink)
    alphas = np.array(sorted(p for p in points if p >= 0.0))
    # right derivatives are defined on [0, +inf), left ones on (0, +inf)
    domains = {
        "value": (alphas, None, 0),
        "gap": (alphas, None, 1),
        "right_derivative": (alphas[alphas < math.inf], True, 2),
        "left_derivative": (alphas[alphas > 0.0], False, 2),
    }
    for method, (domain, right, part) in domains.items():
        evaluate = getattr(curve, method)
        batch = evaluate(domain)
        assert isinstance(batch, np.ndarray) and batch.shape == domain.shape
        for alpha, expected in zip(domain.tolist(), batch.tolist()):
            single = evaluate(alpha)
            assert type(single) is float
            assert single.hex() == expected.hex(), (method, alpha)
        every = np.concatenate([domain, LATTICE])
        assert evaluate(every).tobytes() == curve._evaluate(every, right)[part].tobytes(), method


@pytest.mark.parametrize("name", CONTRACT_NAMES)
def test_public_call_validates_its_input_once(name, monkeypatch):
    from pldbounds import curves

    calls = []
    prepare = curves._prepare
    monkeypatch.setattr(curves, "_prepare", lambda alpha: calls.append(alpha) or prepare(alpha))
    curve = contract_curve(name)
    for method in METHODS:
        calls.clear()
        getattr(curve, method)(np.array([0.25, 0.99, 1.0, 1.5, 30.0]))
        assert len(calls) == 1, method


class KernelOnlyCurve(pb.HockeyStickCurve):
    """A curve that defines nothing but the kernel; an offset tags each component."""

    def _evaluate(self, a, right=None):
        slope = None if right is None else a + (3.0 if right else 4.0)
        return a + 1.0, a + 2.0, slope


def test_a_curve_that_defines_only_the_kernel_answers_every_public_method():
    curve = KernelOnlyCurve()
    offsets = {"value": 1.0, "gap": 2.0, "right_derivative": 3.0, "left_derivative": 4.0}
    alphas = np.array([0.5, 1.0, 2.0])
    for method, offset in offsets.items():
        evaluate = getattr(curve, method)
        single = evaluate(0.5)
        assert type(single) is float and single == 0.5 + offset, method
        batch = evaluate(alphas)
        assert isinstance(batch, np.ndarray) and batch.tolist() == (alphas + offset).tolist()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_piecewise_linear_curve_refuses_non_finite_node_values(bad):
    with pytest.raises(pb.RequestError, match="node 1"):
        pb.PiecewiseLinearCurve([0.0, 0.5, 1.5], [1.0, bad, 0.0])
