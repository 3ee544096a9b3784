"""Compare the answers two checkouts give on the benchmark's ops.

Usage (from any directory):

    python3 tools/answer_diff.py PARENT_DIR CHANGE_DIR

Each checkout answers in a fresh interpreter of its own, through its own
``perfbench/workloads.py`` (``execute``) and ``src/pldbounds``.  The ops
are every workload's reference ops (so every ``bracket-audit`` case, with
its failure message where it fails), their tiny variants, and the first
``SEEDED_OPS`` timed ops of seeds 1 and 2.  A fixed set of direct library
calls that the benchmark never makes follows (``LIBRARY_OPS``): both
directions of ``self_compose`` at a zero budget, with ``method="direct"``,
on the exact path for short supports and through the transform, and of
``convolve`` through transforms of more than 2^17 points, budgeted and at a
zero budget; each answer is the result's ``pld_to_json`` text and its
charge fields.  Then
come the single-step rules (``CURVE_OPS``, ``BASELINE_OPS``): ``value``,
``gap`` and both derivatives of the identical-pair, Laplace,
randomized-response and Gaussian curves, of each of them but the identical
pair subsampled in each direction, and of piecewise-linear curves, at 0, at
each kink (1 where there is none) and one ulp either side of it, and in the far
tail (one scalar call per point), and over a linear and a geometric lattice
(one array call each), with ``value`` and ``gap`` also at +inf, written
with ``float.hex``; and both
privacy-buckets baselines, rounded up and down, from a curve and from a
pair, on a grid built ``from_alphas``.  Then come the single-step pairs
(``PAIR_OPS``): P, Q, ``clamp_count`` and the single step's masses
(``pld_of``) of ``pessimistic_pair`` and ``optimistic_pair``, or the
build's failure, for every mechanism kind and
adjacency at spacings 0.3 to 1e-4 and on a grid whose last finite alpha
is 1, and of ``discretize_from_curve`` on both ``non_uniqueness_fixture``
pairs and on the pessimistic node values of the ``DISCRETIZE_OPS``
mechanisms.  Masses are written with ``float.hex``, or as the SHA-256 of
their float64 bytes past ``HEX_MAX`` values.  Then each column of the
``run_curve`` rows (the ``curve`` verb) of the ``RUN_CURVE_OPS`` requests,
one op per column, every row written with ``float.hex``.  Then the edge
inputs (``ATOM_OPS``, ``PAYLOAD_OPS``, ``SPEC_OPS``, ``REQUEST_OPS``):
``self_compose`` and ``convolve`` of a distribution whose +inf or -inf atom
holds all its mass, in both directions, ``pld_from_json_dict`` on malformed
payloads, and ``MechanismSpec`` and ``AccountingRequest`` on misused
fields; each answer is the result (the composition's ``pld_to_json`` text
and charge fields, the payload's ``pld_to_json`` text, the spec's or the
request's ``repr``) or the failure.  Then the number doors
(``DOOR_OPS``): each public door that reads a caller's number, called
with ``True``, ``"0.1"``, None, NaN and +-inf, with a value it takes and
with that value as a numpy scalar, and ``run_sweep`` with counts that are
empty or not a list; each answer is the door's result or the failure.
Last, the
command line (``_cli_ops``): ``pldbounds.cli.main`` on the README's commands
with ``--out`` dropped so that they write to stdout, on ``compute`` with
``--output csv``, on one ``--config`` file per ``CONFIG_ENTRIES`` entry and
on ``--help`` for the top level and each verb; each answer is the exit code,
stderr, and stdout without its ``runtime_ms*`` JSON keys and CSV columns.
The README is read from the checkout this tool sits in, so both checkouts
run the same commands.  An answer is
compared as its JSON text, so floats must agree bit for bit; a
failure's traceback, which names the checkout's paths, is left out.  BLAS
and OpenMP pools run one thread, as in ``perfbench/run.py``.  The tool
reads ``perfbench/`` and does not edit it.

Prints each op whose answer differs, or that only one checkout has, and
exits 1 if there is any; otherwise prints the number of ops compared and
exits 0.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import reprlib
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

#: Timed ops taken from the start of each seeded run.
SEEDED_OPS = 4

SEEDS = (1, 2)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: (operation, label, mechanism as MechanismSpec constructor and arguments,
#: spacing, count, CompositionPolicy arguments) of each library call, made
#: for both directions on the direction's single step s:
#: ``self_compose(s, count)`` or ``convolve(s, self_compose(s, count))``.
LIBRARY_OPS = (
    ("self_compose", "budget-0", ("gaussian", 1.0), 1e-3, 30, {"truncation_tail_mass": 0.0}),
    (
        "self_compose", "direct", ("gaussian", 2.0), 1e-2, 20,
        {"method": "direct", "truncation_tail_mass": 1e-9},
    ),
    # the whole 4201-point support is computed directly, without charge
    (
        "self_compose", "exact-path", ("randomized_response", math.log(2.0)), 1e-2, 30,
        {"truncation_tail_mass": 1e-12},
    ),
    # a narrow window: the transform, wrap and round-off charge
    (
        "self_compose", "rr-window", ("randomized_response", math.log(2.0)), 1e-2, 50,
        {"truncation_tail_mass": 1e-12},
    ),
    (
        "self_compose", "subsampled-gaussian", ("subsampled_gaussian", 1.0, 0.01), 5e-3, 200,
        {"truncation_tail_mass": 1e-9},
    ),
    # two 18,047-point steps against their 120- and 7-fold compositions:
    # transforms of 144,000 and 145,800 points
    ("convolve", "large-window", ("gaussian", 1.0), 1e-3, 120, {"truncation_tail_mass": 1e-9}),
    ("convolve", "large-budget-0", ("gaussian", 1.0), 1e-3, 7, {"truncation_tail_mass": 0.0}),
)


#: (label, function of the ``pldbounds`` module that makes the curve) of the
#: curves whose kernels ``CURVE_OPS`` evaluates.
CURVE_OPS = (
    ("identical", lambda pb: pb.identical_pair_curve()),
    ("laplace-1", lambda pb: pb.LaplaceCurve(1.0)),
    ("laplace-0.3", lambda pb: pb.LaplaceCurve(0.3)),
    ("rr-ln2", lambda pb: pb.RandomizedResponseCurve(math.log(2.0))),
    ("rr-1", lambda pb: pb.RandomizedResponseCurve(1.0)),
    *((f"gaussian-{s}", lambda pb, s=s: pb.GaussianCurve(s)) for s in (0.5, 1.0, 2.0, 80.0)),
    *(
        (
            f"{kind.replace('_', '-')}-{p}-{q}-{side}",
            lambda pb, m=(kind, p, q, side): pb.curve_for(_spec(pb, m)),
        )
        for kind, p, q in (
            ("subsampled_gaussian", 1.0, 0.01),
            ("subsampled_gaussian", 2.0, 0.2),
            ("subsampled_laplace", 1.0, 0.01),
            ("subsampled_randomized_response", 1.0, 0.1),
        )
        for side in ("add", "remove", "both")
    ),
    (
        "piecewise-linear-laplace-pessimistic",
        lambda pb: _pessimistic_curve(pb, pb.LaplaceCurve(1.0), 0.3),
    ),
    # constant from its last node, at alpha 0.8, on
    (
        "piecewise-linear-below-one",
        lambda pb: pb.PiecewiseLinearCurve([0.0, 0.3, 0.8], [1.0, 0.75, 0.35]),
    ),
)

#: Far-tail alphas of the ``CURVE_OPS`` curves: one scalar call each, and
#: an array call over ``TAIL_LATTICE``.
TAIL_ALPHAS = tuple(math.exp(sign * x) for x in (5.0, 10.0, 20.0, 40.0) for sign in (-1.0, 1.0))
TAIL_LATTICE = np.exp(np.linspace(-40.0, 40.0, 801))

#: (label, mechanism as in ``LIBRARY_OPS``) of the curves both baselines round.
BASELINE_OPS = (
    ("gaussian", ("gaussian", 1.0)),
    ("laplace", ("laplace", 1.0)),
    ("rr", ("randomized_response", 1.0)),
    ("subsampled-gaussian", ("subsampled_gaussian", 1.0, 0.1)),
)

#: Interior alphas of the ``from_alphas`` grid the baselines round onto.
BASELINE_ALPHAS = tuple(math.exp(0.1 * i) for i in range(-40, 41))

#: Mechanisms (as in ``LIBRARY_OPS``; subsampled ones also name their
#: adjacency) whose single-step pairs ``PAIR_OPS`` builds.
PAIR_MECHANISMS = (
    *((f"gaussian-{s}", ("gaussian", s)) for s in (0.5, 1.0, 2.0, 80.0)),
    *((f"laplace-{b}", ("laplace", b)) for b in (0.3, 1.0, 5.0)),
    *((f"rr-{e:.4g}", ("randomized_response", e)) for e in (math.log(2.0), 1.0, 3.0)),
    *(
        (f"{kind}-{p}-{q}-{side}", (kind, p, q, side))
        for kind, p, q in (
            ("subsampled_gaussian", 1.0, 0.01),
            ("subsampled_gaussian", 2.0, 0.2),
            ("subsampled_laplace", 1.0, 0.01),
            ("subsampled_laplace", 5.0, 0.1),
            ("subsampled_randomized_response", 1.0, 0.1),
        )
        for side in ("add", "remove", "both")
    ),
)

#: Spacings of the default-range lattices each mechanism's pairs are built on.
PAIR_SPACINGS = (0.3, 0.1, 1e-2, 1e-3, 1e-4)

#: Mechanisms whose pairs are also built on ``uniform(0.1, -3, 1e-12)``,
#: whose last finite alpha is 1.
GRID_AT_ONE_MECHANISMS = (("gaussian", 1.0), ("laplace", 1.0), ("randomized_response", 1.0))

#: Epsilons of the ``non_uniqueness_fixture`` calls.
FIXTURE_EPSILONS = (math.log(2.0), 1.0)

#: Mechanisms (as in ``LIBRARY_OPS``) whose curve values at the nodes of
#: ``PAIR_SPACINGS`` lattices, held from the last finite node on, go through
#: ``discretize_from_curve``.
DISCRETIZE_OPS = (
    ("gaussian", 1.0),
    ("laplace", 1.0),
    ("randomized_response", 1.0),
    ("subsampled_gaussian", 1.0, 0.01),
)

#: (label, mechanism as in ``LIBRARY_OPS``, spacing, grid range or None for
#: the default range) of the ``run_curve`` requests; "readme" is the README's
#: ``curve`` command.
RUN_CURVE_OPS = (
    ("readme", ("gaussian", 1.0), 0.5, (-2.0, 2.0)),
    ("laplace", ("laplace", 1.0), 1e-2, None),
    ("rr", ("randomized_response", 1.0), 1e-2, None),
    ("subsampled-gaussian", ("subsampled_gaussian", 1.0, 0.01), 5e-3, None),
)

#: Config values, one file each, of ``sweep --config`` on ``CONFIG_BASE``:
#: the entries of ``tests/test_cli.py``'s
#: ``test_config_values_must_have_their_flags_types``.
CONFIG_ENTRIES = (
    {"compositions": [2.5, 4.9]},
    {"compositions": [True]},
    {"compositions": True},
    {"repeats": 2.7},
    {"repeats": "x"},
    {"discretization": "x"},
    {"noise_scale": "abc"},
    {"delta": "1e-5x"},
    {"grid_range": "ab"},
    {"grid_range": [-1]},
    {"delta": True},
    {"out": ["x"]},
    {"compositions": [1, 2]},
    {"compositions": 2},
    {"compositions": "1,2"},
    {"repeats": 2},
    {"grid_range": [-1, 1]},
    {"delta": math.nan},
    {"rr_epsilon": math.inf},
    {"grid_range": [-1, math.nan]},
)

CONFIG_BASE = {
    "mechanism": "randomized-response",
    "rr_epsilon": math.log(2.0),
    "discretization": math.log(2.0),
    "delta": 0.2,
}

#: (operation, count, CompositionPolicy arguments) of the compositions of
#: ``_atom_only`` distributions, made for both atoms and both directions.
#: At 200 steps the full support (9801 points) is too long to compose
#: directly, so the transform and its charge run.
ATOM_OPS = (
    ("self_compose", 3, {"truncation_tail_mass": 1e-9}),
    ("self_compose", 3, {"method": "direct"}),
    ("self_compose", 200, {"truncation_tail_mass": 1e-9}),
    ("convolve", 1, {"truncation_tail_mass": 1e-9}),
    ("convolve", 1, {"method": "direct"}),
)

#: A well-formed ``pld_from_json_dict`` payload, and the (key, value) each
#: ``PAYLOAD_OPS`` op puts in it.
PAYLOAD = {"discretization": 0.1, "epsilon_offset": 1, "masses": [0.5, 0.5], "mass_at_infinity": 0.0}
PAYLOAD_OPS = (
    ("masses", [math.nan, 1.0]),
    ("masses", [math.inf, 0.5]),
    ("masses", [10**400, 0.5]),
    ("masses", []),
    ("mass_at_infinity", math.nan),
    ("mass_at_infinity", -math.inf),
    ("mass_at_neg_infinity", math.nan),
    ("discretization", math.nan),
    ("discretization", math.inf),
    ("discretization", 0.1),
    ("masses", [0.6, -0.1, 0.5]),
    ("mass_at_infinity", -0.1),
    ("mass_at_neg_infinity", -1e-20),
    ("masses", [0.5, 0.4]),
    ("masses", [0.5, 0.5 + 2e-11]),
    ("masses", [0.5, 0.5 + 5e-12]),
)

#: (label, function of the ``pldbounds`` module that gives the
#: ``MechanismSpec`` fields) of the ``SPEC_OPS`` constructions.
SPEC_OPS = (
    ("gaussian-true", lambda pb: {"kind": "gaussian", "noise_scale": True}),
    ("gaussian-string", lambda pb: {"kind": "gaussian", "noise_scale": "1"}),
    ("gaussian-none", lambda pb: {"kind": "gaussian"}),
    ("rr-string", lambda pb: {"kind": "randomized_response", "rr_epsilon": "1"}),
    ("rr-negative", lambda pb: {"kind": "randomized_response", "rr_epsilon": -1.0}),
    ("rr-with-noise", lambda pb: {"kind": "randomized_response", "rr_epsilon": 1.0, "noise_scale": 1.0}),
    ("laplace-with-rr", lambda pb: {"kind": "laplace", "noise_scale": 1.0, "rr_epsilon": 1.0}),
    ("unknown-kind", lambda pb: {"kind": "bogus"}),
    ("inner-string", lambda pb: {"kind": "poisson_subsampled", "inner": "gaussian", "sampling_prob": 0.1}),
    ("inner-none", lambda pb: {"kind": "poisson_subsampled", "sampling_prob": 0.1}),
    *(
        (f"sampling-{label}", lambda pb, q=q: {**_subsampled(pb), "sampling_prob": q})
        for label, q in (("string", "0.1"), ("true", True), ("two", 2.0), ("none", None))
    ),
    ("adjacency-default", lambda pb: {**_subsampled(pb), "sampling_prob": 0.1}),
)


#: (label, ``AccountingRequest`` fields besides the mechanism, a randomized
#: response with epsilon 1, and the spacing 0.01) of the ``REQUEST_OPS``
#: constructions.
REQUEST_OPS = (
    ("delta-true", {"delta_target": True}),
    ("delta-string", {"delta_target": "1e-5"}),
    ("delta-nan", {"delta_target": math.nan}),
    ("epsilon-true", {"epsilon_target": True}),
    ("epsilon-string", {"epsilon_target": "1"}),
    ("epsilon-inf", {"epsilon_target": math.inf}),
    ("discretization-true", {"delta_target": 1e-5, "discretization": True}),
    ("discretization-string", {"delta_target": 1e-5, "discretization": "0.1"}),
    ("discretization-zero", {"delta_target": 1e-5, "discretization": 0.0}),
    ("grid-strings", {"delta_target": 1e-5, "grid_range": ("a", "b")}),
    ("grid-three", {"delta_target": 1e-5, "grid_range": (-1.0, 0.0, 1.0)}),
    ("grid-infinite", {"delta_target": 1e-5, "grid_range": (-math.inf, math.inf)}),
    ("grid-nan", {"delta_target": 1e-5, "grid_range": (-1.0, math.nan)}),
    ("grid-pair", {"delta_target": 1e-5, "grid_range": (-1.0, 1.0)}),
)


#: The values each ``DOOR_OPS`` door is called with, besides its own good
#: value and that value as a numpy scalar.
DOOR_VALUES = (("true", True), ("string", "0.1"), ("none", None), ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf))

#: (label, a value the door takes, function of the ``pldbounds`` module and
#: a value that calls one public door with it and returns its JSON-ready
#: answer) of the ``DOOR_OPS``: every door that reads a caller's number
#: through ``errors._is_finite_real`` or ``errors._composition_count``.
DOOR_OPS = (
    ("policy-budget", 1e-9, lambda pb, v: repr(pb.CompositionPolicy("pessimistic", truncation_tail_mass=v))),
    ("policy-max-support", 64, lambda pb, v: repr(pb.CompositionPolicy("pessimistic", max_support=v))),
    ("epsilon-for-delta", 0.01, lambda pb, v: pb.epsilon_for_delta(_door_pld(pb), v)),
    ("delta-at", 0.5, lambda pb, v: pb.delta_at(_door_pld(pb), v)),
    ("default-epsilon-range", 0.1, lambda pb, v: pb.default_epsilon_range(pb.GaussianCurve(1.0), v)),
    ("uniform-spacing", 0.1, lambda pb, v: _bits(pb.DiscretizationGrid.uniform(v, -1.0, 1.0).epsilons)),
    ("uniform-low", -1.0, lambda pb, v: _bits(pb.DiscretizationGrid.uniform(0.1, v, 1.0).epsilons)),
    ("uniform-high", 1.0, lambda pb, v: _bits(pb.DiscretizationGrid.uniform(0.1, -1.0, v).epsilons)),
    ("finite-pld-spacing", 0.1, lambda pb, v: _pld_fields(pb.FinitePLD([0.0, 0.1], [0.0, 0.5, 0.5, 0.0], spacing=v))),
    ("point-mass-pld", 0.1, lambda pb, v: _pld_fields(pb.point_mass_pld(v))),
    *(
        (name, 1e-12, lambda pb, v, name=name: _pld_fields(
            pb.FinitePLD([0.0, 0.1], [0.0, 0.5, 0.5, 0.0], spacing=0.1, **{name: v})
        ))
        for name in ("truncated_low", "truncated_high", "rounding_charge")
    ),
    ("derivative-at", 0.5, lambda pb, v: pb.derivative_at(pb.GaussianCurve(1.0), v, "left")),
    ("fixture-epsilon", 1.0, lambda pb, v: [_pair_answer(lambda: p) for p in pb.non_uniqueness_fixture(v)]),
    ("fixture-gamma", 0.01, lambda pb, v: [_pair_answer(lambda: p) for p in pb.non_uniqueness_fixture(1.0, v)]),
    ("config-delta", 1e-5, lambda pb, v: pb.cli._config_value("delta", "delta", v)),
    ("config-grid-range", 1.0, lambda pb, v: pb.cli._config_value("grid_range", "grid_range", [-1.0, v])),
    ("self-compose-policy", "pessimistic", lambda pb, v: _composed(pb, pb.self_compose(_door_pld(pb), 2, _policy(pb, v)))),
    ("convolve-policy", "optimistic", lambda pb, v: _composed(pb, pb.convolve(_door_pld(pb), _door_pld(pb), _policy(pb, v)))),
    ("sweep-count", 2, lambda pb, v: pb.run_sweep(_door_request(pb), [v])[1][0]["eps_pessimistic"]),
    ("sweep-repeats", 1, lambda pb, v: pb.run_sweep(_door_request(pb), [2], repeats=v)[1][0]["eps_pessimistic"]),
)


def _door_pld(pb):
    """The pessimistic single step of a Gaussian, sigma 1, on the lattice of spacing 0.1 over [-3, 3]."""
    grid = pb.DiscretizationGrid.uniform(0.1, -3.0, 3.0)
    return pb.pld_of(pb.pessimistic_pair(pb.GaussianCurve(1.0), grid))


def _policy(pb, value):
    """The policy of a direction's name, else ``value`` itself: a policy door's misuse."""
    return pb.CompositionPolicy(value) if value in ("pessimistic", "optimistic") else value


def _door_request(pb):
    return pb.AccountingRequest(pb.MechanismSpec.randomized_response(1.0), 0.01, delta_target=1e-5)


def _pld_fields(pld) -> dict:
    """A distribution's masses, spacing, lattice offset and charge fields."""
    fields = ("spacing", "lattice_offset", "truncated_low", "truncated_high", "rounding_charge")
    return {"masses": _hex(pld.masses), **{name: repr(getattr(pld, name)) for name in fields}}


def _subsampled(pb) -> dict:
    """``MechanismSpec`` fields of a Poisson-subsampled Gaussian without its sampling rate."""
    return {"kind": "poisson_subsampled", "inner": pb.MechanismSpec.gaussian(1.0)}


#: Longest mass array written value by value; longer ones are hashed.
HEX_MAX = 1000


def _spec(pb, mechanism):
    kind, *args = mechanism
    spec_of = pb.MechanismSpec
    if kind.startswith("subsampled_"):
        inner = getattr(spec_of, kind.removeprefix("subsampled_"))(args[0])
        return spec_of.poisson_subsampled(inner, *args[1:])
    return getattr(spec_of, kind)(*args)


def _lattice(pb, curve, spacing):
    """The uniform grid of the given spacing over the curve's default range."""
    return pb.DiscretizationGrid.uniform(spacing, *pb.default_epsilon_range(curve, spacing))


def _pessimistic_curve(pb, curve, spacing):
    """``curve_of`` the curve's pessimistic pair on its default-range lattice."""
    return pb.curve_of(pb.pessimistic_pair(curve, _lattice(pb, curve, spacing)))


def _kinks(curve) -> list[float]:
    """Finite kinks of the curve or its parts: three-regime, subsampling and node kinks, else 1."""
    kinks = set()
    for part in getattr(curve, "curves", [curve]):
        names = ("_alpha_lo", "_alpha_hi", "_keep", "_cut")
        kinks |= {getattr(part, name) for name in names if hasattr(part, name)}
        kinks |= set(getattr(part, "node_alphas", ()))
    return sorted(k for k in kinks if math.isfinite(k)) or [1.0]


def _hex(values) -> list[str]:
    return [float(x).hex() for x in np.atleast_1d(values)]


def _curve_answers(pb, make) -> dict[str, list[str]]:
    """Every kernel of one curve at 0, its kinks and one ulp either side, the far tail and +inf, and over lattices."""
    curve = make(pb)
    points = [0.0]
    for kink in _kinks(curve):
        points += [math.nextafter(kink, 0.0), kink, math.nextafter(kink, math.inf)]
    points += TAIL_ALPHAS
    lattice = np.linspace(0.0, 4.0, 161)
    answers = {}
    methods = ("value", "gap", "right_derivative", "left_derivative")
    for method in methods:
        evaluate = getattr(curve, method)
        ends = points + [math.inf] if method in ("value", "gap") else points
        answers[f"{method}/points"] = [float(evaluate(x)).hex() for x in ends]
        answers[f"{method}/lattice"] = _hex(evaluate(lattice))
        answers[f"{method}/tail"] = _hex(evaluate(TAIL_LATTICE))
    return answers


def _baseline_answers(pb, mechanism) -> dict[str, dict]:
    """Both rounded baselines from the curve and from its pessimistic pair on a 0.05 lattice."""
    curve = pb.curve_for(_spec(pb, mechanism))
    grid = pb.DiscretizationGrid.from_alphas([0.0, *BASELINE_ALPHAS, math.inf])
    lattice = _lattice(pb, curve, 0.05)
    sources = {"curve": lambda: curve, "pair": lambda: pb.pessimistic_pair(curve, lattice)}
    answers = {}
    for source, make in sources.items():
        for name in ("pb_pessimistic_pld", "pb_optimistic_pld"):
            try:
                pld = getattr(pb, name)(make(), grid)
                answer = {"masses": _hex(pld.masses), "proper": pld.proper}
            except Exception as err:  # a failure is an answer too
                answer = {"error": type(err).__name__, "message": str(err)}
            answers[f"{name}/{source}"] = answer
    return answers


def _bits(values) -> list[str] | str:
    """``float.hex`` of each value, or the SHA-256 of the float64 bytes past ``HEX_MAX`` values."""
    values = np.ascontiguousarray(values, dtype=float)
    return _hex(values) if values.size <= HEX_MAX else hashlib.sha256(values.tobytes()).hexdigest()


def _pair_answer(build) -> dict:
    """P, Q, ``clamp_count`` and the single step's masses of the pair ``build()`` returns, or its failure."""
    from pldbounds import pld_of

    try:
        pair = build()
        single = pld_of(pair)
    except Exception as err:  # a failure is an answer too
        return {"error": type(err).__name__, "message": str(err)}
    return {
        "p": _bits(pair.p_masses),
        "q": _bits(pair.q_masses),
        "clamp_count": pair.clamp_count,
        "single": _bits(single.masses),
    }


def _pair_answers(pb) -> dict[str, dict]:
    """Both estimators' pairs on every ``PAIR_OPS`` grid, then the fixture's pairs."""
    answers = {}
    builders = ("pessimistic_pair", "optimistic_pair")
    for name, mechanism in PAIR_MECHANISMS:
        curve = pb.curve_for(_spec(pb, mechanism))
        for spacing in PAIR_SPACINGS:
            grid = _lattice(pb, curve, spacing)
            for builder in builders:
                answer = _pair_answer(lambda: getattr(pb, builder)(curve, grid))
                answers[f"{builder}/{name}/{spacing}"] = answer
    at_one = pb.DiscretizationGrid.uniform(0.1, -3.0, 1e-12)
    for mechanism in GRID_AT_ONE_MECHANISMS:
        curve = pb.curve_for(_spec(pb, mechanism))
        for builder in builders:
            answer = _pair_answer(lambda: getattr(pb, builder)(curve, at_one))
            answers[f"{builder}/{mechanism[0]}-{mechanism[1]}/grid-at-one"] = answer
    for epsilon in FIXTURE_EPSILONS:
        pairs = pb.non_uniqueness_fixture(epsilon)
        for side, pair in zip(("early", "late"), pairs):
            answers[f"discretize_from_curve/fixture-{epsilon:.4g}/{side}"] = _pair_answer(lambda: pair)
    for mechanism in DISCRETIZE_OPS:
        curve = pb.curve_for(_spec(pb, mechanism))
        label = "-".join(str(part) for part in mechanism)
        for spacing in PAIR_SPACINGS:
            grid = _lattice(pb, curve, spacing)
            h = curve.value(grid.alphas)
            h[-1] = h[-2]
            answer = _pair_answer(lambda: pb.discretize_from_curve(h, grid))
            answers[f"discretize_from_curve/{label}/{spacing}"] = answer
    return answers


def _run_curve_answers(pb, mechanism, spacing, grid_range) -> dict[str, list[str] | dict]:
    """Each ``run_curve`` column of one request, by column name, or the request's failure."""
    try:
        request = pb.AccountingRequest(
            _spec(pb, mechanism), spacing, delta_target=1e-5, grid_range=grid_range
        )
        columns, rows = pb.run_curve(request)
    except Exception as err:  # a failure is an answer too
        return {"error": {"error": type(err).__name__, "message": str(err)}}
    return {column: [float(row[column]).hex() for row in rows] for column in columns}


def _readme_commands() -> list[list[str]]:
    """The ``pldbounds`` commands of the README's CLI section, without ``--out FILE``."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("pldbounds "):
            args = shlex.split(line)[1:]
            if "--out" in args:
                at = args.index("--out")
                del args[at : at + 2]
            commands.append(args)
    return commands


def _cli_ops(config_dir: Path) -> list[tuple[str, list[str]]]:
    """(label, arguments) of every command-line op; config files are written to ``config_dir``."""
    readme = _readme_commands()
    ops = [(f"readme/{args[0]}-{args[args.index('--mechanism') + 1]}", args) for args in readme]
    compute = next(args for args in readme if args[0] == "compute")
    ops.append(("compute-csv", [*compute, "--output", "csv"]))
    for index, entry in enumerate(CONFIG_ENTRIES):
        path = config_dir / f"config-{index}.json"
        path.write_text(json.dumps({**CONFIG_BASE, **entry}))
        ops.append((f"config/{index}/{json.dumps(entry)}", ["sweep", "--config", str(path)]))
    ops.append(("help/top", ["--help"]))
    ops += [(f"help/{verb}", [verb, "--help"]) for verb in ("compute", "sweep", "curve")]
    return ops


def _without_runtime(text: str) -> str:
    """CLI output without its ``runtime_ms*`` JSON keys or CSV columns (JSON is printed a key a line)."""
    lines = [line for line in text.splitlines(True) if not line.lstrip().startswith('"runtime_ms')]
    rows = list(csv.reader(lines))
    if not rows or not any(name.startswith("runtime_ms") for name in rows[0]):
        return "".join(lines)
    keep = [i for i, name in enumerate(rows[0]) if not name.startswith("runtime_ms")]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([row[i] for i in keep] for row in rows)
    return out.getvalue()


def _cli_answer(cli, args: list[str]) -> dict:
    """Exit code, stderr and stdout without runtimes of ``cli.main(args)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # --help, and argparse's usage errors
            code = exc.code
    return {"exit": code, "stderr": err.getvalue(), "stdout": _without_runtime(out.getvalue())}


def _library_answer(pb, operation, mechanism, spacing, n, policy) -> dict:
    """The JSON-ready result of one ``LIBRARY_OPS`` call, or its failure."""
    try:
        curve = pb.curve_for(_spec(pb, mechanism))
        grid = _lattice(pb, curve, spacing)
        build = pb.pessimistic_pair if policy.direction == "pessimistic" else pb.optimistic_pair
        single = pb.pld_of(build(curve, grid))
        out = pb.self_compose(single, n, policy)
        if operation == "convolve":
            out = pb.convolve(single, out, policy)
    except Exception as err:  # a failure is an answer too
        return {"error": type(err).__name__, "message": str(err)}
    return _composed(pb, out)


def _outcome(call) -> dict:
    """``call()``'s result, or its failure."""
    try:
        return {"result": call()}
    except Exception as err:  # a failure is an answer too
        return {"error": type(err).__name__, "message": str(err)}


def _atom_only(pb, atom: str):
    """A 50-point lattice distribution whose +inf (or -inf) atom holds all its mass."""
    masses = np.zeros(52)
    masses[-1 if atom == "inf" else 0] = 1.0
    return pb.FinitePLD(np.arange(50) * 0.1, masses, spacing=0.1, proper=atom == "inf")


def _composed(pb, out) -> dict:
    """A composition's ``pld_to_json`` text and charge fields."""
    fields = ("truncated_low", "truncated_high", "rounding_charge")
    return {"pld": pb.pld_to_json(out), **{name: getattr(out, name) for name in fields}}


def _edge_answers(pb) -> dict[str, dict]:
    """Every ``ATOM_OPS``, ``PAYLOAD_OPS``, ``SPEC_OPS`` and ``REQUEST_OPS`` answer, by op."""
    answers = {}
    for operation, n, arguments in ATOM_OPS:
        for atom in ("inf", "neg"):
            for direction in ("pessimistic", "optimistic"):
                policy = pb.CompositionPolicy(direction, **arguments)
                pld = _atom_only(pb, atom)
                if operation == "self_compose":
                    call = lambda: _composed(pb, pb.self_compose(pld, n, policy))  # noqa: E731
                else:
                    call = lambda: _composed(pb, pb.convolve(pld, pld, policy))  # noqa: E731
                label = f"atom/{operation}/{n}/{json.dumps(arguments, sort_keys=True)}/{atom}/{direction}"
                answers[label] = _outcome(call)
    for key, value in PAYLOAD_OPS:
        payload = {**PAYLOAD, key: value}
        answers[f"payload/{key}/{reprlib.repr(value)}"] = _outcome(
            lambda: pb.pld_to_json(pb.pld_from_json_dict(payload))
        )
    for label, fields in SPEC_OPS:
        answers[f"spec/{label}"] = _outcome(lambda: repr(pb.MechanismSpec(**fields(pb))))
    mechanism = pb.MechanismSpec.randomized_response(1.0)
    for label, fields in REQUEST_OPS:
        answers[f"request/{label}"] = _outcome(
            lambda: repr(pb.AccountingRequest(**{"mechanism": mechanism, "discretization": 0.01, **fields}))
        )
    return answers


def _door_answers(pb) -> dict[str, dict]:
    """Every ``DOOR_OPS`` door at each ``DOOR_VALUES`` value, its good value and that value as a
    numpy scalar, and ``run_sweep`` with counts that are empty or not a list."""
    import pldbounds.cli  # noqa: F401  (the config doors read pb.cli)

    answers = {}
    for label, good, call in DOOR_OPS:
        numpy_good = {float: np.float64, int: np.int64}.get(type(good), str)(good)
        values = (*DOOR_VALUES, ("good", good), ("numpy", numpy_good))
        for name, value in values:
            answers[f"door/{label}/{name}"] = _outcome(lambda: call(pb, value))
    for name, counts in (("empty", []), ("int", 3), ("none", None)):
        answers[f"door/sweep-counts/{name}"] = _outcome(lambda: pb.run_sweep(_door_request(pb), counts)[1])
    return answers


def _answers(checkout: Path) -> dict[str, str]:
    """Label -> JSON answer of every op, computed in this process from ``checkout``."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads

    ops = {}
    for workload in workloads.WORKLOADS:
        runs = [("reference", workloads.reference_ops(workload))]
        runs.append(("tiny", workloads.reference_ops(workload, tiny=True)))
        for seed in SEEDS:
            runs.append((f"seed{seed}", workloads.timed_ops(workload, seed)[:SEEDED_OPS]))
        for origin, run in runs:
            for index, op in enumerate(run):
                label = f"{workload}/{origin}/{index}/{op.name}"
                ops.setdefault(json.dumps(op.describe(), sort_keys=True), (label, op))
    answers = {}
    for label, op in ops.values():
        answer = workloads.execute(op)
        answer.pop("traceback", None)
        answers[label] = json.dumps(answer, sort_keys=True)
    import pldbounds as pb

    for operation, name, mechanism, spacing, n, arguments in LIBRARY_OPS:
        for direction in ("pessimistic", "optimistic"):
            policy = pb.CompositionPolicy(direction, **arguments)
            answer = _library_answer(pb, operation, mechanism, spacing, n, policy)
            answers[f"library/{operation}/{name}/{direction}"] = json.dumps(answer, sort_keys=True)
    for name, make in CURVE_OPS:
        for method, answer in _curve_answers(pb, make).items():
            answers[f"library/curve/{name}/{method}"] = json.dumps(answer)
    for name, mechanism in BASELINE_OPS:
        for op, answer in _baseline_answers(pb, mechanism).items():
            answers[f"library/baseline/{name}/{op}"] = json.dumps(answer, sort_keys=True)
    for op, answer in _pair_answers(pb).items():
        answers[f"library/pair/{op}"] = json.dumps(answer, sort_keys=True)
    for name, mechanism, spacing, grid_range in RUN_CURVE_OPS:
        for column, answer in _run_curve_answers(pb, mechanism, spacing, grid_range).items():
            answers[f"library/run_curve/{name}/{column}"] = json.dumps(answer, sort_keys=True)
    for op, answer in _edge_answers(pb).items():
        answers[f"library/edge/{op}"] = json.dumps(answer, sort_keys=True)
    for op, answer in _door_answers(pb).items():
        answers[f"library/{op}"] = json.dumps(answer, sort_keys=True)
    from pldbounds import cli

    with tempfile.TemporaryDirectory() as config_dir:
        for name, args in _cli_ops(Path(config_dir)):
            answers[f"cli/{name}"] = json.dumps(_cli_answer(cli, args), sort_keys=True)
    return answers


def _run(checkout: Path) -> dict[str, str]:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    out = subprocess.run(
        [sys.executable, __file__, "--answers", str(checkout)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--answers":
        print(json.dumps(_answers(Path(argv[1]).resolve())))
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (_run(Path(arg).resolve()) for arg in argv)
    differ = 0
    for label in sorted(parent.keys() | change.keys()):
        before, after = parent.get(label), change.get(label)
        if before != after:
            differ += 1
            print(f"{label}\n  parent: {before}\n  change: {after}")
    if differ:
        print(f"{differ} of {len(parent.keys() | change.keys())} ops differ")
        return 1
    print(f"all {len(parent)} ops give identical answers")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
