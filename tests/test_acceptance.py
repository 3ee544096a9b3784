"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every verdict
line.  Each test computes its checks first, prints PASS/FAIL per criterion,
then asserts, so the verdict line is emitted even when a check fails.

One sub-check is expected to fail and is documented as such in the
repository notes: a strict two-sided witness at the lower straddle point of
the non-uniqueness fixture (criterion 7) is impossible because every
trade-off curve is pinned to 1 - alpha there.
"""

import math
import time

import numpy as np
import pytest

import pldbounds as pb
from oracles import (
    gaussian_epsilon_exact,
    mech_to_spec,
    pair_curve_values,
    random_grid,
    random_pair,
    rr_curve_exact,
    rr_product_delta,
)

LN2 = math.log(2.0)
INF = math.inf


def verdict(number: int, name: str, checks: list[tuple[str, bool]], elapsed: float) -> None:
    ok = all(flag for _, flag in checks)
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status} ({elapsed:.2f}s)")
    for label, flag in checks:
        if not flag:
            print(f"    failed check: {label}")
    assert ok, f"criterion {number} ({name}): " + "; ".join(
        label for label, flag in checks if not flag
    )


def build_single(mech: dict, spacing: float):
    curve = pb.curve_for(mech_to_spec(mech))
    lo, hi = pb.default_epsilon_range(curve, spacing)
    grid = pb.DiscretizationGrid.uniform(spacing, lo, hi)
    return curve, grid


def test_criterion_1_randomized_response_exactness():
    start = time.perf_counter()
    eps = LN2
    grid = pb.DiscretizationGrid.from_alphas(
        [0.0, math.exp(-eps), 1.0, math.exp(eps), INF]
    )
    curve = pb.RandomizedResponseCurve(eps)
    e = math.exp(eps)
    expected = np.zeros(grid.alphas.size)
    expected[1] = 1.0 / (e + 1.0)
    expected[3] = e / (e + 1.0)
    checks = []
    for label, pair in (
        ("pessimistic", pb.pessimistic_pair(curve, grid)),
        ("optimistic", pb.optimistic_pair(curve, grid)),
    ):
        pld = pb.pld_of(pair)
        checks.append(
            (
                f"{label} PLD equals the exact atoms",
                bool(np.max(np.abs(pld.masses - expected)) <= 1e-12),
            )
        )
        delta0 = pb.delta_at(pld, 0.0)
        checks.append(
            (
                f"{label} delta(0) = (e^eps - 1)/(e^eps + 1)",
                abs(delta0 - (e - 1.0) / (e + 1.0)) <= 1e-12,
            )
        )
        checks.append((f"{label} delta(0) = 1/3", abs(delta0 - 1.0 / 3.0) <= 1e-12))
    elapsed = time.perf_counter() - start
    checks.append(("runtime < 1 s", elapsed < 1.0))
    verdict(1, "randomized-response exactness", checks, elapsed)


GAUSSIAN80_COUNTS = list(range(100, 1001, 100))


def _gaussian80_sandwich(delta_target: float):
    curve = pb.GaussianCurve(80.0)
    spacing = 0.005
    lo, hi = pb.default_epsilon_range(curve, spacing)
    grid = pb.DiscretizationGrid.uniform(spacing, lo, hi)
    pess = pb.pld_of(pb.pessimistic_pair(curve, grid))
    opt = pb.pld_of(pb.optimistic_pair(curve, grid))
    budget = max(1e-15, 1e-3 * delta_target)
    rows = []
    for n in GAUSSIAN80_COUNTS:
        high = pb.self_compose(
            pess, n, pb.CompositionPolicy("pessimistic", truncation_tail_mass=budget)
        )
        low = pb.self_compose(
            opt, n, pb.CompositionPolicy("optimistic", truncation_tail_mass=budget)
        )
        rows.append(
            (
                n,
                pb.epsilon_for_delta(low, delta_target),
                gaussian_epsilon_exact(80.0 / math.sqrt(n), delta_target),
                pb.epsilon_for_delta(high, delta_target),
                high,
                low,
            )
        )
    return rows


def test_criterion_2_gaussian_sandwich():
    start = time.perf_counter()
    rows = _gaussian80_sandwich(1e-5)
    checks = []
    widths = []
    for n, eps_low, eps_exact, eps_high, _, _ in rows:
        widths.append((eps_high - eps_low) / eps_exact)
        checks.append(
            (
                f"n={n}: eps_optimistic <= eps_exact <= eps_pessimistic "
                f"({eps_low:.4f} <= {eps_exact:.4f} <= {eps_high:.4f})",
                eps_low <= eps_exact + 1e-9 and eps_exact <= eps_high + 1e-9,
            )
        )
    worst = max(widths)
    checks.append(
        (
            f"relative bracket width <= 0.05 at every n (worst {worst:.4f}; "
            "the tangent construction's quadratic-in-spacing bias sits near "
            "0.07 at spacing 0.005)",
            worst <= 0.05,
        )
    )
    elapsed = time.perf_counter() - start
    checks.append(("runtime < 60 s", elapsed < 60.0))
    verdict(2, "Gaussian noise-scale-80 sandwich", checks, elapsed)


DOMINANCE_MATRIX = [
    {"kind": "gaussian", "noise_scale": 1.0},
    {"kind": "laplace", "noise_scale": 5.0},
    {"kind": "randomized-response", "epsilon": LN2},
    {
        "kind": "subsampled-gaussian",
        "noise_scale": 1.0,
        "sampling_prob": 0.01,
        "direction": "both",
    },
]
SPACINGS = [0.5, 0.05, 0.005]


def test_criterion_3_rounding_baseline_dominance():
    start = time.perf_counter()
    checks = []
    for mech in DOMINANCE_MATRIX:
        for spacing in SPACINGS:
            curve, grid = build_single(mech, spacing)
            ours = pb.pld_of(pb.pessimistic_pair(curve, grid))
            rounded = pb.pb_pessimistic_pld(curve, grid)
            lo, hi = grid.finite_epsilons[0], grid.finite_epsilons[-1]
            probes = np.linspace(lo - 0.5, hi + 0.5, 200)
            gap = max(
                pb.delta_at(ours, float(e)) - pb.delta_at(rounded, float(e))
                for e in probes
            )
            checks.append(
                (
                    f"{mech['kind']} spacing {spacing}: connect-the-dots delta <= "
                    f"rounded-up delta + 1e-12 at 200 epsilons (worst {gap:.2e})",
                    gap <= 1e-12,
                )
            )
    elapsed = time.perf_counter() - start
    checks.append(("runtime < 30 s", elapsed < 30.0))
    verdict(3, "dominance over the rounding-up baseline", checks, elapsed)


def test_criterion_4_optimistic_validity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    checks = []
    for mech in DOMINANCE_MATRIX:
        for spacing in SPACINGS:
            curve, grid = build_single(mech, spacing)
            pair = pb.optimistic_pair(curve, grid)
            est = pb.curve_of(pair)
            alphas = rng.uniform(0.0, 10.0 * grid.alphas[-2], size=1000)
            below = np.max(
                np.asarray(est.value(alphas)) - np.asarray(curve.value(alphas))
            )
            cands = pb.candidate_set(curve, grid)
            i_one = cands.i_one
            a_fwd = grid.alphas[: i_one + 1]
            a_bwd = grid.alphas[i_one : grid.k]
            bounds_ok = (
                np.all(cands.forward >= 1.0 - a_fwd - 1e-12)
                and np.all(cands.backward >= -1e-12)
                and np.all(cands.forward <= np.asarray(curve.value(a_fwd)) + 1e-12)
                and np.all(cands.backward <= np.asarray(curve.value(a_bwd)) + 1e-12)
            )
            label = f"{mech['kind']} spacing {spacing}"
            checks.append(
                (f"{label}: under-estimate at 1000 alphas (worst {below:.2e})", below <= 1e-12)
            )
            checks.append((f"{label}: tangent candidate bounds hold", bool(bounds_ok)))
            checks.append((f"{label}: hull accepted with zero clamping", pair.clamp_count == 0))
    elapsed = time.perf_counter() - start
    checks.append(("runtime < 30 s", elapsed < 30.0))
    verdict(4, "optimistic under-estimates stay valid", checks, elapsed)


def test_criterion_5_discretization_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_h = 0.0
    worst_mass = 0.0
    exact_structure = True
    for _ in range(1000):
        pair = random_pair(rng, random_grid(rng))
        h = pair_curve_values(pair)
        rebuilt = pb.discretize_from_curve(h, pair.grid)
        finite = pair.grid.alphas[1:-1]
        exact_structure &= bool(
            np.array_equal(rebuilt.p_masses[1:-1], finite * rebuilt.q_masses[1:-1])
        )
        exact_structure &= rebuilt.q_masses[-1] == 0.0 and rebuilt.p_masses[0] == 0.0
        worst_h = max(worst_h, float(np.max(np.abs(pair_curve_values(rebuilt) - h))))
        worst_mass = max(
            worst_mass,
            abs(math.fsum(rebuilt.p_masses.tolist()) - 1.0),
            abs(math.fsum(rebuilt.q_masses.tolist()) - 1.0),
        )
    checks = [
        ("P = alpha * Q and zero end masses hold exactly", exact_structure),
        (f"curve values reproduced within 1e-12 (worst {worst_h:.2e})", worst_h <= 1e-12),
        (f"masses sum to 1 within 1e-12 (worst {worst_mass:.2e})", worst_mass <= 1e-12),
    ]
    elapsed = time.perf_counter() - start
    verdict(5, "discretization round trip on 1000 random curves", checks, elapsed)


def test_criterion_6_convolution_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_l1 = 0.0
    for size in [64, 512, 2048, 4096]:
        j0 = -size // 2
        grid = pb.DiscretizationGrid.uniform(0.01, j0 * 0.01, (j0 + size - 1) * 0.01)
        masses = np.zeros(size + 2)
        masses[1:-1] = rng.random(size) ** 2
        masses[1:-1] /= masses[1:-1].sum()
        a = pb.FinitePLD(finite_epsilons=grid.finite_epsilons, masses=masses, spacing=grid.spacing)
        fft = pb.convolve(a, a, pb.CompositionPolicy("pessimistic", truncation_tail_mass=0.0))
        direct = pb.convolve(
            a, a, pb.CompositionPolicy("pessimistic", method="direct", truncation_tail_mass=0.0)
        )
        worst_l1 = max(worst_l1, float(np.abs(fft.masses - direct.masses).sum()))
    grid = pb.DiscretizationGrid.uniform(LN2, -LN2, LN2)
    rr = pb.pld_of(pb.pessimistic_pair(pb.RandomizedResponseCurve(LN2), grid))
    twice = pb.self_compose(rr, 2, pb.CompositionPolicy("pessimistic", truncation_tail_mass=0.0))
    delta0 = pb.delta_at(twice, 0.0)
    enumerated = rr_product_delta(LN2, 0.0, folds=2)
    checks = [
        (f"fft vs direct L1 <= 1e-10 up to support 4096 (worst {worst_l1:.2e})", worst_l1 <= 1e-10),
        (
            f"two-fold randomized response delta(0) matches enumeration "
            f"({delta0:.15f} vs {enumerated:.15f})",
            abs(delta0 - enumerated) <= 1e-12,
        ),
        ("two-fold delta(0) equals 1/3", abs(delta0 - 1.0 / 3.0) <= 1e-12),
    ]
    elapsed = time.perf_counter() - start
    verdict(6, "convolution equivalence", checks, elapsed)


def test_criterion_7_non_uniqueness_fixture():
    start = time.perf_counter()
    eps, gamma = LN2, 0.1
    alpha_1 = math.exp(-eps) - gamma
    alpha_2 = math.exp(-eps) + gamma
    pair_a, pair_b = pb.non_uniqueness_fixture(eps, gamma)
    curve_a = pb.curve_of(pair_a)
    curve_b = pb.curve_of(pair_b)
    rng = np.random.default_rng(17)
    probes = rng.uniform(0.0, 4.0, size=500)
    worst = 0.0
    for pair_curve in (curve_a, curve_b):
        for a in probes:
            worst = max(
                worst, float(pair_curve.value(float(a))) - rr_curve_exact(eps, float(a))
            )
    a1_a, a1_b = float(curve_a.value(alpha_1)), float(curve_b.value(alpha_1))
    a2_a, a2_b = float(curve_a.value(alpha_2)), float(curve_b.value(alpha_2))
    grid_alphas = np.linspace(0.0, 2.5, 2001)
    va = np.asarray(curve_a.value(grid_alphas))
    vb = np.asarray(curve_b.value(grid_alphas))
    checks = [
        (
            f"both estimates stay below the randomized-response curve at 500 "
            f"alphas (worst excess {worst:.2e})",
            worst <= 1e-12,
        ),
        (
            "the estimates are mutually non-dominating (each wins somewhere)",
            bool(np.any(va > vb + 1e-9) and np.any(vb > va + 1e-9)),
        ),
        (
            f"strict witness at alpha_2 = {alpha_2}: {a2_a:.6f} vs {a2_b:.6f}",
            a2_a > a2_b + 1e-12 or a2_b > a2_a + 1e-12,
        ),
        (
            f"strict witness at alpha_1 = {alpha_1}: {a1_a:.6f} vs {a1_b:.6f} "
            "(impossible: below the curve's lower kink every valid estimate "
            "is pinned between the floor 1 - alpha and the curve, which "
            "coincide there)",
            a1_a > a1_b + 1e-12 or a1_b > a1_a + 1e-12,
        ),
    ]
    elapsed = time.perf_counter() - start
    verdict(7, "non-uniqueness fixture", checks, elapsed)


def test_criterion_8_subsampled_gaussian_sweep():
    start = time.perf_counter()
    mech = {
        "kind": "subsampled-gaussian",
        "noise_scale": 1.0,
        "sampling_prob": 0.01,
        "direction": "both",
    }
    request = pb.AccountingRequest(
        mechanism=mech_to_spec(mech),
        discretization=0.005,
        delta_target=1e-5,
        estimate="both",
        baseline="pb",
    )
    counts = list(range(100, 1001, 100))
    columns, rows = pb.run_sweep(request, counts)
    checks = [
        (
            "columns are stable",
            columns[:5]
            == [
                "compositions",
                "eps_pessimistic",
                "eps_optimistic",
                "eps_pb_pessimistic",
                "eps_pb_optimistic",
            ],
        )
    ]
    # monotonicity holds for the pair-realisable estimators; the rounded-down
    # baseline is not the loss distribution of any pair and its lower bound
    # genuinely degrades with n at this spacing
    for column in ("eps_pessimistic", "eps_optimistic", "eps_pb_pessimistic"):
        series = [row[column] for row in rows]
        checks.append(
            (f"{column} monotone non-decreasing in n", all(b >= a - 1e-8 for a, b in zip(series, series[1:])))
        )
    sandwich = all(r["eps_optimistic"] <= r["eps_pessimistic"] + 1e-8 for r in rows)
    checks.append(("pessimistic >= optimistic on every row", sandwich))
    ordering = all(
        r["eps_pessimistic"] <= r["eps_pb_pessimistic"] + 1e-6 for r in rows
    )
    checks.append(("pessimistic never above the rounded-up baseline per row", ordering))
    lower_valid = all(r["eps_pb_optimistic"] <= r["eps_pessimistic"] + 1e-8 for r in rows)
    checks.append(("rounded-down baseline stays below the upper bound", lower_valid))
    elapsed = time.perf_counter() - start
    checks.append(("runtime < 120 s", elapsed < 120.0))
    verdict(8, "subsampled Gaussian sweep", checks, elapsed)


def test_criterion_9_tiny_delta_drift():
    start = time.perf_counter()
    rows = _gaussian80_sandwich(1e-12)
    checks = []
    for n, eps_low, eps_exact, eps_high, high, low in rows:
        checks.append(
            (
                f"n={n}: sandwich valid at delta = 1e-12 "
                f"({eps_low:.4f} <= {eps_exact:.4f} <= {eps_high:.4f})",
                eps_low <= eps_exact + 1e-9 and eps_exact <= eps_high + 1e-9,
            )
        )
        checks.append(
            (
                f"n={n}: no negative masses",
                bool(np.all(high.masses >= 0.0) and np.all(low.masses >= 0.0)),
            )
        )
    elapsed = time.perf_counter() - start
    verdict(9, "numerical drift at delta = 1e-12", checks, elapsed)
