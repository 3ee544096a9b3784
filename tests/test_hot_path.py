"""Composition hot path: two-operand FFT convolution, transform lengths, fast
mass totals, the tail cut search, import weight.

The FFT branch must give the bits ``scipy.signal.fftconvolve`` gives (followed
by the same clip and flush), whether one operand is passed twice or as a copy,
and large transforms must give the bits of ``scipy.fft``: ``compose`` takes
``numpy.fft``, which ships the same pocketfft, and picks scipy's lengths,
the mass gates must reach exactly the verdict of an exactly rounded
``math.fsum`` total, ``np.sum`` must stay within the one bound they and
``self_compose`` use, and ``pld._tail_sums``' doubling prefixes, which
``compose._charge`` and ``pld._first_meeting`` rely on, must cut where full
running sums cut and hold their sums.
"""

import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.fft
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

import pldbounds as pb
from pldbounds import cli, compose
from pldbounds.pld import _MASS_ATOL, _MASS_SLACK, _mass_total, _sum_error, _tail_sums

NO_TRUNC = pb.CompositionPolicy(direction="pessimistic", truncation_tail_mass=0.0)

#: Supports whose full convolution length 2n - 1 is prime, so the transform
#: is padded to a longer fast length.
PADDED_SIZES = (1009, 2039, 4099)


@st.composite
def lattice_plds(draw) -> pb.FinitePLD:
    size = draw(st.one_of(st.integers(1, 300), st.sampled_from(PADDED_SIZES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # high powers spread the masses over hundreds of decades, so some flush
    finite = rng.random(size) ** rng.uniform(1.0, 40.0)
    if not finite.any():
        finite[0] = 1.0
    inf_mass = draw(st.one_of(st.just(0.0), st.floats(1e-9, 0.2)))
    finite *= (1.0 - inf_mass) / finite.sum()
    j0 = draw(st.integers(-500, 500))
    return pb.FinitePLD(
        finite_epsilons=(j0 + np.arange(size)) * 0.1,
        masses=np.concatenate(([0.0], finite, [inf_mass])),
        spacing=0.1,
    )


def _fftconvolve_clipped(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    out = fftconvolve(fa, fb)
    assert out.min() >= -compose._FFT_NEG_TOL
    np.maximum(out, 0.0, out=out)
    out[out < compose._MASS_FLOOR] = 0.0
    return out


class TestFFTParity:
    def test_padded_sizes_are_padded(self):
        for size in PADDED_SIZES:
            assert next_fast_len(2 * size - 1, True) > 2 * size - 1

    @settings(max_examples=60, deadline=None)
    @given(lattice_plds())
    def test_square_matches_two_transforms(self, a):
        twin = pb.FinitePLD(
            finite_epsilons=a.finite_epsilons.copy(), masses=a.masses.copy(), spacing=a.spacing
        )
        square = pb.convolve(a, a, NO_TRUNC)
        product = pb.convolve(a, twin, NO_TRUNC)
        assert np.array_equal(square.masses, product.masses)
        assert np.array_equal(square.finite_epsilons, product.finite_epsilons)

    @settings(max_examples=60, deadline=None)
    @given(lattice_plds(), lattice_plds())
    def test_matches_fftconvolve(self, a, b):
        for left, right in ((a, b), (a, a), (b, b)):
            out = pb.convolve(left, right, NO_TRUNC)
            expected = _fftconvolve_clipped(left.masses[1:-1], right.masses[1:-1])
            assert np.array_equal(out.masses[1:-1], expected)


def test_fast_length_is_scipys_real_transform_length():
    rng = np.random.default_rng(22)
    sampled = rng.integers(20_000, 2**22, 3000).tolist() + [2**22 - 1, 2**22, 2**22 + 1]
    for n in [*range(1, 20_000), *sampled]:
        assert compose._fast_length(n) == next_fast_len(n, True), n


#: The single step the large-transform parity tests compose: Gaussian sigma = 1
#: at spacing 1e-3, 18,047 points.
_GAUSSIAN_1 = pb.curve_for(pb.MechanismSpec.gaussian(1.0))
_GRID_1E3 = pb.DiscretizationGrid.uniform(1e-3, *pb.default_epsilon_range(_GAUSSIAN_1, 1e-3))


def _into_out(transform):
    """``transform(x, n)``, which takes no ``out=``, called as ``compose`` calls numpy's.

    The result is written into ``out`` when one is given.
    """

    def call(x, n, out=None):
        result = transform(x, n)
        if out is None:
            return result
        out[...] = result
        return out

    return call


@pytest.mark.parametrize("direction", ["pessimistic", "optimistic"])
@pytest.mark.parametrize(
    "operation, budget",
    [("self_compose", 1e-9), ("convolve", 1e-9), ("convolve", 0.0)],
)
def test_large_transforms_give_scipy_fft_bits(monkeypatch, operation, budget, direction):
    build = pb.pessimistic_pair if direction == "pessimistic" else pb.optimistic_pair
    single = pb.pld_of(build(_GAUSSIAN_1, _GRID_1E3))
    policy = pb.CompositionPolicy(direction, truncation_tail_mass=budget)
    if operation == "self_compose":
        run = lambda: pb.self_compose(single, 100, policy)  # noqa: E731
    else:
        other = pb.self_compose(single, 120 if budget else 7, policy)
        run = lambda: pb.convolve(single, other, policy)  # noqa: E731
    sizes = []
    irfft = compose.irfft
    monkeypatch.setattr(compose, "irfft", lambda p, n, out: sizes.append(n) or irfft(p, n, out=out))
    got = run()
    assert sizes and min(sizes) >= 2**17
    monkeypatch.setattr(compose, "rfft", _into_out(scipy.fft.rfft))
    monkeypatch.setattr(compose, "irfft", _into_out(scipy.fft.irfft))
    want = run()
    assert np.array_equal(got.masses, want.masses)
    assert np.array_equal(got.finite_epsilons, want.finite_epsilons)
    for field in ("truncated_low", "truncated_high", "rounding_charge", "proper"):
        assert getattr(got, field) == getattr(want, field)


@st.composite
def near_threshold_masses(draw) -> np.ndarray:
    """Masses whose fsum lies within a few hundred ulps of 1 - 1e-11 or 1 + 1e-11."""
    size = draw(st.one_of(st.integers(1, 200), st.integers(8000, 40000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random(size) ** rng.uniform(1.0, 20.0)
    raw[0] += 1e-3  # keep the total positive
    side = draw(st.sampled_from((-1.0, 1.0)))
    m = raw * ((1.0 + side * _MASS_ATOL) / math.fsum(raw.tolist()))
    m[int(np.argmax(m))] += draw(st.integers(-600, 600)) * 2.0**-52
    return m


class TestMassGateParity:
    @settings(max_examples=300, deadline=None)
    @given(near_threshold_masses())
    def test_gate_verdict_and_message_follow_fsum(self, m):
        exact = math.fsum(m.tolist())
        masses = np.concatenate(([0.0], m, [0.0]))
        epsilons = np.arange(m.size) * 0.1
        if abs(exact - 1.0) > _MASS_ATOL:
            with pytest.raises(pb.NumericalValidityError) as err:
                pb.FinitePLD(finite_epsilons=epsilons, masses=masses, spacing=0.1)
            assert str(err.value) == f"PLD masses sum to {exact!r}, expected 1"
        else:
            pb.FinitePLD(finite_epsilons=epsilons, masses=masses, spacing=0.1)

    @settings(max_examples=300, deadline=None)
    @given(near_threshold_masses(), st.integers(-4, 4))
    def test_cut_comparison_follows_fsum(self, m, ulps):
        exact = math.fsum(m.tolist())
        cut = exact + ulps * math.ulp(exact)
        assert (_mass_total(m, cut) <= cut) == (exact <= cut)

    def test_far_from_the_cuts_np_sum_is_returned(self):
        m = np.full(1000, 1e-3)
        assert _mass_total(m, 0.5, 2.0) == float(np.sum(m))

    def test_injected_excess_in_one_convolution_exits_3(self, capsys, monkeypatch):
        calls = []
        spectral_power = compose._spectral_power

        def inject(factors, size):
            out = spectral_power(factors, size)
            if not calls:
                out[int(np.argmax(out))] += 1.05e-11
            calls.append(factors)
            return out

        monkeypatch.setattr(compose, "_spectral_power", inject)
        code = cli.main(
            [
                "compute",
                "--mechanism",
                "gaussian",
                "--noise-scale",
                "2",
                "--compositions",
                "4",
                "--delta",
                "1e-5",
                "--discretization",
                "0.01",
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "PLD masses sum to 1.00000000001" in err
        assert len(calls) == 1


def _pairwise_sum(values: list[float]) -> float:
    """numpy's pairwise summation of a contiguous float64 array, as a plain loop."""
    n = len(values)
    if n < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    if n <= 128:
        acc = values[:8]
        i = 8
        while i < n - n % 8:
            acc = [a + x for a, x in zip(acc, values[i : i + 8])]
            i += 8
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for x in values[i:]:
            total += x
        return total
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


@st.composite
def contiguous_sums(draw) -> np.ndarray:
    """Contiguous arrays of 1 to 2e5 entries spread over hundreds of decades.

    Some entries are negative down to ``_MASS_SLACK``; sizes cluster around
    the pairwise sum's block edges 8 and 128 and the buffer length 8192.
    """
    edge = st.sampled_from((8, 128, 8192)).flatmap(lambda e: st.integers(e - 2, e + 2))
    size = draw(st.one_of(st.integers(1, 200_000), edge))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.floats(-300.0, 290.0))
    values = 10.0 ** rng.uniform(low, min(low + draw(st.floats(0.0, 400.0)), 300.0), size)
    negative = rng.random(size) < draw(st.floats(0.0, 0.5))
    values[negative] = -_MASS_SLACK * rng.random(int(negative.sum()))
    order = draw(st.sampled_from(("shuffled", "ascending", "descending")))
    if order != "shuffled":
        values.sort()
    return values[::-1].copy() if order == "descending" else values


class TestSumBound:
    @settings(max_examples=200, deadline=None)
    @given(contiguous_sums())
    def test_np_sum_stays_within_the_bound(self, x):
        total = float(np.sum(x))
        error = _sum_error(x.size)
        assert abs(total - math.fsum(x.tolist())) <= error * (total + 2 * x.size * _MASS_SLACK)
        # the non-negative form that self_compose's missing-mass charge uses
        kept = np.maximum(x, 0.0)
        assert math.fsum(kept.tolist()) >= float(np.sum(kept)) / (1.0 + error)

    def test_np_sum_is_one_pairwise_sum_over_the_whole_array(self):
        # the bound's premise: a numpy that summed in 8192-entry chunks fails here
        rng = np.random.default_rng(31)
        for size in (7, 127, 129, 8191, 8193, 20_000, 50_000, 200_000):
            x = rng.random(size) * np.exp(rng.normal(0.0, 5.0, size))
            assert float(np.sum(x)) == _pairwise_sum(x.tolist())

    def test_no_entry_passes_through_more_roundings_than_the_bound_allows(self):
        # depth[n]: the most roundings an entry of an n-entry pairwise sum
        # passes through; the bound assumes ceil(log2 n) + 17 and 3 spare
        depth = [0] * 200_001
        for n in range(1, len(depth)):
            if n < 8:
                depth[n] = n - 1
            elif n <= 128:
                depth[n] = n // 8 - 1 + 3 + n % 8
            else:
                half = n // 2 - (n // 2) % 8
                depth[n] = 1 + max(depth[half], depth[n - half])
        assert max(depth[n] - math.ceil(math.log2(n)) for n in range(1, len(depth))) == 17
        assert all(_sum_error(n) >= (depth[n] + 3) * 2.0**-53 for n in range(1, len(depth)))

    def test_strided_masses_take_the_exact_sum(self):
        rng = np.random.default_rng(0)
        m = rng.random(20_000) * np.exp(rng.normal(0.0, 5.0, 20_000))
        exact = math.fsum(m.tolist())
        assert float(np.sum(m)) != exact
        assert _mass_total(m, -1.0) == float(np.sum(m))
        assert _mass_total(np.repeat(m, 2)[::2], -1.0) == exact


def _tail_count_full_cumsum(values: np.ndarray, budget: float) -> int:
    """Reference count: the cut found on the running sum over the whole array."""
    return int(np.searchsorted(np.cumsum(values), budget, side="right"))


def _charge_full_cumsum(finite: np.ndarray, budget: float, direction: str):
    """Reference charge: ``compose._charge`` with its cut found on full running sums."""
    tail = finite if direction == "pessimistic" else finite[::-1]
    cut = _tail_count_full_cumsum(tail, budget)
    taken = math.fsum(tail[:cut].tolist())
    tail[:cut] = 0.0
    if cut < tail.size:
        part = min(max(budget - taken, 0.0), float(tail[cut]))
        tail[cut] -= part
        taken += part
    cut = min(cut, finite.size - 1)
    if direction == "pessimistic":
        return finite[cut:], cut, taken
    return finite[: finite.size - cut], 0, taken


#: Sizes and running-sum positions on both sides of the doubling prefixes.
PREFIX_EDGES = (4095, 4096, 4097, 8191, 8192, 8193)


@st.composite
def truncation_inputs(draw) -> tuple[np.ndarray, float]:
    size = draw(st.one_of(st.sampled_from((1, 2, *PREFIX_EDGES)), st.integers(1, 20000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    finite = rng.random(size) ** rng.uniform(1.0, 40.0)
    finite[rng.random(size) < draw(st.sampled_from((0.0, 0.3, 0.9)))] = 0.0
    layout = draw(st.sampled_from(("spread", "low_tail", "high_tail")))
    if layout != "spread":
        # all the mass in one tail: the other end is a long run of zeros
        heavy = max(1, size // 1000)
        finite[:heavy] = rng.random(heavy) + 0.5
        finite[heavy:] = 0.0
        if layout == "high_tail":
            finite = finite[::-1].copy()
    finite /= max(finite.sum(), 1e-300)
    kind = draw(st.sampled_from(("tie_low", "tie_high", "zero", "share")))
    if kind == "zero":
        return finite, 0.0
    if kind == "share":
        return finite, draw(st.floats(0.0, 1.0)) * float(finite.sum())
    sums = np.cumsum(finite if kind == "tie_low" else finite[::-1])
    at = draw(st.one_of(st.sampled_from((0, *(e - 1 for e in PREFIX_EDGES))), st.integers(0, size)))
    return finite, float(sums[min(at, size - 1)])


class TestTailCountCutSearch:
    @settings(max_examples=200, deadline=None)
    @given(truncation_inputs())
    def test_matches_full_running_sums(self, inputs):
        finite, budget = inputs
        for values in (finite, finite[::-1]):
            count, sums = _tail_sums(values, budget)
            assert count == _tail_count_full_cumsum(values, budget)
            # _first_meeting reads the summed prefix back as its suffix sums
            summed = min(count + 1, values.size)
            assert np.array_equal(sums[:summed], np.cumsum(values)[:summed])

    @settings(max_examples=200, deadline=None)
    @given(truncation_inputs(), st.sampled_from(("pessimistic", "optimistic")))
    def test_charge_cuts_where_full_running_sums_cut(self, inputs, direction):
        finite, budget = inputs
        got = compose._charge(finite.copy(), budget, direction)
        want = _charge_full_cumsum(finite.copy(), budget, direction)
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]


def test_import_leaves_out_scipy_fft_signal_and_stats():
    src = Path(pb.__file__).resolve().parent.parent
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import json, pldbounds; "
        "print(json.dumps([pldbounds.__file__, [m for m in sys.modules if m.split('.')[:2] "
        "in (['scipy', 'fft'], ['scipy', 'signal'], ['scipy', 'stats'])]]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, str(src)], capture_output=True, text=True, check=True
    )
    path, heavy = json.loads(done.stdout)
    assert Path(path).resolve().parent == src / "pldbounds"
    assert heavy == []


#: The ``fine-gaussian`` reference step: Gaussian sigma = 2 at spacing 1e-4,
#: composed 100 times at its budget, through a 720,000-point transform.
_FINE_GAUSSIAN = pb.curve_for(pb.MechanismSpec.gaussian(2.0))
_GRID_1E4 = pb.DiscretizationGrid.uniform(1e-4, *pb.default_epsilon_range(_FINE_GAUSSIAN, 1e-4))


@pytest.mark.parametrize(("direction", "arrays"), [("pessimistic", 10), ("optimistic", 12)])
def test_a_single_step_build_holds_few_full_length_arrays_at_its_peak(direction, arrays):
    # the builds peak at 9.4 and 11.2 arrays; an optimistic build that also
    # holds its candidates reads 12.2, and one that holds its edge widths
    # and vertex kinks through the tail pass 13.1
    build = pb.pessimistic_pair if direction == "pessimistic" else pb.optimistic_pair
    tracemalloc.start()
    try:
        pb.pld_of(build(_FINE_GAUSSIAN, _GRID_1E4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * _GRID_1E4.alphas.size


@pytest.mark.parametrize("direction", ["pessimistic", "optimistic"])
def test_a_large_composition_holds_two_full_length_arrays_at_its_peak(direction):
    build = pb.pessimistic_pair if direction == "pessimistic" else pb.optimistic_pair
    single = pb.pld_of(build(_FINE_GAUSSIAN, _GRID_1E4))
    policy = pb.CompositionPolicy(direction, truncation_tail_mass=1e-9)
    size = compose._plan([(single, 100)], policy).size
    assert size == 720_000
    tracemalloc.start()
    try:
        pb.self_compose(single, 100, policy)
        # what a composition leaves behind: the single step's window cache
        # (its positive masses' logs and offsets), and no transform buffer
        kept, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        composed = pb.self_compose(single, 100, policy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 16 * single.support_size + (1 << 16)
    # the result's masses and epsilons, and a byte per point for the check
    # that its epsilons are finite: no third full-length array at any time
    assert composed.support_size > 0.95 * size
    assert peak - kept <= (2 * 8 + 1) * size
