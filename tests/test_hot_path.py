"""Composition hot path: one-transform squaring, fast mass totals, the
truncation cut search, import weight.

The FFT branch must give the bits ``scipy.signal.fftconvolve`` gives (followed
by the same clip and flush), whether or not a square shares one transform,
the mass gates must reach exactly the verdict of an exactly rounded
``math.fsum`` total, and truncation must cut where full running sums cut.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

import pldbounds as pb
from pldbounds import cli, compose
from pldbounds.pld import _MASS_ATOL, _mass_total

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
        fft_convolve = compose._fft_convolve

        def inject(fa, fb, square):
            out = fft_convolve(fa, fb, square)
            if not calls:
                out[int(np.argmax(out))] += 1.05e-11
            calls.append(square)
            return out

        monkeypatch.setattr(compose, "_fft_convolve", inject)
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


def _truncate_full_cumsum(finite, j0, neg_mass, inf_mass, direction, budget):
    """Reference truncation: cuts found on running sums over the whole array."""
    if budget <= 0.0 or finite.size <= 1:
        return finite, j0, neg_mass, inf_mass, 0.0, 0.0
    csum = np.cumsum(finite)
    lo_cut = min(int(np.searchsorted(csum, budget, side="right")), finite.size - 1)
    rsum = np.cumsum(finite[::-1])
    hi_cut = min(int(np.searchsorted(rsum, budget, side="right")), finite.size - 1 - lo_cut)
    if lo_cut == 0 and hi_cut == 0:
        return finite, j0, neg_mass, inf_mass, 0.0, 0.0
    hi_keep = finite.size - hi_cut
    moved_low = float(math.fsum(finite[:lo_cut].tolist()))
    moved_high = float(math.fsum(finite[hi_keep:].tolist()))
    finite = finite[lo_cut:hi_keep].copy()
    if direction == "pessimistic":
        finite[0] += moved_low
        inf_mass += moved_high
    else:
        neg_mass += moved_low
        finite[-1] += moved_high
    return finite, j0 + lo_cut, neg_mass, inf_mass, moved_low, moved_high


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


class TestTruncateCutSearch:
    @settings(max_examples=200, deadline=None)
    @given(
        truncation_inputs(),
        st.sampled_from(("pessimistic", "optimistic")),
        st.sampled_from((0.0, 1e-9)),
    )
    def test_matches_full_running_sums(self, inputs, direction, neg_mass):
        finite, budget = inputs
        inf_mass = 0.0 if neg_mass else 1e-9
        got = compose._truncate(finite.copy(), 7, neg_mass, inf_mass, direction, budget)
        want = _truncate_full_cumsum(finite.copy(), 7, neg_mass, inf_mass, direction, budget)
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]


def test_import_leaves_out_scipy_signal_and_stats():
    src = Path(pb.__file__).resolve().parent.parent
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import json, pldbounds; "
        "print(json.dumps([pldbounds.__file__, "
        "[m for m in sys.modules if m.split('.')[:2] in (['scipy', 'signal'], ['scipy', 'stats'])]]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, str(src)], capture_output=True, text=True, check=True
    )
    path, heavy = json.loads(done.stdout)
    assert Path(path).resolve().parent == src / "pldbounds"
    assert heavy == []
