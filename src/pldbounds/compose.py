"""Composition of finitely supported loss distributions by convolution.

Running mechanisms side by side multiplies the dominating pairs, and the
loss distribution of a product pair is the convolution of the loss
distributions.  Finite masses convolve on the shared epsilon lattice
(indices add); atoms at +inf (and, for improper rounded-down estimates, at
-inf) are absorbing, so they combine by inclusion-exclusion while the finite
parts convolve at their complementary weight.

One engine composes n_f copies of each factor f: ``self_compose(pld, n)``
is the factor (pld, n), ``convolve(a, b)`` the factors (a, 1) and (b, 1).
``_plan`` makes every decision that needs no transform: the lattice, the
window, direct or FFT and the transform size.  ``_execute`` runs the plan:
it multiplies the factors' n_f-th spectral powers on a Chernoff-sized
window of the composed lattice (Koskela, Jalko and Honkela, "Computing
Tight Differential Privacy Guarantees Using FFT", AISTATS 2020), charges
the wrap and the round-off on the safe side inside the result, cleans the
masses with ``_guard`` and builds the result with ``pld._lattice_pld`` at
the factors' ``FinitePLD.lattice_offset``.

The transforms are ``numpy.fft``'s: the C++ pocketfft that ``scipy.fft``
ships too, with the same bits, but without scipy's plan cache, which keeps
up to 16 plans of about 8 bytes per transform point for the life of the
process, a new one for every transform length.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from numpy.fft import irfft, rfft

from .errors import (
    NumericalValidityError, RequestError, _composition_count, _is_finite_real, _require_positive
)
from .pld import _U, FinitePLD, _exact_sum, _lattice_pld, _sum_error, _tail_sums

__all__ = ["CompositionPolicy", "convolve", "self_compose", "point_mass_pld"]

_DIRECTIONS = ("pessimistic", "optimistic")
_METHODS = ("fft", "direct")

#: Masses below this are flushed to zero to avoid denormal slowdowns.
_MASS_FLOOR = 1e-300

#: FFT round-off can leave tiny negative coefficients; anything beyond this
#: indicates a real problem.
_FFT_NEG_TOL = 1e-13

#: Normwise relative error of one radix-2 FFT pass: Higham's
#: eta = mu + gamma_4 (sqrt(2) + mu) is below 7u for twiddles within mu <= u.
_FFT_PASS_ERR = 8.0 * _U

#: Longest full support that a budgeted composition computes directly
#: when its window would cover it: binary powering over ``np.convolve``
#: takes about full^2 / 3 products there, a few milliseconds.
_DIRECT_MAX = 1 << 13

#: Lattice points per octave of t at which window edges are sought: t_j = 2^(j / 8).
_OCTAVE = 8

#: The walk for a window edge stays within |j| <= this, t in [2^-64, 2^64].
_WALK_MAX = 64 * _OCTAVE

#: t_j at index j + _WALK_MAX, computed once, so every read of t_j has the same bits.
_TS = np.exp2(np.arange(-_WALK_MAX, _WALK_MAX + 1) / _OCTAVE)
_TS_LIST = _TS.tolist()

#: A lattice evaluation of a single step of K points covers this // K lattice
#: points in one array call, at least 3 (a point and its neighbours) and at
#: most ``_BLOCK_MAX``, which walks on short steps seldom outrun.
_BLOCK_SUMMANDS = 1 << 14
_BLOCK_MAX = 16


@dataclasses.dataclass(frozen=True)
class CompositionPolicy:
    """How to compose: direction, method, per-side budget, support cap.

    ``truncation_tail_mass`` is the mass one composition may relocate per
    side: its transform window leaves at most W = truncation_tail_mass / N
    outside on each side, N the total count of single steps.  It charges
    only the side whose wrap could move delta the wrong way, by a Chernoff
    bound on the mass the window really leaves out there, at most W and 0
    when the window reaches the support's end (``_plan``; the soundness
    argument is ``_execute``'s).  With ``method="direct"`` a composition never
    truncates: the exact reference works at the full composed support and
    raises on ``max_support`` when that is longer.
    """

    direction: str
    method: str = "fft"
    truncation_tail_mass: float = 1e-15
    max_support: int = 1 << 22

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise RequestError(f"direction must be one of {_DIRECTIONS}")
        if self.method not in _METHODS:
            raise RequestError(f"method must be one of {_METHODS}")
        budget = self.truncation_tail_mass
        if not (_is_finite_real(budget) and 0.0 <= budget <= 1e-6):
            raise RequestError(f"truncation_tail_mass must lie in [0, 1e-6], got {budget!r}")
        if _composition_count(self.max_support, "max_support") < 2:
            raise RequestError(f"max_support must be at least 2, got {self.max_support!r}")


def point_mass_pld(spacing: float) -> FinitePLD:
    """Loss distribution of an empty composition: all mass at epsilon = 0."""
    _require_positive(spacing, "spacing")
    return _lattice_pld(spacing, 0, np.array([0.0, 1.0, 0.0]))


def _policy(policy) -> CompositionPolicy:
    """``policy``, refused unless it is a ``CompositionPolicy``."""
    if not isinstance(policy, CompositionPolicy):
        raise RequestError(f"policy must be a CompositionPolicy, got {policy!r}")
    return policy


def _guard(finite: np.ndarray) -> None:
    """Clip FFT round-off at 0, failing beyond ``_FFT_NEG_TOL``, and flush below ``_MASS_FLOOR``."""
    worst = float(finite.min())
    if worst < -_FFT_NEG_TOL:
        raise NumericalValidityError(f"fft composition went negative ({worst:.3e})")
    # the negatives lie below the floor too; above it, nothing is flushed
    if worst < _MASS_FLOOR:
        finite[finite < _MASS_FLOOR] = 0.0


def convolve(a: FinitePLD, b: FinitePLD, policy: CompositionPolicy) -> FinitePLD:
    """Compose two loss distributions on one lattice: ``_execute`` of the factors (a, 1), (b, 1).

    A positive budget windows and charges as in ``self_compose``; a zero
    one gives ``scipy.signal.fftconvolve``'s bits (after ``_guard``), and
    ``method="direct"`` gives ``np.convolve``'s at full support.
    """
    return _execute(_plan([(a, 1), (b, 1)], _policy(policy)), policy.direction)


def _log_mgf(log_f: np.ndarray, offsets: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """log M(t) at each t > 0 of ``ts``, M(t) the sum of e^(log_f + t * offsets), in one array call.

    The exponents are taken relative to s(t) = max log_f + t max offsets, at
    least the largest of them, and those below s(t) - 700 are raised to it,
    which keeps denormals out of the sums and can only overstate M.  Each
    t's value is computed by elementwise operations and a sum along its own
    row, so it does not depend on which other t share the call.
    """
    top_f, top = float(log_f.max()), float(offsets.max())
    exponents = np.multiply.outer(ts, offsets - top)
    exponents += log_f - top_f
    np.maximum(exponents, -700.0, out=exponents)
    np.exp(exponents, out=exponents)
    return top_f + ts * top + np.log(exponents.sum(axis=1))


@dataclasses.dataclass(frozen=True)
class _Step:
    """What every composition of one single step shares, computed once per ``FinitePLD``.

    ``mass`` is the exact total of the finite masses.  The positive ones
    have logs ``log_f`` and lie at ``offsets`` from ``center``, their
    mass-weighted mean index rounded.  ``log_m0`` and ``var0`` are log M(0)
    and the variance of the offsets under the masses, the same for
    ``offsets`` and their negation.  ``memo`` maps lattice indices j to
    log M(t_j) per sign, the offsets times -1 (index 0) or 1 (index 1), for
    the points evaluated so far: a window edge (``_tail_edge``) that reads
    a missing one evaluates ``block`` points in one call
    (``_lattice_log_mgf``).  Every entry is a pure function of the step,
    the sign and j, so no order of counts changes a window.  Without positive finite
    masses the moments are NaN and no window is sought.
    """

    mass: float
    center: int
    log_f: np.ndarray
    offsets: np.ndarray
    log_m0: float
    var0: float
    block: int
    memo: tuple[dict, dict]


def _step(pld: FinitePLD) -> _Step:
    """``pld``'s ``_Step``, kept in its ``_window_step`` after the first call."""
    step = pld._window_step
    if step is None:
        single = pld.masses[1:-1]
        at = np.flatnonzero(single)
        positive = single[at]
        total = float(positive.sum())
        center = round(float(at @ positive) / total) if at.size else 0
        offsets = (at - center).astype(float)
        log_m0 = var0 = math.nan
        if at.size:
            mean = float(offsets @ positive) / total
            log_m0 = math.log(total)
            var0 = max(float((offsets * offsets) @ positive) / total - mean * mean, 0.0)
        block = min(max(3, _BLOCK_SUMMANDS // max(at.size, 1)), _BLOCK_MAX)
        step = _Step(
            _exact_sum(single), center, np.log(positive), offsets, log_m0, var0, block, ({}, {})
        )
        object.__setattr__(pld, "_window_step", step)
    return step


def _lattice_log_mgf(step: _Step, sign: float, j: int, ahead: int) -> float:
    """log M(t_j) of ``step``'s offsets times ``sign``, evaluated into ``step.memo``.

    Evaluates ``step.block`` lattice points in one ``_log_mgf`` call: j and
    those beyond it in the direction ``ahead``, or centred on j when
    ``ahead`` is 0, within |j| <= ``_WALK_MAX``.
    """
    first = j - step.block // 2 if ahead == 0 else j if ahead > 0 else j - step.block + 1
    first = max(first, -_WALK_MAX)
    stop = min(first + step.block, _WALK_MAX + 1)
    ts = _TS[first + _WALK_MAX : stop + _WALK_MAX]
    memo = step.memo[sign > 0.0]
    memo.update(zip(range(first, stop), _log_mgf(step.log_f, sign * step.offsets, ts).tolist()))
    return memo[j]


def _tail_edge(steps: list[tuple[_Step, int]], n: int, sign: float, log_inv_w: float) -> float:
    """A b with mass{S >= s} <= W for every s >= b: ``_edge``'s b."""
    return _edge(steps, n, sign, log_inv_w)[0]


def _edge(
    steps: list[tuple[_Step, int]], n: int, sign: float, log_inv_w: float
) -> tuple[float, int | None]:
    """A b with mass{S >= s} <= W for every s >= b, S the sum of n_f offsets of each factor; and j.

    ``steps`` holds each factor's ``_Step`` and count n_f; the offsets are
    ``step.offsets`` times ``sign``: 1 for the high edge, -1 for the low
    one.  ``log_inv_w`` is -log W, n = sum n_f, and log M(t) is the
    n_f-weighted mean of the factors' log moment generating functions.
    For every t > 0 Chernoff's bound mass{S >= s} <= e^(-ts) M(t)^n meets W
    at g(t) = (n log M(t) - log W) / t, so every g(t) is a valid b.  The
    edge is the least g on the lattice t_j = 2^(j / 8): n log M - log W is
    convex in t and positive at 0, so g falls, then rises, and a walk
    downhill from the Gaussian start (below) ends at the lattice minimum
    t* = t_j, whose index j is returned with b = g(t*) and whose log M
    values stay in the memo (``_wrap_bound`` reads them).
    The factors' log M(t_j) are memoised on their steps
    (``_lattice_log_mgf``), so a count near one already planned reads
    them back.  Without a minimum, either the top point alone keeps mass
    >= W and g falls to sum n_f max(offsets_f), or the composed mass is at
    most W and any b will do; j is None then.
    """
    # the offsets ascend, so the largest is the last one, or the first once negated
    top = -1 if sign > 0.0 else 0
    log_top = highest = lowest = log_m = var = -0.0
    for step, count in steps:
        share = count / n
        log_top += count * float(step.log_f[top])
        highest += count * sign * float(step.offsets[top])
        lowest += count * sign * float(step.offsets[-1 - top])
        log_m += share * step.log_m0
        var += share * step.var0
    if -log_top <= log_inv_w:
        return highest, None
    if -n * log_m >= log_inv_w:
        return lowest, None

    memos = [(step, step.memo[sign > 0.0], count) for step, count in steps]

    def g(j: int, ahead: int) -> float:
        total = log_inv_w
        for step, memo, count in memos:
            value = memo.get(j)
            total += count * (_lattice_log_mgf(step, sign, j, ahead) if value is None else value)
        return total / _TS_LIST[j + _WALK_MAX]

    # the Gaussian approximation log M(t) = log M(0) + mean t + var t^2 / 2
    # puts the minimum of g at this t; a variance that rounded to 0 puts it
    # beyond the lattice's top
    j = _WALK_MAX
    if var > 0.0:
        t = math.sqrt(2.0 * (log_inv_w / n + log_m) / var)
        j = min(max(round(_OCTAVE * math.log2(t)), -_WALK_MAX), _WALK_MAX)
    here = g(j, 0)
    for ahead in (1, -1):
        start = j
        while abs(j + ahead) <= _WALK_MAX:
            there = g(j + ahead, ahead)
            if not there < here:
                break
            j, here = j + ahead, there
        if j != start:
            break
    return here, j


def _wrap_bound(
    steps: list[tuple[_Step, int]], sign: float, j: int | None, s: int, w: float
) -> float:
    """An upper bound on mass{S >= s}, at most W = ``w``, from the memoised log M(t_j).

    S and the sign are ``_edge``'s, and j the index it returned for this
    sign; without one (j is None) the bound is W.  Chernoff's bound at
    t = t_j is mass{S >= s} <= e^x with x = sum_f n_f log M_f(t) - t s, the
    exponent of ``_edge``'s b = g(t) at s instead of b: e^x = W e^(-t (s - b)).
    The log M_f(t_j) are read from the memo and taken as exact, as for the
    edges; t_j is the float they were evaluated at.  Evaluated in floats,
    the k products n_f log M_f, their sum, t s and the difference err by at
    most (k + 3) u (sum |n_f log M_f| + |t s|) together, and ``math.exp``
    by less than an ulp; the bound raises x by that much and the result by
    4u.
    """
    if j is None:
        return w
    ts = _TS_LIST[j + _WALK_MAX] * s
    x, size = -ts, abs(ts)
    for step, count in steps:
        term = count * step.memo[sign > 0.0][j]
        x += term
        size += abs(term)
    return min(w, math.exp(x + (len(steps) + 3) * _U * size) * (1.0 + 4.0 * _U))


@functools.lru_cache(maxsize=1 << 12)
def _fast_length(n: int) -> int:
    """The smallest 5-smooth integer >= n >= 1: ``scipy.fft.next_fast_len(n, real=True)``."""
    best = 1 << (n - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            # the least power of two that lifts odd to n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        fives *= 5
    return best


def _times_in_place(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b into a: a fresh array per product would pay its page faults again."""
    return np.multiply(a, b, out=a)


def _live_threshold(n: int) -> float:
    """tau = 2^(-1022 / n): an entry below it has an n-th power below 2^-1022."""
    return 2.0 ** (-1022.0 / n)


def _spectral_power(factors: list[tuple[np.ndarray, int]], size: int) -> np.ndarray:
    """Circular composition at length ``size``: an rfft per factor, their powers' product, an irfft.

    ``factors`` holds (single-step finite masses, count) pairs, and each
    factor's spectrum is raised to its count.  Entries beyond ``size`` are
    first folded onto their index modulo ``size``; ``rfft`` would silently
    drop them.  Spectrum entries with |s| < tau (``_live_threshold`` of the
    count) are set to 0 instead of powered: their powers are below 2^-1022,
    and the chain of squarings that would reach them runs through
    subnormals, which cost tens of times a normal product.
    ``_rounding_bound`` charges what the zeros leave out.  The live entries
    are gathered into a compact band when they are at most half of the
    spectrum, and powered in place otherwise: squaring the zeros in place
    would still pass over the whole spectrum per product.  A lone factor's
    band goes to ``irfft`` only up to its last live entry.  Gathering every
    spectrum into a band instead was measured on the ``readme-sweep``
    reference op (33 of its 40 spectra are powered in place, 7 in a band),
    in one process on a 2-vCPU Xeon, 30 alternating rounds: 4.58 ms per op
    in this function against 4.22 ms, faster in only 6 of 30 rounds, with
    bit-identical answers.

    The power is returned as ``buffer[1 : size + 1]`` of a fresh ``buffer``
    of ``size + 2`` floats, which ``_execute`` keeps as its result: its end
    slots hold the atoms.  The first factor's spectrum is computed in the
    buffer's memory and the inverse transform writes into it, so a lone
    factor's composition allocates no other full-length array; a fresh
    array per transform would pay its page faults again.
    """
    buffer = np.empty(size + 2)
    power = buffer[1:-1]
    product = None
    for single, n in factors:
        if single.size > size:
            padded = np.zeros(-(-single.size // size) * size)
            padded[: single.size] = single
            single = padded.reshape(-1, size).sum(axis=0)
        out = buffer[: 2 * (size // 2 + 1)].view(complex) if product is None else None
        spectrum = rfft(single, size, out=out)
        live = np.abs(spectrum) >= _live_threshold(n)
        count = int(np.count_nonzero(live))
        if 2 * count > live.size:
            if count < live.size:
                spectrum[~live] = 0.0
            spectrum = _binary_power(spectrum, n, _times_in_place)
        else:
            # numpy multiplies a one-entry array on a scalar path whose last bit
            # can differ from its vector loop's, so a lone entry goes in twice
            at = np.flatnonzero(live).repeat(2 if count == 1 else 1)
            band = _binary_power(spectrum[at], n, _times_in_place)
            if len(factors) == 1:
                # irfft pads a short spectrum with zeros, so a lone factor's
                # can end at its last live entry, outside the buffer
                spectrum = np.zeros(at[-1] + 1 if count else 1, dtype=complex)
            else:
                spectrum.fill(0.0)
            spectrum[at] = band
        product = spectrum if product is None else _times_in_place(product, spectrum)
    # numpy copies a product that still lies in the buffer before it writes there
    return irfft(product, size, out=power)


def _rotate(values: np.ndarray, shift: int) -> None:
    """Move ``values[(i + shift) % size]`` to ``values[i]`` in place.

    Only the shorter of the two parts is copied out first: numpy copies
    between overlapping slices of one array, strided the same way, without
    a temporary.
    """
    size = values.size
    if shift <= size - shift:
        head = values[:shift].copy()
        values[: size - shift] = values[shift:]
        values[size - shift :] = head
    else:
        tail = values[shift:].copy()
        values[size - shift :] = values[:shift]
        values[: size - shift] = tail


def _fft_error(size: int) -> float:
    """Bound on ||fl(F x) - F x||_2 / ||F x||_2 for a real (inverse) FFT of ``size``.

    Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.), Thm 24.2:
    k radix-2 passes err by at most k eta / (1 - k eta).  A pass of another
    radix (3, 5, 7, 11) stands for log2(radix) radix-2 passes, and the real
    transform adds one pass that splits the half-length complex one.
    """
    eta = (math.ceil(math.log2(size)) + 1) * _FFT_PASS_ERR
    return eta / (1.0 - eta)


def _rounding_bound(
    factors: list[tuple[np.ndarray, int]], masses: list[float], size: int, power: np.ndarray
) -> float:
    """Bound on the L1 distance from ``power`` to the exact circular composition.

    ``power`` is ``_spectral_power(factors, size)`` and ``masses`` the
    factors' finite masses; factor f has count n_f, and N is their sum.  An
    error E in the length-``size`` spectrum moves the inverse transform by
    at most ||E||_2 in L1 (Parseval, then Cauchy-Schwarz), so each source
    is bounded in the spectrum's 2-norm:

    - the fold and the forward transform leave factor f's spectrum s within
      d_f of the exact one, with d_f = sqrt(size) (eta ||x||_2 + ||fold error||_1);
    - its power maps that to n_f (mass_f + d_f)^(n_f - 1) d_f, as
      |s_k| <= mass_f, and the product of the powers moves by the sum over
      f of that times the other factors' (mass_g + d_g)^n_g, which bound
      the entries of their powers;
    - every complex product errs by at most 3u relatively, and the product
      of the powers is N - 1 products deep: a relative (1 + 3u)^(N - 1) - 1;
    - the inverse transform errs by eta ||P||_2;
    - the entries ``_spectral_power`` set to 0 in factor f instead of
      powering have |s_k| < tau_f (1 + u), tau_f the threshold it applied
      and the factor the rounding of |s_k|.  The products they leave out
      total at most sqrt(size + 2) tau_f^n_f in the 2-norm, times the other
      factors' bounds: the rfft's size // 2 + 1 entries, each counted with
      its conjugate, are at most size + 2.  Their distance to the exact
      products is already in the powers' term.

    ||P||_2, the norm of the spectrum's product, is read back from ``power``
    by Parseval.  Entries flushed below ``_MASS_FLOOR`` add at most that
    much each.  The final slack covers (1 + u)^N and the rounding of tau_f^n_f.
    """
    eta = _fft_error(size)
    n, spread = 0, []
    for (single, count), mass in zip(factors, masses):
        rows = -(-single.size // size)
        fold = (rows - 1) * _U * mass
        x_norm = min(mass, math.sqrt(rows * float(single @ single)))
        d = math.sqrt(size) * (eta * x_norm + fold)
        n += count
        spread.append((count, mass, d, (mass + d) ** count))
    moved = zeroed = -0.0
    for f, (count, mass, d, _) in enumerate(spread):
        rest = math.prod(reach for g, (*_, reach) in enumerate(spread) if g != f)
        moved += count * (mass + d) ** (count - 1) * d * rest
        zeroed += _live_threshold(count) ** count * rest
    p_norm = math.sqrt(size * float(power @ power)) / (1.0 - eta)
    products = math.expm1((n - 1) * math.log1p(3.0 * _U))
    bound = moved + (products / (1.0 - products) + eta) * p_norm
    bound += math.sqrt(size + 2) * zeroed
    # slack for evaluating the bound itself
    return (bound + size * _MASS_FLOOR) * (1.0 + 1e-6)


def _binary_power(base: np.ndarray, n: int, times) -> np.ndarray:
    """base^n for n >= 1 under the product ``times``, by binary powering.

    ``times(a, b)`` may overwrite ``a``, and ``base`` with it.
    """
    result = None
    while True:
        if n & 1:
            result = base.copy() if result is None else times(result, base)
        n >>= 1
        if not n:
            return result
        base = times(base, base)


def _charge(finite: np.ndarray, budget: float, direction: str) -> tuple[np.ndarray, int, float]:
    """Take ``budget`` of the lowest (pessimistic) or highest (optimistic) finite mass.

    Zeroes the entries it empties and drops them, keeping at least one.
    Returns (kept masses, entries dropped from the low end, mass taken); the
    mass taken is ``budget`` unless the finite mass is smaller.
    """
    tail = finite if direction == "pessimistic" else finite[::-1]
    cut = _tail_sums(tail, budget)[0]
    taken = _exact_sum(tail[:cut])
    tail[:cut] = 0.0
    if cut < tail.size:
        part = min(max(budget - taken, 0.0), float(tail[cut]))
        tail[cut] -= part
        taken += part
    cut = min(cut, finite.size - 1)
    if direction == "pessimistic":
        return finite[cut:], cut, taken
    return finite[: finite.size - cut], 0, taken


@dataclasses.dataclass
class _Plan:
    """Every decision of one composition that needs no transform: what ``_plan`` returns.

    ``factors`` holds each factor's single step and count n_f, and ``n`` is
    N, the sum of the n_f.  Composed indices count from ``j0``, the sum of
    each factor's count times its first index, so the composed support is
    [0, full).  ``budget`` is W = truncation_tail_mass / N, and the window
    [start, start + length) leaves at most W of the composed finite mass
    below it and at most W above it.  ``wrap`` bounds the mass it leaves
    out on the side the direction charges (see ``_execute``): above it
    (pessimistic) or below it (optimistic); it is at most W, and 0 where
    the window reaches the support's end on that side.  ``size`` is the
    transform length, or 0 where ``_execute`` composes directly.
    """

    factors: list[tuple[FinitePLD, int]]
    n: int
    j0: int
    full: int
    budget: float
    start: int
    length: int
    size: int
    wrap: float


def _plan(factors: list[tuple[FinitePLD, int]], policy: CompositionPolicy) -> _Plan:
    """The ``_Plan`` of composing n_f copies of each factor f = (single step, n_f), n_f >= 1.

    Refuses factors on different lattices, a -inf atom against a +inf one
    (their product has no loss value), and a window longer than
    ``max_support``, all before any transform.  The window's edges
    (``_tail_edge``) are lattice minima of the Chernoff bound g, each itself
    a Chernoff bound, read from log M values memoised on the factors'
    single steps; they are rounded outward and the window's length is a
    fast transform length.  The length's slack goes to the side the
    direction charges: a pessimistic window starts at the low edge, an
    optimistic one ends at the high edge, each clipped to the support.
    The wrap is bounded at the first index outside the window on that side
    by the Chernoff bound at the edge's own lattice point (``_wrap_bound``).
    The window is the whole support when that is no longer, when W is 0,
    when a factor has no positive finite mass, and when the composition is
    direct (see ``_execute``).
    """
    spacing = factors[0][0].spacing
    if spacing is None or any(pld.spacing != spacing for pld, _ in factors):
        spacings = " and ".join(str(pld.spacing) for pld, _ in factors)
        raise RequestError(f"composition needs one lattice spacing, got {spacings}")
    direct, n, full, j0 = policy.method == "direct", 0, 1, 0
    for f, (pld, count) in enumerate(factors):
        for other, _ in factors[f if count > 1 else f + 1 :]:
            if (pld.masses[0] > 0.0 and other.masses[-1] > 0.0) or (
                other.masses[0] > 0.0 and pld.masses[-1] > 0.0
            ):
                raise RequestError("cannot compose -inf mass against +inf mass")
        direct = direct or pld.support_size == 1
        n += count
        full += count * (pld.support_size - 1)
        j0 += count * pld.lattice_offset
    budget = policy.truncation_tail_mass / n
    start, length, wrap = 0, full, 0.0
    steps = [] if direct or budget <= 0.0 else [(_step(pld), count) for pld, count in factors]
    if steps and all(step.log_f.size for step, _ in steps):
        center = sum(count * step.center for step, count in steps)
        log_inv_w = -math.log(budget)
        b_hi, j_hi = _edge(steps, n, 1.0, log_inv_w)
        b_lo, j_lo = _edge(steps, n, -1.0, log_inv_w)
        hi = min(math.floor(center + b_hi) + 1, full)
        lo = max(math.ceil(center - b_lo), 0)
        length = min(_fast_length(max(hi - lo, 1)), full)
        if policy.direction == "pessimistic":
            start = min(lo, full - length)
            if start + length < full:
                wrap = _wrap_bound(steps, 1.0, j_hi, start + length - center, budget)
        else:
            start = max(hi - length, 0)
            if start > 0:
                wrap = _wrap_bound(steps, -1.0, j_lo, center - start + 1, budget)
    direct = direct or (0.0 < budget and length == full <= _DIRECT_MAX)
    if length > policy.max_support:
        raise RequestError(
            f"composed support {length} exceeds max_support "
            f"{policy.max_support}; raise the cap or allow more truncation"
        )
    # a window shorter than the support already has a fast length
    size = 0 if direct else length if length < full else _fast_length(full)
    return _Plan(factors, n, j0, full, budget, start, length, size, wrap)


def _execute(plan: _Plan, direction: str) -> FinitePLD:
    """The composition that ``plan`` describes, on the ``direction`` side.

    Every factor's finite masses are transformed once on a window of the
    composed lattice, raised to n_f, multiplied and transformed back; the
    atoms are 1 - prod (1 - m_f)^n_f.  The window (see ``_plan``) leaves
    at most W = truncation_tail_mass / N of the composed finite mass outside
    it on each side, N the sum of the n_f, and that mass wraps around into
    it: the high tail lands on the window's low end, the low tail on its
    high end.

    The wrap and the round-off are charged inside the result.  Write the
    exact composed masses folded onto the window as y = w + u + z: w is the
    mass that lies in the window, u the low tail wrapped upward and z the
    high tail wrapped downward, each of mass at most W.  Only one of them is
    charged: the plan's ``wrap`` V bounds z (pessimistic) or u (optimistic)
    from above, by the Chernoff bound at the first index outside the window
    on that side (``_wrap_bound``), and is 0 when the window reaches the
    support's end there.  The argument below needs nothing more of V than
    that bound, and V <= W.  The computed masses
    (after the clip) are y' = y + e with e = e+ - e-, where
    ||e||_1 <= R (``_rounding_bound``) and, as y >= 0, e+ <= y' pointwise.
    A unit of mass at x adds h(x) = [1 - e^(epsilon - x)]_+ to delta at
    epsilon; h does not decrease in x, and g = 1 - h does not increase.

    - pessimistic: the lowest V + R of y' moves to +inf, and D+ is added
      there: an upper bound on the mass y' lacks, D = prod mass_f^n_f
      - sum(y'), floored at 0.  The target is w + u with z moved to +inf.
      Its delta exceeds that of y' by sum(z g) + D + sum(e+ g) - sum(e- g).
      The part of z above y' - e+ is at most e-, so -sum(e- g) outweighs
      it; the rest of z together with e+ is a part of y' of mass at most
      V + R, and no such part adds more than the lowest V + R of y' moved
      to +inf.  The target bounds the true delta from above: u only moved
      up, and +inf lies above the high tail.
    - optimistic: the highest V + R of y' moves to -inf.  The target is
      w + z, whose delta is that of y' less sum(u h) + sum(e h).  By the same
      split, the part of u outside e- together with e+ is a part of y' of
      mass at most V + R, and removing the highest V + R of y' lowers delta
      at least as much.  The target bounds the true delta from below: z
      only moved down, and the low tail's contribution is dropped.

    V is recorded in ``truncated_high`` (pessimistic) or ``truncated_low``
    (optimistic) and stays within the policy's per-side budget; the rest of
    the charge, and D+, in ``rounding_charge``, together with the factors'
    charges times n_f.

    The result's mass gate (``FinitePLD``) admits a total within
    max(1e-11, ``rounding_charge``) of 1.  That is sound: the charge holds
    R (unless all the finite mass moved), and a total off 1 by at most R is
    the total of some e with ||e||_1 <= R, which the argument above already
    pays for.  A defect beyond the charge is not covered and still fails
    the gate.

    Some compositions skip the transform or the charge.  ``method="direct"``
    is the exact reference: binary powering over ``np.convolve`` per factor
    and the convolution of the powers, at full support 1 + sum n_f (K_f - 1)
    for K_f single-step points, without charge.  A budgeted window over a
    whole support of at most ``_DIRECT_MAX`` points is computed the same
    way: sums of non-negative products round relatively, by about
    N log2(N) K u per mass, which moves delta by that fraction of itself
    and is not charged.  So is a composition with a one-point factor, which
    scales each mass of the others by one product, as
    ``scipy.signal.fftconvolve`` does.  A zero budget asks for the
    transform's result at full support without charge: for two factors,
    the bits of ``scipy.signal.fftconvolve``.
    """
    singles = [(pld.masses[1:-1], count) for pld, count in plan.factors]
    start, length, size = plan.start, plan.length, plan.size
    pessimistic = direction == "pessimistic"
    rounding = lacking = taken = 0.0
    if not size:
        powers = (_binary_power(single, count, np.convolve) for single, count in singles)
        buffer = np.empty(length + 2)
        buffer[1:-1] = functools.reduce(np.convolve, powers)
    else:
        power = _spectral_power(singles, size)
        if plan.budget > 0.0:
            totals = [_step(pld).mass for pld, _ in plan.factors]
            rounding = _rounding_bound(singles, totals, size, power)
        # the window starts at start % size and may wrap past the power's end;
        # rotated to 0, it lies between the atom slots of the power's buffer
        if start % size:
            _rotate(power, start % size)
        buffer = power.base
    finite = buffer[1 : length + 1]
    _guard(finite)
    if rounding and pessimistic:
        # each mass_f^n_f rounds within (n_f + 2) u and each product of them
        # within u; the contiguous sum within _sum_error
        total = float(finite.sum()) / (1.0 + _sum_error(length))
        mass = math.prod(m**count for m, (_, count) in zip(totals, singles))
        lacking = max(mass * (1.0 + (plan.n + 3 * len(singles) - 1) * _U) - total, 0.0)
    # what the factors' n_f copies carry in: atoms' log-complements, -inf for
    # an atom that holds all the mass, and charges
    log_neg = log_inf = low = high = charged = -0.0
    for pld, count in plan.factors:
        log_neg += count * math.log1p(-float(pld.masses[0])) if pld.masses[0] < 1.0 else -math.inf
        log_inf += count * math.log1p(-float(pld.masses[-1])) if pld.masses[-1] < 1.0 else -math.inf
        low += count * pld.truncated_low
        high += count * pld.truncated_high
        charged += count * pld.rounding_charge
    neg_mass, inf_mass = -math.expm1(log_neg), -math.expm1(log_inf)
    wrap = plan.wrap
    dropped = 0
    if wrap + rounding > 0.0:
        finite, dropped, taken = _charge(finite, wrap + rounding, direction)
        start += dropped
        if pessimistic:
            inf_mass += taken + lacking
        else:
            neg_mass += taken
    truncated = min(wrap, taken)
    masses = buffer[dropped : dropped + finite.size + 2]
    masses[0], masses[-1] = neg_mass, inf_mass
    return _lattice_pld(
        plan.factors[0][0].spacing, plan.j0 + start, masses,
        proper=all(pld.proper for pld, _ in plan.factors),
        truncated_low=low + (0.0 if pessimistic else truncated),
        truncated_high=high + (truncated if pessimistic else 0.0),
        rounding_charge=charged + taken - truncated + lacking,
    )


def self_compose(pld: FinitePLD, n: int, policy: CompositionPolicy) -> FinitePLD:
    """n-fold self-composition by one power of the spectrum: ``_execute`` of the factor (pld, n).

    n = 0 is the empty composition (a point mass at 0), not an error, and
    n = 1 returns ``pld``.  The wrap, at most W = truncation_tail_mass / n,
    and the round-off are charged on the safe side, as ``convolve`` charges
    a product; ``method="direct"`` has support n (K - 1) + 1 for K points.
    """
    n, policy = _composition_count(n), _policy(policy)
    spacing = pld.spacing
    if spacing is None:
        raise RequestError("composition requires uniform-lattice distributions")
    if n == 0:
        return point_mass_pld(spacing)
    if n == 1:
        return pld
    return _execute(_plan([(pld, n)], policy), policy.direction)
