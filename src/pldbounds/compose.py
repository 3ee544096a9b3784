"""Composition of finitely supported loss distributions by convolution.

Running two mechanisms side by side multiplies the dominating pairs, and the
loss distribution of a product pair is the convolution of the loss
distributions.  Finite masses convolve on the shared epsilon lattice
(indices add); atoms at +inf (and, for improper rounded-down estimates, at
-inf) are absorbing, so they combine by inclusion-exclusion while the finite
parts convolve at their complementary weight.  Both compositions clean their
finite masses with ``_guard`` and build their result with
``pld._lattice_pld`` at their operands' ``FinitePLD.lattice_offset``.

``convolve`` composes two distributions by one linear FFT convolution and
truncates its tails direction-aware, so that the one-sided meaning of an
estimate survives:

- pessimistic: low-tail mass moves up to the lowest retained finite epsilon
  and high-tail mass to +inf; both moves are upward in epsilon, so the
  divergence can only grow;
- optimistic: high-tail mass moves down to the highest retained finite
  epsilon and low-tail mass to -inf (where it contributes nothing); both
  moves are downward, so the divergence can only shrink.

``self_compose`` computes an n-fold composition with one transform, one
n-th power of the spectrum and one inverse transform (Koskela, Jalko and
Honkela, "Computing Tight Differential Privacy Guarantees Using FFT",
AISTATS 2020) on a window of the n-fold lattice sized by Chernoff bounds;
spectrum entries whose n-th power would underflow are set to 0
(``_spectral_power``).  It charges on the safe side, inside the result, the
mass that wraps around the window, a bound on its round-off
(``_rounding_bound``) and, when pessimistic, the mass it may have lost by
the ``np.sum`` bound ``pld._sum_error`` (see ``self_compose``).  ``convolve``
does not charge its round-off.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .errors import NumericalValidityError, RequestError
from .pld import _U, FinitePLD, _exact_sum, _lattice_pld, _sum_error, _tail_count

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

#: Longest full support that a budgeted self-composition computes directly
#: when its window would cover it: binary powering over ``np.convolve``
#: takes about full^2 / 3 products there, a few milliseconds.
_DIRECT_MAX = 1 << 13

#: Newton steps for a Chernoff window edge, and the relative residual that
#: stops them; every step's bound is valid, so stopping early only widens.
_NEWTON_STEPS = 40
_NEWTON_RTOL = 1e-2


@dataclasses.dataclass(frozen=True)
class CompositionPolicy:
    """How to compose: direction-aware truncation, method, support cap.

    ``truncation_tail_mass`` is the mass one composition may relocate per
    side.  ``convolve`` truncates by it under either method.
    ``self_compose`` sizes its transform window by it, but with
    ``method="direct"`` it never truncates: the exact reference works at the
    full n-fold support and raises on ``max_support`` when that is longer.
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
        if not (0.0 <= self.truncation_tail_mass <= 1e-6):
            raise RequestError(
                f"truncation_tail_mass must lie in [0, 1e-6], got "
                f"{self.truncation_tail_mass}"
            )
        if self.max_support < 2:
            raise RequestError("max_support must be at least 2")


def point_mass_pld(spacing: float) -> FinitePLD:
    """Loss distribution of an empty composition: all mass at epsilon = 0."""
    return _lattice_pld(spacing, 0, np.array([1.0]), 0.0, 0.0)


def _require_no_clash(a: FinitePLD, b: FinitePLD) -> None:
    """Reject composing a -inf atom with a +inf atom: their product has no loss value."""
    if (a.masses[0] > 0.0 and b.masses[-1] > 0.0) or (b.masses[0] > 0.0 and a.masses[-1] > 0.0):
        raise RequestError("cannot compose -inf mass against +inf mass")


def _require_support(size: int, policy: CompositionPolicy) -> None:
    if size > policy.max_support:
        raise RequestError(
            f"composed support {size} exceeds max_support "
            f"{policy.max_support}; raise the cap or allow more truncation"
        )


def _guard(finite: np.ndarray, what: str) -> None:
    """Clip FFT round-off at 0, failing beyond ``_FFT_NEG_TOL``, and flush below ``_MASS_FLOOR``."""
    worst = float(finite.min())
    if worst < -_FFT_NEG_TOL:
        raise NumericalValidityError(f"fft {what} went negative ({worst:.3e})")
    np.maximum(finite, 0.0, out=finite)
    finite[finite < _MASS_FLOOR] = 0.0


def _truncate(
    finite: np.ndarray,
    j0: int,
    neg_mass: float,
    inf_mass: float,
    direction: str,
    budget: float,
) -> tuple[np.ndarray, int, float, float, float, float]:
    """Relocate up to ``budget`` mass per tail, keeping at least one point.

    Returns (finite, j0, neg_mass, inf_mass, moved_low, moved_high).
    """
    if budget <= 0.0 or finite.size <= 1:
        return finite, j0, neg_mass, inf_mass, 0.0, 0.0
    lo_cut = min(_tail_count(finite, budget), finite.size - 1)
    hi_cut = min(_tail_count(finite[::-1], budget), finite.size - 1 - lo_cut)
    if lo_cut == 0 and hi_cut == 0:
        return finite, j0, neg_mass, inf_mass, 0.0, 0.0
    hi_keep = finite.size - hi_cut
    moved_low = _exact_sum(finite[:lo_cut])
    moved_high = _exact_sum(finite[hi_keep:])
    finite = finite[lo_cut:hi_keep].copy()
    if direction == "pessimistic":
        finite[0] += moved_low
        inf_mass += moved_high
    else:
        neg_mass += moved_low
        finite[-1] += moved_high
    return finite, j0 + lo_cut, neg_mass, inf_mass, moved_low, moved_high


def convolve(a: FinitePLD, b: FinitePLD, policy: CompositionPolicy) -> FinitePLD:
    """Compose two loss distributions on a shared lattice; FFT as ``scipy.signal.fftconvolve``."""
    spacing = a.spacing
    if spacing is None or spacing != b.spacing:
        raise RequestError(
            f"composition needs one lattice spacing, got {spacing} and {b.spacing}"
        )
    _require_no_clash(a, b)
    fa = a.masses[1:-1]
    fb = b.masses[1:-1]
    if policy.method == "direct":
        finite = np.convolve(fa, fb)
    elif fa.size == 1 or fb.size == 1:
        finite = fa * fb
    else:
        size = fa.size + fb.size - 1
        length = next_fast_len(size, True)
        spectrum = rfft(fa, length)
        spectrum *= rfft(fb, length)
        finite = irfft(spectrum, length)[:size]
    _guard(finite, "convolution")
    neg_a, inf_a = float(a.masses[0]), float(a.masses[-1])
    neg_b, inf_b = float(b.masses[0]), float(b.masses[-1])
    inf_mass = inf_a + inf_b - inf_a * inf_b
    neg_mass = neg_a + neg_b - neg_a * neg_b
    j0 = a.lattice_offset + b.lattice_offset
    finite, j0, neg_mass, inf_mass, moved_low, moved_high = _truncate(
        finite, j0, neg_mass, inf_mass, policy.direction, policy.truncation_tail_mass
    )
    _require_support(finite.size, policy)
    return _lattice_pld(
        spacing, j0, finite, neg_mass, inf_mass,
        proper=a.proper and b.proper,
        truncated_low=a.truncated_low + b.truncated_low + moved_low,
        truncated_high=a.truncated_high + b.truncated_high + moved_high,
        rounding_charge=a.rounding_charge + b.rounding_charge,
    )


def _log_mgf(
    log_f: np.ndarray, offsets: np.ndarray, squares: np.ndarray, t: float
) -> tuple[float, float, float]:
    """log M(t) and its first two derivatives, M(t) = sum of e^(log_f + t * offsets).

    ``squares`` holds the squared offsets.  Terms below e^-700 of the
    largest are raised to it, which keeps denormals out of the sums and can
    only overstate M.
    """
    exponents = log_f + t * offsets
    top = float(exponents.max())
    exponents -= top
    weights = np.exp(np.maximum(exponents, -700.0, out=exponents), out=exponents)
    total = float(weights.sum())
    mean = float(weights @ offsets) / total
    var = max(float(weights @ squares) / total - mean * mean, 0.0)
    return top + math.log(total), mean, var


@dataclasses.dataclass(frozen=True)
class _Step:
    """What every n-fold power of one single step shares, computed once per ``FinitePLD``.

    ``mass`` is the exact total of the finite masses.  The positive ones
    have logs ``log_f`` and lie at ``offsets`` from ``center``, their
    mass-weighted mean index rounded; ``squares`` are the squared offsets.
    log M(0) and the variance at t = 0 (``_log_mgf``) are the same for
    ``offsets`` and their negation, so one evaluation serves both window
    edges and every n.  Without positive finite masses the moments are NaN
    and no window is sought.
    """

    mass: float
    center: int
    log_f: np.ndarray
    offsets: np.ndarray
    squares: np.ndarray
    log_m0: float
    var0: float


def _step(pld: FinitePLD) -> _Step:
    """``pld``'s ``_Step``, kept in its ``_window_step`` after the first call."""
    step = pld._window_step
    if step is None:
        single = pld.masses[1:-1]
        at = np.flatnonzero(single)
        positive = single[at]
        center = round(float(at @ positive) / float(positive.sum())) if at.size else 0
        offsets = (at - center).astype(float)
        log_f = np.log(positive)
        squares = offsets * offsets
        log_m0, _, var0 = _log_mgf(log_f, offsets, squares, 0.0) if at.size else (math.nan,) * 3
        step = _Step(_exact_sum(single), center, log_f, offsets, squares, log_m0, var0)
        object.__setattr__(pld, "_window_step", step)
    return step


def _tail_edge(step: _Step, offsets: np.ndarray, n: int, log_inv_w: float) -> float:
    """A b with mass{S >= s} <= W for every s >= b, S the sum of n single-step offsets.

    ``offsets`` are ``step.offsets`` for the high edge and their negation
    for the low one, at the masses e^``step.log_f``; ``log_inv_w`` is
    -log W.  For every t > 0 Chernoff's
    bound mass{S >= s} <= e^(-ts) M(t)^n meets W at
    g(t) = (n log M(t) - log W) / t, so every g(t) is a valid b.  Safeguarded
    Newton steps solve g'(t) = 0, that is n (t (log M)'(t) - log M(t)) = -log W,
    and the least g(t) met is returned.  Without a root, either the top atom
    alone keeps f^n >= W and g falls to n max(offsets), or the n-fold mass is
    at most W and any b will do.
    """
    log_f, squares = step.log_f, step.squares
    top = int(np.argmax(offsets))
    if -n * float(log_f[top]) <= log_inv_w:
        return n * float(offsets[top])
    log_m, var = step.log_m0, step.var0
    if -n * log_m >= log_inv_w:
        return n * float(offsets.min())
    # the Gaussian approximation log M(t) = log M(0) + mean t + var t^2 / 2
    # puts the root at t below; Newton steps then run on log(n h) against t,
    # which stays nearly linear where a rare far component makes h explode
    t = math.sqrt(2.0 * (log_inv_w / n + log_m) / var)
    lo, hi = 0.0, math.inf
    best = math.inf
    for _ in range(_NEWTON_STEPS):
        log_m, mean, var = _log_mgf(log_f, offsets, squares, t)
        best = min(best, (n * log_m + log_inv_w) / t)
        h = n * (t * mean - log_m)
        if abs(h - log_inv_w) <= _NEWTON_RTOL * log_inv_w:
            break
        if h < log_inv_w:
            lo = t
        else:
            hi = t
        newton = math.nan
        if var > 0.0 and h > 0.0:
            newton = t - math.log(h / log_inv_w) * h / (n * t * var)
        t = newton if lo < newton < hi else (2.0 * t if hi == math.inf else 0.5 * (lo + hi))
    return best


def _window(pld: FinitePLD, n: int, budget: float, full: int) -> tuple[int, int]:
    """Start and length of the index window the n-fold power of ``pld`` is computed on.

    Indices count from n times the single step's first index, so the n-fold
    support is [0, full).  At most ``budget`` of the n-fold finite mass lies
    below the window and at most ``budget`` above it; the Chernoff edges are
    rounded outward and the length is a fast transform length.  The whole
    support is returned when that is no longer, or when ``budget`` is 0.
    """
    if budget <= 0.0:
        return 0, full
    step = _step(pld)
    if not step.log_f.size:
        return 0, full
    log_inv_w = -math.log(budget)
    center = step.center
    hi = math.floor(n * center + _tail_edge(step, step.offsets, n, log_inv_w)) + 1
    lo = math.ceil(n * center - _tail_edge(step, -step.offsets, n, log_inv_w))
    lo, hi = max(lo, 0), min(hi, full)
    length = next_fast_len(max(hi - lo, 1), True)
    if length >= full:
        return 0, full
    return min(lo, full - length), length


def _times_in_place(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b into a: a fresh array per product would pay its page faults again."""
    return np.multiply(a, b, out=a)


def _live_threshold(n: int) -> float:
    """tau = 2^(-1022 / n): an entry below it has an n-th power below 2^-1022."""
    return 2.0 ** (-1022.0 / n)


def _spectral_power(single: np.ndarray, n: int, size: int) -> np.ndarray:
    """Circular n-fold self-convolution at length ``size``: one rfft, one power, one irfft.

    Entries beyond ``size`` are first folded onto their index modulo
    ``size``; ``rfft`` would silently drop them.  Spectrum entries with
    |s| < tau (``_live_threshold``) are set to 0 instead of powered: their
    n-th powers are below 2^-1022, and the chain of squarings that would
    reach them runs through subnormals, which cost tens of times a normal
    product.  ``_rounding_bound`` charges what the zeros leave out.  The
    live entries are gathered into a compact band when they are at most
    half of the spectrum, and powered in place otherwise: squaring the
    zeros in place would still pass over the whole spectrum per product.
    """
    if single.size > size:
        single = np.pad(single, (0, -single.size % size)).reshape(-1, size).sum(axis=0)
    spectrum = rfft(single, size)
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
        spectrum.fill(0.0)
        spectrum[at] = band
    return irfft(spectrum, size)


def _fft_error(size: int) -> float:
    """Bound on ||fl(F x) - F x||_2 / ||F x||_2 for a real (inverse) FFT of ``size``.

    Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.), Thm 24.2:
    k radix-2 passes err by at most k eta / (1 - k eta).  A pass of another
    radix (3, 5, 7, 11) stands for log2(radix) radix-2 passes, and the real
    transform adds one pass that splits the half-length complex one.
    """
    eta = (math.ceil(math.log2(size)) + 1) * _FFT_PASS_ERR
    return eta / (1.0 - eta)


def _rounding_bound(single: np.ndarray, mass: float, n: int, size: int, power: np.ndarray) -> float:
    """Bound on the L1 distance from ``power`` to the exact circular n-fold power.

    ``power`` is ``_spectral_power(single, n, size)`` and ``mass`` the single
    step's finite mass.  An error E in the length-``size`` spectrum moves the
    inverse transform by at most ||E||_2 in L1 (Parseval, then
    Cauchy-Schwarz), so each source is bounded in the spectrum's 2-norm:

    - the fold and the forward transform leave the spectrum s within d of
      the exact one, with d = sqrt(size) (eta ||x||_2 + ||fold error||_1);
    - the power maps that to n (mass + d)^(n - 1) d, as |s_k| <= mass;
    - every complex product errs by at most 3u relatively, and a power is
      n - 1 products deep: a relative (1 + 3u)^(n - 1) - 1;
    - the inverse transform errs by eta ||P||_2;
    - the entries ``_spectral_power`` set to 0 instead of powering have
      |s_k| < tau' (1 + u), tau' the threshold it applied and the factor the
      rounding of |s_k|.  The powers they leave out total at most
      sqrt(size + 2) tau'^n in the 2-norm: the rfft's size // 2 + 1
      entries, each counted with its conjugate, are at most size + 2.
      Their distance to the exact powers is already in the power's term.

    ||P||_2, the norm of the spectrum's power, is read back from ``power``
    by Parseval.  Entries flushed below ``_MASS_FLOOR`` add at most that
    much each.  The final slack covers (1 + u)^n and the rounding of tau'^n.
    """
    eta = _fft_error(size)
    rows = -(-single.size // size)
    fold = (rows - 1) * _U * mass
    x_norm = min(mass, math.sqrt(rows * float(single @ single)))
    d = math.sqrt(size) * (eta * x_norm + fold)
    p_norm = math.sqrt(size * float(power @ power)) / (1.0 - eta)
    products = math.expm1((n - 1) * math.log1p(3.0 * _U))
    bound = n * (mass + d) ** (n - 1) * d + (products / (1.0 - products) + eta) * p_norm
    bound += math.sqrt(size + 2) * _live_threshold(n) ** n
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
    cut = _tail_count(tail, budget)
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


def self_compose(pld: FinitePLD, n: int, policy: CompositionPolicy) -> FinitePLD:
    """n-fold self-composition by one power of the spectrum.

    n = 0 is the empty composition (a point mass at 0), not an error.  The
    finite masses are transformed once on a window of the n-fold lattice,
    raised to the n-th power and transformed back; the atoms are
    1 - (1 - m)^n.  The window (see ``_window``) leaves at most
    W = truncation_tail_mass / n of the n-fold finite mass outside it on
    each side, and that mass wraps around into it: the high tail lands on
    the window's low end, the low tail on its high end.  W is 0 when the
    window covers the whole support.

    The wrap and the round-off are charged inside the result.  Write the
    exact n-fold masses folded onto the window as y = w + u + z: w is the
    mass that lies in the window, u the low tail wrapped upward and z the
    high tail wrapped downward, each of mass at most W.  The computed masses
    (after the clip) are y' = y + e with e = e+ - e-, where
    ||e||_1 <= R (``_rounding_bound``) and, as y >= 0, e+ <= y' pointwise.
    A unit of mass at x adds h(x) = [1 - e^(epsilon - x)]_+ to delta at
    epsilon; h does not decrease in x, and g = 1 - h does not increase.

    - pessimistic: the lowest W + R of y' moves to +inf, and D+ is added
      there: an upper bound on the mass y' lacks, D = mass^n - sum(y'),
      floored at 0.  The target is w + u with z moved to +inf.  Its delta
      exceeds that of y' by sum(z g) + D + sum(e+ g) - sum(e- g).  The part
      of z above y' - e+ is at most e-, so -sum(e- g) outweighs it; the rest
      of z together with e+ is a part of y' of mass at most W + R, and no
      such part adds more than the lowest W + R of y' moved to +inf.  The
      target bounds the true delta from above: u only moved up, and +inf
      lies above the high tail.
    - optimistic: the highest W + R of y' moves to -inf.  The target is
      w + z, whose delta is that of y' less sum(u h) + sum(e h).  By the same
      split, the part of u outside e- together with e+ is a part of y' of
      mass at most W + R, and removing the highest W + R of y' lowers delta
      at least as much.  The target bounds the true delta from below: z
      only moved down, and the low tail's contribution is dropped.

    W is recorded in ``truncated_high`` (pessimistic) or ``truncated_low``
    (optimistic) and stays within the policy's per-side budget; the rest of
    the charge, and D+, in ``rounding_charge``.

    Two cases skip the transform or the charge.  A window over a whole
    support of at most ``_DIRECT_MAX`` points is computed directly, by
    binary powering over ``np.convolve``: sums of non-negative products
    round relatively, by about n log2(n) K u per mass for K single-step
    points, which moves delta by that fraction of itself and is not
    charged.  A zero budget asks for the power as the transform gives it,
    at full support and without charge, as ``convolve`` gives a product.
    ``method="direct"`` is the exact reference: binary powering at full
    support, without charge.  It ignores ``truncation_tail_mass``, so its
    support is always n (K - 1) + 1.
    """
    if n < 0:
        raise RequestError(f"composition count must be non-negative, got {n}")
    spacing = pld.spacing
    if spacing is None:
        raise RequestError("composition requires uniform-lattice distributions")
    if n == 0:
        return point_mass_pld(spacing)
    if n == 1:
        return pld
    _require_no_clash(pld, pld)
    single = pld.masses[1:-1]
    full = n * (single.size - 1) + 1
    budget = policy.truncation_tail_mass / n
    start, length = _window(pld, n, budget, full) if policy.method == "fft" else (0, full)
    _require_support(length, policy)
    pessimistic = policy.direction == "pessimistic"
    exact = policy.method == "direct" or (0.0 < budget and length == full <= _DIRECT_MAX)
    rounding = lacking = taken = 0.0
    if exact:
        finite = _binary_power(single, n, np.convolve)
    else:
        size = next_fast_len(length, True)
        power = _spectral_power(single, n, size)
        if budget > 0.0:
            mass = _step(pld).mass
            rounding = _rounding_bound(single, mass, n, size, power)
        # the window starts at start modulo the transform size; a window that
        # wraps past the end is copied, and the transform is then released
        first = start % size
        if first + length <= size:
            finite = power[first : first + length]
        else:
            finite = np.concatenate((power[first:], power[: first + length - size]))
        del power
    _guard(finite, "power")
    if rounding and pessimistic:
        # mass^n rounds within (n + 2) u; the contiguous sum within _sum_error
        total = float(finite.sum()) / (1.0 + _sum_error(length))
        lacking = max(mass**n * (1.0 + (n + 2) * _U) - total, 0.0)
    neg_mass = -math.expm1(n * math.log1p(-float(pld.masses[0])))
    inf_mass = -math.expm1(n * math.log1p(-float(pld.masses[-1])))
    wrap = budget if length < full else 0.0
    if wrap + rounding > 0.0:
        finite, dropped, taken = _charge(finite, wrap + rounding, policy.direction)
        start += dropped
        if pessimistic:
            inf_mass += taken + lacking
        else:
            neg_mass += taken
    truncated = min(wrap, taken)
    return _lattice_pld(
        spacing, n * pld.lattice_offset + start, finite, neg_mass, inf_mass,
        proper=pld.proper,
        truncated_low=n * pld.truncated_low + (0.0 if pessimistic else truncated),
        truncated_high=n * pld.truncated_high + (truncated if pessimistic else 0.0),
        rounding_charge=n * pld.rounding_charge + taken - truncated + lacking,
    )
