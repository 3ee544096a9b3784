"""Exact trade-off curves of the mechanisms supported by the accountant.

For a pair of distributions (A, B) the curve is

    h(alpha) = sup_S [A(S) - alpha * B(S)]_+ ,   alpha in [0, +inf],

which is convex, non-increasing, satisfies h(0) = 1 and h(alpha) >= [1-alpha]_+.
Its one-sided derivatives are

    h'_+(alpha) = -B({o : A(o)/B(o) >  alpha}),
    h'_-(alpha) = -B({o : A(o)/B(o) >= alpha}),

so -1 <= h'_+(0) and both derivatives are non-decreasing in alpha.

Numerical conventions
---------------------
Every curve exposes, in addition to ``value``, a ``gap`` evaluation

    gap(alpha) = h(alpha) - (1 - alpha),

computed in a cancellation-free form.  Near alpha = 0 the curve hugs the
line 1 - alpha and the float representation of h loses the curvature
information below one ulp of 1; downstream mass computations difference
*slopes* of h, so they consume gap() (small alpha) or value() (large alpha)
to keep full precision in both regimes.

Evaluation contract
-------------------
A curve implements one array kernel on validated input,
``_evaluate(a, right=None)``, which returns the value, the gap and the
slope at the same points: the right derivative when ``right`` is true, the
left when it is false, and None when it is None.  The four public methods
``value``, ``gap``, ``right_derivative`` and ``left_derivative`` are
defined once, on ``HockeyStickCurve``, and each reads one component of
that kernel.  Each takes a scalar or an array, rejects NaN and negative
alpha, and returns a float or an array of the input's shape; alpha = 0 and
alpha = +inf are accepted where mathematically meaningful.  The library's
own callers call ``_evaluate`` directly, once per set of points, for all
they need there.  The Gaussian kernel makes one evaluation of its normal
CDF terms per call, and the subsampled and pointwise-maximum curves call
their parts' kernels, so every public call validates its input exactly
once and a subsampled Gaussian evaluates its normal CDF once per call.
The identical-pair, Laplace and randomized-response curves share the
kernel of one private base: 1 - alpha up to a lower kink ``_alpha_lo``,
0 from an upper kink ``_alpha_hi``, and a middle piece in between that
each gives as three formulas (value, gap, slope).  The identical pair is
the case of both kinks at 1 with no middle.

Closed forms
------------
Gaussian with noise scale sigma (sensitivity 1, shift s = 1/sigma after
rescaling to unit variance), with Phi the standard normal CDF and
t = ln(alpha)/s:

    h(alpha)  = Phi(s/2 - t) - alpha * Phi(-s/2 - t)
    h'(alpha) = -Phi(-s/2 - t)

and, below alpha = 1, the gap alpha Phi(t + s/2) - Phi(t - s/2) from two
left tails.  Phi is ``_ndtr``, a numpy port of Cody's rational
approximations in the form of Cephes' ``ndtr`` (see its docstring), with a
relative error below about 2e-15 down to Phi ~ 1e-308; the library needs
no scipy at run time.

Laplace with scale b (sensitivity 1):

    h(alpha) = 1 - alpha                    for alpha <= e^(-1/b)
             = 1 - sqrt(alpha) e^(-1/(2b))  for e^(-1/b) <= alpha <= e^(1/b)
             = 0                            for alpha >= e^(1/b)

Binary randomized response with parameter eps:

    h(alpha) = 1 - alpha                        for alpha <= e^(-eps)
             = (e^eps - alpha) / (e^eps + 1)    for e^(-eps) < alpha < e^eps
             = 0                                for alpha >= e^eps

Poisson subsampling with probability q of an inner mechanism whose pair
(A, B) has a symmetric curve h_in (true for all inner mechanisms shipped
here) uses the mixture pairs C = (1-q) A + q B:

    remove direction, pair (C, A):
        h(alpha) = 1 - alpha                       for alpha <= 1 - q
                 = q * h_in((alpha - 1 + q) / q)   otherwise
    add direction, pair (A, C), with w = 1 - alpha (1 - q):
        h(alpha) = w * h_in(alpha q / w)           for alpha < 1 / (1 - q)
                 = 0                               otherwise

and the direction ``both`` is the pointwise maximum of the two (a maximum
of convex curves, hence still a valid curve).

All of the closed forms above are validated against a direct quadrature /
enumeration oracle in the test suite before anything downstream trusts
them.
"""

from __future__ import annotations

import abc
import dataclasses
import math

import numpy as np

from .errors import RequestError, _is_finite_real, _require_positive

__all__ = [
    "MechanismSpec",
    "HockeyStickCurve",
    "GaussianCurve",
    "LaplaceCurve",
    "RandomizedResponseCurve",
    "PoissonSubsampledCurve",
    "PointwiseMaxCurve",
    "PiecewiseLinearCurve",
    "identical_pair_curve",
    "curve_for",
    "derivative_at",
]


def _prepare(alpha) -> tuple[np.ndarray, bool]:
    arr = np.asarray(alpha, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr < 0.0):
        raise RequestError(f"alpha must lie in [0, +inf], got {alpha!r}")
    return np.atleast_1d(arr), arr.ndim == 0


def _before(a: np.ndarray, kink: float, right: bool) -> np.ndarray:
    """Points whose one-sided derivative is the slope of the piece left of ``kink``.

    At the kink itself the right derivative is the next piece's slope and
    the left derivative this piece's.
    """
    return a < kink if right else a <= kink


class HockeyStickCurve(abc.ABC):
    """Evaluable trade-off curve h(alpha) with one-sided derivatives.

    A subclass implements the one kernel ``_evaluate``.  The four public
    methods take a scalar or an array, validate it once and read one
    component of that kernel.
    """

    #: True when D_alpha(A||B) == D_alpha(B||A) for the underlying pair.
    symmetric_pair: bool = False

    @property
    def value_at_infinity(self) -> float:
        """h(+inf), the probability mass A places where B has none."""
        return 0.0

    def value(self, alpha):
        """h(alpha) for alpha in [0, +inf]."""
        return self._read(alpha, None, 0)

    def gap(self, alpha):
        """h(alpha) - (1 - alpha), non-negative and non-decreasing."""
        return self._read(alpha, None, 1)

    def right_derivative(self, alpha):
        """h'_+(alpha) for alpha in [0, +inf)."""
        return self._read(alpha, True, 2)

    def left_derivative(self, alpha):
        """h'_-(alpha) for alpha in (0, +inf)."""
        return self._read(alpha, False, 2)

    def _read(self, alpha, right: bool | None, part: int):
        """Component ``part`` of ``_evaluate(a, right)``, a float for a scalar ``alpha``."""
        a, scalar = _prepare(alpha)
        out = self._evaluate(a, right)[part]
        return float(out[0]) if scalar else out

    @abc.abstractmethod
    def _evaluate(self, a: np.ndarray, right: bool | None = None) -> tuple:
        """Value, gap and h'_+ (``right``), h'_- (not ``right``) or None over a validated array.

        The gap is h - (1 - alpha) in a form that keeps its precision where
        the curve hugs that line, wherever the curve has one.
        """


class _ThreeRegimeCurve(HockeyStickCurve):
    """Curve equal to 1 - alpha up to ``_alpha_lo``, 0 from ``_alpha_hi``, a middle piece between.

    A subclass with ``_alpha_lo < _alpha_hi`` gives the middle piece as the
    formulas ``_mid_value``, ``_mid_gap`` and ``_mid_slope``; with equal
    kinks the middle is empty and needs none.
    """

    symmetric_pair = True
    _alpha_lo = _alpha_hi = 1.0
    _mid_value = _mid_gap = _mid_slope = None

    def _evaluate(self, a, right=None):
        value = np.clip(self._pieces(a, None, 1.0 - a, 0.0, self._mid_value), 0.0, 1.0)
        gap = np.maximum(self._pieces(a, None, 0.0, a - 1.0, self._mid_gap), 0.0)
        slope = None if right is None else self._pieces(a, right, -1.0, 0.0, self._mid_slope)
        return value, gap, slope

    def _pieces(self, a, right, low, high, middle):
        """``low`` up to the lower kink, else ``high`` from the upper, else ``middle(a)``.

        With ``right`` None both kinks belong to the linear regimes (value
        and gap); otherwise they follow ``_before``.
        """
        if right is None:
            lo, hi = a <= self._alpha_lo, a >= self._alpha_hi
        else:
            lo, hi = _before(a, self._alpha_lo, right), ~_before(a, self._alpha_hi, right)
        out = np.where(hi, high, low)
        mid = ~(lo | hi)
        if mid.any():
            out[mid] = middle(a[mid])
        return out


class IdenticalPairCurve(_ThreeRegimeCurve):
    """Curve of a pair with A = B, h(alpha) = [1 - alpha]_+: both kinks at 1, no middle."""


def identical_pair_curve() -> HockeyStickCurve:
    """Degenerate curve of two identical distributions (test double)."""
    return IdenticalPairCurve()


# Rational approximations of erf and erfc in the form of Cephes' ``ndtr.c``
# (S. L. Moshier, *Methods and Programs for Mathematical Functions*, 1989),
# after W. J. Cody, "Rational Chebyshev approximations for the error
# function", Math. Comp. 23 (1969): erf(y) = y T(y^2) / U(y^2) for |y| < 1,
# and erfc(z) = exp(-z^2) P(z) / Q(z) on [1, 8), exp(-z^2) R(z) / S(z) from
# 8 on.  Coefficients run from the highest power down; U, Q and S are monic,
# and their leading 1 is left out.
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)

#: Points per pass of ``_ndtr``: its temporaries stay in cache.
_NDTR_BLOCK = 1 << 14

#: Arguments are clipped to +-60, where Phi is 0 or 1 in binary64.
_NDTR_CLIP = 60.0

_SQRT_HALF = math.sqrt(0.5)


def _polevl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """Polynomial by Horner's rule, highest power first, as Cephes' ``polevl``."""
    out = x * coefs[0]
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _p1evl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """Monic polynomial whose leading 1 is left out of ``coefs``, as Cephes' ``p1evl``."""
    out = x + coefs[0]
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def _parts(mask: np.ndarray) -> list[tuple[slice | np.ndarray, bool]]:
    """Index of the true and of the false entries, each a slice where they are contiguous.

    Only the nonempty ones are listed, with the mask's value there.
    """
    parts = []
    for value, part in (True, mask), (False, ~mask):
        idx = np.flatnonzero(part)
        if idx.size == mask.size:
            return [(slice(None), value)]
        if idx.size:
            contiguous = idx[-1] - idx[0] + 1 == idx.size
            parts.append((slice(idx[0], idx[-1] + 1) if contiguous else idx, value))
    return parts


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF Phi(x), elementwise, with full relative accuracy in the left tail.

    With y = x / sqrt(2) and z = |y|:

    * z < 1: Phi = (1 + erf(y)) / 2, erf(y) = y T(y^2) / U(y^2).
    * z >= 1: Phi(-|x|) = erfc(z) / 2 = exp(-x^2 / 2) (P(z) / Q(z)) / 2
      below z = 8 and exp(-x^2 / 2) (R(z) / S(z)) / 2 from 8 on; Phi(|x|)
      is 1 - Phi(-|x|).

    The rationals are Cody's (Math. Comp. 23, 1969) in the form of Cephes'
    ``ndtr`` and ``erfc`` (Moshier, *Methods and Programs for Mathematical
    Functions*, 1989).  As in Cephes' ``expx2``, exp(-x^2 / 2) is taken as
    exp(-m^2 / 2) exp(-(m f + f^2 / 2)) with m the multiple of 1/128 nearest
    |x| and f = |x| - m, so that m^2 is exact and the rounding of x^2 (about
    1400 ulps at x = -37.5) does not reach the result.  The split is made on
    x itself, not on z as in Cephes, so neither does the rounding of
    x / sqrt(2).  Against 40-digit values the relative error stays below
    about 2e-15 wherever Phi is a normal number; results in the subnormal
    range lose bits and reach 0 near x = -38.5.  Each point is computed on
    its own, so its bits do not depend on the other points of the call.
    Points are taken ``_NDTR_BLOCK`` at a time.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _NDTR_BLOCK):
        block = slice(start, start + _NDTR_BLOCK)
        x_block = flat[block]
        w = np.abs(x_block)
        for at, near in _parts(w < 1.0 / _SQRT_HALF):
            if near:
                y = x_block[at] * _SQRT_HALF
                yy = y * y
                out[block][at] = 0.5 + 0.5 * (y * _polevl(yy, _T) / _p1evl(yy, _U))
            else:
                tail = _lower_tail(w[at])
                np.subtract(1.0, tail, out=tail, where=x_block[at] > 0.0)
                out[block][at] = tail
    return out.reshape(x.shape)


def _lower_tail(w: np.ndarray) -> np.ndarray:
    """Phi(-w) = erfc(w / sqrt(2)) / 2 for w >= sqrt(2)."""
    w = np.minimum(w, _NDTR_CLIP)
    m = np.rint(w * 128.0)
    m *= 1.0 / 128.0
    f = w - m
    tail = np.exp(-0.5 * (m * m))
    m *= f
    m += 0.5 * (f * f)
    tail *= np.exp(-m)
    z = w * _SQRT_HALF
    for at, below in _parts(z < 8.0):
        num, den = (_P, _Q) if below else (_R, _S)
        tail[at] *= _polevl(z[at], num) / _p1evl(z[at], den)
    tail *= 0.5
    return tail


class GaussianCurve(HockeyStickCurve):
    """Curve of (N(1, sigma^2), N(0, sigma^2)), unit sensitivity."""

    symmetric_pair = True

    def __init__(self, noise_scale: float):
        _require_positive(noise_scale, "noise_scale")
        self.noise_scale = float(noise_scale)
        self._s = 1.0 / self.noise_scale

    def _phis(self, a: np.ndarray, slope: bool) -> tuple:
        """Mask of alpha <= 1, the value's two Phi terms and, with ``slope``, -h', in one ``_ndtr`` call.

        The value's terms are Phi(t + s/2) and Phi(t - s/2) at alpha <= 1,
        both left tails, and Phi(s/2 - t) and Phi(-s/2 - t) above 1.
        -h' = Phi(-s/2 - t) is the second term above 1, so it is read only
        at alpha <= 1; without ``slope`` it is None.
        """
        half = 0.5 * self._s
        # t = ln(alpha)/s; the likelihood-ratio threshold in standardised x.
        with np.errstate(divide="ignore"):
            t = np.log(a) / self._s
        low = a <= 1.0
        up, down = t + half, t - half
        n = a.size
        args = np.empty(2 * n + (np.count_nonzero(low) if slope else 0))
        first, second = args[:n].reshape(a.shape), args[n : 2 * n].reshape(a.shape)
        np.negative(down, out=first)
        np.copyto(first, up, where=low)
        np.negative(up, out=second)
        np.copyto(second, down, where=low)
        if slope:
            np.negative(up[low], out=args[2 * n :])
        phi = _ndtr(args)
        first, second = phi[:n].reshape(a.shape), phi[n : 2 * n].reshape(a.shape)
        if not slope:
            return low, first, second, None
        third = second.copy()
        third[low] = phi[2 * n :]
        return low, first, second, third

    def _evaluate(self, a, right=None):
        # smooth: both one-sided derivatives agree.  Value and gap are each
        # formed in the coordinates accurate on their side of alpha = 1, the
        # gap below and the value above, and shifted by 1 - alpha to the other.
        low, first, second, third = self._phis(a, right is not None)
        with np.errstate(invalid="ignore"):
            # alpha * Phi(t + s/2) - Phi(t - s/2): left tails, so the gap
            # keeps full relative precision as it -> 0
            below = np.maximum(a * first - second, 0.0)
            above = np.clip(first - a * second, 0.0, 1.0)
        above[np.isinf(a)] = 0.0
        value = np.clip(np.where(low, (1.0 - a) + below, above), 0.0, 1.0)
        gap = np.where(low, below, above + (a - 1.0))
        return value, gap, None if third is None else -third


class LaplaceCurve(_ThreeRegimeCurve):
    """Curve of (Lap(1, b), Lap(0, b)), unit sensitivity."""

    def __init__(self, noise_scale: float):
        _require_positive(noise_scale, "noise_scale")
        self.noise_scale = float(noise_scale)
        self._inv_b = 1.0 / self.noise_scale
        self._alpha_lo = math.exp(-self._inv_b)
        self._alpha_hi = math.exp(self._inv_b)

    def _mid_value(self, a):
        # 1 - sqrt(alpha) e^{-1/(2b)} = -expm1(ln(alpha)/2 - 1/(2b)), exact to
        # full relative precision as the curve approaches its root.
        return -np.expm1(0.5 * np.log(a) - 0.5 * self._inv_b)

    def _mid_gap(self, a):
        # alpha - sqrt(alpha) e^{-1/(2b)} = -alpha expm1(-ln(alpha)/2 - 1/(2b)),
        # exactly 0 at the lower kink.
        return -a * np.expm1(-0.5 * np.log(a) - 0.5 * self._inv_b)

    def _mid_slope(self, a):
        return -0.5 * np.exp(-0.5 * self._inv_b - 0.5 * np.log(a))


class RandomizedResponseCurve(_ThreeRegimeCurve):
    """Curve of binary randomized response with parameter eps."""

    def __init__(self, epsilon: float):
        _require_positive(epsilon, "rr_epsilon")
        self.epsilon = float(epsilon)
        self._alpha_lo = math.exp(-epsilon)
        self._alpha_hi = math.exp(epsilon)
        self._den = self._alpha_hi + 1.0

    def _mid_value(self, a):
        return (self._alpha_hi - a) / self._den

    def _mid_gap(self, a):
        return (a * self._alpha_hi - 1.0) / self._den

    def _mid_slope(self, a):
        return np.full_like(a, -1.0 / self._den)


class PoissonSubsampledCurve(HockeyStickCurve):
    """Mixture-pair curve of a Poisson-subsampled mechanism, one direction.

    ``remove``: pair ((1-q) A + q B, A); the privacy loss is bounded below
    by ln(1-q), so the curve equals 1 - alpha for alpha <= 1 - q.
    ``add``: pair (A, (1-q) A + q B); the loss is bounded above by
    -ln(1-q), so the curve vanishes for alpha >= 1/(1-q).
    """

    def __init__(self, inner: HockeyStickCurve, sampling_prob: float, direction: str):
        if not (_is_finite_real(sampling_prob) and 0.0 < sampling_prob <= 1.0):
            raise RequestError(f"sampling_prob must be in (0, 1], got {sampling_prob!r}")
        if direction not in ("add", "remove"):
            raise RequestError(f"direction must be 'add' or 'remove', got {direction!r}")
        if not inner.symmetric_pair:
            raise RequestError(
                "subsampling transform requires an inner mechanism with a "
                "symmetric dominating pair"
            )
        self.inner = inner
        self.sampling_prob = float(sampling_prob)
        self.direction = direction
        self._q = self.sampling_prob
        self._keep = 1.0 - self._q  # probability the differing record is absent
        self._cut = math.inf if self._q == 1.0 else 1.0 / self._keep

    @property
    def value_at_infinity(self) -> float:
        if self.direction == "remove":
            return self._q * self.inner.value_at_infinity
        return self.inner.value_at_infinity if self._q == 1.0 else 0.0

    def _evaluate(self, a, right=None):
        value, gap, slope = np.empty_like(a), np.empty_like(a), np.empty_like(a)
        if self.direction == "remove":
            lo = a <= self._keep
            # the slope leaves -1 at the kink or after it, value and gap after it
            inner = ~lo if right is None else ~_before(a, self._keep, right)
            # alphas near the float maximum, which the range search probes,
            # give beta = +inf, where the inner curve takes its limits
            with np.errstate(over="ignore"):
                beta = (a[inner] - self._keep) / self._q
            value[inner], gap[inner], inner_slope = self.inner._evaluate(beta, right)
            # q * h_in(beta) - (1 - alpha) == q * gap_in(beta), exactly.
            value[inner] *= self._q
            gap[inner] *= self._q
            value[lo] = 1.0 - a[lo]
            gap[lo] = 0.0
            if right is not None:
                slope[inner] = inner_slope
                slope[~inner] = -1.0
        else:
            live = a < self._cut
            w = 1.0 - a[live] * self._keep
            inner_value, inner_gap, inner_slope = self.inner._evaluate(
                a[live] * self._q / w, right
            )
            value[~live] = slope[~live] = 0.0
            gap[~live] = a[~live] - 1.0
            value[live] = w * inner_value
            # w * h_in(beta) - (1 - alpha) == w * gap_in(beta), exactly.
            gap[live] = w * inner_gap
            if right is not None:
                slope[live] = -self._keep * inner_value + (self._q / w) * inner_slope
        return np.clip(value, 0.0, 1.0), np.maximum(gap, 0.0), None if right is None else slope


class PointwiseMaxCurve(HockeyStickCurve):
    """Pointwise maximum of curves (a maximum of convex curves is convex).

    At a crossing point the right derivative is the maximum of the active
    curves' right derivatives and the left derivative is the minimum of the
    active left derivatives.
    """

    _ACTIVE_ATOL = 1e-15
    _ACTIVE_RTOL = 1e-12

    def __init__(self, curves: list[HockeyStickCurve]):
        if len(curves) < 2:
            raise RequestError("PointwiseMaxCurve needs at least two curves")
        self.curves = list(curves)

    @property
    def value_at_infinity(self) -> float:
        return max(c.value_at_infinity for c in self.curves)

    def _evaluate(self, a, right=None):
        values, gaps, slopes = zip(*(c._evaluate(a, right) for c in self.curves))
        values = np.stack(values)
        top = values.max(axis=0)
        gap = np.stack(gaps).max(axis=0)
        if right is None:
            return top, gap, None
        # activity is decided on curve values: their scale tracks where the
        # envelope still distinguishes the branches (gaps grow like alpha and
        # would drown tail-sized differences)
        tol = self._ACTIVE_ATOL + self._ACTIVE_RTOL * np.abs(top)
        active = values >= top - tol
        slopes = np.stack(slopes)
        if right:
            return top, gap, np.where(active, slopes, -np.inf).max(axis=0)
        return top, gap, np.where(active, slopes, np.inf).min(axis=0)


class PiecewiseLinearCurve(HockeyStickCurve):
    """Piecewise-linear curve through nodes, constant past the last node.

    This is the curve shape realised by any pair whose privacy loss has
    finite support: linear between consecutive support points and constant
    equal to the mass at +inf beyond the last finite one.  Its gap is the
    value less 1 - alpha, accurate only to one ulp of the value.
    """

    def __init__(self, alphas, values):
        alphas = np.asarray(alphas, dtype=float)
        values = np.asarray(values, dtype=float)
        if alphas.ndim != 1 or alphas.shape != values.shape or alphas.size < 2:
            raise RequestError("need matching 1-D node arrays with >= 2 nodes")
        if alphas[0] != 0.0 or not np.all(np.diff(alphas) > 0) or not np.all(
            np.isfinite(alphas)
        ):
            raise RequestError("nodes must be finite, strictly increasing, starting at 0")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise RequestError(f"node values must be finite: node {bad[0]} is {values[bad[0]]}")
        self.node_alphas = alphas
        self.node_values = values
        self._slopes = np.diff(values) / np.diff(alphas)

    @property
    def value_at_infinity(self) -> float:
        return float(self.node_values[-1])

    def _evaluate(self, a, right=None):
        value = np.interp(a, self.node_alphas, self.node_values)
        value = np.where(a >= self.node_alphas[-1], self.node_values[-1], value)
        gap = np.maximum(value - (1.0 - a), 0.0)
        if right is None:
            return value, gap, None
        idx = np.searchsorted(self.node_alphas, a, side="right" if right else "left") - 1
        idx = np.clip(idx, 0, self._slopes.size - 1)
        return value, gap, np.where(_before(a, self.node_alphas[-1], right), self._slopes[idx], 0.0)


# ---------------------------------------------------------------------------
# Mechanism specifications
# ---------------------------------------------------------------------------

#: Each mechanism kind but ``poisson_subsampled``: its curve class and the
#: ``MechanismSpec`` field that holds its one parameter.
_CURVES = {
    "gaussian": (GaussianCurve, "noise_scale"),
    "laplace": (LaplaceCurve, "noise_scale"),
    "randomized_response": (RandomizedResponseCurve, "rr_epsilon"),
}
_DIRECTIONS = ("add", "remove", "both")


@dataclasses.dataclass(frozen=True)
class MechanismSpec:
    """Parameters of one supported mechanism.

    ``noise_scale`` is the Gaussian standard deviation or the Laplace scale
    (sensitivity is fixed at 1), ``rr_epsilon`` the randomized-response
    parameter, and ``sampling_prob`` / ``inner`` / ``adjacency_direction``
    apply to Poisson-subsampled mechanisms only.  Subsampling cannot be
    nested.
    """

    kind: str
    noise_scale: float | None = None
    rr_epsilon: float | None = None
    sampling_prob: float | None = None
    inner: "MechanismSpec | None" = None
    adjacency_direction: str | None = None

    def __post_init__(self):
        """Check the structural rules, then the parameters' values by building the curve."""
        if self.kind == "poisson_subsampled":
            if not isinstance(self.inner, MechanismSpec):
                raise RequestError("poisson_subsampled requires an inner mechanism")
            if self.inner.kind == "poisson_subsampled":
                raise RequestError("subsampled mechanisms cannot be nested")
            if self.adjacency_direction is None:
                object.__setattr__(self, "adjacency_direction", "both")
            if self.adjacency_direction not in _DIRECTIONS:
                raise RequestError(
                    f"adjacency_direction must be one of {_DIRECTIONS}, "
                    f"got {self.adjacency_direction!r}"
                )
            if self.noise_scale is not None or self.rr_epsilon is not None:
                raise RequestError("noise parameters belong on the inner mechanism")
        elif self.kind not in _CURVES:
            raise RequestError(f"unknown mechanism kind {self.kind!r}")
        else:
            for field in ("sampling_prob", "inner", "adjacency_direction"):
                if getattr(self, field) is not None:
                    raise RequestError(f"{field} applies to subsampled mechanisms only")
            own = _CURVES[self.kind][1]
            for field in dict.fromkeys(f for _, f in _CURVES.values()):
                if field != own and getattr(self, field) is not None:
                    owners = [k.replace("_", " ") for k, (_, f) in _CURVES.items() if f == field]
                    raise RequestError(f"{field} applies to {' or '.join(owners)} only")
        curve_for(self)

    # -- convenience constructors ------------------------------------------

    @classmethod
    def gaussian(cls, noise_scale: float) -> "MechanismSpec":
        return cls(kind="gaussian", noise_scale=noise_scale)

    @classmethod
    def laplace(cls, noise_scale: float) -> "MechanismSpec":
        return cls(kind="laplace", noise_scale=noise_scale)

    @classmethod
    def randomized_response(cls, epsilon: float) -> "MechanismSpec":
        return cls(kind="randomized_response", rr_epsilon=epsilon)

    @classmethod
    def poisson_subsampled(
        cls,
        inner: "MechanismSpec",
        sampling_prob: float,
        adjacency_direction: str = "both",
    ) -> "MechanismSpec":
        return cls(
            kind="poisson_subsampled",
            inner=inner,
            sampling_prob=sampling_prob,
            adjacency_direction=adjacency_direction,
        )


def curve_for(spec: MechanismSpec) -> HockeyStickCurve:
    """Exact trade-off curve of the mechanism's dominating pair."""
    if spec.kind in _CURVES:
        make, field = _CURVES[spec.kind]
        return make(getattr(spec, field))
    inner = curve_for(spec.inner)
    if spec.adjacency_direction == "both":
        return PointwiseMaxCurve(
            [
                PoissonSubsampledCurve(inner, spec.sampling_prob, "add"),
                PoissonSubsampledCurve(inner, spec.sampling_prob, "remove"),
            ]
        )
    return PoissonSubsampledCurve(inner, spec.sampling_prob, spec.adjacency_direction)


def derivative_at(curve: HockeyStickCurve, alpha: float, side: str) -> float:
    """One-sided derivative of the curve at a finite positive alpha."""
    if side not in ("left", "right"):
        raise RequestError(f"side must be 'left' or 'right', got {side!r}")
    if not (_is_finite_real(alpha) and alpha > 0.0):
        raise RequestError(f"alpha must lie in (0, +inf), got {alpha!r}")
    if side == "right":
        return float(curve.right_derivative(alpha))
    return float(curve.left_derivative(alpha))
