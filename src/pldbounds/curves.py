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
The four public methods ``value``, ``gap``, ``right_derivative`` and
``left_derivative`` are defined once, on ``HockeyStickCurve``.  Each takes
a scalar or an array, rejects NaN and negative alpha, and returns a float
or an array of the input's shape; alpha = 0 and alpha = +inf are accepted
where mathematically meaningful.  A curve implements array kernels on
validated input: ``_value(a)``, ``_derivative(a, right)`` (the right
derivative when ``right`` is true, else the left) and, where a
cancellation-free form exists, ``_gap(a)``.  Composite curves call their
parts' kernels, so every public call validates its input exactly once.
The identical-pair, Laplace and randomized-response curves share the
kernels of one private base: 1 - alpha up to a lower kink ``_alpha_lo``,
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
from scipy.special import ndtr

from .errors import RequestError

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


def _finish(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def _require_positive(value, name: str) -> None:
    """Refuse a parameter that is not positive and finite (None, NaN and +inf included)."""
    if value is None or not (value > 0.0 and math.isfinite(value)):
        raise RequestError(f"{name} must be positive, got {value}")


def _before(a: np.ndarray, kink: float, right: bool) -> np.ndarray:
    """Points whose one-sided derivative is the slope of the piece left of ``kink``.

    At the kink itself the right derivative is the next piece's slope and
    the left derivative this piece's.
    """
    return a < kink if right else a <= kink


class HockeyStickCurve(abc.ABC):
    """Evaluable trade-off curve h(alpha) with one-sided derivatives.

    The four public methods take a scalar or an array, validate it once and
    call the array kernels ``_value``, ``_derivative`` and ``_gap``.
    """

    #: True when D_alpha(A||B) == D_alpha(B||A) for the underlying pair.
    symmetric_pair: bool = False

    @property
    def value_at_infinity(self) -> float:
        """h(+inf), the probability mass A places where B has none."""
        return 0.0

    def value(self, alpha):
        """h(alpha) for alpha in [0, +inf]."""
        a, scalar = _prepare(alpha)
        return _finish(self._value(a), scalar)

    def gap(self, alpha):
        """h(alpha) - (1 - alpha), non-negative and non-decreasing."""
        a, scalar = _prepare(alpha)
        return _finish(self._gap(a), scalar)

    def right_derivative(self, alpha):
        """h'_+(alpha) for alpha in [0, +inf)."""
        a, scalar = _prepare(alpha)
        return _finish(self._derivative(a, right=True), scalar)

    def left_derivative(self, alpha):
        """h'_-(alpha) for alpha in (0, +inf)."""
        a, scalar = _prepare(alpha)
        return _finish(self._derivative(a, right=False), scalar)

    @abc.abstractmethod
    def _value(self, a: np.ndarray) -> np.ndarray:
        """h over a validated array."""

    @abc.abstractmethod
    def _derivative(self, a: np.ndarray, right: bool) -> np.ndarray:
        """h'_+ (``right``) or h'_- over a validated array."""

    def _gap(self, a: np.ndarray) -> np.ndarray:
        """Gap over a validated array.

        Subclasses override this with a cancellation-free form; the default
        subtracts the affine part from the value and is accurate only to one
        ulp of the curve value.
        """
        return np.maximum(self._value(a) - (1.0 - a), 0.0)


class _ThreeRegimeCurve(HockeyStickCurve):
    """Curve equal to 1 - alpha up to ``_alpha_lo``, 0 from ``_alpha_hi``, a middle piece between.

    A subclass with ``_alpha_lo < _alpha_hi`` gives the middle piece as the
    kernels ``_mid_value``, ``_mid_gap`` and ``_mid_slope``; with equal
    kinks the middle is empty and needs none.
    """

    symmetric_pair = True
    _alpha_lo = _alpha_hi = 1.0
    _mid_value = _mid_gap = _mid_slope = None

    def _value(self, a):
        return np.clip(self._pieces(a, None, 1.0 - a, 0.0, self._mid_value), 0.0, 1.0)

    def _gap(self, a):
        return np.maximum(self._pieces(a, None, 0.0, a - 1.0, self._mid_gap), 0.0)

    def _derivative(self, a, right):
        return self._pieces(a, right, -1.0, 0.0, self._mid_slope)

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


class GaussianCurve(HockeyStickCurve):
    """Curve of (N(1, sigma^2), N(0, sigma^2)), unit sensitivity."""

    symmetric_pair = True

    def __init__(self, noise_scale: float):
        _require_positive(noise_scale, "noise_scale")
        self.noise_scale = float(noise_scale)
        self._s = 1.0 / self.noise_scale

    def _log_ratio_arg(self, a: np.ndarray) -> np.ndarray:
        # t = ln(alpha)/s; the likelihood-ratio threshold in standardised x.
        with np.errstate(divide="ignore"):
            return np.log(a) / self._s

    def _value(self, a):
        s = self._s
        t = self._log_ratio_arg(a)
        out = np.empty_like(a)
        low = a <= 1.0
        out[low] = (1.0 - a[low]) + self._gap_low(a[low], t[low])
        hi = ~low
        with np.errstate(invalid="ignore"):
            out[hi] = ndtr(0.5 * s - t[hi]) - a[hi] * ndtr(-0.5 * s - t[hi])
        out[np.isinf(a)] = 0.0
        np.clip(out, 0.0, 1.0, out=out)
        return out

    def _gap_low(self, a: np.ndarray, t: np.ndarray) -> np.ndarray:
        # alpha * Phi(t + s/2) - Phi(t - s/2); both terms are left tails for
        # alpha <= 1, so the gap keeps full relative precision as it -> 0.
        s = self._s
        g = a * ndtr(t + 0.5 * s) - ndtr(t - 0.5 * s)
        return np.maximum(g, 0.0)

    def _gap(self, a):
        t = self._log_ratio_arg(a)
        out = np.empty_like(a)
        low = a <= 1.0
        out[low] = self._gap_low(a[low], t[low])
        hi = ~low
        out[hi] = self._value(a[hi]) + (a[hi] - 1.0)
        return out

    def _derivative(self, a, right):
        # smooth: both one-sided derivatives agree
        return -ndtr(-0.5 * self._s - self._log_ratio_arg(a))


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
        _require_positive(epsilon, "rr epsilon")
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
        if not (0.0 < sampling_prob <= 1.0):
            raise RequestError(f"sampling_prob must be in (0, 1], got {sampling_prob}")
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

    # -- remove direction helpers ------------------------------------------

    def _beta_remove(self, a: np.ndarray) -> np.ndarray:
        return (a - self._keep) / self._q

    # -- add direction helpers ---------------------------------------------

    def _split_add(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        live = a < self._cut
        w = 1.0 - a[live] * self._keep
        beta = a[live] * self._q / w
        return live, w, beta

    def _value(self, a):
        out = np.empty_like(a)
        if self.direction == "remove":
            lo = a <= self._keep
            out[lo] = 1.0 - a[lo]
            out[~lo] = self._q * self.inner._value(self._beta_remove(a[~lo]))
        else:
            live, w, beta = self._split_add(a)
            out[~live] = 0.0
            out[live] = w * self.inner._value(beta)
        return np.clip(out, 0.0, 1.0)

    def _gap(self, a):
        out = np.empty_like(a)
        if self.direction == "remove":
            lo = a <= self._keep
            out[lo] = 0.0
            # q * h_in(beta) - (1 - alpha) == q * gap_in(beta), exactly.
            out[~lo] = self._q * self.inner._gap(self._beta_remove(a[~lo]))
        else:
            live, w, beta = self._split_add(a)
            out[~live] = a[~live] - 1.0
            # w * h_in(beta) - (1 - alpha) == w * gap_in(beta), exactly.
            out[live] = w * self.inner._gap(beta)
        return np.maximum(out, 0.0)

    def _derivative(self, a, right):
        out = np.empty_like(a)
        if self.direction == "remove":
            lo = _before(a, self._keep, right)
            out[lo] = -1.0
            out[~lo] = self.inner._derivative(self._beta_remove(a[~lo]), right)
        else:
            live, w, beta = self._split_add(a)
            out[~live] = 0.0
            out[live] = -self._keep * self.inner._value(beta) + (
                self._q / w
            ) * self.inner._derivative(beta, right)
        return out


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

    def _value(self, a):
        return np.stack([c._value(a) for c in self.curves]).max(axis=0)

    def _gap(self, a):
        return np.stack([c._gap(a) for c in self.curves]).max(axis=0)

    def _derivative(self, a, right):
        # activity is decided on curve values: their scale tracks where the
        # envelope still distinguishes the branches (gaps grow like alpha and
        # would drown tail-sized differences)
        vals = np.stack([c._value(a) for c in self.curves])
        top = vals.max(axis=0)
        tol = self._ACTIVE_ATOL + self._ACTIVE_RTOL * np.abs(top)
        active = vals >= top - tol
        derivs = np.stack([c._derivative(a, right) for c in self.curves])
        if right:
            return np.where(active, derivs, -np.inf).max(axis=0)
        return np.where(active, derivs, np.inf).min(axis=0)


class PiecewiseLinearCurve(HockeyStickCurve):
    """Piecewise-linear curve through nodes, constant past the last node.

    This is the curve shape realised by any pair whose privacy loss has
    finite support: linear between consecutive support points and constant
    equal to the mass at +inf beyond the last finite one.
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
        self.node_alphas = alphas
        self.node_values = values
        self._slopes = np.diff(values) / np.diff(alphas)

    @property
    def value_at_infinity(self) -> float:
        return float(self.node_values[-1])

    def _value(self, a):
        out = np.interp(a, self.node_alphas, self.node_values)
        return np.where(a >= self.node_alphas[-1], self.node_values[-1], out)

    def _derivative(self, a, right):
        idx = np.searchsorted(self.node_alphas, a, side="right" if right else "left") - 1
        idx = np.clip(idx, 0, self._slopes.size - 1)
        return np.where(_before(a, self.node_alphas[-1], right), self._slopes[idx], 0.0)


# ---------------------------------------------------------------------------
# Mechanism specifications
# ---------------------------------------------------------------------------

_KINDS = ("gaussian", "laplace", "randomized_response", "poisson_subsampled")
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
        if self.kind not in _KINDS:
            raise RequestError(f"unknown mechanism kind {self.kind!r}")
        if self.kind == "poisson_subsampled":
            if self.inner is None:
                raise RequestError("poisson_subsampled requires an inner mechanism")
            if self.inner.kind == "poisson_subsampled":
                raise RequestError("subsampled mechanisms cannot be nested")
            if self.sampling_prob is None or not (0.0 < self.sampling_prob <= 1.0):
                raise RequestError(
                    f"sampling_prob must be in (0, 1], got {self.sampling_prob}"
                )
            if self.adjacency_direction is None:
                object.__setattr__(self, "adjacency_direction", "both")
            if self.adjacency_direction not in _DIRECTIONS:
                raise RequestError(
                    f"adjacency_direction must be one of {_DIRECTIONS}, "
                    f"got {self.adjacency_direction!r}"
                )
            if self.noise_scale is not None or self.rr_epsilon is not None:
                raise RequestError("noise parameters belong on the inner mechanism")
        else:
            for field in ("sampling_prob", "inner", "adjacency_direction"):
                if getattr(self, field) is not None:
                    raise RequestError(f"{field} applies to subsampled mechanisms only")
            if self.kind in ("gaussian", "laplace"):
                _require_positive(self.noise_scale, "noise_scale")
                if self.rr_epsilon is not None:
                    raise RequestError("rr_epsilon applies to randomized response only")
            else:  # randomized_response
                _require_positive(self.rr_epsilon, "rr_epsilon")
                if self.noise_scale is not None:
                    raise RequestError("noise_scale does not apply to randomized response")

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
    if spec.kind == "gaussian":
        return GaussianCurve(spec.noise_scale)
    if spec.kind == "laplace":
        return LaplaceCurve(spec.noise_scale)
    if spec.kind == "randomized_response":
        return RandomizedResponseCurve(spec.rr_epsilon)
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
    if not (0.0 < alpha < math.inf):
        raise RequestError(f"alpha must lie in (0, +inf), got {alpha}")
    if side == "right":
        return float(curve.right_derivative(alpha))
    return float(curve.left_derivative(alpha))
