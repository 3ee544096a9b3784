"""Exception hierarchy shared across the package, and the rule for every number a caller hands in.

Two failure families matter to callers (and to the CLI exit codes):

- ``RequestError``: the caller asked for something malformed or unsupported
  (bad parameters, incompatible grids, missing preconditions).
- ``NumericalValidityError``: the inputs were well formed but a numerical
  validity gate failed (non-convex curve values, negative probability mass
  beyond tolerance, mass-conservation breakage).
"""

import math
import numbers
import operator


class PLDBoundsError(Exception):
    """Base class for all package-specific errors."""


class RequestError(PLDBoundsError, ValueError):
    """Malformed or unsupported request (CLI exit code 2)."""


class NumericalValidityError(PLDBoundsError, ArithmeticError):
    """A numerical validity gate failed (CLI exit code 3)."""


def _is_finite_real(value) -> bool:
    """Whether ``value`` is a finite real number: the one rule for every real a caller hands in.

    Python ints and floats count, and so do numpy scalars, which a sweep or a
    payload built in Python may hold.  None, bools, strings, NaN, +-inf and
    ints beyond float range do not.  ``_composition_count`` is its
    counterpart for integers.  The doors it guards, each refusing with a
    ``RequestError`` that names the argument:

    - ``MechanismSpec`` and the curve constructors: every parameter;
    - ``AccountingRequest``: the targets, the discretization and the grid range;
    - ``pld_from_json_dict``: the spacing, the masses and the atoms;
    - ``CompositionPolicy``: ``truncation_tail_mass``;
    - ``delta_at`` (which also takes +-inf) and ``epsilon_for_delta``;
    - ``default_epsilon_range``, ``DiscretizationGrid.uniform`` (the spacing
      and both bounds), and the spacing of every lattice ``FinitePLD``,
      ``point_mass_pld`` included;
    - ``FinitePLD``'s ``truncated_low``, ``truncated_high`` and ``rounding_charge``;
    - ``derivative_at`` and ``non_uniqueness_fixture`` (whose epsilon must
      also keep e^epsilon finite);
    - the CLI's ``--config`` values, which are refused naming their key.
    """
    kind = type(value)
    # exact floats and ints, the usual case, skip the ABC check's cost
    if kind is not float and kind is not int and (
        kind is bool or not isinstance(value, numbers.Real)
    ):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _require_positive(value, name: str) -> None:
    """Refuse ``value`` unless it is a positive finite real, naming it ``name``."""
    if not (_is_finite_real(value) and value > 0.0):
        raise RequestError(f"{name} must be positive and finite, got {value!r}")


def _composition_count(n, name: str = "composition count") -> int:
    """``n`` as an int, refused unless it is a non-negative integer (numpy's included, bools not).

    The one rule for every integer a caller hands in, as ``_is_finite_real``
    is for reals: composition counts, sweep repeats, ``max_support``,
    ``DiscreteDominatingPair.clamp_count`` and the CLI's integer
    ``--config`` values.
    """
    try:
        count = operator.index(None if isinstance(n, bool) else n)
    except TypeError:
        raise RequestError(f"{name} must be an integer, got {n!r}") from None
    if count < 0:
        raise RequestError(f"{name} must be non-negative, got {n}")
    return count
