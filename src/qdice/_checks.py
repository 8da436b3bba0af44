"""Every argument rule of the public API, built from a few shared checks:
``check_type``, ``check_integer``, ``in_range`` (one real number),
``check_bool`` and ``check_seed``. Each refusal is a ``ParameterError``
(``DegenerateParameterError`` for p + eta = 0) in the words of the caller,
which passes its noun or message. A bool is never a number here, and numpy
loads only to test a value that is no Python number or bool, so refusing an
analytic command's arguments loads no numpy."""
from __future__ import annotations

import math
import operator

from ._lazy import lazy_import
from .errors import DegenerateParameterError, ParameterError

np = lazy_import("numpy")


def check_type(value, kind: type, what: str, must_be: str | None = None) -> None:
    """Refuse ``value`` unless it is a ``kind``: "<what> must be a <kind>,
    got <value!r>", where ``must_be`` replaces "must be a <kind>"."""
    if not isinstance(value, kind):
        raise ParameterError(f"{what} {must_be or 'must be a ' + kind.__name__}, got {value!r}")


def check_items(items, kind: type, what: str) -> tuple:
    """``items`` as a tuple, refused unless it is iterable and holds only ``kind``."""
    try:
        items = tuple(items)
    except TypeError:
        raise ParameterError(f"{what} must be a sequence of {kind.__name__}, got {items!r}") from None
    if not all(isinstance(item, kind) for item in items):
        raise ParameterError(f"{what} must be {kind.__name__}, got {items!r}")
    return items


def check_integer(value: int, what: str, low: float = -math.inf, high: float = math.inf) -> None:
    """Refuse a bool, a value that ``operator.index`` rejects (such as 2.0 or
    2.5), an array (even a 0-d one, which ``operator.index`` takes) and an
    integer outside low..high."""
    if type(value) is not int:  # an exact int needs no further test
        try:
            if isinstance(value, bool):
                raise TypeError
            operator.index(value)
            if not isinstance(value, int) and isinstance(value, np.ndarray):
                raise TypeError
        except TypeError:
            raise ParameterError(f"{what} must be an integer, got {value!r}") from None
    if not low <= value <= high:
        raise ParameterError(f"{what} must lie in {low}..{high}, got {value}")


def in_range(value: float, low: float, high: float, message: str, *args) -> bool:
    """Whether ``value``, one real number, lies in [low, high] (nan does not).
    A bool, a value that does not compare as a number and an array, even of
    one number, are refused with ``message.format(*args)``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        inside = low <= value <= high
        if not isinstance(inside, bool) and (not isinstance(inside, np.bool_) or isinstance(value, np.ndarray)):
            raise TypeError  # an array compares to an array, or to a numpy bool when it is 0-d
    except (TypeError, ValueError):  # ValueError: an array's truth value is ambiguous
        raise ParameterError(message.format(*args)) from None
    return inside


def check_bool(value: bool, what: str) -> None:
    """Refuse anything but a bool, a Python or a numpy one."""
    if not isinstance(value, bool) and not isinstance(value, np.bool_):
        raise ParameterError(f"{what} must be a bool, got {value!r}")


def check_seed(seed: int) -> None:
    """Refuse a seed outside 0..2**64-1, the seeds every sampler and the CLI take."""
    check_integer(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must be an unsigned 64-bit value, got {seed}")


def check_p_eta(p: float, eta: float) -> None:
    """Refuse (p, eta) outside 0 <= p <= 1, 0 <= eta <= 1-p (within 1e-12).
    A bool in either slot is refused as a non-number before p's range is."""
    numbers = "p and eta must be numbers, got p={!r}, eta={!r}"
    if not in_range(p, 0.0, 1.0, numbers, p, eta) and not isinstance(eta, bool):
        raise ParameterError(f"p must lie in [0, 1], got {p}")
    try:
        high = 1.0 - p + 1e-12
    except TypeError:  # a p that compares with floats but does no arithmetic with them, as a Decimal
        raise ParameterError(numbers.format(p, eta)) from None
    if not in_range(eta, 0.0, high, numbers, p, eta):
        raise ParameterError(f"eta must lie in [0, 1-p], got eta={eta}, p={p}")


def check_rotation_defined(p: float, eta: float) -> None:
    """Refuse p + eta = 0, where the rotation (and the cheat value) divide by zero."""
    if p + eta <= 0.0:
        raise DegenerateParameterError("p + eta must be positive")


def check_p_below_one(p: float) -> None:
    """Refuse p = 1, where the verification state and Alice's cheat value
    divide by 1-p."""
    if p >= 1.0:
        raise ParameterError("p must be below 1: the verification state and the cheat value divide by 1-p")


def check_unit_interval(value: float, what: str) -> None:
    """Refuse a value that is not one real number in [0, 1]."""
    if not in_range(value, 0.0, 1.0, "{} must be a number, got {!r}", what, value):
        raise ParameterError(f"{what} must lie in [0, 1], got {value}")


def check_bracket(bracket: tuple[float, float], tol: float = 1e-12) -> tuple[float, float]:
    """``bracket`` as (lo, hi), refused unless it is a pair of finite single
    numbers with lo < hi and ``tol`` is a positive finite single number."""
    numbers = "bracket must be a pair of numbers and the tolerance a number, got {!r}, tol={!r}"
    try:
        if len(bracket) != 2:
            raise TypeError
        lo, hi = bracket
    except (TypeError, ValueError):
        raise ParameterError(numbers.format(bracket, tol)) from None
    if in_range(tol, -math.inf, 0.0, numbers, bracket, tol):
        raise ParameterError(f"tolerance must be positive, got {tol}")
    for end in (lo, hi):  # refused unless each end is one number; nan and infinities pass on
        in_range(end, -math.inf, math.inf, numbers, bracket, tol)
    if not lo < hi:
        raise ParameterError(f"bracket must satisfy lo < hi, got {bracket}")
    try:
        finite = math.isfinite(lo) and math.isfinite(hi) and math.isfinite(tol)
    except OverflowError:  # an integer beyond the largest float
        finite = False
    if not finite:
        raise ParameterError(f"bracket ends and tolerance must be finite, got {bracket}, tol={tol}")
    return lo, hi


def check_bisection(lo: float, hi: float, tol: float) -> tuple[float, float, float]:
    """A bracket (lo, hi) and ``tol`` that ``check_bracket`` accepted, as
    floats, refused unless ``fairness.find_root``'s midpoints 0.5 (lo + hi)
    and iteration budget log2((hi - lo) / tol) are finite in float
    arithmetic: each end within half the largest float, and (hi - lo) / tol
    neither overflowing nor 0. Ends of another type (an int, a Fraction, a
    numpy float32) are taken as floats, so the bisection runs in floats."""
    lo, hi, tol = float(lo), float(hi), float(tol)
    if not math.isfinite(2.0 * max(-lo, hi)):
        raise ParameterError(f"bracket ends must lie within half the largest float, got ({lo}, {hi})")
    if not 0.0 < (hi - lo) / tol < math.inf:
        raise ParameterError(f"bracket width over tolerance must be a positive finite float, got ({lo}, {hi}), tol={tol}")
    return lo, hi, tol


_EXACT_NUMBERS = frozenset((int, float, complex))


def check_normalized(vector, message: str) -> None:
    """Refuse a vector holding a bool (Python or numpy), an array (even a
    0-d one, which would leave a cheat spec unhashable) or a non-number, as
    a ``Decimal`` that does no arithmetic with floats, and one whose squared
    norm is not 1 within 1e-9 (nan, and entries too large to square or
    squares too large for a float, included) with ``message.format(squared_norm)``."""
    if not _EXACT_NUMBERS.issuperset(map(type, vector)):  # exact numbers need no further test
        for c in vector:
            if isinstance(c, np.ndarray):
                raise ParameterError(f"amplitudes must be numbers, got an array of shape {c.shape}")
            if isinstance(c, (bool, np.bool_)):
                raise ParameterError(f"amplitudes must be numbers, got {c!r}")
    try:
        total = sum([abs(c) ** 2 for c in vector])
        normalized = abs(total - 1.0) <= 1e-9  # also refuses nan
    except OverflowError:
        total, normalized = math.inf, False
    except TypeError:
        raise ParameterError(f"amplitudes must be numbers, got {vector!r}") from None
    if not normalized:
        raise ParameterError(message.format(total))
