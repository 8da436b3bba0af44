"""The bracketed root finder every fair solve shares.

A protocol instance is fair when the parties' worst-case losing
probabilities coincide. Every fair solve in the toolkit (``dicer``'s
ladders, the balanced coin among them) reduces to a 1-D maximization plus a
1-D root solve, so bisection is all the machinery needed; ``dicer`` holds
the solved ladder, ``FairLadder``.
"""
from __future__ import annotations

import math
from collections.abc import Callable

from . import _checks
from .errors import BracketError


def find_root(
    f: Callable[[float], float],
    bracket: tuple[float, float],
    tol: float = 1e-12,
) -> float:
    """Bisection root of ``f`` on ``bracket``.

    Returns x with |f(x)| <= tol or with the bracket narrowed below tol,
    using at most ceil(log2(width / tol)) + 2 iterations. Raises
    :class:`BracketError` when f does not change sign over the bracket, and
    refuses with ``ParameterError`` a bracket whose midpoints or iteration
    budget would overflow a float (``_checks.check_bisection``).
    """
    _checks.check_type(f, Callable, "f", "must be callable")
    lo, hi, tol = _checks.check_bisection(*_checks.check_bracket(bracket, tol), tol)
    f_lo, f_hi = f(lo), f(hi)
    if abs(f_lo) <= tol:
        return lo
    if abs(f_hi) <= tol:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={f_lo!r}, {f_hi!r}")
    max_iter = math.ceil(math.log2((hi - lo) / tol)) + 2
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) <= tol:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)

