"""Fairness conditions and the shared bracketed root finder.

A protocol instance is fair when both parties' optimal cheating
probabilities coincide; for the balanced coin (p = 1/2) that pins eta at
(sqrt(2) - 1) / 2 with common value 1/sqrt(2). Every optimization in the
toolkit reduces to a 1-D maximization plus a 1-D root solve, so bisection
is all the machinery needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .adversary import alice_optimal_value, bob_optimal_value
from .errors import BracketError, ParameterError
from .wcf import ProtocolParams

#: default brackets for the toolkit's three named solves
BALANCED_BRACKET = (0.0, 0.5)
THREE_SIDED_CASE1_BRACKET = (0.10, 0.20)
THREE_SIDED_CASE2_BRACKET = (0.15, 0.25)


@dataclass(frozen=True)
class FairnessSolution:
    eta_star: float
    achieved_values: tuple[float, float]
    residual: float


def find_root(
    f: Callable[[float], float],
    bracket: tuple[float, float],
    tol: float = 1e-12,
) -> float:
    """Bisection root of ``f`` on ``bracket``.

    Returns x with |f(x)| <= tol or with the bracket narrowed below tol,
    using at most ceil(log2(width / tol)) + 2 iterations. Raises
    :class:`BracketError` when f does not change sign over the bracket.
    """
    lo, hi = bracket
    if tol <= 0.0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    if not lo < hi:
        raise ParameterError(f"bracket must satisfy lo < hi, got {bracket}")
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


def solve_balanced(bracket: tuple[float, float] = BALANCED_BRACKET) -> FairnessSolution:
    """Eta equalizing both cheat values for the balanced coin (p = 1/2)."""

    def residual(eta: float) -> float:
        params = ProtocolParams(0.5, eta)
        return alice_optimal_value(params).value - bob_optimal_value(params).value

    eta_star = find_root(residual, bracket)
    params = ProtocolParams(0.5, eta_star)
    alice = alice_optimal_value(params).value
    bob = bob_optimal_value(params).value
    return FairnessSolution(
        eta_star=eta_star, achieved_values=(alice, bob), residual=abs(alice - bob)
    )
