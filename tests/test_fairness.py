"""Root-finder contract and the balanced fairness solve."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import CASE1_ETA_STAR, ETA_FAIR, SQRT_HALF
from qdice import BracketError, ParameterError, find_root, solve_balanced
from qdice.adversary import alice_optimal_value, bob_optimal_value
from qdice.wcf import ProtocolParams


def test_find_root_linear():
    assert find_root(lambda x: x - 0.5, (0.0, 1.0), tol=1e-12) == pytest.approx(0.5, abs=1e-12)


def test_find_root_accepts_root_at_endpoint():
    assert find_root(lambda x: x, (0.0, 1.0), tol=1e-12) == 0.0


def test_find_root_rejects_bad_brackets():
    with pytest.raises(BracketError):
        find_root(lambda x: x + 1.0, (0.0, 1.0), tol=1e-12)
    with pytest.raises(ParameterError):
        find_root(lambda x: x, (1.0, 0.0), tol=1e-12)
    with pytest.raises(ParameterError):
        find_root(lambda x: x, (0.0, 1.0), tol=0.0)


@pytest.mark.parametrize("bracket, tol", [
    ((0.0, math.inf), 1e-12),
    ((-math.inf, 1.0), 1e-12),
    ((0.0, 1.0), math.nan),
    ((0.0, 1.0), math.inf),
])
def test_find_root_refuses_non_finite_bracket_or_tolerance(bracket, tol):
    with pytest.raises(ParameterError, match="finite"):
        find_root(lambda x: x - 0.5, bracket, tol=tol)


def test_find_root_iteration_budget():
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return math.cos(x) - x

    tol = 1e-10
    root = find_root(f, (0.0, 1.0), tol=tol)
    assert abs(math.cos(root) - root) <= 1e-9
    # two endpoint evaluations plus at most ceil(log2(width/tol)) + 2 bisections
    assert calls - 2 <= math.ceil(math.log2(1.0 / tol)) + 2


@pytest.mark.parametrize("ends", [(0, 1), (Fraction(0), Fraction(1)), (np.float64(0), np.float64(1)),
                                  (np.float32(0), np.float32(1)), (np.float32(1e38), np.float32(3e38))])
def test_find_root_bisects_any_real_ends_in_floats(ends):
    """Ends of any real type bisect exactly as the same ends given as floats,
    also float32 ends whose float32 midpoints and width over the tolerance
    would overflow."""
    lo, hi = float(ends[0]), float(ends[1])
    for tol in (1e-12, np.float32(1e-39)):
        root = find_root(lambda x: x - (0.7 * lo + 0.3 * hi), ends, tol)
        assert type(root) is float
        assert root == find_root(lambda x: x - (0.7 * lo + 0.3 * hi), (lo, hi), float(tol))


def test_find_root_on_fairness_residual():
    def residual(eta):
        params = ProtocolParams(0.5, eta)
        return alice_optimal_value(params).value - bob_optimal_value(params).value

    assert find_root(residual, (0.0, 0.5), tol=1e-12) == pytest.approx(ETA_FAIR, abs=1e-10)


def test_find_root_on_three_sided_case1_residual():
    sqrt_half = 1.0 / math.sqrt(2.0)

    def residual(eta):
        claire = alice_optimal_value(ProtocolParams(1 / 3, eta)).value
        return claire - (sqrt_half + (1 - sqrt_half) * (1 / 3 + eta))

    assert find_root(residual, (0.10, 0.20), tol=1e-12) == pytest.approx(CASE1_ETA_STAR, abs=1e-9)


def test_solve_balanced():
    ladder = solve_balanced()
    (coin,) = ladder.stages
    assert coin.stage.params.eta == pytest.approx(ETA_FAIR, abs=1e-10)
    assert ladder.worst_case_losing[1] == pytest.approx(SQRT_HALF, abs=1e-10)
    assert ladder.worst_case_losing[0] == pytest.approx(SQRT_HALF, abs=1e-10)
    assert coin.residual < 1e-10
    # the fair point gives both parties the same bias
    assert ladder.worst_case_losing[1] - 0.5 == pytest.approx(ETA_FAIR, abs=1e-9)


def test_solve_balanced_is_bracket_invariant():
    narrow = solve_balanced(bracket=(0.1, 0.4))
    wide = solve_balanced(bracket=(0.0, 0.5))
    assert narrow.stages[0].stage.params.eta == pytest.approx(wide.stages[0].stage.params.eta, abs=1e-10)
