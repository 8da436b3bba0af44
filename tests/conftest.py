"""Shared helpers and oracle-derived constants for the test suite.

The numeric constants below were frozen from standalone computations
(explicit 8-dim state evolution, dense grid searches and bisection written
independently of the package) so the tests do not trust the code under test
for their expected values. ``reference.py`` rebuilds every one of them within
1e-12, from its dense evolution and a plain bisection
(``test_reference.test_the_reference_rebuilds_every_frozen_constant``).
"""
from __future__ import annotations

import math

import numpy as np

from qdice import BobClaimWin, ProtocolParams, StateVector
from qdice.wcf import DRAWS_PER_FLIP, _evolve

SQRT_HALF = 1.0 / math.sqrt(2.0)

# fair eta for the balanced coin, (sqrt(2) - 1) / 2
ETA_FAIR = 0.20710678118654752
# maximizing tilt at the balanced fair point, b / (a + b)
DELTA_STAR_FAIR = 0.171572875254
# rotation amplitudes at the balanced fair point
ROTATION_C_FAIR = 0.840896415254
ROTATION_S_FAIR = 0.541196100146
# preparer cheat value at (p = 1/3, eta = 0.1465), dense-grid oracle
ALICE_VALUE_THIRD = 0.847342827371
# three-sided optimizations (bisection against the grid-checked forms)
CASE1_ETA_STAR = 0.146201262860
CASE1_WORST_CASE = 0.847559212598
CASE1_BIAS = 0.180892545931
CASE2_BIAS = 0.198784637217
CASE2_BIAS_UNSQUARED = 0.241012650214


def three_sigma(p: float, trials: int) -> float:
    """Three binomial standard deviations for a frequency estimate."""
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


def reference_code(params, cheat, rng) -> int:
    """Outcome code ``hit + 2 * failed_audit`` of one run, decided with the
    sequential rule's own comparisons rather than ``wcf._flip_codes``. It
    reads two uniforms, announcement then audit, even for a claim-win, which
    skips the measurement and hits."""
    evolution = _evolve(params, cheat)
    announce, audit = rng.random(DRAWS_PER_FLIP).tolist()
    hit = isinstance(cheat, BobClaimWin) or announce < evolution.bob_win_prob
    passed = audit < (evolution.first_qubit_pass if hit else evolution.final_state_pass)
    return hit + 2 * (not passed)


def random_state(rng: np.random.Generator, n_qubits: int = 3, ancilla_dim: int = 1) -> StateVector:
    shape = (2,) * n_qubits + (ancilla_dim,)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return StateVector(amps / np.linalg.norm(amps))


def random_params(rng: np.random.Generator, p_max: float = 0.99) -> ProtocolParams:
    p = rng.uniform(0.01, p_max)
    eta = rng.uniform(0.0, 1.0 - p)
    return ProtocolParams(p, eta)
