"""The evolution, the checked primitives and the sampler against a dense
reference.

``reference`` rebuilds every step from ``np.kron`` matrices on the 8·D
space, independently of ``qsim``'s kernels, and the sampler's preparations
from its documented stream, so these pins hold whatever shape the kernels
take.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

import reference
from conftest import (
    ALICE_VALUE_THIRD,
    CASE1_BIAS,
    CASE1_ETA_STAR,
    CASE1_WORST_CASE,
    CASE2_BIAS,
    CASE2_BIAS_UNSQUARED,
    DELTA_STAR_FAIR,
    ETA_FAIR,
    ROTATION_C_FAIR,
    ROTATION_S_FAIR,
)
from qdice import ProtocolParams, Spin, StateVector, apply_u_eta, projective_test
from qdice.adversary import sample_cheat_values
from qdice.wcf import AliceDelta, AliceGeneral, BobClaimWin, Honest, _evolve, verification_state

TOL = 1e-12


def _points(seed: int, count: int) -> list[tuple[float, float]]:
    """Seeded (p, eta): every third at eta = 0, every third at eta = 1 - p."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(count):
        p = float(rng.uniform(0.02, 0.98))
        points.append((p, [0.0, 1.0 - p, float(rng.uniform(0.0, 1.0 - p))][i % 3]))
    return points


POINTS = _points(3201, 12) + [(0.5, 0.20710678118654752)]


def _unit(rng: np.random.Generator, dim: int) -> tuple[complex, ...]:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return tuple(complex(c) for c in v / np.linalg.norm(v))


def _configurations(p: float, eta: float, rng: np.random.Generator):
    """(cheat, reference.evolve keywords) of each kind at (p, eta)."""
    honest = reference.honest_amplitudes(p, eta)
    delta = float(rng.uniform())
    yield Honest(), {"amplitudes": honest}
    yield BobClaimWin(), {"amplitudes": honest, "claim_win": True}
    yield AliceDelta(delta), {"amplitudes": (0.0, math.sqrt(1.0 - delta), math.sqrt(delta), 0.0)}
    amplitudes = _unit(rng, 4)
    yield AliceGeneral(amplitudes), {"amplitudes": amplitudes}
    for dim in (1, 2, 3):
        amplitudes, ancillas = _unit(rng, 4), tuple(_unit(rng, dim) for _ in range(4))
        yield AliceGeneral(amplitudes, ancillas), {"amplitudes": amplitudes, "ancillas": ancillas}


@pytest.mark.parametrize("p, eta", POINTS)
def test_every_evolution_field_matches_the_dense_reference(p, eta):
    rng = np.random.default_rng(int(p * 1e6))
    for cheat, spec in _configurations(p, eta, rng):
        evolution = _evolve.__wrapped__(ProtocolParams(p, eta), cheat)
        bob, first, final, amplitudes = reference.evolve(p, eta, **spec)
        assert evolution.bob_win_prob == pytest.approx(bob, abs=TOL), cheat
        assert evolution.first_qubit_pass == pytest.approx(first, abs=TOL), cheat
        assert evolution.final_state_pass == pytest.approx(final, abs=TOL), cheat
        assert evolution.miss_amplitudes.shape == amplitudes.shape
        assert np.allclose(evolution.miss_amplitudes, amplitudes, rtol=0.0, atol=TOL), cheat


def _random_states(rng: np.random.Generator, dim: int, count: int = 4) -> list[StateVector]:
    """Dense three-qubit states, and states with qubit 3 spin-down as the
    evolution attaches it."""
    states = []
    for i in range(count):
        amps = rng.normal(size=(2, 2, 2, dim)) + 1j * rng.normal(size=(2, 2, 2, dim))
        if i % 2:
            amps[:, :, 0, :] = 0.0
        states.append(StateVector(amps / np.linalg.norm(amps)))
    return states


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p, eta", POINTS[:6])
def test_rotation_and_tests_match_the_dense_reference(p, eta, dim):
    rng = np.random.default_rng(dim)
    rotation = reference.rotation(p, eta, dim)
    patterns = {
        "bob": ({2: Spin.UP, 3: Spin.DOWN}, reference.bob_projector(dim)),
        "alice": ({1: Spin.DOWN}, reference.first_qubit_down(dim)),
    }
    for state in _random_states(rng, dim):
        flat = state.amps.reshape(-1)
        rotated = apply_u_eta(state, p, eta)
        assert np.allclose(rotated.amps.reshape(-1), rotation @ flat, rtol=0.0, atol=TOL)
        for pattern, projector in patterns.values():
            passed, failed = projective_test(rotated, pattern)
            expected = reference.pass_chance(rotation @ flat, projector)
            assert passed.probability == pytest.approx(expected, abs=TOL)
            assert failed.probability == pytest.approx(1.0 - expected, abs=TOL)
        passed, failed = projective_test(rotated, verification_state(ProtocolParams(p, eta)))
        expected = reference.pass_chance(rotation @ flat, reference.verification_projector(p, eta, dim))
        assert passed.probability == pytest.approx(expected, abs=TOL)
        assert failed.probability == pytest.approx(1.0 - expected, abs=TOL)


def test_the_reference_reproduces_the_honest_protocol():
    # Bob wins with p and both audits pass, from the dense matrices alone
    for p, eta in POINTS:
        bob, first, final, amplitudes = reference.evolve(p, eta, reference.honest_amplitudes(p, eta))
        assert bob == pytest.approx(p, abs=TOL)
        assert first == pytest.approx(1.0, abs=TOL)
        assert final == pytest.approx(1.0, abs=TOL)
        assert float(np.sum(np.abs(amplitudes) ** 2)) == pytest.approx(1.0 - p, abs=TOL)


SAMPLER_MODES = [
    # (ancilla_dim, min_unused_weight, orthogonal_pair): the four modes, and
    # the forced unused weight with each kind of ancilla
    (1, 0.0, False),
    (2, 0.0, False),
    (2, 0.0, True),
    (1, 0.5, False),
    (2, 0.3, False),
    (2, 0.3, True),
]


@pytest.mark.parametrize("ancilla_dim, min_unused_weight, orthogonal_pair", SAMPLER_MODES)
@pytest.mark.parametrize("n", [0, 1, 7])
def test_sampled_cheat_values_match_the_dense_reference(n, ancilla_dim, min_unused_weight, orthogonal_pair):
    options = {"ancilla_dim": ancilla_dim, "min_unused_weight": min_unused_weight,
               "orthogonal_pair": orthogonal_pair}
    for index, (p, eta) in enumerate(POINTS[:4] + POINTS[-1:]):
        seed = 3400 + 10 * n + index
        values = sample_cheat_values(ProtocolParams(p, eta), n, seed=seed, **options)
        preparations = reference.sampled_preparations(seed, n, **options)
        expected = [reference.cheat_value(p, eta, alpha, phis) for alpha, phis in preparations]
        assert values.shape == (n,)
        assert np.allclose(values, expected, rtol=0.0, atol=TOL), (p, eta, seed)


def test_the_reference_rebuilds_every_frozen_constant():
    # the fair points by bisection on the dense evolution's values alone: no closed form, no package solve
    rebuilt = {}
    for case, square_cheat_term, bias in ((1, True, "CASE1_BIAS"), (2, True, "CASE2_BIAS"),
                                          (2, False, "CASE2_BIAS_UNSQUARED")):
        stages = reference.fair_ladder(3, case, square_cheat_term)
        worst = max(reference.worst_case_losing(stages))
        rebuilt[bias] = worst - 2 / 3
        if case == 1:
            rebuilt.update(CASE1_ETA_STAR=stages[-1][0], CASE1_WORST_CASE=worst)
    eta = rebuilt["ETA_FAIR"] = stages[0][0]  # stage 2, the balanced coin of every ladder
    rotation = reference.rotation(0.5, eta, 1)  # [[c, s], [s, -c]] on |u2 d3>, |d2 u3>, rows 1 and 2
    rebuilt.update(ROTATION_C_FAIR=rotation[1, 1].real, ROTATION_S_FAIR=rotation[1, 2].real)
    rebuilt["DELTA_STAR_FAIR"] = abs(reference.alice_best(0.5, eta)[1][2]) ** 2  # the weight on |du>
    rebuilt["ALICE_VALUE_THIRD"] = reference.alice_best(1 / 3, 0.1465)[0]
    frozen = {
        "ETA_FAIR": ETA_FAIR, "DELTA_STAR_FAIR": DELTA_STAR_FAIR, "ROTATION_C_FAIR": ROTATION_C_FAIR,
        "ROTATION_S_FAIR": ROTATION_S_FAIR, "ALICE_VALUE_THIRD": ALICE_VALUE_THIRD,
        "CASE1_ETA_STAR": CASE1_ETA_STAR, "CASE1_WORST_CASE": CASE1_WORST_CASE, "CASE1_BIAS": CASE1_BIAS,
        "CASE2_BIAS": CASE2_BIAS, "CASE2_BIAS_UNSQUARED": CASE2_BIAS_UNSQUARED,
    }
    assert rebuilt.keys() == frozen.keys()
    for name, value in frozen.items():
        assert rebuilt[name] == pytest.approx(value, abs=TOL), name

