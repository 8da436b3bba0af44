"""Cheat-value tests: closed forms gated by the state-evolution oracle."""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import (
    ALICE_VALUE_THIRD,
    DELTA_STAR_FAIR,
    ETA_FAIR,
    SQRT_HALF,
    random_params,
)
from qdice import (
    AliceDelta,
    AliceGeneral,
    BobClaimWin,
    Honest,
    ParameterError,
    ProtocolParams,
    alice_optimal_value,
    alice_value_at_delta,
    bob_optimal_value,
    brute_force_alice,
)
from qdice import adversary
from qdice.adversary import (
    MAX_ORACLE_POINTS,
    _base_grid,
    _miss_amplitudes,
    _tilt_maximum,
    _tilt_roots,
    _tilt_values,
    alice_value_at_delta_via_states,
    cheater_win_prob,
    general_cheat_value,
    sample_cheat_values,
)
from qdice.errors import DegenerateParameterError

FAIR = ProtocolParams(0.5, ETA_FAIR)


# -- pointwise values ------------------------------------------------------------


def test_value_at_delta_endpoints():
    params = ProtocolParams(0.3, 0.25)
    a = (1 - params.p - params.eta) / (1 - params.p)
    b = params.eta**2 / ((1 - params.p) * (params.p + params.eta))
    assert alice_value_at_delta(params, 0.0) == pytest.approx(a, abs=1e-12)
    assert alice_value_at_delta(params, 1.0) == pytest.approx(b, abs=1e-12)


def test_value_at_optimal_delta_balanced():
    assert alice_value_at_delta(FAIR, DELTA_STAR_FAIR) == pytest.approx(SQRT_HALF, abs=1e-9)
    # the same product of miss probability and overlap, from actual states
    assert alice_value_at_delta_via_states(FAIR, DELTA_STAR_FAIR) == pytest.approx(
        SQRT_HALF, abs=1e-9
    )


def test_value_domain_errors():
    with pytest.raises(ParameterError):
        alice_value_at_delta(ProtocolParams(1.0, 0.0), 0.5)
    with pytest.raises(DegenerateParameterError):
        alice_value_at_delta(ProtocolParams(0.0, 0.0), 0.5)
    with pytest.raises(ParameterError):
        alice_value_at_delta(FAIR, 1.5)


def test_formula_matches_state_evolution():
    rng = np.random.default_rng(123)
    for _ in range(200):
        params = random_params(rng)
        delta = rng.random()
        formula = alice_value_at_delta(params, delta)
        evolved = alice_value_at_delta_via_states(params, delta)
        assert formula == pytest.approx(evolved, abs=1e-9)


def test_batch_evaluator_matches_single_state_chain():
    rng = np.random.default_rng(7)
    for _ in range(20):
        params = random_params(rng)
        deltas = rng.random(16)
        batch = _tilt_values(params, _tilt_roots(deltas))
        singles = [alice_value_at_delta_via_states(params, d) for d in deltas]
        assert np.allclose(batch, singles, atol=1e-12)


def test_cached_grid_tilt_values_match_evolved_states():
    rng = np.random.default_rng(11)
    deltas, *roots = _base_grid(10_000)
    for _ in range(10):
        params = random_params(rng)
        values = _tilt_values(params, roots)
        for node in rng.integers(0, len(deltas), 8):
            evolved = alice_value_at_delta_via_states(params, float(deltas[node]))
            assert values[node] == pytest.approx(evolved, abs=1e-12)


def test_tilt_values_keep_imaginary_parts(monkeypatch):
    # the engine's amplitudes are real today; the kernel must not rely on it
    r = np.array([0.0, 0.3 + 0.4j, -0.2 + 0.5j, 0.0])
    monkeypatch.setattr(adversary, "_miss_amplitudes", lambda params: r)
    deltas = np.linspace(0.0, 1.0, 11)
    expected = np.abs(np.sqrt(1.0 - deltas) * r[1] + np.sqrt(deltas) * r[2]) ** 2
    assert np.allclose(_tilt_values(FAIR, _tilt_roots(deltas)), expected, atol=1e-15)


def test_tilt_maximum_is_the_closed_form_to_rounding():
    # criterion 4's grid and random points; the closed form is read only here, to compare
    rng = np.random.default_rng(24)
    grid = [ProtocolParams(p, eta) for p in np.linspace(0.02, 0.98, 50) for eta in np.linspace(0.0, 1.0 - p, 50)]
    for params in grid + [random_params(rng) for _ in range(2_000)]:
        value, delta = _tilt_maximum(params)
        closed = alice_optimal_value(params)
        assert abs(value - closed.value) <= 1e-15, params
        assert abs(delta - closed.optimizer) <= 1e-15, params


def test_tilt_maximum_at_a_tiny_eta_is_the_closed_form_relatively():
    # delta* is about 4.76e-14 here, so an absolute 1e-15 bound cannot tell a
    # cancelling formula's 4.7629e-14 from it
    params = ProtocolParams(0.3, 1e-7)
    closed = alice_optimal_value(params).optimizer
    assert _tilt_maximum(params)[1] == pytest.approx(closed, rel=1e-9, abs=0.0)


@pytest.mark.parametrize(
    "r_ud, r_du",
    [(0.3 + 0.4j, 0.5 + 0.2j), (0.3 + 0.4j, -0.2 + 0.5j), (0.6 - 0.1j, 0.2 + 0.1j), (0.2 + 0.1j, 0.6 + 0.3j)],
)
def test_tilt_maximum_tops_a_fine_grid_of_complex_tilts(monkeypatch, r_ud, r_du):
    assert (r_ud * np.conj(r_du)).real > 0.0  # M12 > 0: an interior maximum
    r = np.array([0.0, r_ud, r_du, 0.0])
    monkeypatch.setattr(adversary, "_miss_amplitudes", lambda params: r)
    value, delta = _tilt_maximum(FAIR)
    grid = float(np.max(_tilt_values(FAIR, _tilt_roots(np.linspace(0.0, 1.0, 10**6)))))
    assert grid <= value <= grid + 1e-12
    assert 0.0 < delta < 1.0
    assert _tilt_values(FAIR, _tilt_roots(np.array([delta])))[0] == pytest.approx(value, abs=1e-15)


@pytest.mark.parametrize(
    "r_ud, r_du, expected",
    [
        (0.3 + 0.4j, -0.3 - 0.1j, (0.25, 0.0)),
        (0.1 + 0.2j, -0.4 - 0.3j, (0.25, 1.0)),
        (0.5, 0.5j, (0.25, 0.0)),
        (0.0, 0.0, (0.0, 0.0)),
    ],
    ids=["negative-m12-left", "negative-m12-right", "zero-m12", "zero-amplitudes"],
)
def test_tilt_maximum_without_positive_m12_is_an_end(monkeypatch, r_ud, r_du, expected):
    r = np.array([0.0, r_ud, r_du, 0.0])
    monkeypatch.setattr(adversary, "_miss_amplitudes", lambda params: r)
    value, delta = _tilt_maximum(FAIR)
    assert delta == expected[1]
    assert value == pytest.approx(expected[0], abs=1e-15)


def test_cached_grid_arrays_are_read_only():
    for array in _base_grid(1_000):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.5


def unit_rows(rng, n, dim):
    """n random unit rows, drawn as ``sample_cheat_values`` documents its stream."""
    raw = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def assert_matches_scalar_chain(params, values, alphas, phis=None):
    for k, value in enumerate(values):
        cheat = AliceGeneral(
            tuple(alphas[k]),
            ancillas=None if phis is None else tuple(tuple(row) for row in phis[k]),
        )
        assert value == pytest.approx(general_cheat_value(params, cheat), abs=1e-12)


def test_orthogonal_pair_batch_matches_scalar():
    params = ProtocolParams(0.4, 0.3)
    values = sample_cheat_values(params, 5, ancilla_dim=2, seed=32, orthogonal_pair=True)
    rng = np.random.default_rng(32)
    alphas = unit_rows(rng, 5, 4)
    phi_ud = unit_rows(rng, 5, 2)
    phi_du = np.stack([-np.conj(phi_ud[:, 1]), np.conj(phi_ud[:, 0])], axis=1)
    phi_uu, phi_dd = unit_rows(rng, 5, 2), unit_rows(rng, 5, 2)
    phis = np.stack([phi_uu, phi_ud, phi_du, phi_dd], axis=1)
    assert_matches_scalar_chain(params, values, alphas, phis)


@pytest.mark.parametrize("dim", [1, 2])
def test_min_unused_weight_batch_matches_scalar(dim):
    params = ProtocolParams(0.4, 0.3)
    values = sample_cheat_values(params, 5, ancilla_dim=dim, seed=33, min_unused_weight=0.3)
    rng = np.random.default_rng(33)
    unit_rows(rng, 5, 4)  # the plain amplitudes, drawn and replaced
    weight = 0.3 + 0.7 * rng.random(5)
    alphas = np.empty((5, 4), dtype=complex)
    alphas[:, [0, 3]] = np.sqrt(weight)[:, None] * unit_rows(rng, 5, 2)
    alphas[:, [1, 2]] = np.sqrt(1.0 - weight)[:, None] * unit_rows(rng, 5, 2)
    phis = None if dim == 1 else unit_rows(rng, 20, 2).reshape(5, 4, 2)
    assert_matches_scalar_chain(params, values, alphas, phis)


def test_general_value_batch_matches_scalar():
    params = ProtocolParams(0.4, 0.3)
    for dim in (1, 2):
        values = sample_cheat_values(params, 5, ancilla_dim=dim, seed=31)
        # rebuild the same preparations through the scalar state chain
        rng = np.random.default_rng(31)
        alphas = unit_rows(rng, 5, 4)
        phis = None if dim == 1 else unit_rows(rng, 20, 2).reshape(5, 4, 2)
        assert_matches_scalar_chain(params, values, alphas, phis)


# -- optima ----------------------------------------------------------------------


def test_optimal_value_balanced_fair():
    result = alice_optimal_value(FAIR)
    assert result.value == pytest.approx(SQRT_HALF, abs=1e-9)
    assert result.optimizer == pytest.approx(DELTA_STAR_FAIR, abs=1e-9)


def test_optimal_value_at_eta_zero_is_one():
    for p in (0.1, 0.5, 0.9):
        assert alice_optimal_value(ProtocolParams(p, 0.0)).value == pytest.approx(1.0, abs=1e-12)


def test_optimal_value_third_case():
    assert alice_optimal_value(ProtocolParams(1 / 3, 0.1465)).value == pytest.approx(
        ALICE_VALUE_THIRD, abs=1e-9
    )


def test_bob_optimal_values():
    assert bob_optimal_value(FAIR).value == pytest.approx(SQRT_HALF, abs=1e-12)
    assert bob_optimal_value(ProtocolParams(0.37, 0.0)).value == 0.37
    assert bob_optimal_value(ProtocolParams(1 / 3, 1 / 3)).value == pytest.approx(2 / 3)


def test_cheater_win_prob_reads_the_declared_strategy():
    params = ProtocolParams(0.37, 0.21)
    general = AliceGeneral((0.5, 0.5, 0.5, -0.5), ancillas=((1.0, 0.0), (0.0, 1.0)) * 2)
    assert cheater_win_prob(params, Honest()) is None
    assert cheater_win_prob(params, BobClaimWin()) == bob_optimal_value(params).value
    assert cheater_win_prob(params, AliceDelta(0.3)) == alice_value_at_delta(params, 0.3)
    assert cheater_win_prob(params, general) == general_cheat_value(params, general)


def test_cheating_never_hurts_on_grid():
    for p in np.linspace(0.02, 0.98, 50):
        for eta in np.linspace(0.0, 1.0 - p, 50):
            params = ProtocolParams(p, eta)
            assert alice_optimal_value(params).value >= 1.0 - p - 1e-12
            assert bob_optimal_value(params).value >= p - 1e-12


def test_bob_value_strictly_increasing_in_eta():
    for p in (0.1, 0.5, 0.8):
        values = [bob_optimal_value(ProtocolParams(p, eta)).value for eta in np.linspace(0, 1 - p, 20)]
        assert all(b > a for a, b in zip(values, values[1:]))


# -- brute force vs closed form ----------------------------------------------------


def test_brute_force_matches_closed_form_at_fair_point():
    oracle = brute_force_alice(FAIR, grid_points=10_000, random_samples=0)
    assert oracle.value == pytest.approx(SQRT_HALF, abs=1e-6)
    assert oracle.optimizer == pytest.approx(DELTA_STAR_FAIR, abs=1e-4)


def test_brute_force_matches_closed_form_at_random_points():
    rng = np.random.default_rng(99)
    for _ in range(20):
        params = random_params(rng, p_max=0.95)
        oracle = brute_force_alice(params, grid_points=2_000, random_samples=0)
        assert oracle.value == pytest.approx(alice_optimal_value(params).value, abs=1e-9)


@pytest.mark.parametrize("grid_points", [1_000, 10_000])
def test_zoomed_oracle_reaches_the_closed_form_to_rounding(grid_points):
    """The grid and its one evolved refine at the 2x2 maximizer land within
    1e-14 of the closed form on criterion 4's 50 x 50 grid, even at the
    coarsest grid; the closed form is read only here, to compare."""
    for p in np.linspace(0.02, 0.98, 50):
        for eta in np.linspace(0.0, 1.0 - p, 50):
            params = ProtocolParams(p, eta)
            oracle = brute_force_alice(params, grid_points=grid_points, random_samples=0)
            assert abs(oracle.value - alice_optimal_value(params).value) <= 1e-14, params


def test_unrefined_grid_never_exceeds_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(20):
        params = random_params(rng, p_max=0.95)
        values = _tilt_values(params, _tilt_roots(np.linspace(0.0, 1.0, 2_000)))
        assert float(np.max(values)) <= alice_optimal_value(params).value + 1e-9


@pytest.mark.parametrize(
    "n_samples, options",
    [
        (10, {"min_unused_weight": 2.0}),
        (10, {"min_unused_weight": -0.5}),
        (10, {"min_unused_weight": math.nan}),
        (10, {"orthogonal_pair": True}),
        (-1, {}),
        (MAX_ORACLE_POINTS + 1, {}),
        (10.0, {}),
    ],
    ids=["weight-above-1", "negative-weight", "nan-weight", "orthogonal-without-ancilla",
         "negative-count", "count-above-cap", "float-count"],
)
def test_sample_cheat_values_refuses_invalid_inputs(n_samples, options):
    with pytest.raises(ParameterError):
        sample_cheat_values(FAIR, n_samples, **options)


def test_sample_cheat_values_accepts_its_boundaries():
    assert sample_cheat_values(FAIR, 0).shape == (0,)
    # all weight on the unused uu/dd branches: such a preparation never wins
    assert np.allclose(sample_cheat_values(FAIR, 50, min_unused_weight=1.0), 0.0)
    paired = sample_cheat_values(FAIR, 50, ancilla_dim=2, orthogonal_pair=True)
    assert np.all((0.0 <= paired) & (paired <= alice_optimal_value(FAIR).value + 1e-9))


ORACLE_ENTRY_POINTS = {
    "sample_cheat_values": lambda params, **options: sample_cheat_values(params, 10, **options),
    "brute_force_alice": lambda params, **options: brute_force_alice(
        params, 1_000, random_samples=10, **options
    ),
}


@pytest.mark.parametrize("entry", ORACLE_ENTRY_POINTS)
@pytest.mark.parametrize("ancilla_dim", [True, 2.0, 1.5, 0, 3])
def test_oracle_ancilla_dimension_is_the_integer_1_or_2(entry, ancilla_dim):
    with pytest.raises(ParameterError):
        ORACLE_ENTRY_POINTS[entry](FAIR, ancilla_dim=ancilla_dim)


@pytest.mark.parametrize("entry", ORACLE_ENTRY_POINTS)
@pytest.mark.parametrize("params", [None, (0.5, 0.1)], ids=["none", "tuple"])
def test_oracle_params_must_be_protocol_params(entry, params):
    with pytest.raises(ParameterError):
        ORACLE_ENTRY_POINTS[entry](params)


@pytest.mark.parametrize("orthogonal_pair", ["no", 1, None])
def test_orthogonal_pair_must_be_a_bool(orthogonal_pair):
    with pytest.raises(ParameterError):
        sample_cheat_values(FAIR, 10, ancilla_dim=2, orthogonal_pair=orthogonal_pair)


@pytest.mark.parametrize("weight", ["a", None, True])
def test_min_unused_weight_must_be_a_number(weight):
    with pytest.raises(ParameterError):
        sample_cheat_values(FAIR, 10, min_unused_weight=weight)


def test_brute_force_validates_inputs():
    with pytest.raises(ParameterError):
        brute_force_alice(FAIR, grid_points=500)
    with pytest.raises(ParameterError):
        brute_force_alice(FAIR, ancilla_dim=3)


def test_grid_point_count_must_be_an_integer():
    with pytest.raises(ParameterError):
        brute_force_alice(FAIR, 1500.0)


# -- no-advantage properties --------------------------------------------------------


def test_random_preparations_never_beat_the_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(5):
        params = random_params(rng, p_max=0.9)
        closed = alice_optimal_value(params).value
        for dim in (1, 2):
            values = sample_cheat_values(params, 2_000, ancilla_dim=dim, seed=8)
            assert float(np.max(values)) <= closed + 1e-9


def test_weight_on_unused_branches_strictly_hurts():
    closed = alice_optimal_value(FAIR).value
    values = sample_cheat_values(FAIR, 10_000, seed=15, min_unused_weight=0.01)
    # mass w on the uu/dd branches caps the value at (1-w) times the optimum
    assert float(np.max(values)) < closed - 0.005


def test_orthogonal_ancilla_pair_strictly_below_equal_pair():
    delta = 0.3
    amps = (0.0, math.sqrt(1 - delta), math.sqrt(delta), 0.0)
    phi = (1 / math.sqrt(2), 1j / math.sqrt(2))
    phi_orth = (1 / math.sqrt(2), -1j / math.sqrt(2))
    equal = general_cheat_value(FAIR, AliceGeneral(amps, ancillas=(phi, phi, phi, phi)))
    orthogonal = general_cheat_value(FAIR, AliceGeneral(amps, ancillas=(phi, phi, phi_orth, phi)))
    assert orthogonal < equal - 1e-3
    assert equal == pytest.approx(alice_value_at_delta(FAIR, delta), abs=1e-9)
