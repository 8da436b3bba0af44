"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; a criterion's line is printed only after all of its assertions
hold.
"""
from __future__ import annotations

import json
import time

import numpy as np

import reference
from conftest import ETA_FAIR, SQRT_HALF, three_sigma
from qdice import (
    BobClaimWin,
    Coalition,
    Honest,
    LadderSpec,
    ProtocolParams,
    Winner,
    alice_optimal_value,
    bias_bound_check,
    brute_force_alice,
    optimize_three_sided,
    run_trials,
    simulate_dice,
    solve_balanced,
    worst_case_losing_prob,
)
from qdice.adversary import sample_cheat_values
from qdice.cli import EXIT_OK, main
from qdice.dicer import expected_coalition_losing


def _passed(number: int, detail: str) -> None:
    print(f"\ncriterion {number:02d} PASS: {detail}")


def test_criterion_01_balanced_fairness():
    start = time.perf_counter()
    ladder = solve_balanced()
    elapsed = time.perf_counter() - start
    eta_star = ladder.stages[0].stage.params.eta
    assert abs(eta_star - ETA_FAIR) <= 1e-6
    assert abs(ladder.worst_case_losing[1] - SQRT_HALF) <= 1e-6
    assert abs(ladder.worst_case_losing[0] - SQRT_HALF) <= 1e-6
    assert elapsed < 1.0
    _passed(1, f"eta*={eta_star:.7f}, values={ladder.worst_case_losing[1]:.7f} in {elapsed:.3f}s")


def test_criterion_02_three_sided_case1():
    start = time.perf_counter()
    ladder = optimize_three_sided(1)
    elapsed = time.perf_counter() - start
    assert abs(ladder.worst_case_losing[-1] - 0.848) <= 1e-3
    assert abs(ladder.epsilon - 0.181) <= 1e-3
    assert elapsed < 1.0
    _passed(2, f"worst case {ladder.worst_case_losing[-1]:.4f}, bias {ladder.epsilon:.4f} in {elapsed:.3f}s")


def test_criterion_03_three_sided_case2_and_squaring_decision():
    start = time.perf_counter()
    squared = optimize_three_sided(2)
    elapsed = time.perf_counter() - start
    assert abs(squared.epsilon - 0.199) <= 1e-3
    # the unsquared reading, which the reference alone keeps, must not reproduce the target value
    literal = max(reference.worst_case_losing(reference.fair_ladder(3, 2, square_cheat_term=False))) - 2 / 3
    assert abs(literal - 0.199) > 1e-3
    assert elapsed < 1.0
    _passed(3, f"squared bias {squared.epsilon:.4f}; unsquared reading gives {literal:.4f}")


def test_criterion_04_oracle_equivalence_on_grid():
    start = time.perf_counter()
    worst = 0.0
    for p in np.linspace(0.02, 0.98, 50):
        for eta in np.linspace(0.0, 1.0 - p, 50):
            params = ProtocolParams(p, eta)
            oracle = brute_force_alice(params, grid_points=10_000, random_samples=0)
            gap = abs(oracle.value - alice_optimal_value(params).value)
            worst = max(worst, gap)
            assert gap <= 1e-6, f"grid point p={p}, eta={eta}: gap {gap}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(4, f"50x50 grid, max |oracle - closed form| = {worst:.2e} in {elapsed:.1f}s")


def test_criterion_05_no_ancilla_or_phase_advantage():
    rng = np.random.default_rng(2024)
    worst_excess = -1.0
    for point in range(20):
        p = rng.uniform(0.05, 0.95)
        eta = rng.uniform(0.0, 1.0 - p)
        params = ProtocolParams(p, eta)
        closed = alice_optimal_value(params).value
        values = sample_cheat_values(params, 10_000, ancilla_dim=2, seed=1000 + point)
        worst_excess = max(worst_excess, float(np.max(values)) - closed)
        assert float(np.max(values)) <= closed + 1e-9
    _passed(5, f"2e5 sampled ancilla strategies, max excess over closed form = {worst_excess:.2e}")


def test_criterion_06_honest_monte_carlo():
    trials = 100_000
    for p, eta in [(0.5, 0.2071), (1 / 3, 0.1465), (2 / 3, 0.199)]:
        params = ProtocolParams(p, eta)
        stats = run_trials(params, Honest(), trials, seed=601)
        expected = 1.0 - p
        assert stats.aborts == 0
        assert abs(stats.frequency(Winner.ALICE) - expected) <= three_sigma(expected, trials)
    _passed(6, "alice frequency within 3 sigma of 1-p at three parameter points, zero aborts")


def test_criterion_07_bob_cheat_monte_carlo():
    trials = 100_000
    stats = run_trials(ProtocolParams(0.5, ETA_FAIR), BobClaimWin(), trials, seed=701)
    frequency = stats.frequency(Winner.BOB)
    assert abs(frequency - SQRT_HALF) <= three_sigma(SQRT_HALF, trials)
    _passed(7, f"claim-win frequency {frequency:.4f} vs 0.7071 over 1e5 trials")


def test_criterion_08_composition_identities():
    for n_parties in range(2, 17):
        for party in range(1, n_parties + 1):
            stages = n_parties - max(party, 2) + 1
            assert worst_case_losing_prob(party, n_parties, [0.0] * stages) == (
                (n_parties - 1) / n_parties
            )
    rng = np.random.default_rng(808)
    for _ in range(1_000):
        n_parties = int(rng.integers(2, 17))
        party = int(rng.integers(1, n_parties + 1))
        stages = n_parties - max(party, 2) + 1
        biases = rng.uniform(0.0, 1.0 / n_parties, size=stages)
        assert bias_bound_check(party, n_parties, biases).holds
    _passed(8, "zero-bias composition exact for N=2..16; bound held on 1e3 random instances")


def test_criterion_09_dice_monte_carlo():
    trials = 90_000
    spec = LadderSpec.three_sided(case=1)
    honest = simulate_dice(spec, trials, seed=901)
    for frequency in honest.frequencies():
        assert abs(frequency - 1 / 3) <= three_sigma(1 / 3, trials)

    coalition = Coalition(honest_party=1)
    expected = expected_coalition_losing(spec, coalition)
    assert abs(expected - 0.848) <= 1e-3
    report = simulate_dice(spec, trials, seed=902, coalition=coalition)
    losing = 1.0 - report.frequencies()[0]
    assert abs(losing - expected) <= three_sigma(expected, trials)
    _passed(9, f"honest ladder uniform; coalition drives alice's losing frequency to {losing:.4f}")


def test_criterion_10_cli_determinism(tmp_path):
    configurations = [
        ["simulate", "--p", "0.5", "--eta", "0.2071068", "--cheat", "bob-claim-win",
         "--trials", "20000", "--seed", "7"],
        ["simulate", "--dice", "3", "--honest", "--trials", "5000", "--seed", "1"],
        ["cheat", "--p", "0.3333333", "--eta", "0.1465"],
        ["solve", "dice3-case1"],
        ["bound-check", "--dice", "4", "--party", "2", "--biases", "0.1,0.05,0.02"],
    ]
    for index, argv in enumerate(configurations):
        first = tmp_path / f"{index}-first.json"
        second = tmp_path / f"{index}-second.json"
        assert main(argv + ["--out", str(first)]) == EXIT_OK
        assert main(argv + ["--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        json.loads(first.read_text())  # reports stay valid JSON
    _passed(10, "five CLI configurations reproduced byte-identical reports")
