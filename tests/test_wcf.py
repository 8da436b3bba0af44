"""Protocol state-machine tests: honest statistics, cheats, determinism."""
from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DELTA_STAR_FAIR, ETA_FAIR, random_params, reference_code, three_sigma
from qdice import (
    AliceDelta,
    AliceGeneral,
    BasisLabel,
    BobClaimWin,
    Honest,
    LadderSpec,
    ParameterError,
    ProtocolParams,
    Spin,
    StateVector,
    Winner,
    alice_verification,
    apply_u_eta,
    attach_down_ancilla_qubit,
    bias_bound_check,
    brute_force_alice,
    find_root,
    honest_win_prob,
    ket,
    optimize_three_sided,
    overlap,
    projective_test,
    run_protocol,
    run_trials,
    simulate_dice,
    solve_balanced,
    worst_case_losing_prob,
)
from qdice import _seeding, adversary, dicer, wcf
from qdice.adversary import (
    alice_optimal_value,
    alice_value_at_delta,
    bob_optimal_value,
    cheater_win_prob,
    general_cheat_value,
    sample_cheat_values,
)
from qdice.dicer import Coalition, StageParams, expected_coalition_losing
from qdice.wcf import _OUTCOMES, TRIAL_BLOCK, _outcome, trial_rng


# -- parameters and analytics --------------------------------------------------


def test_honest_win_prob_values():
    assert honest_win_prob(ProtocolParams(0.5, 0.2071)) == 0.5
    assert honest_win_prob(ProtocolParams(1 / 3, 0.1)) == pytest.approx(2 / 3)
    assert honest_win_prob(ProtocolParams(1.0, 0.0)) == 0.0


def test_params_validation():
    with pytest.raises(ParameterError):
        ProtocolParams(1.5, 0.0)
    with pytest.raises(ParameterError):
        ProtocolParams(0.5, 0.6)
    with pytest.raises(ParameterError):
        ProtocolParams(0.5, -0.1)


def test_params_must_be_numbers():
    with pytest.raises(ParameterError):
        ProtocolParams("a", 0.1)
    with pytest.raises(ParameterError):
        ProtocolParams(0.5, "0.1")


def test_cheat_spec_validation():
    with pytest.raises(ParameterError):
        AliceDelta(1.2)
    with pytest.raises(ParameterError):
        AliceGeneral((1.0, 1.0, 0.0, 0.0))
    with pytest.raises(ParameterError):
        AliceGeneral((0.0, 1.0, 0.0, 0.0), ancillas=((1.0, 1.0),) * 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_alice_general_refuses_non_finite_ancilla_entries(bad):
    with pytest.raises(ParameterError):
        AliceGeneral((0.0, 1.0, 0.0, 0.0), ancillas=((bad, 0.0),) + ((1.0, 0.0),) * 3)


@pytest.mark.parametrize(
    "amplitudes, ancillas",
    [
        ((1e200, 0.0, 0.0, 0.0), None),
        ((complex(1e308, 1e308), 0.0, 0.0, 0.0), None),
        ((0.0, 1.0, 0.0, 0.0), ((1e200, 0.0),) + ((1.0, 0.0),) * 3),
    ],
)
def test_alice_general_refuses_entries_too_large_to_square(amplitudes, ancillas):
    with pytest.raises(ParameterError):
        AliceGeneral(amplitudes, ancillas)


def never_evaluated(x):
    raise AssertionError("a refused call evaluated its function")


WRONG_TYPE_CALLS = {
    "stage-bias-string": lambda: worst_case_losing_prob(1, 3, ["a", 0.1]),
    "delta-string": lambda: AliceDelta("a"),
    "amplitude-string": lambda: AliceGeneral(("a", 0, 0, 0)),
    "coalition-string": lambda: simulate_dice(LadderSpec.uniform(3), 10, 0, coalition="x"),
    "p-bool": lambda: ProtocolParams(True, 0.0),
    "params-none-alice-optimal": lambda: alice_optimal_value(None),
    "params-none-alice-at-delta": lambda: alice_value_at_delta(None, 0.1),
    "params-none-bob-optimal": lambda: bob_optimal_value(None),
    "params-none-cheater-win": lambda: cheater_win_prob(None, Honest()),
    "params-none-general-cheat": lambda: general_cheat_value(None, AliceGeneral((0, 1, 0, 0))),
    "params-none-run-trials": lambda: run_trials(None, Honest(), 10, 0),
    "spec-string-simulate-dice": lambda: simulate_dice("x", 10, 0),
    "spec-string-coalition-losing": lambda: expected_coalition_losing("x", Coalition(1)),
    "amplitudes-none": lambda: AliceGeneral(None),
    "ancilla-none": lambda: AliceGeneral((0, 1, 0, 0), ancillas=(None,) * 4),
    "params-none-run-protocol": lambda: run_protocol(None, Honest(), np.random.default_rng(0)),
    "cheat-list-run-protocol": lambda: run_protocol(ProtocolParams(0.5, 0.1), [1], np.random.default_rng(0)),
    "params-none-honest-win": lambda: honest_win_prob(None),
    "cheat-string-cheater-win": lambda: cheater_win_prob(ProtocolParams(0.5, 0.1), "x"),
    "cheat-none-cheater-win": lambda: cheater_win_prob(ProtocolParams(0.5, 0.1), None),
    "cheat-list-run-trials": lambda: run_trials(ProtocolParams(0.5, 0.1), [1], 10, 1),
    "params-none-stage": lambda: StageParams(2, None),
    "stages-none-ladder": lambda: LadderSpec(3, None),
    "stages-ints-ladder": lambda: LadderSpec(3, [2, 3]),
    "seed-none-trial-rng": lambda: trial_rng(None, 0),
    "bracket-none-find-root": lambda: find_root(never_evaluated, None),
    "bracket-strings-find-root": lambda: find_root(never_evaluated, ("a", "b")),
    "bracket-triple-find-root": lambda: find_root(never_evaluated, (0.0, 0.5, 1.0)),
    "tol-string-find-root": lambda: find_root(never_evaluated, (0.0, 1.0), tol="x"),
    "label-list-ket": lambda: ket(["u"]),
    "dimension-list-ket": lambda: ket("ud", [2]),
    "label-int-ket": lambda: ket(5),
    "text-none-basis-label": lambda: BasisLabel.parse(None),
    "bracket-int-solve-balanced": lambda: solve_balanced(bracket=5),
    "bracket-triple-three-sided": lambda: optimize_three_sided(1, bracket=(0.1, 0.2, 0.3)),
    "biases-int-worst-case": lambda: worst_case_losing_prob(1, 3, 5),
    "biases-none-bound-check": lambda: bias_bound_check(1, 3, None),
    "biases-set-bound-check": lambda: bias_bound_check(1, 3, {0.1, 0.2}),
    "biases-dict-worst-case": lambda: worst_case_losing_prob(1, 3, {0.1: 0, 0.2: 1}),
    "biases-iterator-worst-case": lambda: worst_case_losing_prob(1, 3, iter([0.1, 0.2])),
    "state-none-overlap-bra": lambda: overlap(None, ket("u")),
    "state-string-overlap-ket": lambda: overlap(ket("u"), "u"),
    "state-none-attach-ancilla": lambda: attach_down_ancilla_qubit(None),
    "state-amps-apply-u-eta": lambda: apply_u_eta(ket("udd").amps, 0.5, 0.1),
    "state-none-projective-test": lambda: projective_test(None, {1: Spin.DOWN}),
    "state-none-alice-verification": lambda: alice_verification(None),
    "rng-none-run-protocol": lambda: run_protocol(ProtocolParams(0.5, 0.1), Honest(), None),
    "rng-seed-run-protocol": lambda: run_protocol(ProtocolParams(0.5, 0.1), Honest(), 0),
    "params-none-alice-at-delta-via-states": lambda: adversary.alice_value_at_delta_via_states(None, 0.3),
    "cheat-list-general-cheat": lambda: general_cheat_value(ProtocolParams(0.5, 0.1), []),
    "case-bool-three-sided": lambda: optimize_three_sided(True),
    "case-float-three-sided": lambda: optimize_three_sided(1.0),
    "case-array-three-sided": lambda: optimize_three_sided(np.array([1, 2])),
    "case-bool-fair-ladder": lambda: LadderSpec.fair(3, True),
    "case-array-fair-ladder": lambda: LadderSpec.fair(3, np.array([1, 2])),
    "preparer-array-stage": lambda: StageParams(2, ProtocolParams(0.5, 0.1), np.array(["a", "b"])),
    "terms-none-state-from-terms": lambda: StateVector.from_terms(None),
    "params-none-verification-state": lambda: wcf.verification_state(None),
}


@pytest.mark.parametrize("call", WRONG_TYPE_CALLS)
def test_wrong_type_arguments_raise_parameter_error(call):
    with pytest.raises(ParameterError):
        WRONG_TYPE_CALLS[call]()


PAIR = np.array([0.1, 0.2])  # compares elementwise, so its truth value is ambiguous

ARRAY_IN_SCALAR_SLOT_CALLS = {
    "p-protocol-params": lambda: ProtocolParams(PAIR, 0.1),
    "eta-protocol-params": lambda: ProtocolParams(0.1, PAIR),
    "delta-alice-delta": lambda: AliceDelta(PAIR),
    "delta-alice-at-delta": lambda: alice_value_at_delta(ProtocolParams(0.5, 0.1), PAIR),
    "p-apply-u-eta": lambda: apply_u_eta(ket("udd"), PAIR, 0.1),
    "tol-find-root": lambda: find_root(never_evaluated, (0.0, 1.0), tol=PAIR),
    "bracket-end-three-sided": lambda: optimize_three_sided(1, bracket=(PAIR, 0.2)),
}


@pytest.mark.parametrize("call", ARRAY_IN_SCALAR_SLOT_CALLS)
def test_an_array_in_a_scalar_slot_raises_parameter_error(call):
    with pytest.raises(ParameterError, match="number"):
        ARRAY_IN_SCALAR_SLOT_CALLS[call]()


def test_a_domain_refusal_keeps_its_own_message():
    with pytest.raises(ParameterError, match=r"p must lie in \[0, 1\]"):
        ProtocolParams(1.5, "x")
    with pytest.raises(ParameterError, match="lo < hi"):
        find_root(never_evaluated, (1.0, 0.0))


@pytest.mark.parametrize("f", [5, None, "x"])
def test_find_root_refuses_a_non_callable(f):
    with pytest.raises(ParameterError, match="callable"):
        find_root(f, (0.0, 1.0))


@pytest.mark.parametrize("amps", ["x", [["1", "0"], ["a"]], [[1, 0], [0]]])
def test_state_vector_refuses_amplitudes_that_are_not_an_array_of_numbers(amps):
    with pytest.raises(ParameterError, match="amplitudes must be"):
        StateVector(amps)


def test_alice_general_stores_lists_as_tuples():
    params = ProtocolParams(0.5, 0.1)
    listed = AliceGeneral([0, 1, 0, 0], ancillas=[[1, 0], [0, 1], [1, 0], [0, 1]])
    assert listed == AliceGeneral((0, 1, 0, 0), ancillas=((1, 0), (0, 1), (1, 0), (0, 1)))
    assert hash(listed) == hash(AliceGeneral((0, 1, 0, 0), ancillas=((1, 0), (0, 1), (1, 0), (0, 1))))
    stats = run_trials(params, AliceGeneral([0, 1, 0, 0]), 10, 0)
    assert stats.counts == run_trials(params, AliceGeneral((0, 1, 0, 0)), 10, 0).counts


def test_only_honest_play_has_no_cheater_value():
    assert cheater_win_prob(ProtocolParams(0.5, 0.1), Honest()) is None


def test_ladder_spec_stores_a_stage_list_as_a_tuple():
    spec = LadderSpec.fair(4)
    listed = LadderSpec(4, list(spec.stages))
    assert listed == spec and hash(listed) == hash(spec)
    assert simulate_dice(listed, 100, 3).win_counts == simulate_dice(spec, 100, 3).win_counts


def test_alice_verification_basics():
    assert alice_verification(ket("d")) == pytest.approx(1.0)
    assert alice_verification(ket("u")) == pytest.approx(0.0)


def test_honest_audits_pass_exactly():
    """Both audits of an honest run pass with probability exactly 1, on every
    stage of the fair N = 8 ladder in both layouts and at 2000 random (p, eta),
    in ``_evolve`` and through the public ``projective_test`` alike."""
    rng = np.random.default_rng(20)
    configs = [stage.params for case in (1, 2) for stage in LadderSpec.fair(8, case).stages]
    configs += [random_params(rng) for _ in range(2000)]
    for params in configs:
        evolution = wcf._evolve.__wrapped__(params, Honest())
        assert (evolution.first_qubit_pass, evolution.final_state_pass) == (1.0, 1.0), params
        state = attach_down_ancilla_qubit(wcf.honest_initial_state(params))
        hit, miss = projective_test(apply_u_eta(state, params.p, params.eta), wcf.BOB_WIN_PATTERN)
        audits = (
            projective_test(hit.post_state, {1: Spin.DOWN}),
            projective_test(miss.post_state, wcf.verification_state(params)),
        )
        assert tuple(passed.probability for passed, _ in audits) == (1.0, 1.0), params


def public_chain(params, cheat):
    """``_evolve``'s four numbers rebuilt from the public primitives: Bob's
    ``projective_test``, both audits on the renormalized post-states, and
    ``overlap`` with the verification state scaled by sqrt(p_miss)."""
    state = attach_down_ancilla_qubit(wcf._prepare(params, cheat))
    hit, miss = projective_test(apply_u_eta(state, params.p, params.eta), wcf.BOB_WIN_PATTERN)
    xi = wcf.verification_state(params)
    first_qubit = projective_test(hit.post_state, {1: Spin.DOWN})[0].probability
    final_state = projective_test(miss.post_state, xi)[0].probability
    amplitudes = math.sqrt(miss.probability) * np.atleast_1d(overlap(xi, miss.post_state))
    return hit.probability, first_qubit, final_state, amplitudes


def random_general(rng, ancilla_dim):
    """A random dense preparation whose branches carry random unit ancillas."""
    def unit(n):
        raw = rng.normal(size=n) + 1j * rng.normal(size=n)
        return tuple(raw / np.linalg.norm(raw))

    return AliceGeneral(unit(4), ancillas=tuple(unit(ancilla_dim) for _ in range(4)))


@pytest.mark.parametrize("ancilla_dim", [1, 2, 4])
def test_evolution_on_raw_branches_equals_the_public_chain(ancilla_dim):
    rng = np.random.default_rng(40 + ancilla_dim)
    cases = [(random_params(rng), random_general(rng, ancilla_dim)) for _ in range(50)]
    cases += [(random_params(rng), adversary._BASIS) for _ in range(10)]
    for params, cheat in cases:
        evolution = wcf._evolve.__wrapped__(params, cheat)
        bob_win, first_qubit, final_state, amplitudes = public_chain(params, cheat)
        assert abs(evolution.bob_win_prob - bob_win) <= 1e-15
        assert abs(evolution.first_qubit_pass - first_qubit) <= 1e-15
        assert abs(evolution.final_state_pass - final_state) <= 1e-15
        assert np.max(np.abs(evolution.miss_amplitudes - amplitudes)) <= 1e-15


PINNED_GENERAL = AliceGeneral((0.5, 0.5j, -0.5, 0.5), ancillas=((1.0, 0.0), (0.6, 0.8j), (0.8, -0.6), (0.0, 1.0)))
PINNED_CHEATS = {
    "honest": Honest(), "claim-win": BobClaimWin(), "tilt": AliceDelta(0.3),
    "general-ancilla2": PINNED_GENERAL, "basis": adversary._BASIS,
}
#: float.hex of bob_win_prob, first_qubit_pass, final_state_pass and the real
#: and imaginary part of each miss amplitude, near the fair point and at eta = 1 - p
EVOLUTIONS_PINNED = {
    (0.5, "honest"): ("0x1.0000000000001p-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
                      ("0x1.6a09e667f3bccp-1", "0x0.0p+0")),
    (0.5, "claim-win"): ("0x1.0000000000000p+0", "0x1.6a09e667f3bcep-1", "0x0.0p+0",
                         ("0x0.0p+0", "0x0.0p+0")),
    (0.5, "tilt"): ("0x1.b27247aff148dp-3", "0x1.0000000000000p+0", "0x1.c0e789666ae08p-1",
                    ("0x1.a989cde8c87b6p-1", "0x0.0p+0")),
    (0.5, "general-ancilla2"): ("0x1.6a09e667f3bcdp-2", "0x1.0000000000000p-1", "0x1.655928bda0ebdp-3",
                                ("-0x1.1d560c4da90c9p-3", "0x1.d63dcc804cb42p-3", "-0x1.9cfc8770d226ep-3",
                                 "0x0.0p+0")),
    (0.5, "basis"): ("0x1.6a09e667f3bccp-2", "0x1.0000000000000p-1", "0x1.1805a83b66b50p-2",
                     ("0x0.0p+0", "0x0.0p+0", "0x1.87de2a6aea962p-2", "0x0.0p+0", "0x1.64ab8f61134fbp-3",
                      "0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
    (0.3, "honest"): ("0x1.3333333333332p-2", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
                      ("0x1.ac5eb3f7ab2f8p-1", "0x0.0p+0")),
    (0.3, "claim-win"): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0",
                         ("0x0.0p+0", "0x0.0p+0")),
    (0.3, "tilt"): ("0x1.70a3d70a3d707p-4", "0x1.0000000000000p+0", "0x1.d89d89d89d89dp-3",
                    ("0x1.d54178e8830d5p-2", "0x0.0p+0")),
    (0.3, "general-ancilla2"): ("0x1.3333333333332p-3", "0x1.0000000000001p-1", "0x1.a5a5a5a5a5a5ap-3",
                                ("-0x1.56b22992ef594p-2", "0x0.0p+0", "0x1.01059f2e3382ep-2", "0x0.0p+0")),
    (0.3, "basis"): ("0x1.3333333333332p-3", "0x1.0000000000000p-1", "0x1.a5a5a5a5a5a5ap-3",
                     ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.ac5eb3f7ab2f8p-2", "0x0.0p+0",
                      "0x0.0p+0", "0x0.0p+0")),
}
PINNED_ETAS = {0.5: 0.2071067811865476, 0.3: 1 - 0.3}


@pytest.mark.parametrize("p, cheat", EVOLUTIONS_PINNED, ids=str)
def test_evolutions_are_pinned_to_the_bit(p, cheat):
    evolution = wcf._evolve.__wrapped__(ProtocolParams(p, PINNED_ETAS[p]), PINNED_CHEATS[cheat])
    amplitudes = tuple(x for a in evolution.miss_amplitudes.tolist() for x in (a.real.hex(), a.imag.hex()))
    probabilities = (evolution.bob_win_prob, evolution.first_qubit_pass, evolution.final_state_pass)
    assert (*(x.hex() for x in probabilities), amplitudes) == EVOLUTIONS_PINNED[p, cheat]


def test_a_branch_below_the_zero_branch_tolerance_is_empty():
    """Honest play leaves Bob's miss branch with weight 1 - p: at 1e-9 it is
    audited, at 1e-13 it counts as empty (``qsim.ZERO_BRANCH_TOL``, 1e-12)."""
    audited = wcf._evolve.__wrapped__(ProtocolParams(1 - 1e-9, 0.0), Honest())
    assert audited.final_state_pass == 1.0
    assert abs(audited.miss_amplitudes[0]) > 0.0
    empty = wcf._evolve.__wrapped__(ProtocolParams(1 - 1e-13, 0.0), Honest())
    assert empty.final_state_pass == 0.0
    assert abs(empty.miss_amplitudes[0]) == 0.0


# -- honest Monte Carlo ----------------------------------------------------------


@pytest.mark.parametrize(
    "p,eta",
    [(0.5, ETA_FAIR), (1 / 3, 0.1465), (2 / 3, 0.199), (0.25, 0.6)],
)
def test_honest_runs_match_analytics_and_never_abort(p, eta):
    trials = 100_000
    params = ProtocolParams(p, eta)
    stats = run_trials(params, Honest(), trials, seed=11)
    assert stats.aborts == 0
    expected = honest_win_prob(params)
    assert abs(stats.frequency(Winner.ALICE) - expected) <= three_sigma(expected, trials)


def test_honest_transcript_structure():
    outcome = run_protocol(ProtocolParams(0.5, ETA_FAIR), Honest(), trial_rng(3, 0))
    assert outcome.winner in (Winner.ALICE, Winner.BOB)
    assert outcome.abort_reason is None
    assert outcome.transcript.comm_rounds == 3
    kinds = [e.kind for e in outcome.transcript.events]
    assert kinds[0] == "prepare" and kinds[-1] == "declare"


def test_every_branch_has_three_communication_rounds():
    params = ProtocolParams(0.5, ETA_FAIR)
    seen = set()
    for cheat in (Honest(), BobClaimWin(), AliceDelta(0.9)):
        for index in range(200):
            outcome = run_protocol(params, cheat, trial_rng(13, index))
            assert outcome.transcript.comm_rounds == 3
            seen.add(outcome.winner)
    assert seen == {Winner.ALICE, Winner.BOB, Winner.ABORT}


# -- cheating strategies ---------------------------------------------------------


def test_bob_claim_win_frequency():
    trials = 30_000
    params = ProtocolParams(0.5, ETA_FAIR)
    stats = run_trials(params, BobClaimWin(), trials, seed=5)
    expected = params.p + params.eta
    assert abs(stats.frequency(Winner.BOB) - expected) <= three_sigma(expected, trials)
    # the claim is audited: the remaining mass is aborts, never Alice wins
    assert stats.frequency(Winner.ALICE) == 0.0
    assert stats.aborts > 0


@pytest.mark.parametrize("delta", [0.0, 0.17, 0.62, 1.0])
def test_alice_delta_win_frequency_matches_formula(delta):
    trials = 30_000
    params = ProtocolParams(0.4, 0.25)
    stats = run_trials(params, AliceDelta(delta), trials, seed=9)
    expected = alice_value_at_delta(params, delta)
    assert abs(stats.frequency(Winner.ALICE) - expected) <= three_sigma(expected, trials)


def test_alice_general_with_ancilla_runs():
    params = ProtocolParams(0.5, ETA_FAIR)
    cheat = AliceGeneral(
        (0.0, math.sqrt(1 - DELTA_STAR_FAIR), math.sqrt(DELTA_STAR_FAIR), 0.0),
        ancillas=((1.0, 0.0),) * 4,
    )
    stats = run_trials(params, cheat, 20_000, seed=2)
    expected = alice_value_at_delta(params, DELTA_STAR_FAIR)
    assert abs(stats.frequency(Winner.ALICE) - expected) <= three_sigma(expected, 20_000)


@pytest.mark.parametrize("delta", [0.0, DELTA_STAR_FAIR, 0.5, 1.0])
def test_tilt_evolves_exactly_as_its_general_preparation(delta):
    params = ProtocolParams(0.37, 0.21)
    tilt = wcf._evolve.__wrapped__(params, AliceDelta(delta))
    general = wcf._evolve.__wrapped__(
        params, AliceGeneral((0.0, math.sqrt(1.0 - delta), math.sqrt(delta), 0.0))
    )
    assert (tilt.bob_win_prob, tilt.first_qubit_pass, tilt.final_state_pass) == (
        general.bob_win_prob, general.first_qubit_pass, general.final_state_pass
    )
    assert np.array_equal(tilt.miss_amplitudes, general.miss_amplitudes)


# -- determinism -----------------------------------------------------------------


def test_identical_seeds_give_identical_outcomes():
    params = ProtocolParams(0.5, ETA_FAIR)
    first = [run_protocol(params, BobClaimWin(), trial_rng(77, i)) for i in range(200)]
    second = [run_protocol(params, BobClaimWin(), trial_rng(77, i)) for i in range(200)]
    assert first == second


def test_trials_are_order_independent():
    params = ProtocolParams(0.3, 0.3)
    forward = [run_protocol(params, Honest(), trial_rng(5, i)).winner for i in range(50)]
    backward = [run_protocol(params, Honest(), trial_rng(5, i)).winner for i in reversed(range(50))]
    assert forward == list(reversed(backward))


def test_run_trials_requires_positive_count():
    with pytest.raises(ParameterError):
        run_trials(ProtocolParams(0.5, 0.0), Honest(), 0, seed=1)


@pytest.mark.parametrize("trials", [0, -1, wcf.MAX_TRIALS + 1, 2.5])
def test_trial_count_lies_in_range_for_flips_and_ladders(trials):
    with pytest.raises(ParameterError):
        run_trials(ProtocolParams(0.5, 0.0), Honest(), trials, seed=1)
    with pytest.raises(ParameterError):
        simulate_dice(LadderSpec.three_sided(1), trials, seed=1)


SEEDED_ENTRY_POINTS = {
    "run_trials": lambda seed: run_trials(ProtocolParams(0.5, 0.1), Honest(), 10, seed),
    "simulate_dice": lambda seed: simulate_dice(LadderSpec.uniform(3), 10, seed),
    "sample_cheat_values": lambda seed: sample_cheat_values(ProtocolParams(0.5, 0.1), 10, seed=seed),
    "brute_force_alice": lambda seed: brute_force_alice(
        ProtocolParams(0.5, 0.1), 1_000, ancilla_dim=2, random_samples=10, seed=seed
    ),
    "trial_rng": lambda seed: trial_rng(seed, 0),
}


@pytest.mark.parametrize("entry", SEEDED_ENTRY_POINTS)
@pytest.mark.parametrize("seed", [-1, 1.5, True, 2**64])
def test_seed_is_an_unsigned_64_bit_integer_everywhere(entry, seed):
    with pytest.raises(ParameterError):
        SEEDED_ENTRY_POINTS[entry](seed)
    SEEDED_ENTRY_POINTS[entry](2**64 - 1)


@pytest.mark.parametrize("block", [-1, 1.0, None, True])
def test_trial_rng_block_is_an_integer_from_0(block):
    with pytest.raises(ParameterError):
        trial_rng(1, block)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, np.uint64(2**64 - 1), np.int64(2**40 + 3)]
EDGE_BLOCKS = [0, 1, 6103, 2**32 - 1, 2**32, 2**40]


def _random_pairs(count):
    """(seed, block) pairs of random bit lengths, so every word count occurs."""
    rng = np.random.default_rng(30)
    return [
        (int(rng.integers(2**64, dtype=np.uint64)) >> int(rng.integers(64)),
         int(rng.integers(2**64, dtype=np.uint64)) >> int(rng.integers(64)))
        for _ in range(count)
    ]


def test_seeded_streams_are_numpys_own_bit_for_bit():
    random_pairs = _random_pairs(2000)
    pairs = [(seed, block) for seed in EDGE_SEEDS for block in EDGE_BLOCKS] + random_pairs
    for seed, block in pairs:
        numpy_own = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
        assert trial_rng(seed, block).bit_generator.state == numpy_own.bit_generator.state, (seed, block)
    for seed in EDGE_SEEDS + [seed for seed, _ in random_pairs]:
        sampler = _seeding.seeded_rng(seed)  # sample_cheat_values' generator
        assert sampler.bit_generator.state == np.random.default_rng(seed).bit_generator.state, seed
    for seed, block in pairs[:100]:  # requests PCG64 does not make go to numpy's generate_state
        words = trial_rng(seed, block).bit_generator.seed_seq
        numpy_own = np.random.SeedSequence(seed, spawn_key=(block,))
        for n_words, dtype in [(4, np.uint64), (8, np.uint32), (3, np.uint64), (4, np.uint32)]:
            assert np.array_equal(words.generate_state(n_words, dtype), numpy_own.generate_state(n_words, dtype))


# -- batched sampler against the scalar reference ----------------------------------


def reference_winner(params, cheat, rng):
    return _OUTCOMES[reference_code(params, cheat, rng)][0]


def scalar_tallies(params, cheat, trials, seed):
    """Winner tallies of ``reference_code`` called trial after trial on each
    block's generator, as the block layout prescribes."""
    counts = Counter()
    for index in range(trials):
        if index % TRIAL_BLOCK == 0:
            rng = trial_rng(seed, index // TRIAL_BLOCK)
        counts[reference_winner(params, cheat, rng)] += 1
    return counts


def unit_vector(rng, dim):
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return tuple(complex(c) for c in raw / np.linalg.norm(raw))


def make_cheat(kind, rng):
    if kind == "honest":
        return Honest()
    if kind == "bob-claim-win":
        return BobClaimWin()
    if kind == "alice-delta":
        return AliceDelta(float(rng.uniform()))
    ancillas = tuple(unit_vector(rng, 2) for _ in range(4)) if rng.uniform() < 0.5 else None
    return AliceGeneral(unit_vector(rng, 4), ancillas)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(0.01, 0.99),
    eta_frac=st.floats(0.0, 1.0),
    kind=st.sampled_from(["honest", "bob-claim-win", "alice-delta", "alice-general"]),
    cheat_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**64 - 1),
    trials=st.integers(1, 400),
)
def test_batched_counts_equal_sequential_run_protocol(p, eta_frac, kind, cheat_seed, seed, trials):
    params = ProtocolParams(p, eta_frac * (1.0 - p))
    cheat = make_cheat(kind, np.random.default_rng(cheat_seed))
    stats = run_trials(params, cheat, trials, seed)
    assert +stats.counts == scalar_tallies(params, cheat, trials, seed)
    assert sum(stats.counts.values()) == trials


def test_batched_counts_cross_a_block_boundary_and_extend_as_a_prefix():
    params = ProtocolParams(0.4, 0.25)
    cheat = AliceDelta(0.3)
    trials = TRIAL_BLOCK + 37
    stats = run_trials(params, cheat, trials, seed=21)
    assert +stats.counts == scalar_tallies(params, cheat, trials, seed=21)
    # five more trials continue block 1 where the shorter run stopped
    rng = trial_rng(21, 1)
    for _ in range(37):
        reference_code(params, cheat, rng)
    extra = Counter(reference_winner(params, cheat, rng) for _ in range(5))
    assert +run_trials(params, cheat, trials + 5, seed=21).counts == stats.counts + extra



def test_wide_blocks_are_drawn_in_chunks_that_concatenate_to_one_draw():
    draws = 2 * 255  # one trial of the 256-party ladder
    trials = TRIAL_BLOCK + 37
    offset, blocks = 0, []
    for chunk in wcf._uniform_blocks(8, trials, draws):
        assert chunk.shape[1] == draws and chunk.size <= wcf.DRAW_CHUNK
        block, row = divmod(offset, TRIAL_BLOCK)
        if row == 0:
            whole = trial_rng(8, block).random((min(TRIAL_BLOCK, trials - offset), draws))
            blocks.append(0)
        assert np.array_equal(chunk, whole[row:row + len(chunk)])
        offset += len(chunk)
        blocks[-1] += 1
    assert offset == trials
    assert blocks[0] > 1 and len(blocks) == 2


@pytest.mark.parametrize("trials, draws, chunks", [
    (1, 2, 1), (60, 2, 1), (TRIAL_BLOCK, 2, 1), (TRIAL_BLOCK + 1, 2, 2),  # a flip: one chunk per block
    (10, 4, 1), (wcf.DRAW_CHUNK // 510, 510, 1), (wcf.DRAW_CHUNK // 510 + 1, 510, 2),  # a ladder's chunk
])
def test_a_run_is_one_draw_per_chunk_and_one_generator_per_block(monkeypatch, trials, draws, chunks):
    generators = []

    def counting_trial_rng(seed, block):
        generators.append(block)
        return trial_rng(seed, block)

    monkeypatch.setattr(wcf, "trial_rng", counting_trial_rng)
    drawn = list(wcf._uniform_blocks(5, trials, draws))
    assert len(drawn) == chunks and generators == list(range(len(range(0, trials, TRIAL_BLOCK))))
    whole = np.concatenate([trial_rng(5, block).random((min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK), draws))
                            for block in generators])
    assert np.array_equal(np.concatenate(drawn), whole)


class _Row:
    """Generator stand-in whose ``random`` returns one crafted (announce, audit) row."""

    def __init__(self, row):
        self.row = row

    def random(self, size):
        assert size == wcf.DRAWS_PER_FLIP
        return np.array(self.row)


def _threshold_rows(bob_win_prob, first_qubit_pass, final_state_pass):
    """(announce, audit, code) rows at each threshold of one flip and, where
    a uniform lies below it, just below it: an announcement equal to
    ``bob_win_prob`` misses, and an audit equal to its pass chance fails."""
    def below(chance):
        return [np.nextafter(chance, 0.0)] if chance > 0.0 else []

    rows = []
    if bob_win_prob < 1.0:  # a claim-win's announcement is 1, which no uniform reaches
        rows.append((bob_win_prob, final_state_pass, wcf.FINAL_STATE_ABORT))
        rows += [(bob_win_prob, audit, wcf.ALICE_WINS) for audit in below(final_state_pass)]
    for announce in below(bob_win_prob):
        rows.append((announce, first_qubit_pass, wcf.FIRST_QUBIT_ABORT))
        rows += [(announce, audit, wcf.BOB_WINS) for audit in below(first_qubit_pass)]
    return rows


@pytest.mark.parametrize("cheat", [
    Honest(), BobClaimWin(), AliceDelta(0.3), AliceGeneral((0.5, 0.5j, 0.5, -0.5)),
], ids=["honest", "claim-win", "tilt", "general"])
def test_flip_codes_at_the_thresholds_of_a_scalar_evolution(cheat):
    params = ProtocolParams(0.4, 0.25)
    evolution = wcf._evolve(params, cheat)
    rows = _threshold_rows(evolution.bob_win_prob, evolution.first_qubit_pass, evolution.final_state_pass)
    assert len(rows) >= 2
    codes = wcf._flip_codes(evolution, np.array([row[:2] for row in rows]))
    assert codes.tolist() == [code for *_, code in rows]
    assert codes.tolist() == [reference_code(params, cheat, _Row(row[:2])) for row in rows]


@pytest.mark.parametrize("case, honest_party", [(1, 2), (2, 3)])
def test_flip_codes_at_the_thresholds_of_a_stacked_two_group_plan(case, honest_party):
    spec = LadderSpec.fair(5, case)
    plan = dicer._ladder_plan(spec, Coalition(honest_party=honest_party))
    assert plan.takes_over.shape[0] == 2
    for group in range(2):
        for k, stage in enumerate(spec.stages):
            cheat = plan.plays[group][k].cheat
            rows = _threshold_rows(*(float(chance[group, 0, k]) for chance in (
                plan.bob_win_prob, plan.first_qubit_pass, plan.final_state_pass)))
            draws = np.full((len(rows), len(spec.stages), wcf.DRAWS_PER_FLIP), 0.5)
            draws[:, k] = [row[:2] for row in rows]
            codes = wcf._flip_codes(plan, draws)[group, :, k].tolist()
            assert codes == [code for *_, code in rows], (group, k)
            assert codes == [reference_code(stage.params, cheat, _Row(row[:2])) for row in rows], (group, k)

@pytest.mark.parametrize("cheat", [Honest(), BobClaimWin(), AliceDelta(0.9)])
def test_first_trial_replay_matches_batched_trial_zero(cheat):
    params = ProtocolParams(0.5, ETA_FAIR)
    for seed in range(20):
        stats = run_trials(params, cheat, 50, seed)
        assert stats.first == _outcome(params, cheat, reference_code(params, cheat, trial_rng(seed, 0)))
        assert run_trials(params, cheat, 1, seed).counts[stats.first.winner] == 1
        assert stats.to_dict()["first_transcript"] == stats.first.transcript.to_dict()


def test_trial_zero_is_replayed_only_when_first_read(monkeypatch):
    calls = []

    def counting_run_protocol(*args):
        calls.append(args)
        return run_protocol(*args)

    monkeypatch.setattr(wcf, "run_protocol", counting_run_protocol)
    params = ProtocolParams(0.5, ETA_FAIR)
    stats = run_trials(params, BobClaimWin(), 50, seed=3)
    assert calls == []
    first = stats.first
    assert len(calls) == 1
    assert stats.first is first
    assert stats.to_dict()["first_transcript"] == first.transcript.to_dict()
    assert len(calls) == 1
