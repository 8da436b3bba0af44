"""Ladder composition, the three-sided optimizations and dice Monte Carlo."""
from __future__ import annotations

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CASE1_BIAS,
    CASE1_ETA_STAR,
    CASE1_WORST_CASE,
    CASE2_BIAS,
    ETA_FAIR,
    SQRT_HALF,
    reference_code,
    three_sigma,
)
from qdice import (
    BracketError,
    Coalition,
    LadderSpec,
    ParameterError,
    ProtocolParams,
    StageParams,
    bias_bound_check,
    honest_dice_probs,
    optimize_three_sided,
    simulate_dice,
    solve_balanced,
    worst_case_losing_prob,
)
from qdice import dicer, wcf
from qdice.adversary import alice_optimal_value, bob_optimal_value
from qdice.dicer import (
    ENTRANT,
    INCUMBENT,
    MAX_PARTIES,
    StageRun,
    _fair_ladder,
    _fair_stages,
    _losing_recursion,
    _stage_losses,
    _stage_play,
    _stage_roles,
    expected_coalition_losing,
)
from qdice.wcf import (
    ALICE_WINS,
    BOB_WINS,
    DRAW_CHUNK,
    FINAL_STATE_ABORT,
    FIRST_QUBIT_ABORT,
    TRIAL_BLOCK,
    AliceDelta,
    BobClaimWin,
    Honest,
    Winner,
    _outcome,
    trial_rng,
)


# -- honest play -----------------------------------------------------------------


def test_honest_probs_are_uniform():
    assert honest_dice_probs(2) == (Fraction(1, 2), Fraction(1, 2))
    assert honest_dice_probs(3) == (Fraction(1, 3),) * 3
    for n in range(2, 17):
        probs = honest_dice_probs(n)
        assert sum(probs) == 1
        assert all(p == Fraction(1, n) for p in probs)


def test_honest_probs_telescoping_entry():
    # party 4 of 5: enters with 1/4 and survives the last entrant with 4/5
    assert honest_dice_probs(5)[3] == Fraction(1, 4) * Fraction(4, 5) == Fraction(1, 5)


def test_honest_probs_rejects_small_n():
    with pytest.raises(ParameterError):
        honest_dice_probs(1)


def test_party_count_is_capped_everywhere():
    assert len(honest_dice_probs(MAX_PARTIES)) == MAX_PARTIES
    with pytest.raises(ParameterError):
        honest_dice_probs(MAX_PARTIES + 1)
    with pytest.raises(ParameterError):
        worst_case_losing_prob(MAX_PARTIES, MAX_PARTIES + 1, [0.0, 0.0])
    with pytest.raises(ParameterError):
        LadderSpec.uniform(MAX_PARTIES + 1)
    with pytest.raises(ParameterError):
        LadderSpec.fair(MAX_PARTIES + 1)
    with pytest.raises(ParameterError):
        LadderSpec.fair(1)
    with pytest.raises(ParameterError):
        LadderSpec.fair(3.0)
    with pytest.raises(ParameterError):
        LadderSpec.uniform(3.0)
    with pytest.raises(ParameterError):
        honest_dice_probs(2.5)


# -- worst-case composition --------------------------------------------------------


def test_zero_bias_composition_is_exact():
    for n_parties in range(2, 17):
        for party in range(1, n_parties + 1):
            stages = n_parties - max(party, 2) + 1
            losing = worst_case_losing_prob(party, n_parties, [0.0] * stages)
            assert losing == (n_parties - 1) / n_parties


def test_single_stage_composition_matches_fair_coin():
    assert worst_case_losing_prob(1, 2, [ETA_FAIR]) == pytest.approx(SQRT_HALF, abs=1e-9)


def test_case1_composition_reproduces_worst_case():
    losing = worst_case_losing_prob(1, 3, [ETA_FAIR, CASE1_ETA_STAR])
    assert losing == pytest.approx(CASE1_WORST_CASE, abs=1e-9)


def test_composition_validates_inputs():
    with pytest.raises(ParameterError):
        worst_case_losing_prob(1, 3, [0.0])  # wrong stage count
    with pytest.raises(ParameterError):
        worst_case_losing_prob(2, 3, [0.6, 0.0])  # 1/2 + 0.6 > 1
    with pytest.raises(ParameterError):
        worst_case_losing_prob(2, 3, [-0.1, 0.0])  # biases are nonnegative
    with pytest.raises(ParameterError):
        worst_case_losing_prob(4, 3, [0.0])


@pytest.mark.parametrize("check", [bias_bound_check, worst_case_losing_prob])
@pytest.mark.parametrize("bias", [math.nan, math.inf])
def test_non_finite_biases_are_refused(check, bias):
    with pytest.raises(ParameterError):
        check(1, 3, [0.1, bias])


def test_composition_is_monotone_in_each_bias():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n_parties = int(rng.integers(2, 9))
        party = int(rng.integers(1, n_parties + 1))
        stages = n_parties - max(party, 2) + 1
        biases = rng.uniform(0.0, 0.05, size=stages)
        base = worst_case_losing_prob(party, n_parties, biases)
        for k in range(stages):
            bumped = biases.copy()
            bumped[k] += 0.01
            assert worst_case_losing_prob(party, n_parties, bumped) >= base


def test_bias_bound_examples():
    check = bias_bound_check(1, 2, [0.0])
    assert check == (0.0, 0.0, True, 0.5)
    check = bias_bound_check(1, 2, [ETA_FAIR])
    assert check.epsilon == pytest.approx(ETA_FAIR, abs=1e-9)
    assert check.bound == pytest.approx(2 * ETA_FAIR, abs=1e-12)
    assert check.holds


def test_bias_bound_holds_on_random_instances():
    rng = np.random.default_rng(33)
    for _ in range(1_000):
        n_parties = int(rng.integers(2, 17))
        party = int(rng.integers(1, n_parties + 1))
        stages = n_parties - max(party, 2) + 1
        biases = rng.uniform(0.0, 1.0 / n_parties, size=stages)
        assert bias_bound_check(party, n_parties, biases).holds


def reference_losing(party, n_parties, biases):
    """Party n's losing probability and largest bias, composed in Fractions
    (a numpy scalar through its Python value)."""
    exact = [Fraction(b.item() if isinstance(b, np.generic) else b) for b in biases]
    losing, surviving = Fraction(0), Fraction(1)
    for m, bias in zip(range(max(party, 2), n_parties + 1), exact):
        loss = (Fraction(party - 1, party) if m == party else Fraction(1, m)) + bias
        losing += surviving * loss
        surviving *= 1 - loss
    return losing, max(exact)


def test_integer_recursion_equals_a_fraction_recursion():
    rng = np.random.default_rng(77)
    kinds = (
        lambda n: float(rng.uniform(0.0, 0.5 / n)),
        lambda n: Fraction(int(rng.integers(0, 50)), int(rng.integers(100 * n, 200 * n))),
        lambda n: np.float64(rng.uniform(0.0, 0.5 / n)),
        lambda n: np.float32(rng.uniform(0.0, 0.5 / n)),
        lambda n: np.int64(0),
        lambda n: 0,
    )
    for _ in range(300):
        n_parties = int(rng.integers(2, 25))
        party = int(rng.integers(1, n_parties + 1))
        stages = n_parties - max(party, 2) + 1
        biases = [kinds[int(rng.integers(len(kinds)))](n_parties) for _ in range(stages)]
        assert as_fractions(_losing_recursion(party, n_parties, biases)) == reference_losing(party, n_parties, biases)


def as_fractions(pairs):
    """``_losing_recursion``'s (numerator, denominator) pairs as exact values."""
    return tuple(Fraction(*pair) for pair in pairs)


def reference_bound_check(party, n_parties, biases):
    """``bias_bound_check`` in ``Fraction`` arithmetic: epsilon, bound and the
    losing chance as ``float(Fraction)``, and the verdict compared exactly."""
    losing, largest = reference_losing(party, n_parties, biases)
    epsilon, bound = losing - Fraction(n_parties - 1, n_parties), n_parties * largest
    return float(epsilon), float(bound), epsilon <= bound, float(losing)


def seeded_bound_checks(count):
    """(party, N, biases) inputs: float, int and Fraction biases, mostly on
    short ladders and every 25th up to MAX_PARTIES parties."""
    rng = np.random.default_rng(2009)
    kinds = (
        lambda n: float(rng.uniform(0.0, 0.5 / n)),
        lambda n: float(rng.uniform(0.0, 0.5 / n)) * 2.0 ** -int(rng.integers(0, 1000)),
        lambda n: Fraction(int(rng.integers(0, 10**6)), int(rng.integers(2 * 10**6 * n, 4 * 10**6 * n))),
        lambda n: 0,
    )
    for i in range(count):
        n_parties = int(rng.integers(2, MAX_PARTIES + 1 if i % 25 == 0 else 17))
        party = int(rng.integers(1, n_parties + 1))
        stages = n_parties - max(party, 2) + 1
        yield party, n_parties, [kinds[int(rng.integers(len(kinds)))](n_parties) for _ in range(stages)]


def test_bound_check_equals_a_fraction_reference_bit_for_bit():
    # all-zero biases last: epsilon and bound are both exactly 0, so the verdict turns on "<="
    for party, n_parties, biases in [*seeded_bound_checks(1_000), (MAX_PARTIES, MAX_PARTIES, [0.0])]:
        epsilon, bound, holds, losing = reference_bound_check(party, n_parties, biases)
        check = bias_bound_check(party, n_parties, biases)
        assert check.holds is holds
        assert [x.hex() for x in (check.epsilon, check.bound, check.worst_case_losing)] == [
            x.hex() for x in (epsilon, bound, losing)
        ], (party, n_parties, biases)
        assert worst_case_losing_prob(party, n_parties, biases).hex() == losing.hex()
    assert check == (0.0, 0.0, True, (MAX_PARTIES - 1) / MAX_PARTIES)


def test_a_stage_loss_of_exactly_one_is_composed_and_one_just_above_is_refused():
    # party 2 enters at stage 2 with honest loss 1/2, so a bias of 1/2 loses it surely
    for bias in (0.5, Fraction(1, 2)):
        assert as_fractions(_losing_recursion(2, 3, [bias, 0.1])) == reference_losing(2, 3, [bias, 0.1])
        assert worst_case_losing_prob(2, 3, [bias, 0.1]) == 1.0
    with pytest.raises(ParameterError, match=r"stage losing probability 1.0 outside \[0, 1\] \(entrant 2"):
        worst_case_losing_prob(2, 3, [math.nextafter(0.5, 1.0), 0.1])
    assert worst_case_losing_prob(1, 3, [0.1, Fraction(2, 3)]) == 1.0  # party 1's stage-3 loss: 1/3 + 2/3
    with pytest.raises(ParameterError, match=r"\(entrant 3, bias 2000"):
        bias_bound_check(1, 3, [0.1, Fraction(2, 3) + Fraction(1, 10**30)])


@pytest.mark.parametrize(
    "bias, message",
    [
        (math.nan, "finite and nonnegative, got nan"),
        (math.inf, "finite and nonnegative, got inf"),
        ("0.1", "must be numbers, got '0.1'"),
        (None, "must be numbers, got None"),
        (np.True_, "must be numbers, got np.True_"),
    ],
)
def test_a_bad_bias_is_refused_before_a_later_stage_is_read(bias, message):
    for check in (bias_bound_check, worst_case_losing_prob):
        with pytest.raises(ParameterError, match=message):
            check(1, 4, [0.1, bias, 0.9])
        with pytest.raises(ParameterError, match="outside"):
            check(1, 4, [0.9, bias, 0.1])


def sampled_residuals(monkeypatch, n_parties, case):
    """Each stage of a fair solve, with its residual's values at the
    bracket's ends and 50 seeded etas inside, taken while the stage solves:
    the uncached solve behind ``_fair_stages``, which a cache hit would skip."""
    samples, solve, rng = [], dicer.find_root, np.random.default_rng(91)

    def find_root(f, bracket):
        lo, hi = bracket
        samples.append([(eta, f(eta)) for eta in (lo, hi, *(float(x) for x in rng.uniform(lo, hi, 50)))])
        return solve(f, bracket)

    monkeypatch.setattr(dicer, "find_root", find_root)
    solved = dicer._solved_fair_stages.__wrapped__(n_parties, case, None)  # a solve, not a cache hit
    monkeypatch.undo()
    return zip(solved, samples, strict=True)


@pytest.mark.parametrize("case", [1, 2])
def test_fair_residual_equals_the_checked_closed_forms_bit_for_bit(monkeypatch, case):
    survivors = 0.0  # N = 64: its first seven stages, and their samples, are N = 8's
    for stage, samples in sampled_residuals(monkeypatch, 64, case):
        m, layout = stage.stage.entrant, 1 if stage.stage.entrant == 2 else case
        for eta, value in samples:
            params = ProtocolParams(dicer._layout_p(m, layout), eta)
            responder, preparer = alice_optimal_value(params).value, bob_optimal_value(params).value
            entrant, incumbent = (responder, preparer) if layout == 1 else (preparer, responder)
            assert _stage_losses(m, layout, eta) == (entrant, incumbent)
            assert value.hex() == (entrant - (survivors + (1.0 - survivors) * incumbent)).hex()
        survivors = stage.entrant


FAIR_ETAS_N8 = {
    1: ("0x1.a827999fd0000p-3", "0x1.2b6b9154f3334p-3", "0x1.acbc59f420000p-4", "0x1.445ae96c33334p-4",
        "0x1.00a94d59aaaabp-4", "0x1.a4433e3300002p-5", "0x1.6128c8e830000p-5"),
    2: ("0x1.a827999fd0000p-3", "0x1.971c665e59999p-3", "0x1.6455bf5d40000p-3", "0x1.366b4a8880000p-3",
        "0x1.10f4dd970aaaap-3", "0x1.e5779744db6ddp-4", "0x1.b4483b09e0000p-4"),
}


@pytest.mark.parametrize("case", [1, 2])
def test_fair_etas_are_pinned_to_the_bit(case):
    assert tuple(stage.stage.params.eta.hex() for stage in _fair_stages(8, case)) == FAIR_ETAS_N8[case]


#: sha256 of ``float.hex`` of every field of every stage of the 64-party fair
#: ladder (eta, entrant, incumbent, residual), which holds every N <= 64
FAIR_STAGES_N64_SHA256 = {
    1: "78a8b5ec7bdcc165efcef75fe871ef33940985412a44bab2a54c5de3e611690c",
    2: "4b18997a6b34a3e6d33569cacde3df24751a39cb055e38268b588263274306b7",
}


@pytest.mark.parametrize("case", FAIR_STAGES_N64_SHA256)
def test_fair_stages_are_pinned_to_the_bit_up_to_n64(case):
    stages = _fair_stages(64, case)
    fields = " ".join(x.hex() for s in stages for x in (s.stage.params.eta, s.entrant, s.incumbent, s.residual))
    assert hashlib.sha256(fields.encode()).hexdigest() == FAIR_STAGES_N64_SHA256[case]


# -- three-sided stage values -------------------------------------------------------


def test_case1_at_eta_zero():
    entrant, incumbent = _stage_losses(3, 1, 0.0)
    assert entrant == pytest.approx(1.0, abs=1e-12)
    assert incumbent == pytest.approx(1 / 3, abs=1e-12)


def test_case2_at_eta_zero():
    entrant, _ = _stage_losses(3, 2, 0.0)
    assert entrant == pytest.approx(2 / 3, abs=1e-12)


def test_stage_values_match_printed_forms():
    # the stage-two expressions written with explicit 3-eta coefficients
    # must coincide with the generic cheat values under substitution
    rng = np.random.default_rng(55)
    for eta in rng.uniform(0.0, 2 / 3, size=100):
        expected = (2 - 3 * eta) / 2 + 9 * eta**2 / (2 * (1 + 3 * eta))
        assert _stage_losses(3, 1, eta)[0] == pytest.approx(expected, abs=1e-9)
    for eta in rng.uniform(0.0, 1 / 3, size=100):
        expected = (1 - 3 * eta) + 9 * eta**2 / (2 + 3 * eta)
        assert _stage_losses(3, 2, eta)[1] == pytest.approx(expected, abs=1e-9)


def test_stage_values_match_generic_cheat_values():
    rng = np.random.default_rng(56)
    for eta in rng.uniform(0.0, 2 / 3, size=100):
        assert _stage_losses(3, 1, eta)[0] == pytest.approx(
            alice_optimal_value(ProtocolParams(1 / 3, eta)).value, abs=1e-12
        )
    for eta in rng.uniform(0.0, 1 / 3, size=100):
        assert _stage_losses(3, 2, eta)[1] == pytest.approx(
            alice_optimal_value(ProtocolParams(2 / 3, eta)).value, abs=1e-12
        )


def test_stage_values_domain_errors():
    with pytest.raises(ParameterError):
        _stage_losses(3, 1, 0.7)
    with pytest.raises(ParameterError):
        _stage_losses(3, 2, 0.4)


# -- the optimizations ----------------------------------------------------------------


def test_optimize_case1():
    ladder = optimize_three_sided(1)
    assert ladder.stages[-1].stage.params.eta == pytest.approx(CASE1_ETA_STAR, abs=1e-9)
    assert ladder.worst_case_losing[-1] == pytest.approx(CASE1_WORST_CASE, abs=1e-9)
    assert ladder.epsilon == pytest.approx(CASE1_BIAS, abs=1e-9)
    assert ladder.stages[-1].residual < 1e-10
    assert ladder.bound_holds


def test_optimize_case2():
    ladder = optimize_three_sided(2)
    assert ladder.epsilon == pytest.approx(CASE2_BIAS, abs=1e-9)
    assert ladder.worst_case_losing[-1] == pytest.approx(2 / 3 + CASE2_BIAS, abs=1e-9)


def test_case1_beats_case2():
    assert optimize_three_sided(1).epsilon < optimize_three_sided(2).epsilon


def test_optimize_rejects_unknown_case():
    with pytest.raises(ParameterError):
        optimize_three_sided(3)


def test_the_unsquared_reading_is_not_a_dicer_option():
    # the paper's biases need the squared reading; tests/reference.py keeps the other
    with pytest.raises(TypeError):
        optimize_three_sided(2, square_cheat_term=False)
    with pytest.raises(TypeError):
        optimize_three_sided(2, None, False)
    with pytest.raises(TypeError):
        _fair_stages(5, 2, square_cheat_term=False)


# -- fair ladders for any N --------------------------------------------------------------


FAIR = {(n, case): LadderSpec.fair(n, case) for n in range(2, 17) for case in (1, 2)}


def _worst_case(n_parties, case):
    """The last entrant's worst-case loss: the entrant value of the last
    solved stage (the balanced coin's for N = 2)."""
    return _fair_stages(n_parties, case)[-1].entrant


@pytest.mark.parametrize("case", [1, 2])
def test_the_coin_is_stage_2_of_every_fair_ladder(case):
    coin = _fair_stages(2, 1)[0]
    balanced = StageParams(2, ProtocolParams(0.5, solve_balanced().stages[0].stage.params.eta), INCUMBENT)
    for n_parties in range(2, 17):
        assert _fair_stages(n_parties, case)[0] == coin, n_parties
        assert FAIR[n_parties, case].stages[0] == balanced, n_parties


#: each fair solver with the arguments of a good call, and arguments it refuses for the same N
REFUSED_SOLVES = [
    (solve_balanced, (), [((0.3, 0.4),), ((0.3, 0.6),), ((0.2, 0.2),), (5,)]),
    (optimize_three_sided, (2,), [(1, (0.3, 0.4)), (2, (0.1, 0.5)), (3,), (np.int64(0),)]),
    (LadderSpec.fair, (5, 2), [(5, 3), (5, True), (5, 2.0)]),
]


@pytest.mark.parametrize("solver, good, refusals", REFUSED_SOLVES)
def test_a_refused_fair_solve_is_never_cached(solver, good, refusals):
    # a bracket without a sign change raises BracketError inside the cached solve; every other refusal precedes it
    cache = dicer._solved_fair_stages
    cache.cache_clear()
    first = solver(*good)
    solved = cache.cache_info()
    for _ in range(2):
        for args in refusals:
            with pytest.raises((ParameterError, BracketError)):
                solver(*args)
    assert cache.cache_info().currsize == solved.currsize
    assert solver(*good) == first
    assert cache.cache_info().hits == solved.hits + 1


@pytest.mark.parametrize("case", [1, 2])
def test_stage_3_default_bracket_lies_in_its_eta_range(case):
    # only a given bracket's ends are checked as (p, eta); stage 3's default is a constant
    for end in dicer._THREE_SIDED_BRACKETS[case]:
        ProtocolParams(dicer._layout_p(3, case), end)


def test_solve_balanced_bracket_reaches_stage_2():
    # the fair eta (sqrt(2) - 1) / 2 lies outside (0.3, 0.4)
    with pytest.raises(BracketError):
        solve_balanced((0.3, 0.4))


@pytest.mark.parametrize("case", [1, 2])
def test_fair_ladder_equalizes_every_party(case):
    for n_parties in range(2, 17):
        spec, worst = FAIR[n_parties, case], _worst_case(n_parties, case)
        for party in range(1, n_parties + 1):
            losing = expected_coalition_losing(spec, Coalition(honest_party=party))
            assert losing == pytest.approx(worst, abs=1e-10), (n_parties, party)


@pytest.mark.parametrize("case", [1, 2])
def test_fair_ladder_bias_stays_below_the_bound(case):
    for n_parties in range(2, 17):
        ladder = _fair_ladder(_fair_stages(n_parties, case))
        assert ladder.stages == _fair_stages(n_parties, case)
        assert len(ladder.worst_case_losing) == n_parties
        epsilons, bounds = [], []
        for party in range(1, n_parties + 1):
            # party 1 enters the coin as its incumbent, party n >= 2 its own stage as the entrant
            entry = ladder.stages[max(party, 2) - 2]
            m = entry.stage.entrant
            biases = [entry.incumbent - 1 / 2 if party == 1 else entry.entrant - (m - 1) / m]
            biases += [later.incumbent - 1 / later.stage.entrant for later in ladder.stages[max(party, 2) - 1:]]
            check = bias_bound_check(party, n_parties, biases)
            assert check.holds, (n_parties, party)
            assert check.epsilon == pytest.approx(ladder.stages[-1].entrant - (n_parties - 1) / n_parties, abs=1e-10)
            assert check.worst_case_losing == worst_case_losing_prob(party, n_parties, biases)
            worst = ladder.worst_case_losing[party - 1]
            assert worst == pytest.approx(check.worst_case_losing, abs=1e-12), (n_parties, party)
            losing = expected_coalition_losing(FAIR[n_parties, case], Coalition(honest_party=party))
            assert worst == pytest.approx(losing, abs=1e-12), (n_parties, party)
            epsilons.append(check.epsilon)
            bounds.append(check.bound)
        assert ladder.epsilon == pytest.approx(max(epsilons), abs=1e-12)
        assert ladder.bound == max(bounds)
        assert ladder.bound_holds


@pytest.mark.parametrize("case", [1, 2])
def test_fair_ladder_extends_the_shorter_one(case):
    for n_parties in range(3, 17):
        assert FAIR[n_parties, case].stages[:-1] == FAIR[n_parties - 1, case].stages
    assert FAIR[3, case] == LadderSpec.three_sided(case)
    assert FAIR[3, case].stages == tuple(solved.stage for solved in optimize_three_sided(case).stages)


def test_fair_ladder_biases_fall_with_n():
    # worst case minus (N-1)/N, incumbent prepares / entrant prepares
    table = {4: (0.1516, 0.1740), 8: (0.0884, 0.1065), 16: (0.0479, 0.0581), 32: (0.0252, 0.0302)}
    for n_parties, biases in table.items():
        for case, bias in zip((1, 2), biases):
            assert _worst_case(n_parties, case) - (n_parties - 1) / n_parties == pytest.approx(bias, abs=5e-5)


def test_fair_six_party_coalition_monte_carlo():
    trials = 40_000
    spec = FAIR[6, 2]
    coalition = Coalition(honest_party=4)
    expected = expected_coalition_losing(spec, coalition)
    report = simulate_dice(spec, trials, seed=61, coalition=coalition)
    losing = 1.0 - report.frequencies()[3]
    assert abs(losing - expected) <= three_sigma(expected, trials)


# -- ladders and Monte Carlo -----------------------------------------------------------


def test_stage_params_validation():
    with pytest.raises(ParameterError):
        StageParams(3, ProtocolParams(0.5, 0.1), INCUMBENT)  # entrant must win 1/3
    StageParams(3, ProtocolParams(1 / 3, 0.1), INCUMBENT)
    StageParams(3, ProtocolParams(2 / 3, 0.1), ENTRANT)


def test_ladder_spec_validation():
    with pytest.raises(ParameterError):
        LadderSpec(3, (StageParams(2, ProtocolParams(0.5, 0.0)),))
    with pytest.raises(ParameterError):  # 2.0 == 2, yet no party is numbered 2.0
        StageParams(2.0, ProtocolParams(0.5, 0.0))


def test_three_sided_ladder_defaults():
    spec = LadderSpec.three_sided(case=1)
    assert spec.stages[0].params.eta == pytest.approx(ETA_FAIR, abs=1e-9)
    assert spec.stages[1].params.p == pytest.approx(1 / 3)
    assert spec.stages[1].preparer == INCUMBENT
    spec2 = LadderSpec.three_sided(case=2)
    assert spec2.stages[1].params.p == pytest.approx(2 / 3)
    assert spec2.stages[1].preparer == ENTRANT


def test_honest_dice_monte_carlo():
    trials = 30_000
    report = simulate_dice(LadderSpec.uniform(3, eta=0.1), trials, seed=14)
    assert report.stage_aborts == 0
    for frequency in report.frequencies():
        assert abs(frequency - 1 / 3) <= three_sigma(1 / 3, trials)


def test_two_party_ladder_with_claim_win_coalition():
    trials = 30_000
    spec = LadderSpec(2, (StageParams(2, ProtocolParams(0.5, ETA_FAIR), INCUMBENT),))
    report = simulate_dice(spec, trials, seed=8, coalition=Coalition(honest_party=1))
    losing = 1.0 - report.frequencies()[0]
    assert abs(losing - SQRT_HALF) <= three_sigma(SQRT_HALF, trials)


@pytest.mark.parametrize("honest_party", [1, 3])
def test_case1_coalition_losing_frequencies(honest_party):
    # against honest Alice the coalition claim-wins both stages; against
    # honest Claire it plays the optimal tilt; fairness makes both 0.848
    trials = 30_000
    spec = LadderSpec.three_sided(case=1)
    coalition = Coalition(honest_party=honest_party)
    expected = expected_coalition_losing(spec, coalition)
    assert expected == pytest.approx(CASE1_WORST_CASE, abs=1e-9)
    report = simulate_dice(spec, trials, seed=26, coalition=coalition)
    losing = 1.0 - report.frequencies()[honest_party - 1]
    assert abs(losing - expected) <= three_sigma(expected, trials)


@pytest.mark.parametrize("honest_party", [0, -1, 4, 1.5, 2.0])
def test_honest_party_must_be_a_party(honest_party):
    spec = LadderSpec.three_sided(case=1)
    coalition = Coalition(honest_party=honest_party)
    with pytest.raises(ParameterError):
        expected_coalition_losing(spec, coalition)
    with pytest.raises(ParameterError):
        simulate_dice(spec, 10, seed=0, coalition=coalition)
    with pytest.raises(ParameterError):
        worst_case_losing_prob(honest_party, 3, [0.1, 0.1])


def test_a_bool_is_not_a_party():
    spec = LadderSpec.three_sided(case=1)
    with pytest.raises(ParameterError):
        simulate_dice(spec, 10, seed=0, coalition=Coalition(True))
    with pytest.raises(ParameterError):
        expected_coalition_losing(spec, Coalition(True))


def test_simulate_dice_determinism():
    spec = LadderSpec.three_sided(case=1)
    first = simulate_dice(spec, 2_000, seed=3, coalition=Coalition(honest_party=1))
    second = simulate_dice(spec, 2_000, seed=3, coalition=Coalition(honest_party=1))
    assert first == second


# -- batched ladder against the scalar reference -----------------------------------


def _play_trial(spec, coalition, rng):
    """One ladder trial, flip by flip, each flip decided by ``reference_code``:
    the sequential reference of ``simulate_dice``."""
    honest = None if coalition is None else coalition.honest_party
    incumbent = 1
    runs = []
    for stage in spec.stages:
        preparer, responder = _stage_roles(stage, incumbent)
        play = _stage_play(stage, coalition, incumbent == honest)
        code = reference_code(stage.params, play.cheat, rng)
        incumbent = preparer if play.preparer_wins[code] else responder
        runs.append(StageRun(stage.entrant, preparer, responder, incumbent, _outcome(stage.params, play.cheat, code)))
    return tuple(runs)


def scalar_ladder(spec, trials, seed, coalition=None):
    """(win counts, stage aborts) of ``_play_trial`` run trial after trial on
    each block's generator, as the block layout prescribes."""
    wins = [0] * spec.n_parties
    aborts = 0
    for index in range(trials):
        if index % TRIAL_BLOCK == 0:
            rng = trial_rng(seed, index // TRIAL_BLOCK)
        runs = _play_trial(spec, coalition, rng)
        wins[runs[-1].winner - 1] += 1
        aborts += sum(run.outcome.winner is Winner.ABORT for run in runs)
    return tuple(wins), aborts


LADDERS = {
    "case1": LadderSpec.three_sided(case=1),
    "case2": LadderSpec.three_sided(case=2),
    "uniform8": LadderSpec.uniform(8, eta=0.2),
}

#: (spec, trials) by name: each ladder above, and the fair eight-party ladders
#: at one trial and at 37, on which the honest group starts at every stage as
#: the honest party runs over 1..8 (party 8's plan has no honest group)
LADDER_RUNS = {
    **{name: (spec, 300 if spec.n_parties > 3 else 1_500) for name, spec in LADDERS.items()},
    **{f"fair8-case{case}-{trials}trials": (LadderSpec.fair(8, case), trials) for case in (1, 2) for trials in (1, 37)},
}


@pytest.mark.parametrize(
    "name, honest_party",
    [(name, party) for name, (spec, _) in LADDER_RUNS.items() for party in [None, *range(1, spec.n_parties + 1)]],
)
def test_batched_ladder_equals_scalar_loop(name, honest_party):
    spec, trials = LADDER_RUNS[name]
    coalition = None if honest_party is None else Coalition(honest_party=honest_party)
    seed = 40 + (honest_party or 0)
    report = simulate_dice(spec, trials, seed, coalition=coalition)
    assert (report.win_counts, report.stage_aborts) == scalar_ladder(spec, trials, seed, coalition)
    assert report.first_trial == _play_trial(spec, coalition, trial_rng(seed, 0))


@st.composite
def _ladder_runs(draw):
    """(spec, coalition, seed, trials): a fair ladder in either layout or a
    uniform one with any eta, N in 2..10, no honest party or any party."""
    n_parties = draw(st.integers(2, 10))
    if draw(st.booleans()):
        spec = LadderSpec.fair(n_parties, draw(st.sampled_from([1, 2])))
    else:
        spec = LadderSpec.uniform(n_parties, draw(st.floats(0.0, 0.5)))  # eta <= 1 - p = 1 - 1/m at every stage
    party = draw(st.integers(0, n_parties))
    coalition = Coalition(honest_party=party) if party else None
    return spec, coalition, draw(st.integers(0, 2**64 - 1)), draw(st.integers(1, 60))


@settings(max_examples=60, deadline=None)
@given(run=_ladder_runs())
def test_batched_ladder_equals_scalar_loop_on_random_ladders(run):
    spec, coalition, seed, trials = run
    report = simulate_dice(spec, trials, seed, coalition=coalition)
    assert (report.win_counts, report.stage_aborts) == scalar_ladder(spec, trials, seed, coalition)
    assert report.first_trial == _play_trial(spec, coalition, trial_rng(seed, 0))


def test_batched_ladder_crosses_a_block_boundary():
    spec = LADDERS["case2"]
    coalition = Coalition(honest_party=3)
    trials = TRIAL_BLOCK + 37
    report = simulate_dice(spec, trials, seed=6, coalition=coalition)
    assert (report.win_counts, report.stage_aborts) == scalar_ladder(spec, trials, 6, coalition)



def test_widest_ladder_counts_across_a_block_boundary_are_unchanged_by_chunked_draws():
    # frozen from the sampler that drew each block of 2 * 255 uniforms per trial at once
    report = simulate_dice(LadderSpec.fair(MAX_PARTIES, case=2), TRIAL_BLOCK + 37, seed=3,
                           coalition=Coalition(honest_party=200))
    assert report.win_counts[:8] == (69, 63, 44, 43, 59, 74, 61, 70)
    assert (report.win_counts[199], report.stage_aborts, sum(report.win_counts)) == (1, 26, TRIAL_BLOCK + 37)
    assert hashlib.sha256(str(report.win_counts).encode()).hexdigest()[:16] == "725f5cf5095a9327"


def test_the_widest_ladder_peaks_within_two_and_a_half_chunks_of_draws():
    spec, coalition = LadderSpec.fair(MAX_PARTIES, case=2), Coalition(honest_party=200)
    tracemalloc.start()
    try:
        simulate_dice(spec, TRIAL_BLOCK, 3, coalition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * DRAW_CHUNK * 8  # bytes: two chunks of float64 draws, and stage arrays of int8 and bool


def test_the_widest_ladder_frees_each_chunk_of_draws_before_drawing_the_next():
    spec, coalition = LadderSpec.fair(MAX_PARTIES, case=2), Coalition(honest_party=200)
    simulate_dice(spec, 1, 3, coalition)  # builds the cached plan outside the trace
    tracemalloc.start()
    try:
        simulate_dice(spec, TRIAL_BLOCK, 3, coalition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.85 * DRAW_CHUNK * 8  # bytes: one chunk of float64 draws and its decision arrays, not two chunks


# -- the plan cache ----------------------------------------------------------------


def test_equal_but_distinct_specs_and_coalitions_give_identical_reports():
    spec, twin = LadderSpec.fair(5, case=2), LadderSpec(5, list(LadderSpec.fair(5, case=2).stages))
    assert twin == spec and twin is not spec
    first = simulate_dice(spec, 500, 21, Coalition(honest_party=3))
    hits = dicer._ladder_plan.cache_info().hits
    second = simulate_dice(twin, 500, 21, Coalition(honest_party=3))
    assert dicer._ladder_plan.cache_info().hits == hits + 1
    assert second == first and repr(second) == repr(first)
    assert second.to_dict() == first.to_dict() and second.first_trial == first.first_trial


def test_plan_arrays_are_read_only():
    for spec in (LADDERS["case1"], LADDERS["case2"], LadderSpec.fair(8, 1)):
        for coalition in (None, *map(Coalition, range(1, spec.n_parties + 1))):
            plan = dicer._ladder_plan(spec, coalition)
            # no coalition, or the honest party enters last: no honest group
            has_honest_group = coalition is not None and coalition.honest_party < spec.n_parties
            groups = 2 if has_honest_group else 1
            honest_from = coalition.honest_party - 1 if has_honest_group else len(spec.stages)
            assert plan.honest_from == honest_from
            arrays = (plan.bob_win_prob, plan.first_qubit_pass, plan.final_state_pass, plan.takes_over)
            assert [array.shape for array in arrays] == [(groups, 1, len(spec.stages))] * 3 + [
                (groups, len(spec.stages), 4)]
            assert all(not array.flags.writeable for array in arrays)
            with pytest.raises(ValueError):
                plan.bob_win_prob[0, 0, 0] = 0.5
            with pytest.raises(ValueError):
                plan.takes_over[0, 0, 0] = not plan.takes_over[0, 0, 0]
            assert [len(plays) for plays in plan.plays] == [len(spec.stages)] * groups
            if has_honest_group:  # padded with group 0's plays before the honest party can be an incumbent
                assert plan.plays[1][:honest_from] == plan.plays[0][:honest_from]
                assert plan.takes_over[1, :honest_from].tolist() == plan.takes_over[0, :honest_from].tolist()
            for group, honest_incumbent in zip(range(groups), (False, True)):
                first = honest_from if honest_incumbent else 0
                for k, stage in enumerate(spec.stages[first:], start=first):
                    play = _stage_play(stage, coalition, honest_incumbent)
                    evolution = wcf._evolve(stage.params, play.cheat)
                    assert plan.plays[group][k] == play
                    assert [plan.bob_win_prob[group, 0, k], plan.first_qubit_pass[group, 0, k],
                            plan.final_state_pass[group, 0, k]] == [
                        evolution.bob_win_prob, evolution.first_qubit_pass, evolution.final_state_pass]
                    # the entrant takes over where the preparer wins against an incumbent responding, and vice versa
                    row = [won != (stage.preparer == INCUMBENT) for won in play.preparer_wins]
                    assert plan.takes_over[group, k].tolist() == row


@pytest.mark.parametrize("spec, coalition", [
    ("x", None),
    (None, None),
    (LadderSpec.three_sided(case=1), "x"),
    (LadderSpec.three_sided(case=1), Coalition(True)),   # equal to Coalition(1), whose plan is cached
    (LadderSpec.three_sided(case=1), Coalition(2.0)),    # equal to Coalition(2)
    (LadderSpec.three_sided(case=1), Coalition(4)),
])
def test_arguments_are_checked_before_the_plan_cache_on_every_call(monkeypatch, spec, coalition):
    for party in (1, 2):
        simulate_dice(LadderSpec.three_sided(case=1), 10, 0, Coalition(honest_party=party))
    plans = []
    monkeypatch.setattr(dicer, "_ladder_plan", _counting(plans, dicer._ladder_plan))
    for _ in range(2):
        with pytest.raises(ParameterError):
            simulate_dice(spec, 10, 0, coalition)
    assert plans == []


def test_a_plan_that_fails_to_build_fails_again_on_the_next_call(monkeypatch):
    spec, coalition = LadderSpec.uniform(5, eta=0.0123), Coalition(honest_party=2)
    evolve = wcf._evolve

    def failing_at_entrant_4(params, cheat):
        if params == spec.stages[2].params:
            raise ParameterError("no evolution at entrant 4")
        return evolve(params, cheat)

    monkeypatch.setattr(dicer, "_evolve", failing_at_entrant_4)
    for _ in range(2):
        with pytest.raises(ParameterError, match="entrant 4"):
            simulate_dice(spec, 10, 0, coalition)
    monkeypatch.undo()
    report = simulate_dice(spec, 300, 9, coalition)
    assert (report.win_counts, report.stage_aborts) == scalar_ladder(spec, 300, 9, coalition)


def test_first_trial_reports_each_stage():
    spec = LadderSpec.three_sided(case=1)
    report = simulate_dice(spec, 1, seed=4, coalition=Coalition(honest_party=1))
    assert [run.entrant for run in report.first_trial] == [2, 3]
    assert report.win_counts[report.first_trial[-1].winner - 1] == 1
    stage = report.to_dict()["first_transcript"][0]
    assert (stage["preparer"], stage["responder"]) == (1, 2)
    assert stage["transcript"][0] == {"kind": "prepare", "actor": "alice", "detail": "bob-claim-win"}


def _counting(calls: list, fn):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper


def test_first_trial_is_built_without_run_protocol_and_cached(monkeypatch):
    flips = []
    counting = _counting(flips, wcf.run_protocol)
    monkeypatch.setattr(wcf, "run_protocol", counting)
    monkeypatch.setattr(dicer, "run_protocol", counting, raising=False)  # a name dicer might import
    report = simulate_dice(LADDERS["case2"], 100, seed=8, coalition=Coalition(honest_party=2))
    first = report.first_trial
    assert report.first_trial is first
    assert report.to_dict()["first_transcript"] == [run.to_dict() for run in first]
    assert [run.entrant for run in first] == [2, 3]
    assert flips == []


def test_ladder_trial_zero_is_replayed_only_when_first_read(monkeypatch):
    roles, outcomes = [], []
    monkeypatch.setattr(dicer, "_stage_roles", _counting(roles, dicer._stage_roles))
    monkeypatch.setattr(dicer, "_outcome", _counting(outcomes, dicer._outcome))
    spec, coalition = LadderSpec.fair(8, case=2), Coalition(honest_party=3)
    report = simulate_dice(spec, 100, seed=8, coalition=coalition)
    assert roles == [] and outcomes == []
    assert len(report.trial_zero) == len(spec.stages) and all(type(code) is int for code in report.trial_zero)
    first = report.first_trial
    assert len(roles) == len(outcomes) == len(spec.stages)  # one replay: one call of each per stage
    assert report.first_trial is first
    assert report.to_dict()["first_transcript"] == [run.to_dict() for run in first]
    assert len(roles) == len(outcomes) == len(spec.stages)
    unread = simulate_dice(spec, 100, seed=8, coalition=coalition)
    dicer._ladder_plan.cache_clear()  # the replay rebuilds the evicted plan
    assert unread.first_trial == first


# -- the abort rule ----------------------------------------------------------------------


class _FailingAudits:
    """Generator stand-in whose every uniform is the largest ``random`` can
    return: Bob's measurement misses, and every audit with a pass chance
    below 1 fails."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("case", [1, 2])
def test_caught_cheater_advances_the_honest_party(case):
    for n_parties in range(3, 9):
        for honest in range(1, n_parties + 1):
            runs = _play_trial(FAIR[n_parties, case], Coalition(honest_party=honest), _FailingAudits())
            played = [run for run in runs if honest in (run.preparer, run.responder)]
            assert len(played) == n_parties - max(honest, 2) + 1, (n_parties, honest)
            for run in played:
                assert run.outcome.winner is Winner.ABORT, (n_parties, honest, run.entrant)
                assert run.winner == honest, (n_parties, honest, run.entrant)


def test_advance_table_rows_in_role_terms():
    stage = FAIR[3, 1].stages[1]  # entrant 3, the incumbent prepares
    plays = (
        _stage_play(stage, Coalition(honest_party=1), True),   # the honest party prepares
        _stage_play(stage, None, False),
        _stage_play(stage, Coalition(honest_party=3), False),  # the honest party responds
    )
    assert [type(play.cheat) for play in plays] == [BobClaimWin, Honest, AliceDelta]
    claim_win, honest, tilt = (play.preparer_wins for play in plays)
    for row in (claim_win, honest, tilt):
        assert row[ALICE_WINS] and not row[BOB_WINS]
    assert claim_win[FIRST_QUBIT_ABORT]    # a caught claim-win: the preparer advances
    assert not tilt[FINAL_STATE_ABORT]     # a tilt caught at the final state: the responder advances
    assert not honest[FINAL_STATE_ABORT]   # honest play: the audited preparer loses
    assert honest[FIRST_QUBIT_ABORT]       # honest play: the audited responder loses
