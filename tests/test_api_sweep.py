"""One refusal sweep over the public API.

Each callable of ``qdice.__all__``, each public function and class that
``qsim``, ``wcf``, ``adversary``, ``fairness`` and ``dicer`` define
themselves (the callables ``perfbench/spans.py`` traces) and the
classmethods of ``BasisLabel``, ``StateVector`` and ``LadderSpec`` has one
valid call below. Each argument slot of that call in turn takes every value
of ``BAD_VALUES`` while the other arguments stay valid, and the call must
return or raise a ``QdiceError``, with warnings raised as errors. The enums
``Spin`` and ``Winner`` are not swept: calling one looks up a member, and
its ``ValueError`` is the enum protocol.
"""
from __future__ import annotations

import inspect
import math
import warnings
from collections import Counter
from decimal import Decimal
from enum import EnumMeta

import numpy as np
import pytest

import qdice
from qdice import adversary, dicer, fairness, qsim, wcf
from qdice import (
    AliceDelta,
    AliceGeneral,
    BasisLabel,
    BobClaimWin,
    BracketError,
    CheatSpec,
    CheatValue,
    Coalition,
    DegenerateParameterError,
    DiceReport,
    FairLadder,
    Honest,
    LadderSpec,
    Outcome,
    ParameterError,
    ProtocolParams,
    QdiceError,
    ShapeError,
    Spin,
    StageParams,
    StateVector,
    Transcript,
    TrialStats,
    Winner,
    alice_optimal_value,
    alice_value_at_delta,
    alice_verification,
    apply_u_eta,
    attach_down_ancilla_qubit,
    bias_bound_check,
    bob_optimal_value,
    brute_force_alice,
    find_root,
    honest_dice_probs,
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
from qdice.adversary import (
    alice_value_at_delta_via_states,
    cheater_win_prob,
    general_cheat_value,
    max_delta_family,
    sample_cheat_values,
)
from qdice.dicer import BoundCheck, StageRun, expected_coalition_losing
from qdice.wcf import Event, honest_initial_state, trial_rng, verification_state

BAD_VALUES = (
    None, "x", math.nan, math.inf, -math.inf, -1, 2.5, True, [], {}, object(), (0.1, 0.2, 0.3), b"ab",
    np.float64("nan"), np.array([0.1, 0.2]), np.array(0.5), np.array(5), 10**30, -0.0, 1j, "1", b"1",
)

PARAMS = ProtocolParams(0.5, 0.1)
SPEC = LadderSpec.uniform(3)
LADDER = solve_balanced()

#: one valid call per swept callable, as (args, kwargs)
VALID_CALLS = {
    QdiceError: (("message",), {}),
    ShapeError: (("message",), {}),
    ParameterError: (("message",), {}),
    DegenerateParameterError: (("message",), {}),
    BracketError: (("message",), {}),
    BasisLabel: (((Spin.UP, Spin.DOWN), 0), {}),
    BasisLabel.parse: (("ud", 0), {}),
    StateVector: ((ket("ud").amps,), {}),
    StateVector.from_terms: (({"ud": 1.0}, 1), {}),
    StateVector.basis: (("ud", 1), {}),
    qdice.TestOutcome: ((1.0, None), {}),  # by its module, so pytest collects no class named Test*
    ket: (("ud", 1), {}),
    overlap: ((ket("ud"), ket("ud")), {}),
    attach_down_ancilla_qubit: ((ket("ud"),), {}),
    apply_u_eta: ((ket("udd"), 0.5, 0.1), {}),
    projective_test: ((ket("ud"), {1: Spin.UP}), {}),
    ProtocolParams: ((0.5, 0.1), {}),
    CheatSpec: ((), {}),
    Honest: ((), {}),
    AliceDelta: ((0.3,), {}),
    AliceGeneral: (((0, 1, 0, 0), None), {}),
    BobClaimWin: ((), {}),
    Outcome: ((Winner.ALICE, None, Transcript(())), {}),
    Transcript: (((),), {}),
    TrialStats: ((10, Counter(), (PARAMS, Honest(), 0)), {}),
    honest_win_prob: ((PARAMS,), {}),
    alice_verification: ((ket("ud"),), {}),
    run_protocol: ((PARAMS, Honest(), np.random.default_rng(0)), {}),
    run_trials: ((PARAMS, Honest(), 10, 0), {}),
    trial_rng: ((0, 0), {}),
    honest_initial_state: ((PARAMS,), {}),
    verification_state: ((PARAMS,), {}),
    Event: (("prepare", "alice", "state"), {}),
    CheatValue: ((0.5, None), {}),
    alice_value_at_delta: ((PARAMS, 0.3), {}),
    alice_value_at_delta_via_states: ((PARAMS, 0.3), {}),
    alice_optimal_value: ((PARAMS,), {}),
    bob_optimal_value: ((PARAMS,), {}),
    cheater_win_prob: ((PARAMS, Honest()), {}),
    general_cheat_value: ((PARAMS, AliceGeneral((0, 1, 0, 0))), {}),
    max_delta_family: ((PARAMS, 1000), {}),
    sample_cheat_values: ((PARAMS, 10), {"ancilla_dim": 1, "seed": 0, "min_unused_weight": 0.0,
                                         "orthogonal_pair": False}),
    brute_force_alice: ((PARAMS,), {"grid_points": 1000, "ancilla_dim": 1, "random_samples": 10, "seed": 0}),
    find_root: ((lambda x: x - 0.3, (0.0, 1.0), 1e-12), {}),
    solve_balanced: ((None,), {}),
    honest_dice_probs: ((3,), {}),
    worst_case_losing_prob: ((1, 3, [0.1, 0.1]), {}),
    bias_bound_check: ((1, 3, [0.1, 0.1]), {}),
    optimize_three_sided: ((1, None), {}),
    FairLadder: ((LADDER.stages, LADDER.worst_case_losing, LADDER.epsilon, LADDER.bound, LADDER.bound_holds), {}),
    BoundCheck: ((0.1, 0.3, True, 0.8), {}),
    DiceReport: ((3, 10, (4, 3, 3), 0, (SPEC, None, 0), ()), {}),
    StageRun: ((2, 1, 2, 1, run_protocol(PARAMS, Honest(), np.random.default_rng(0))), {}),
    LadderSpec: ((3, SPEC.stages), {}),
    LadderSpec.uniform: ((3, 0.0), {}),
    LadderSpec.fair: ((3, 1), {}),
    LadderSpec.three_sided: ((1,), {}),
    StageParams: ((2, PARAMS, "incumbent"), {}),
    Coalition: ((1,), {}),
    simulate_dice: ((SPEC, 10, 0, Coalition(1)), {}),
    expected_coalition_losing: ((SPEC, Coalition(1)), {}),
}

#: arguments refused inside a valid-looking argument, each leaked a non-qdice error or passed silently
NESTED_CALLS = {
    "spin-negative-from-terms": lambda: StateVector.from_terms({BasisLabel((Spin.UP, -1)): 1.0}),
    "spin-seven-from-terms": lambda: StateVector.from_terms({BasisLabel((Spin.UP, 7)): 1.0}),
    "spin-seven-amplitude": lambda: ket("ud").amplitude(BasisLabel((Spin.UP, 7))),
    "ancilla-string-parse": lambda: BasisLabel.parse("ud", "a"),
    "pattern-spin-five": lambda: projective_test(ket("ud"), {1: 5}),
    "pattern-spin-float": lambda: projective_test(ket("ud"), {1: 1.5}),
    "pattern-label-string": lambda: projective_test(ket("ud"), {"a": Spin.UP}),
    "pattern-label-float": lambda: projective_test(ket("ud"), {1.5: Spin.UP}),
    "amplitude-string-from-terms": lambda: StateVector.from_terms({"ud": "x"}),
    "amplitude-numeric-string-from-terms": lambda: StateVector.from_terms({"ud": "1"}),
    "amplitude-numeric-bytes-from-terms": lambda: StateVector.from_terms({"ud": b"1"}),
    "amplitudes-numeric-strings-state": lambda: StateVector(np.array([["1"], ["0"]])),
    "amplitudes-numeric-bytes-state": lambda: StateVector(np.array([[b"1"], [b"0"]])),
    "amplitudes-numeric-string-objects-state": lambda: StateVector(np.array([["1"], [0]], dtype=object)),
    "amplitude-beyond-float-from-terms": lambda: StateVector.from_terms({"ud": 10**400}),
    "amplitude-beyond-float-state": lambda: StateVector([[10**400], [0]]),
    "bracket-end-beyond-float-find-root": lambda: find_root(lambda x: x, (0.0, 10**400)),
    "bracket-width-beyond-float-find-root": lambda: find_root(lambda x: x, (-1e308, 1e308)),
    "bracket-midpoint-beyond-float-find-root": lambda: find_root(lambda x: x - 1.5e308, (1e308, 1.7e308)),
    "width-over-tolerance-beyond-float-find-root": lambda: find_root(lambda x: x - 0.5, (0.0, 1.0), tol=1e-320),
    "p-one-element-array-params": lambda: ProtocolParams(np.array([0.5]), 0.1),
    "delta-one-element-array": lambda: alice_value_at_delta(PARAMS, np.array([0.3])),
    "p-0d-array-params": lambda: ProtocolParams(np.array(0.5), 0.1),
    "delta-0d-array-alice-delta": lambda: AliceDelta(np.array(0.3)),
    "trials-0d-array-run-trials": lambda: run_trials(PARAMS, Honest(), np.array(10), 0),
    "amplitudes-0d-arrays-alice-general": lambda: AliceGeneral((np.array(0.0), np.array(1.0), 0, 0)),
    "amplitude-one-element-array-alice-general": lambda: AliceGeneral((np.array([0.0]), 1, 0, 0)),
    "ancilla-0d-arrays-alice-general": lambda: AliceGeneral((0, 1, 0, 0), ((np.array(1.0),),) * 4),
    "ancilla-2d-array-alice-general": lambda: AliceGeneral((0, 1, 0, 0), ((np.array([[1.0], [0.0]]), 0),) * 4),
    "amplitudes-decimal-alice-general": lambda: AliceGeneral((Decimal(0), Decimal(1), 0, 0)),
    "amplitude-bool-alice-general": lambda: AliceGeneral((0, True, 0, 0)),
    "ancilla-bool-alice-general": lambda: AliceGeneral((0, 1, 0, 0), ((True,), (1,), (1,), (1,))),
    "amplitude-numpy-bool-alice-general": lambda: AliceGeneral((0, np.True_, 0, 0)),
    "amplitude-square-beyond-float-alice-general": lambda: AliceGeneral((10**200, 0, 0, 0)),
}


def _call(fn, args: tuple, kwargs: dict) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fn(*args, **kwargs)


def test_the_sweep_covers_every_public_callable():
    public = [getattr(qdice, name) for name in qdice.__all__]
    for module in (qsim, wcf, adversary, fairness, dicer):
        public += [
            obj for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
            and (inspect.isfunction(obj) or inspect.isclass(obj))
        ]
    swept = {obj for obj in public if callable(obj) and not isinstance(obj, EnumMeta)}
    assert swept <= set(VALID_CALLS)


@pytest.mark.parametrize("fn", VALID_CALLS, ids=lambda fn: fn.__qualname__)
def test_every_argument_slot_returns_or_refuses_with_a_qdice_error(fn):
    args, kwargs = VALID_CALLS[fn]
    _call(fn, args, kwargs)
    leaks = []
    for slot in [*range(len(args)), *kwargs]:
        for bad in BAD_VALUES:
            if isinstance(slot, int):
                call = (args[:slot] + (bad,) + args[slot + 1:], kwargs)
            else:
                call = (args, {**kwargs, slot: bad})
            try:
                _call(fn, *call)
            except QdiceError:
                pass
            except Exception as exc:  # the leak under test: any other error
                leaks.append(f"slot {slot} = {bad!r}: {type(exc).__name__}: {exc}")
    assert not leaks


@pytest.mark.parametrize("call", NESTED_CALLS)
def test_a_bad_value_inside_an_argument_raises_parameter_error(call):
    with pytest.raises(ParameterError):
        _call(NESTED_CALLS[call], (), {})
