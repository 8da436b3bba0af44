"""Value semantics of the package's immutable records, one table for all 19
classes: the constructor ``Record`` generates (the fields in declaration
order, the declared defaults, refused missing, extra and unknown
arguments), equality within one class only, hash and repr from the fields,
immutability, copy and pickle. The expected reprs are the text these
classes printed as frozen dataclasses."""
from __future__ import annotations

import copy
import inspect
import pickle
from collections import Counter

import numpy as np
import pytest

from qdice import (
    AliceDelta,
    AliceGeneral,
    BasisLabel,
    BobClaimWin,
    CheatValue,
    Coalition,
    DiceReport,
    FairLadder,
    Honest,
    LadderSpec,
    Outcome,
    ParameterError,
    ProtocolParams,
    Spin,
    StageParams,
    StateVector,
    Transcript,
    TrialStats,
    Winner,
    qsim,
    run_trials,
    simulate_dice,
)
from qdice.wcf import Event, _Evolution

PARAMS = ProtocolParams(0.5, 0.1)
STAGE = StageParams(2, ProtocolParams(0.5, 0.2), "entrant")

#: (class, fields by keyword in declaration order, defaults the keywords
#: leave out, the repr)
RECORDS = [
    (BasisLabel, {"bits": (Spin.UP, Spin.DOWN)}, {"ancilla": 0},
     "BasisLabel(bits=(<Spin.UP: 0>, <Spin.DOWN: 1>), ancilla=0)"),
    (StateVector, {"amps": np.array([[1.0], [0.0]])}, {},
     "StateVector(amps=array([[1.+0.j],\n       [0.+0.j]]))"),
    (qsim.TestOutcome, {"probability": 0.25, "post_state": None}, {},
     "TestOutcome(probability=0.25, post_state=None)"),
    (ProtocolParams, {"p": 0.5, "eta": 0.1}, {}, "ProtocolParams(p=0.5, eta=0.1)"),
    (Honest, {}, {}, "Honest()"),
    (AliceDelta, {"delta": 0.3}, {}, "AliceDelta(delta=0.3)"),
    (AliceGeneral, {"amplitudes": (0, 1, 0, 0)}, {"ancillas": None},
     "AliceGeneral(amplitudes=(0, 1, 0, 0), ancillas=None)"),
    (BobClaimWin, {}, {}, "BobClaimWin()"),
    (Event, {"kind": "prepare", "actor": "alice", "detail": "honest"}, {},
     "Event(kind='prepare', actor='alice', detail='honest')"),
    (Transcript, {"events": (Event("declare", "both", "alice"),)}, {},
     "Transcript(events=(Event(kind='declare', actor='both', detail='alice'),))"),
    (Outcome, {"winner": Winner.ALICE, "abort_reason": None, "transcript": Transcript(())}, {},
     "Outcome(winner=<Winner.ALICE: 'alice'>, abort_reason=None, transcript=Transcript(events=()))"),
    (_Evolution, {"bob_win_prob": 0.5, "first_qubit_pass": 1.0, "final_state_pass": 0.75,
                  "miss_amplitudes": np.zeros(1, complex)}, {},
     "_Evolution(bob_win_prob=0.5, first_qubit_pass=1.0, final_state_pass=0.75, "
     "miss_amplitudes=array([0.+0.j]))"),
    (TrialStats, {"trials": 10, "counts": Counter({Winner.ALICE: 6, Winner.BOB: 4}), "run": (PARAMS, Honest(), 3)},
     {}, "TrialStats(trials=10, counts=Counter({<Winner.ALICE: 'alice'>: 6, <Winner.BOB: 'bob'>: 4}), "
     "run=(ProtocolParams(p=0.5, eta=0.1), Honest(), 3))"),
    (CheatValue, {"value": 0.5}, {"optimizer": None}, "CheatValue(value=0.5, optimizer=None)"),
    (FairLadder, {"stages": (), "worst_case_losing": (0.5, 0.5), "epsilon": 0.0, "bound": 1.0, "bound_holds": True},
     {}, "FairLadder(stages=(), worst_case_losing=(0.5, 0.5), epsilon=0.0, bound=1.0, bound_holds=True)"),
    (StageParams, {"entrant": 2, "params": ProtocolParams(0.5, 0.2)}, {"preparer": "incumbent"},
     "StageParams(entrant=2, params=ProtocolParams(p=0.5, eta=0.2), preparer='incumbent')"),
    (LadderSpec, {"n_parties": 2, "stages": (STAGE,)}, {},
     "LadderSpec(n_parties=2, stages=(StageParams(entrant=2, params=ProtocolParams(p=0.5, eta=0.2), "
     "preparer='entrant'),))"),
    (Coalition, {"honest_party": 1}, {}, "Coalition(honest_party=1)"),
    (DiceReport, {"n_parties": 2, "trials": 10, "win_counts": (6, 4), "stage_aborts": 0,
                  "run": (LadderSpec(2, (STAGE,)), None, 0), "trial_zero": ()}, {},
     "DiceReport(n_parties=2, trials=10, win_counts=(6, 4), stage_aborts=0, run=(LadderSpec(n_parties=2, "
     "stages=(StageParams(entrant=2, params=ProtocolParams(p=0.5, eta=0.2), preparer='entrant'),)), None, 0), "
     "trial_zero=())"),
]

#: records holding an array, which compare by its entries here
ARRAY_RECORDS = (StateVector, _Evolution)
#: records holding an array or a ``Counter``, which makes them unhashable
UNHASHABLE = (*ARRAY_RECORDS, TrialStats)


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def _same(a, b) -> bool:
    """``a == b``, with array fields compared entry by entry."""
    if isinstance(a, ARRAY_RECORDS):
        return type(a) is type(b) and all(
            np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(_fields(a), _fields(b))
        )
    return a == b


def test_the_table_covers_every_record_class():
    assert len({cls for cls, *_ in RECORDS}) == 19


@pytest.mark.parametrize("cls, fields, defaults, text", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_record_value_semantics(cls, fields, defaults, text):
    record = cls(*fields.values())
    assert cls.__match_args__ == tuple(fields) + tuple(defaults)
    # keyword construction and defaults
    assert _same(cls(**fields), record)
    assert _same(cls(**fields, **defaults), record)
    # the generated constructor takes the fields in order, and defaults only the declared ones
    parameters = inspect.signature(cls).parameters
    assert tuple(parameters) == cls.__match_args__
    assert {name: p.default for name, p in parameters.items() if p.default is not p.empty} == defaults
    if fields:
        with pytest.raises(TypeError):
            cls(*tuple(fields.values())[:-1])  # the last field without a default is missing
    with pytest.raises(TypeError):
        cls(*fields.values(), *defaults.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, extra=None)
    assert repr(record) == text
    # equal fields give equal values with equal hashes, where the fields are hashable
    twin = cls(*fields.values())
    assert _same(twin, record) and (cls in ARRAY_RECORDS or not record != twin)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    # another class with the same fields is unequal, and so is the tuple of the fields
    other = type(cls.__name__, (cls,), {"__slots__": ()})(*fields.values())
    assert record != other and other != record
    # a subclass without fields of its own keeps its base's constructor and defaults
    assert _same(type(other)(**fields), other)
    assert record != _fields(record) and record != ()
    # immutable
    for name in [*cls.__match_args__, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _same(record, twin)
    # copy and pickle
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and _same(clone, record)
        if cls not in UNHASHABLE:
            assert hash(clone) == hash(record)


def test_the_constructor_looks_up_post_init_on_each_call(monkeypatch):
    """A wrapper set on ``__post_init__`` after import, as a profiler's span
    is, runs on the next construction, and the checks still run within it."""
    calls = []
    for cls in (ProtocolParams, StageParams):
        def counted(self, check=cls.__post_init__):
            calls.append(type(self))
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    StageParams(2, ProtocolParams(0.5, 0.2))
    assert calls == [ProtocolParams, StageParams]
    with pytest.raises(ParameterError):
        ProtocolParams(0.5, 0.9)
    assert calls[-1] is ProtocolParams


def test_cheat_specs_of_different_classes_never_compare_equal():
    assert Honest() != BobClaimWin() and BobClaimWin() != Honest()
    assert Honest() != () and () != Honest() and BobClaimWin() != ()
    assert len({Honest(), BobClaimWin()}) == 2


def test_cached_properties_are_computed_once():
    stats = run_trials(PARAMS, Honest(), 10, 0)
    assert stats.first is stats.first
    report = simulate_dice(LadderSpec.uniform(3), 10, 0)
    assert report.first_trial is report.first_trial

