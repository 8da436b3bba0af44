"""Three-round weak imbalanced coin flip between Alice and Bob.

Honest play: Alice prepares sqrt(1-p-eta)|ud> + sqrt(p+eta)|du> and sends
qubit 2 to Bob; Bob adjoins a third qubit spin-down, applies the two-level
rotation and measures qubits 2,3 against the up/down pattern. A hit means
Bob wins, which Alice audits by checking her qubit is spin-down; a miss
means Alice wins, which Bob audits by testing all three qubits against the
verification state. Alice wins with probability 1-p, Bob with p, and honest
runs pass both audits with probability exactly 1: every measurement's
probabilities come from ``qsim._weights``, the one branch rule, and honest
play leaves each audit's fail branch at (or within rounding of) zero. Every
preparation, honest or not, comes from one builder (``_preparation``) and
runs through one evolution (``_evolve``). Its branches stay unnormalized:
Bob's test splits the state into raw hit and miss branches, each audit is a
ratio of weights on its branch, and the final audit is one contraction of
the raw miss branch with the verification state (``qsim._contract``, the
array math of ``qsim.overlap``), all on raw arrays through ``qsim``'s kernels.
Each step costs as few numpy calls as its floats allow: the preparation's
products are made in their (2, 2, D) shape from one flat conversion of the
ancillas, the verification amplitudes are one flat array, and only a
configuration with an empty miss branch (or a claim-win) allocates zero
miss amplitudes.

Cheating strategies are declared through :class:`CheatSpec` variants; a
failed audit ends the run with winner ``Winner.ABORT``, which bias
accounting treats as a loss for the cheating side. ``_flip_codes`` decides
each flip's outcome code, ``hit + 2 * failed_audit``, from its uniforms,
and ``_OUTCOMES`` gives each code its winner and abort reason.
"""
from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from functools import cached_property, lru_cache

from . import _checks
from ._lazy import lazy_import
from ._record import Record
from .errors import ParameterError, ShapeError
from .qsim import (
    ZERO_BRANCH_TOL,
    Spin,
    StateVector,
    _attach,
    _contract,
    _pattern_index,
    _rotate,
    _split,
    _weights,
)

np = lazy_import("numpy")
_seeding = lazy_import(f"{__package__}._seeding")

BOB_WIN_PATTERN = {2: Spin.UP, 3: Spin.DOWN}
_BOB_WIN_INDEX = _pattern_index(BOB_WIN_PATTERN, 3)
_UP, _DOWN = int(Spin.UP), int(Spin.DOWN)


class ProtocolParams(Record):
    """One protocol instance: Bob's honest winning probability p and the
    security knob eta, constrained to 0 <= eta <= 1-p."""

    __slots__ = ("p", "eta")

    def __post_init__(self) -> None:
        _checks.check_p_eta(self.p, self.eta)


def honest_win_prob(params: ProtocolParams) -> float:
    """Alice's winning probability when both parties are honest."""
    _checks.check_type(params, ProtocolParams, "params")
    return 1.0 - params.p


# -- cheating strategies ------------------------------------------------------


class CheatSpec:
    """Marker base class for strategy declarations."""

    __slots__ = ()
    name = "base"


class Honest(CheatSpec, Record):
    __slots__ = ()
    name = "honest"


class AliceDelta(CheatSpec, Record):
    """Alice prepares sqrt(1-delta)|ud> + sqrt(delta)|du> instead."""

    __slots__ = ("delta",)
    name = "alice-delta"

    def __post_init__(self) -> None:
        _checks.check_unit_interval(self.delta, "delta")


class AliceGeneral(CheatSpec, Record, defaults={"ancillas": None}):
    """Alice prepares an arbitrary two-qubit state, optionally entangled
    with a private ancilla.

    ``amplitudes`` are four complex numbers ordered (uu, ud, du, dd) and
    must be normalized; ``ancillas`` gives one unit vector of complex
    numbers per branch (all the same dimension) or is None, the default,
    for no ancilla. Both are stored as tuples, so a spec built from lists or
    arrays is hashable like any other.
    """

    __slots__ = ("amplitudes", "ancillas")
    name = "alice-general"

    def __post_init__(self) -> None:
        try:
            amplitudes = tuple(self.amplitudes)
            ancillas = None if self.ancillas is None else tuple(map(tuple, self.ancillas))
        except TypeError:
            raise ParameterError(
                f"amplitudes and ancillas must be sequences, got {self.amplitudes!r}, {self.ancillas!r}"
            ) from None
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "ancillas", ancillas)
        if len(self.amplitudes) != 4:
            raise ParameterError(f"need 4 amplitudes (uu, ud, du, dd), got {len(self.amplitudes)}")
        _checks.check_normalized(self.amplitudes, "cheat amplitudes are not normalized: {!r}")
        if self.ancillas is not None:
            if len(self.ancillas) != 4:
                raise ParameterError("need one ancilla vector per branch (4 total)")
            if len(set(map(len, self.ancillas))) != 1:
                raise ShapeError("ancilla vectors must share one dimension")
            for phi in self.ancillas:
                _checks.check_normalized(phi, "each ancilla vector must be normalized")


class BobClaimWin(CheatSpec, Record):
    """Bob skips his measurement and always announces that he won."""

    __slots__ = ()
    name = "bob-claim-win"


# -- state preparation --------------------------------------------------------


def _preparation(amplitudes, ancillas=None) -> StateVector:
    """Alice's two-qubit state sum_k amplitudes[k] |k>|phi_k> over k = uu, ud, du, dd;
    without ``ancillas`` (the unit vectors phi_k) it carries no ancilla."""
    alphas = np.array(amplitudes, dtype=complex).reshape(2, 2, 1)
    if ancillas is None:  # a 0-d factor 1 (see qsim): the complex multiply of ancillas of dimension 1
        phis = np.array(1.0, dtype=complex)
    else:  # a flat tuple converts faster than the nested one
        phis = np.array(sum(ancillas, ()), dtype=complex).reshape(2, 2, -1)
    return StateVector(alphas * phis)


def honest_initial_state(params: ProtocolParams) -> StateVector:
    """Alice's honest two-qubit preparation."""
    _checks.check_type(params, ProtocolParams, "params")
    weight = max(0.0, 1.0 - params.p - params.eta)
    return _preparation((0.0, math.sqrt(weight), math.sqrt(params.p + params.eta), 0.0))


def verification_state(params: ProtocolParams) -> StateVector:
    """Three-qubit state Bob tests for when he loses."""
    _checks.check_type(params, ProtocolParams, "params")
    _checks.check_p_below_one(params.p)
    return StateVector(_verification_amps(params.p, params.eta))


def _verification_amps(p: float, eta: float) -> np.ndarray:
    """``verification_state``'s amplitudes, for p below 1."""
    weight = max(0.0, 1.0 - p - eta)  # guard float dust at eta = 1-p
    udd, ddu = math.sqrt(weight / (1.0 - p)), math.sqrt(eta / (1.0 - p))
    # flat index 4 q1 + 2 q2 + q3, spin up = 0: udd is 3 and ddu is 6
    return np.array((0, 0, 0, udd, 0, 0, ddu, 0), dtype=complex).reshape(2, 2, 2, 1)


def alice_verification(state: StateVector) -> float:
    """Probability that qubit 1 of ``state`` is found spin-down."""
    _checks.check_type(state, StateVector, "state")
    return _first_qubit_down(state.amps)


def _first_qubit_down(amps: np.ndarray) -> float:
    """Alice's audit on amplitudes, normalized or not: qubit 1's spin-down share."""
    return _weights(amps[_DOWN], amps[_UP])[0]


# -- transcripts and outcomes -------------------------------------------------


class Winner(str, Enum):
    ALICE = "alice"
    BOB = "bob"
    ABORT = "abort"


ABORT_FIRST_QUBIT = "first-qubit check failed"
ABORT_FINAL_STATE = "final-state check failed"

#: Flip outcome codes, ``hit + 2 * failed_audit``.
ALICE_WINS, BOB_WINS, FINAL_STATE_ABORT, FIRST_QUBIT_ABORT = range(4)

#: The (winner, abort reason) of each outcome code.
_OUTCOMES = (
    (Winner.ALICE, None),
    (Winner.BOB, None),
    (Winner.ABORT, ABORT_FINAL_STATE),
    (Winner.ABORT, ABORT_FIRST_QUBIT),
)

_COMM_KINDS = frozenset({"send_qubit", "announce", "verdict"})


class Event(Record):
    #: kind: prepare | send_qubit | rotate | measure | announce | test | verdict | declare
    __slots__ = ("kind", "actor", "detail")


class Transcript(Record):
    __slots__ = ("events",)

    @property
    def comm_rounds(self) -> int:
        return sum(1 for e in self.events if e.kind in _COMM_KINDS)

    def to_dict(self) -> list[dict[str, str]]:
        return [{"kind": e.kind, "actor": e.actor, "detail": e.detail} for e in self.events]


class Outcome(Record):
    __slots__ = ("winner", "abort_reason", "transcript")


# -- the state machine --------------------------------------------------------


def _prepare(params: ProtocolParams, cheat: CheatSpec) -> StateVector:
    if isinstance(cheat, AliceDelta):
        return _preparation((0.0, math.sqrt(1.0 - cheat.delta), math.sqrt(cheat.delta), 0.0))
    if isinstance(cheat, AliceGeneral):
        return _preparation(cheat.amplitudes, cheat.ancillas)
    if isinstance(cheat, (Honest, BobClaimWin)):
        return honest_initial_state(params)
    raise ParameterError(f"unknown cheat spec: {cheat!r}")


class _Evolution(Record):
    """Branch probabilities of one (params, cheat) configuration."""

    __slots__ = (
        "bob_win_prob",      # Bob's pattern measurement hits (1.0 when he skips it)
        "first_qubit_pass",  # audit pass probability on the win branch
        "final_state_pass",  # audit pass probability on the lose branch
        # <xi|miss> per ancilla index, on the unnormalized miss branch, as a
        # read-only complex np.ndarray; its squared norm is Alice's
        # win-and-survive probability
        "miss_amplitudes",
    )

    def __post_init__(self) -> None:
        self.miss_amplitudes.setflags(write=False)  # shared through the cache


@lru_cache(maxsize=256)
def _evolve(params: ProtocolParams, cheat: CheatSpec) -> _Evolution:
    """Run the deterministic quantum evolution once per configuration.

    Everything up to the sampling is a pure function of (params, cheat), so
    Monte Carlo batches only pay for the draws. This is the package's only
    attach/rotate/test chain; ``_evolve.__wrapped__`` runs it uncached.

    Only Alice's preparation is a checked ``StateVector``: the chain runs on
    raw arrays through ``qsim``'s kernels, with its wrappers' refusals of
    p + eta = 0 and, on a miss branch, of p = 1. Bob's test leaves its
    branches unnormalized, with their chances from ``qsim._weights``; both
    audits are ratios of weights on the raw branches, and ``miss_amplitudes``
    is <xi|miss> on the raw miss branch. A branch below ``ZERO_BRANCH_TOL``
    counts as empty, as it has no post-state in ``projective_test``.
    """
    prepared = _prepare(params, cheat)
    _checks.check_rotation_defined(params.p, params.eta)
    amps = _rotate(_attach(prepared.amps), params.p, params.eta)
    if isinstance(cheat, BobClaimWin):
        return _Evolution(1.0, _first_qubit_down(amps), 0.0, np.zeros(amps.shape[-1], dtype=complex))
    hit, miss = _split(amps, _BOB_WIN_INDEX)
    p_hit, p_miss = _weights(hit, miss)
    first_qubit = _first_qubit_down(hit) if p_hit >= ZERO_BRANCH_TOL else 0.0
    if p_miss < ZERO_BRANCH_TOL:
        return _Evolution(p_hit, first_qubit, 0.0, np.zeros(amps.shape[-1], dtype=complex))
    _checks.check_p_below_one(params.p)
    xi = _verification_amps(params.p, params.eta)
    amplitudes = _contract(xi, miss)
    return _Evolution(p_hit, first_qubit, _weights(amplitudes, miss - amplitudes * xi)[0], amplitudes)


def _outcome(params: ProtocolParams, cheat: CheatSpec, code: int) -> Outcome:
    """Render a run that ended with outcome ``code``, as ``_flip_codes`` decided it."""
    hit = code in (BOB_WINS, FIRST_QUBIT_ABORT)
    events = [
        Event("prepare", "alice", cheat.name),
        Event("send_qubit", "alice", "qubit 2"),
        Event("rotate", "bob", f"p={params.p!r} eta={params.eta!r}"),
    ]
    if isinstance(cheat, BobClaimWin):
        events.append(Event("announce", "bob", "win (measurement skipped)"))
    else:
        events.append(Event("measure", "bob", "qubits 2,3 against the up/down pattern"))
        events.append(Event("announce", "bob", "win" if hit else "lose"))
    if hit:
        events.append(Event("test", "alice", "first qubit is spin-down"))
        events.append(Event("verdict", "alice", "fail" if code == FIRST_QUBIT_ABORT else "pass"))
    else:
        events.append(Event("send_qubit", "alice", "qubit 1"))
        events.append(Event("test", "bob", "all qubits against the verification state"))
    winner, reason = _OUTCOMES[code]
    events.append(Event("declare", "both", winner.value))
    return Outcome(winner, reason, Transcript(tuple(events)))


def run_protocol(params: ProtocolParams, cheat: CheatSpec, rng: np.random.Generator) -> Outcome:
    """Execute one run of the protocol and sample every measurement.

    It reads one row of two uniforms, so n calls in a row on one generator
    consume the rows of ``rng.random((n, 2))`` in order, and ``_flip_codes``
    decides it as it decides every Monte Carlo trial.
    """
    _checks.check_type(params, ProtocolParams, "params")
    _checks.check_type(cheat, CheatSpec, "cheat")
    _checks.check_type(rng, np.random.Generator, "rng", "must be a numpy.random.Generator")
    code = _flip_codes(_evolve(params, cheat), rng.random((1, DRAWS_PER_FLIP)))
    return _outcome(params, cheat, int(code[0]))


# -- Monte Carlo --------------------------------------------------------------

#: Trials per random block: trial t reads row t % TRIAL_BLOCK of
#: ``trial_rng(seed, t // TRIAL_BLOCK)``.
TRIAL_BLOCK = 1 << 14

#: Upper bound on a Monte Carlo run's trial count: flips run at about 5e7
#: trials a second (2-core machine), so 10**12 trials would take hours.
MAX_TRIALS = 10**8

#: Uniforms one flip reads: the announcement, then the audit.
DRAWS_PER_FLIP = 2

#: Upper bound on the uniforms drawn at once (8 MB): a flip's block is one
#: draw, a wide ladder's block several, since it holds 2 (N-1) per trial.
DRAW_CHUNK = 1 << 20


def trial_rng(seed: int, block: int) -> np.random.Generator:
    """Random substream of one block of trials, derived from (seed, block).

    Trial t reads row t % TRIAL_BLOCK of block t // TRIAL_BLOCK, a row of
    ``DRAWS_PER_FLIP`` uniforms per flip it plays. Streams are counter-derived,
    so results do not depend on evaluation order, blocks can run in
    parallel, and the first n trials of a longer run are the n-trial run.
    The seed follows ``_checks.check_seed``, and the block is an integer >= 0.
    The generator is ``_seeding.seeded_rng(seed, block)``: the sequence of
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(block,)))``, built
    from the words that ``SeedSequence`` would assemble itself.
    """
    _checks.check_seed(seed)
    _checks.check_integer(block, "block", 0)
    return _seeding.seeded_rng(seed, block)


def _uniform_blocks(seed: int, trials: int, draws: int):
    """The uniforms of trials 0..trials-1 as (rows, draws) arrays, in trial
    order: each block in row chunks of at most ``DRAW_CHUNK`` uniforms (at
    least one row). ``Generator.random`` fills in order, so a block's chunks
    concatenate to the block drawn at once. A run that fits in one chunk of
    block 0, as every short run does, is one draw, returned in a tuple
    without a generator frame; a longer one is a generator of chunks."""
    step = max(1, DRAW_CHUNK // draws)
    if trials <= step and trials <= TRIAL_BLOCK:
        return (trial_rng(seed, 0).random((trials, draws)),)
    return (
        rng.random((min(step, rows - done), draws))
        for block, start in enumerate(range(0, trials, TRIAL_BLOCK))
        for rng, rows in [(trial_rng(seed, block), min(TRIAL_BLOCK, trials - start))]  # one generator a block
        for done in range(0, rows, step)
    )


def _flip_codes(evolution: _Evolution, draws: np.ndarray) -> np.ndarray:
    """Outcome code of each (announce, audit) pair on the last axis of
    ``draws``: the package's one flip decision. Bob hits below
    ``bob_win_prob`` (1 for a claim-win), and the audit fails at or above
    the pass chance of his branch. The three chances may be arrays that
    broadcast against ``draws[..., 0]``: a ladder plan's, one per group and
    stage (``dicer``), decide both groups of a chunk in one call. The audit
    is compared with both pass chances, and each pair's result is picked by
    its hit with two xors and an and on the bool results, so no float array
    as wide as the decision is built (nor a ``np.where``, which branches
    per item on one-byte items). Every step makes a new array: numpy's
    in-place operators cost more on the one-row decision of
    ``run_protocol``. Codes are int8, so a wide ladder's codes for a chunk
    of draws, which outlive it, take one byte each."""
    audit = draws[..., 1]
    hit = draws[..., 0] < evolution.bob_win_prob
    final = audit >= evolution.final_state_pass
    # the first-qubit audit's result where Bob hits, the final-state audit's elsewhere
    failed = ((audit >= evolution.first_qubit_pass) ^ final) & hit ^ final
    codes = failed.view(np.int8)
    return codes + codes + hit.view(np.int8)


class TrialStats(Record):
    """Winner tallies for a batch of protocol runs, and the (params, cheat,
    seed) of the run, from which trial 0 is replayed when first read."""

    #: ``counts`` is a ``Counter`` of ``Winner``, ``run`` a (ProtocolParams,
    #: CheatSpec, int seed) tuple, and ``__dict__`` holds ``first``
    __slots__ = ("trials", "counts", "run", "__dict__")

    @cached_property
    def first(self) -> Outcome:
        """Trial 0 replayed through ``run_protocol``, with its transcript."""
        params, cheat, seed = self.run
        return run_protocol(params, cheat, _seeding.seeded_rng(seed, 0))

    def frequency(self, winner: Winner) -> float:
        return self.counts[winner] / self.trials

    def standard_error(self, winner: Winner) -> float:
        f = self.frequency(winner)
        return math.sqrt(f * (1.0 - f) / self.trials)

    @property
    def aborts(self) -> int:
        return self.counts[Winner.ABORT]

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "counts": {w.value: self.counts[w] for w in Winner},
            "frequencies": {w.value: self.frequency(w) for w in Winner},
            "standard_errors": {w.value: self.standard_error(w) for w in Winner},
            "first_transcript": self.first.transcript.to_dict(),
        }


def run_trials(
    params: ProtocolParams,
    cheat: CheatSpec,
    trials: int,
    seed: int,
) -> TrialStats:
    """Run ``trials`` independent protocol executions and tally winners.

    All trials are decided at once from the block substreams; trial 0 is
    replayed through ``run_protocol`` for its transcript when
    ``TrialStats.first`` is first read.
    """
    _checks.check_type(params, ProtocolParams, "params")
    _checks.check_type(cheat, CheatSpec, "cheat")
    _checks.check_integer(trials, "trial count", 1, MAX_TRIALS)
    _checks.check_seed(seed)
    evolution = _evolve(params, cheat)
    codes = None
    for draws in _uniform_blocks(seed, trials, DRAWS_PER_FLIP):
        chunk = np.bincount(_flip_codes(evolution, draws), minlength=len(_OUTCOMES))
        codes = chunk if codes is None else codes + chunk
    alice, bob, final_state, first_qubit = codes.tolist()  # in _OUTCOMES order
    counts = Counter()  # filled by item: Counter's update from a mapping costs more than the tallies
    counts[Winner.ALICE], counts[Winner.BOB], counts[Winner.ABORT] = alice, bob, final_state + first_qubit
    return TrialStats(trials, counts, (params, cheat, seed))
