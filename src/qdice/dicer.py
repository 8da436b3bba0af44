"""N-sided dice rolling built from chained imbalanced coin flips.

The ladder: parties are numbered 1..N; parties 1 and 2 flip a balanced
coin, then each party m >= 3 challenges the current leader with an
imbalanced flip giving the entrant a 1/m honest winning chance. Honest play
leaves every party a 1/N overall chance. Worst-case analysis assumes all
parties but one collude; per-stage excess losing probabilities ("stage
biases") compose by an exact forward recursion, and the honest party's
total bias stays below N times the largest stage bias.

The coalition claims a win against an honest preparer and plays the
optimal tilt delta* against an honest responder. One play table,
``_stage_play``, gives each stage's strategy with its abort rule, and
``expected_coalition_losing`` and ``simulate_dice`` both read it. The
sampler reads it through ``_ladder_plan``, which resolves a ladder's plays
once per (spec, coalition) and stacks them in one table over two groups of
rows (the incumbent is the honest party, or not) and every stage, so that
one ``wcf._flip_codes`` call decides every stage of a chunk of trials for
both groups. Each play also becomes a takeover row, whether the entrant
goes on as incumbent by outcome code, so that a stage moves the incumbents
of a chunk with one table lookup and one masked assignment. The sampler
keeps only trial 0's outcome codes, one per stage; ``DiceReport`` replays
them through the plan's plays, by the same takeover rule, and renders their
transcripts only when ``first_trial`` is first read, as ``wcf.TrialStats``
replays its trial 0.

Stage m is the flip that party m enters. Every stage from m = 3 on has
two layouts: case 1, the incumbent prepares; case 2, the entrant prepares.
At stage 2 (p = 1/2) both layouts are the same coin. A fair ladder, for any
N and either layout, is solved stage by stage from that coin on: each eta
equalizes the entrant's worst-case losing probability with that of the
parties already in, so all N parties end with the same worst case. One
``FairLadder`` holds a solved ladder of any N, with every party's worst-case
losing chance and the bias bound check. The balanced coin (W = 1/sqrt(2) at
eta* = (sqrt(2) - 1) / 2, ``solve_balanced``) is its N = 2 instance, the
six-round three-sided protocol (``optimize_three_sided``) its N = 3 instance
(biases 0.181 and 0.199).

Each ladder is solved once per process: ``_fair_stages`` checks its
arguments, then reads the stages from an ``lru_cache``
(``_solved_fair_stages``, ``_FAIR_CACHE_SIZE`` entries) that
``solve_balanced``, ``optimize_three_sided`` and ``LadderSpec.fair`` share.
Each call still builds its own ``FairLadder`` or ``LadderSpec`` from them.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from functools import cached_property, lru_cache
from operator import index
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import adversary
from . import _checks
from ._lazy import lazy_import
from ._record import Record
from .errors import ParameterError
from .fairness import find_root
from .wcf import (
    DRAWS_PER_FLIP,
    FINAL_STATE_ABORT,
    AliceDelta,
    BobClaimWin,
    CheatSpec,
    Honest,
    Outcome,
    ProtocolParams,
    MAX_TRIALS,
    _evolve,
    _flip_codes,
    _outcome,
    _uniform_blocks,
)

np = lazy_import("numpy")

if TYPE_CHECKING:  # imported where a Fraction is built, which only ``honest_dice_probs`` does
    from fractions import Fraction

INCUMBENT = "incumbent"
ENTRANT = "entrant"

#: Upper bound on the party count N, wherever one is taken: a ladder
#: (``LadderSpec`` and its ``uniform`` and ``fair`` builders, so every
#: ``simulate_dice`` run, whose trials play N - 1 flips on 2 (N-1) uniforms
#: each), ``honest_dice_probs``, and the exact recursion behind
#: ``worst_case_losing_prob`` and ``bias_bound_check``. ``LadderSpec.fair``
#: solves N - 1 stages, so its time grows with N too.
MAX_PARTIES = 256


# -- honest play and composition ----------------------------------------------


def honest_dice_probs(n_parties: int) -> tuple[Fraction, ...]:
    """Exact per-party winning probabilities under all-honest play.

    Party n wins its entry stage with probability 1/n and survives each
    later entrant m with probability (m-1)/m, telescoping to 1/N.
    """
    from fractions import Fraction

    _checks.check_integer(n_parties, "party count", 2, MAX_PARTIES)
    return (Fraction(1, n_parties),) * n_parties


def worst_case_losing_prob(
    n: int, n_parties: int, biases: Sequence[float]
) -> float:
    """Party n's overall losing probability given per-stage biases.

    ``biases`` holds one excess losing probability per stage party n plays,
    ordered from its entry stage onward. The recursion is exact (rational
    arithmetic), so all-zero biases give exactly (N-1)/N.
    """
    (losing_num, losing_den), _ = _losing_recursion(n, n_parties, biases)
    return losing_num / losing_den


def _losing_recursion(n: int, n_parties: int, biases: Sequence[float]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Party n's exact overall losing probability, and its largest stage bias,
    each as a (numerator, denominator) pair of ints with a positive
    denominator, not reduced.

    Each bias is read as the exact integer ratio ``as_integer_ratio()``
    gives (a numpy integer, which has none, as itself over 1), and its
    stage's losing chance, honest loss plus bias, as an integer ratio too.
    A stage whose chance exceeds 1 is refused before a later stage's bias is
    read. ``_compose`` runs on the integer pairs, so no gcd runs at all; a
    pair's ``int / int`` is its correctly rounded float, the value
    ``float(Fraction(*pair))`` gives.
    """
    _checks.check_integer(n_parties, "party count", 2, MAX_PARTIES)
    _checks.check_integer(n, "party", 1, n_parties)
    stages = range(max(n, 2), n_parties + 1)  # the entrants party n meets, its own entry onward
    try:  # ordered and indexable: no mapping, set, iterator or scalar
        if isinstance(biases, Mapping) or not hasattr(biases, "__getitem__"):
            raise TypeError
        count = len(biases)
    except TypeError:
        raise ParameterError(f"biases must be a sequence of numbers, got {biases!r}") from None
    if count != len(stages):
        raise ParameterError(f"party {n} of {n_parties} plays {len(stages)} stages, got {count} biases")
    stage_losses = []
    largest_num, largest_den = 0, 1
    numbers = "stage biases must be numbers, got {!r}"
    for m, bias in zip(stages, biases):
        if not _checks.in_range(bias, 0, math.inf, numbers, bias) or bias == math.inf:
            raise ParameterError(f"stage biases must be finite and nonnegative, got {bias}")
        try:
            bias_num, bias_den = bias.as_integer_ratio() if hasattr(bias, "as_integer_ratio") else (index(bias), 1)
        except TypeError:
            raise ParameterError(numbers.format(bias)) from None
        honest_num, honest_den = (n - 1, n) if m == n else (1, m)
        loss_num, loss_den = honest_num * bias_den + bias_num * honest_den, honest_den * bias_den
        if not 0 <= loss_num <= loss_den:
            raise ParameterError(
                f"stage losing probability {loss_num / loss_den} outside [0, 1] "
                f"(entrant {m}, bias {bias})"
            )
        stage_losses.append((loss_num, loss_den))
        if bias_num * largest_den > largest_num * bias_den:
            largest_num, largest_den = bias_num, bias_den
    return _compose(stage_losses), (largest_num, largest_den)


def _compose(stage_losses: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Forward composition: the chance of losing some stage, given each
    stage's losing chance in play order as a (numerator, denominator) pair.

    Returns the chance as a pair too. The losing and surviving chances so
    far share one denominator, the product of the stages' denominators, so
    integer pairs compose exactly with no gcd (``_losing_recursion``). Float
    chances come as (chance, 1.0): every denominator is then 1.0, and the
    numerator goes through the float operations ``losing += surviving *
    loss; surviving *= 1 - loss`` in that order.
    """
    losing, surviving, denominator = 0, 1, 1
    for stage_num, stage_den in stage_losses:
        losing = losing * stage_den + surviving * stage_num
        surviving *= stage_den - stage_num
        denominator *= stage_den
    return losing, denominator


class BoundCheck(NamedTuple):
    epsilon: float
    bound: float
    holds: bool
    #: party n's overall losing probability, ``worst_case_losing_prob``'s value
    worst_case_losing: float


def bias_bound_check(n: int, n_parties: int, biases: Sequence[float]) -> BoundCheck:
    """Compare party n's total bias against N times the largest stage bias,
    exactly: the verdict by cross-multiplying integer pairs."""
    (losing_num, losing_den), (largest_num, largest_den) = _losing_recursion(n, n_parties, biases)
    # epsilon = losing - (N-1)/N and bound = N * largest, both over positive denominators
    epsilon_num, epsilon_den = n_parties * losing_num - (n_parties - 1) * losing_den, n_parties * losing_den
    bound_num = n_parties * largest_num
    holds = epsilon_num * largest_den <= bound_num * epsilon_den
    return BoundCheck(epsilon_num / epsilon_den, bound_num / largest_den, holds, losing_num / losing_den)


# -- fair ladders -------------------------------------------------------------


def _layout_p(m: int, case: int) -> float:
    """The responder's honest winning chance p at entrant m: in case 1 the
    incumbent prepares and the entrant responds (p = 1/m), in case 2 the
    entrant prepares and the incumbent responds (p = (m-1)/m)."""
    return 1 / m if case == 1 else (m - 1) / m


def _loss_pair(
    closed_form: Callable[[float], tuple[float, float]], p: float, case: int, eta: float
) -> tuple[float, float]:
    """The worst-case stage losses (entrant, incumbent) at (p, eta), unchecked.

    The responder loses to the preparer's optimal preparation, Alice's
    optimum a + b (``adversary.alice_optimal_value``, whose closed form at p
    is ``closed_form``), the preparer to the responder's claim-win, Bob's
    p + eta (``adversary.bob_optimal_value``). In case 1 the incumbent
    prepares, in case 2 the entrant.
    """
    a, b = closed_form(eta)
    responder, preparer = a + b, p + eta
    return (responder, preparer) if case == 1 else (preparer, responder)


def _stage_losses(m: int, case: int, eta: float) -> tuple[float, float]:
    """Worst-case stage losing probabilities (entrant, incumbent) at entrant m:
    ``_loss_pair`` once (p, eta) is checked by ``_checks.check_p_eta``, as in
    ``ProtocolParams``. A layout's p lies strictly between 0 and 1, so the
    closed form is defined for every eta it accepts.
    """
    p = _layout_p(m, case)
    _checks.check_p_eta(p, eta)
    return _loss_pair(adversary._closed_form_at(p), p, case, eta)


def _stage_residual(p: float, case: int, survivors: float) -> Callable[[float], float]:
    """The fair-ladder residual of a stage at p, as a function of eta: the
    entrant's ``_loss_pair`` loss minus ``_compose`` of the survivors' loss
    and the incumbent's, that is ``entrant - (survivors + (1 - survivors) *
    incumbent)``, with the same float operations and with the closed form
    and 1 - survivors fixed once. Unchecked: ``_fair_stages`` checks the
    bracket ends as (p, eta)."""
    closed_form, surviving = adversary._closed_form_at(p), 1.0 - survivors

    def residual(eta: float) -> float:
        entrant, incumbent = _loss_pair(closed_form, p, case, eta)
        return entrant - (survivors + surviving * incumbent)

    return residual


#: stage 3's default brackets by case, narrower than its [0, 1-p]: bisecting
#: [0, 1-p] instead moves its eta* by 2.4e-13 (case 1) or 4.9e-13 (case 2),
#: which changes the residual that the ``solve dice3-*`` reports print
_THREE_SIDED_BRACKETS = {1: (0.10, 0.20), 2: (0.15, 0.25)}


class _FairStage(NamedTuple):
    """One solved stage: its flip, the entrant's and the incumbent's
    worst-case stage losses there, and the gap its eta leaves between the
    entrant's loss and the composed loss of the parties already in."""

    stage: StageParams
    entrant: float
    incumbent: float
    residual: float


#: Fair solves kept by ``_solved_fair_stages``, one per checked (N, case,
#: bracket). A solve holds, per stage, a ``_FairStage`` of three floats and
#: its ``StageParams``: about 80 KB for the widest ladder, so a full cache
#: stays under 6 MB.
_FAIR_CACHE_SIZE = 64


def _fair_stages(n_parties: int, case: int, bracket: tuple[float, float] | None = None) -> tuple[_FairStage, ...]:
    """Solve entrants 2..N of a fair ladder, one stage at a time, once per
    process for each checked argument tuple (``_solved_fair_stages``).

    Every argument is checked before the cached solve, so a refused one is
    never cached. ``bracket`` replaces the last stage's interval; it is
    refused as ``find_root`` refuses it, and its ends are checked as (p,
    eta) at that stage (the default intervals lie in [0, 1-p]). Equal
    arguments of other types, as ``np.int64(1)`` for 1, share one solve: the
    solve reads its arguments only by value, in comparisons, ``range`` and
    ``find_root``, which takes the bracket's ends as floats.
    """
    try:
        _checks.check_integer(case, "case", 1, 2)
    except ParameterError:
        raise ParameterError(f"case must be 1 or 2, got {case}") from None
    if bracket is not None:
        bracket = _checks.check_bracket(bracket)
        for end in bracket:
            _checks.check_p_eta(_layout_p(n_parties, case), end)  # stage 2's p is 1/2 in either layout
    return _solved_fair_stages(n_parties, case, bracket)


@lru_cache(maxsize=_FAIR_CACHE_SIZE)
def _solved_fair_stages(n_parties: int, case: int, bracket: tuple[float, float] | None) -> tuple[_FairStage, ...]:
    """The fair ladder's stages for arguments that ``_fair_stages`` checked.

    Before stage 2 no party is in, so the survivors' loss starts at 0.
    Stage m picks eta with one ``find_root`` on ``_stage_residual``, the
    entrant's worst-case loss minus the ``_compose`` of the survivors' and
    the incumbent's loss, built once at the stage's p so that a bisection
    step is one call of the ``_loss_pair`` rule; the entrant's loss at the
    root, from the checked ``_stage_losses``, is the next survivors' loss.
    Stage 2, the balanced coin, is the same flip in either layout and is
    played in layout 1, the incumbent preparing. Stages search [0, 1-p],
    stage 3 its case's narrower default, the last stage ``bracket`` when one
    is given.
    The value is shared by every caller: a tuple of NamedTuples of floats
    and immutable records.
    """
    survivors = 0.0
    stages = []
    for m in range(2, n_parties + 1):
        layout = 1 if m == 2 else case
        p = _layout_p(m, layout)
        if bracket is not None and m == n_parties:
            stage_bracket = bracket
        else:
            stage_bracket = _THREE_SIDED_BRACKETS[case] if m == 3 else (0.0, 1.0 - p)
        residual = _stage_residual(p, layout, survivors)
        eta = find_root(residual, stage_bracket)
        entrant, incumbent = _stage_losses(m, layout, eta)
        stage = StageParams(m, ProtocolParams(p, eta), INCUMBENT if layout == 1 else ENTRANT)
        stages.append(_FairStage(stage, entrant, incumbent, abs(residual(eta))))
        survivors = entrant
    return tuple(stages)


class FairLadder(Record):
    """A fair ladder solved for any N: its stages from the balanced coin on
    (``_fair_stages``), with every party's worst-case losing chance and the
    bias bound check built from each party's own stage biases."""

    __slots__ = (
        "stages",
        "worst_case_losing",  # each party's worst-case losing chance, party 1 first
        "epsilon",            # the largest of them minus the honest (N-1)/N
        "bound",              # N times the largest stage bias that any party plays
        "bound_holds",        # whether every party's bias is at most N times its own largest stage bias
    )


def _fair_ladder(stages: tuple[_FairStage, ...]) -> FairLadder:
    """The ``FairLadder`` of solved stages. A party loses its entry stage as
    the entrant (party 1 the coin, as its incumbent), then each later stage
    as the incumbent; ``_compose`` composes those losses. A stage bias is a
    loss minus the honest one, (m-1)/m for entrant m and 1/m for its
    incumbent. The loop takes the parties from the last entrant back, so a
    party's later stages are the ones it has already passed."""
    n_parties = len(stages) + 1
    worst, largest, later_losses, later_biases = [], [], [], []
    for solved in reversed(stages):
        m = solved.stage.entrant
        worst.append(_compose([(solved.entrant, 1.0), *later_losses])[0])
        largest.append(max([solved.entrant - (m - 1) / m, *later_biases]))
        later_losses.insert(0, (solved.incumbent, 1.0))
        later_biases.append(solved.incumbent - 1 / m)
    worst.append(_compose(later_losses)[0])  # party 1
    largest.append(max(later_biases))
    honest = (n_parties - 1) / n_parties
    return FairLadder(
        stages,
        tuple(reversed(worst)),
        max(worst) - honest,
        n_parties * max(largest),
        all(losing - honest <= n_parties * bias for losing, bias in zip(worst, largest)),
    )


def solve_balanced(bracket: tuple[float, float] | None = None) -> FairLadder:
    """The fair two-party ladder: its one stage, the balanced coin (p = 1/2),
    has the eta that equalizes Alice's and Bob's cheat values. ``bracket``
    replaces its default [0, 1/2]. The stage is solved once per bracket in
    a process (``_fair_stages``' cache); each call builds a new ``FairLadder``."""
    return _fair_ladder(_fair_stages(2, 1, bracket))


def optimize_three_sided(case: int, bracket: tuple[float, float] | None = None) -> FairLadder:
    """The fair three-party ladder, the six-round three-sided protocol:
    stage 3's eta equalizes all three parties' worst-case losing chances
    (see ``_fair_stages``; ``bracket`` replaces stage 3's). The stages are
    solved once per (case, bracket) in a process (``_fair_stages``' cache);
    each call builds a new ``FairLadder``."""
    return _fair_ladder(_fair_stages(3, case, bracket))


# -- concrete ladders and Monte Carlo ------------------------------------------


class StageParams(Record, defaults={"preparer": INCUMBENT}):
    """One ladder stage: who prepares, and the flip parameters.

    The entrant's honest winning chance must equal 1/entrant, which ties
    p to the preparer role: entrant preparing means 1-p = 1/entrant,
    incumbent preparing means p = 1/entrant.
    """

    __slots__ = ("entrant", "params", "preparer")

    def __post_init__(self) -> None:
        _checks.check_type(self.params, ProtocolParams, "params")
        _checks.check_integer(self.entrant, "entrant index")
        if self.entrant < 2:
            raise ParameterError(f"entrant index must be >= 2, got {self.entrant}")
        if not isinstance(self.preparer, str) or self.preparer not in (INCUMBENT, ENTRANT):
            raise ParameterError(f"preparer must be incumbent or entrant, got {self.preparer!r}")
        expected = 1.0 / self.entrant
        actual = 1.0 - self.params.p if self.preparer == ENTRANT else self.params.p
        if abs(actual - expected) > 1e-9:
            raise ParameterError(
                f"entrant {self.entrant} must win with probability {expected}, "
                f"stage params give {actual}"
            )


class LadderSpec(Record):
    """An N-party ladder: one ``StageParams`` per entrant 2..N, in order,
    stored as a tuple so a spec built from a list is hashable too."""

    __slots__ = ("n_parties", "stages")

    def __post_init__(self) -> None:
        _checks.check_integer(self.n_parties, "party count", 2, MAX_PARTIES)
        object.__setattr__(self, "stages", _checks.check_items(self.stages, StageParams, "stages"))
        expected = tuple(range(2, self.n_parties + 1))
        if tuple(s.entrant for s in self.stages) != expected:
            raise ParameterError(f"stages must cover entrants {expected} in order")

    @classmethod
    def uniform(cls, n_parties: int, eta: float = 0.0) -> "LadderSpec":
        """Leader-prepares ladder with a common eta at every stage."""
        _checks.check_integer(n_parties, "party count", 2, MAX_PARTIES)
        stages = tuple(
            StageParams(m, ProtocolParams(1.0 / m, eta), INCUMBENT)
            for m in range(2, n_parties + 1)
        )
        return cls(n_parties, stages)

    @classmethod
    def fair(cls, n_parties: int, case: int = 1) -> "LadderSpec":
        """The fair N-party ladder: every stage, the balanced coin of entrant
        2 included, as ``_fair_stages`` solves it for the layout (case 1, the
        incumbent prepares; case 2, the entrant prepares), once per (N, case)
        in a process: a later call reads the cached stages."""
        _checks.check_integer(n_parties, "party count", 2, MAX_PARTIES)
        return cls(n_parties, tuple(solved.stage for solved in _fair_stages(n_parties, case)))

    @classmethod
    def three_sided(cls, case: int = 1) -> "LadderSpec":
        """The fair six-round three-sided ladder, ``fair(3, case)``."""
        return cls.fair(3, case)


class Coalition(Record):
    """All parties but one collude against ``honest_party``; at every stage
    the coalition plays its optimal cheat (see ``_stage_play``)."""

    __slots__ = ("honest_party",)


def _stage_roles(stage: StageParams, incumbent: int) -> tuple[int, int]:
    """(preparer party, responder party) for a stage with this incumbent."""
    if stage.preparer == INCUMBENT:
        return incumbent, stage.entrant
    return stage.entrant, incumbent


class _Play(NamedTuple):
    """A stage strategy with its abort rule: whether the preparer advances, by
    outcome code (Alice wins, Bob wins, final-state abort, first-qubit abort).
    A caught cheater loses; in an all-honest flip the audited party loses."""

    cheat: CheatSpec
    preparer_wins: tuple[bool, bool, bool, bool]


_HONEST = _Play(Honest(), (True, False, False, True))
_CLAIM_WIN = _Play(BobClaimWin(), (True, False, True, True))


def _stage_play(stage: StageParams, coalition: Coalition | None, honest_incumbent: bool) -> _Play:
    """The play at a stage, as the honest party is its incumbent or not.

    Against a preparing honest party the coalition claims a win, against a
    responding one it plays the optimal tilt delta*; a flip without the
    honest party (or without a coalition) is played honestly.
    """
    if coalition is None or not (honest_incumbent or coalition.honest_party == stage.entrant):
        return _HONEST
    if honest_incumbent == (stage.preparer == INCUMBENT):
        return _CLAIM_WIN
    return _Play(AliceDelta(adversary.alice_optimal_value(stage.params).optimizer), (True, False, False, False))


def expected_coalition_losing(spec: LadderSpec, coalition: Coalition) -> float:
    """Analytic losing probability of the honest party under the coalition's
    stage strategies (forward composition of per-stage losing chances)."""
    _checks.check_type(spec, LadderSpec, "spec")
    _checks.check_type(coalition, Coalition, "coalition")
    _checks.check_integer(coalition.honest_party, "party", 1, spec.n_parties)
    honest = coalition.honest_party
    stage_losses = []
    for stage in spec.stages[max(honest, 2) - 2:]:  # the honest party's entry stage onward
        play = _stage_play(stage, coalition, honest < stage.entrant)
        stage_losses.append((adversary.cheater_win_prob(stage.params, play.cheat), 1.0))
    return _compose(stage_losses)[0]


class StageRun(NamedTuple):
    """One stage of one ladder trial, with the transcript of its flip."""

    entrant: int
    preparer: int
    responder: int
    winner: int    # the party that goes on as incumbent
    outcome: Outcome

    def to_dict(self) -> dict:
        return {
            "entrant": self.entrant,
            "preparer": self.preparer,
            "responder": self.responder,
            "winner": self.winner,
            "transcript": self.outcome.transcript.to_dict(),
        }


class DiceReport(Record):
    """Monte Carlo tallies of one ladder run with its (spec, coalition,
    seed), and trial 0's outcome codes as the sampler drew them, one per
    stage, from which ``first_trial`` is replayed when first read."""

    #: ``run`` is a (LadderSpec, Coalition or None, int seed) tuple,
    #: ``trial_zero`` a tuple of int outcome codes, one per stage, and
    #: ``__dict__`` holds ``first_trial``
    __slots__ = ("n_parties", "trials", "win_counts", "stage_aborts", "run", "trial_zero", "__dict__")

    @cached_property
    def first_trial(self) -> tuple[StageRun, ...]:
        """Trial 0, one ``StageRun`` per stage, replayed from its outcome
        codes when first read: at each stage the play of the row's group
        in ``_ladder_plan``, the honest party's where it is the incumbent,
        and the entrant takes over where the play's ``preparer_wins`` XOR
        "the incumbent prepares" holds, the rule behind ``takes_over``."""
        spec, coalition, _ = self.run
        plan = _ladder_plan(spec, coalition)  # cached; rebuilt identically if evicted
        honest = None if coalition is None else coalition.honest_party
        runs = []
        incumbent = 1
        for k, (stage, code) in enumerate(zip(spec.stages, self.trial_zero)):
            group = incumbent == honest  # True, group 1, only where the honest party is the incumbent
            preparer, responder = _stage_roles(stage, incumbent)
            play = plan.plays[group][k]
            if play.preparer_wins[code] != (stage.preparer == INCUMBENT):
                incumbent = stage.entrant
            runs.append(StageRun(stage.entrant, preparer, responder, incumbent, _outcome(stage.params, play.cheat, code)))
        return tuple(runs)

    def frequencies(self) -> tuple[float, ...]:
        return tuple(c / self.trials for c in self.win_counts)

    def to_dict(self) -> dict:
        """The Monte Carlo section of a report, keyed by party number."""
        freqs = self.frequencies()
        return {
            "trials": self.trials,
            "seed": self.run[2],
            "counts": {str(i + 1): c for i, c in enumerate(self.win_counts)},
            "frequencies": {str(i + 1): f for i, f in enumerate(freqs)},
            "standard_errors": {str(i + 1): (f * (1 - f) / self.trials) ** 0.5 for i, f in enumerate(freqs)},
            "stage_aborts": self.stage_aborts,
            "first_transcript": [run.to_dict() for run in self.first_trial],
        }


#: Ladder plans kept by ``_ladder_plan``. A plan holds, per stage and group,
#: three float chances and a takeover row of four bools in its arrays, and
#: the stage's ``_Play`` in ``plays``: about 50 KB for the widest ladder (N =
#: 256, case 2, honest party 1, whose tilts are a new play at every stage),
#: so a full cache stays under 3.2 MB.
_PLAN_CACHE_SIZE = 64


class _Plan(NamedTuple):
    """A ladder's plays, stacked over a leading group axis and every stage.
    Group 0 holds the plays of the rows whose incumbent is not the honest
    party. Group 1, present only when the honest party is not the last
    entrant, holds those of the rows whose incumbent is the honest party
    from ``honest_from``, the first stage at which it can be one, and group
    0's plays before it, where no row reads them. ``plays`` keeps each
    group's ``_Play``s, one tuple per group, for trial 0's replay. The
    sampler reads them as their branch chances, (groups, 1, stages) arrays
    that ``_flip_codes`` broadcasts against a chunk's (rows, stages) draws,
    and as their takeover rows: by outcome code, whether the entrant goes on
    as incumbent, the play's ``preparer_wins`` XOR "the incumbent prepares",
    a (groups, stages, 4) bool array. The arrays are read-only, since plans
    are shared through the cache."""

    honest_from: int
    bob_win_prob: np.ndarray
    first_qubit_pass: np.ndarray
    final_state_pass: np.ndarray
    takes_over: np.ndarray
    plays: tuple[tuple[_Play, ...], ...]


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _ladder_plan(spec: LadderSpec, coalition: Coalition | None) -> _Plan:
    """The play table of a ladder, resolved once per (spec, coalition), as
    one ``_Plan``: the plays of the rows away from the honest party at every
    stage, and, with a coalition whose honest party is not the last entrant,
    those of the rows whose incumbent is the honest party from the stage
    after its entry on. Each stage's play comes from ``_stage_play`` and its
    branch probabilities from ``_evolve``; the plan keeps the plays, only
    the floats of their evolutions, and their takeover rows. It holds no
    ``_Evolution`` alive."""
    stages = spec.stages
    groups = [tuple(_stage_play(stage, coalition, False) for stage in stages)]
    # stage k has entrant k + 2, so the honest party is an incumbent from stage honest_party - 1 on
    honest_from = len(stages)
    if coalition is not None and coalition.honest_party < spec.n_parties:
        honest_from = coalition.honest_party - 1
        plays = tuple(_stage_play(stage, coalition, True) for stage in stages[honest_from:])
        groups.append(groups[0][:honest_from] + plays)
    evolutions = [[_evolve(stage.params, play.cheat) for stage, play in zip(stages, plays)] for plays in groups]
    arrays = [
        np.array([[getattr(evolution, name) for evolution in row] for row in evolutions], dtype=float)[:, None]
        for name in ("bob_win_prob", "first_qubit_pass", "final_state_pass")
    ]
    incumbent_prepares = np.array([stage.preparer == INCUMBENT for stage in stages])
    arrays.append(np.array([[play.preparer_wins for play in plays] for plays in groups]) ^ incumbent_prepares[:, None])
    for array in arrays:
        array.setflags(write=False)
    return _Plan(honest_from, *arrays, tuple(groups))


def simulate_dice(
    spec: LadderSpec,
    trials: int,
    seed: int,
    coalition: Coalition | None = None,
) -> DiceReport:
    """Monte Carlo over the whole ladder, one flip per stage per trial.

    Trial t reads row t % TRIAL_BLOCK of ``trial_rng(seed, t // TRIAL_BLOCK)``,
    two uniforms per stage in play order. The plays come from
    ``_ladder_plan``, resolved once per (spec, coalition). Per chunk of
    draws (``wcf._uniform_blocks``), viewed as (rows, stages, 2), one
    ``wcf._flip_codes`` call decides every stage's flip for both groups of
    the plan at once: as the rows away from the honest party play it, and
    as the honest incumbent's rows play it. The incumbents are one array,
    party 1 in every row at first. At each stage, one lookup in the stage's
    takeover row gives the rows whose entrant takes over; from the honest
    party's entry on, wherever it is the incumbent, the honest group's code
    and takeover replace the other's (``np.copyto`` on those rows). The
    entrant is then written in place into the rows it takes. Trial 0's
    codes are read back from row 0 of the first chunk and kept as they are;
    ``DiceReport.first_trial`` replays them through the plan's plays, and
    renders their transcripts, only when it is first read.
    """
    _checks.check_integer(trials, "trial count", 1, MAX_TRIALS)
    _checks.check_seed(seed)
    _checks.check_type(spec, LadderSpec, "spec")
    honest = None
    if coalition is not None:
        _checks.check_type(coalition, Coalition, "coalition")
        _checks.check_integer(coalition.honest_party, "party", 1, spec.n_parties)
        honest = coalition.honest_party
    plan = _ladder_plan(spec, coalition)
    n_stages = len(spec.stages)
    elsewhere = plan.takes_over[0]
    first_codes, stage_aborts = None, 0
    for draws in _uniform_blocks(seed, trials, DRAWS_PER_FLIP * n_stages):
        codes = _flip_codes(plan, draws.reshape(len(draws), n_stages, DRAWS_PER_FLIP))
        del draws  # free this chunk before the next one is drawn
        played = codes[0]  # each row's codes as its incumbents play them, once the honest group's are in
        incumbent = np.ones(len(played), dtype=np.int64)
        for k, stage in enumerate(spec.stages):
            code = played[:, k]
            takes_over = elsewhere[k].take(code)
            if k >= plan.honest_from:
                rows = incumbent == honest
                np.copyto(code, codes[1, :, k], where=rows)
                np.copyto(takes_over, plan.takes_over[1, k].take(code), where=rows)
            incumbent[takes_over] = stage.entrant
        wins_here = np.bincount(incumbent, minlength=spec.n_parties + 1)
        if first_codes is None:
            first_codes, wins = tuple(played[0].tolist()), wins_here
        else:
            wins += wins_here
        stage_aborts += int(np.count_nonzero(played >= FINAL_STATE_ABORT))
    return DiceReport(
        n_parties=spec.n_parties,
        trials=trials,
        win_counts=tuple(wins[1:].tolist()),
        stage_aborts=stage_aborts,
        run=(spec, coalition, seed),
        trial_zero=first_codes,
    )
