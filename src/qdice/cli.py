"""Command-line front end.

Subcommands: ``simulate`` (Monte Carlo over one flip or a dice ladder),
``cheat`` (closed-form and brute-force cheat values), ``solve`` (fairness
optimizations) and ``bound-check`` (ladder bias composition). Every command
emits one structured report with the top-level keys
{version, inputs, analytic, monte_carlo, bounds}; sections that do not
apply are null. Reports are deterministic for a fixed configuration and
seed. Exit codes: 0 success, 1 I/O error, 2 validation error, 3
solver/bracketing error.

Each command has its own argparse parser under the top-level ``qdice``
parser (``build_parser``), which declares every flag. A plain argv, a
command name followed by exact option strings, one value each that does
not start with "-", and the command's positionals, is read by a walk over
a table built once from that command parser's own actions; it gives the
namespace argparse would, at a fifth to a half of the cost. Any other argv
goes through the full parser, so argparse stays the reference and writes
every help, usage and error message itself (``_parse``).

A JSON report is written in one walk over the report tree, and its bytes
equal ``json.dumps(rounded, indent=2, sort_keys=True) + "\\n"``, where
``rounded`` is the report with every float at 7 significant digits
(``_SIGNIFICANT``, the rule CSV reports read too). ``json.dumps`` with an
indent runs the pure-Python encoder, which the walk replaces. The walk
picks each node's branch by its exact type, and a subclass's by its base.
"""
from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Sequence

from . import __version__, adversary, dicer
from . import _checks
from .errors import BracketError, ParameterError, QdiceError
from .wcf import (
    AliceDelta,
    AliceGeneral,
    BobClaimWin,
    CheatSpec,
    Honest,
    ProtocolParams,
    honest_win_prob,
    run_trials,
)

CHEAT_CHOICES = ("honest", "alice-delta", "alice-general", "bob-claim-win")
SOLVE_TARGETS = ("balanced", "dice3-case1", "dice3-case2")

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _parse_complex_list(text: str) -> tuple[complex, ...]:
    try:
        return tuple(complex(part) for part in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"cannot parse complex list {text!r}: {exc}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"cannot parse number list {text!r}: {exc}")
    if not all(math.isfinite(v) for v in values):
        raise ParameterError(f"number list {text!r} holds a non-finite value")
    return values


#: options that take a comma-separated number list, which may start with "-"
_LIST_FLAGS = ("--alphas", "--biases", "--bracket")


def _attach_list_values(argv: Sequence[str]) -> list[str]:
    """Join each list flag to a following value that starts with a minus
    sign (``--alphas -0.5,...`` -> ``--alphas=-0.5,...``), which argparse
    would otherwise take for a flag; a following long option stays one. A
    list flag is one of ``_LIST_FLAGS`` or, as argparse reads it, a unique
    prefix of one among the options of the command ``argv[0]`` names."""
    commands = _command_parsers()
    options = _action_table(commands[argv[0]])[0] if argv and argv[0] in commands else {}
    out: list[str] = []
    for token in argv:
        if token.startswith("-") and not token.startswith("--") and out and _full_option(out[-1], options) in _LIST_FLAGS:
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _full_option(token: str, options: dict) -> str:
    """The option string argparse reads ``token`` as: the one option of
    ``options`` it abbreviates or equals, else ``token`` itself."""
    matches = [option for option in options if option.startswith(token)] if token.startswith("--") else []
    return matches[0] if len(matches) == 1 else token


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qdice`` argument parser, built on first use and shared by every
    later call in the process, since building it costs about 20 times what
    parsing one argv does. Parsing never mutates it: each call's state lives
    in the ``Namespace`` it returns, so callers must not change the parser."""
    parser = argparse.ArgumentParser(
        prog="qdice",
        description="Weak imbalanced coin flipping and N-sided dice rolling toolkit",
    )
    parser.add_argument("--version", action="version", version=f"qdice {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv"))
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
        p.add_argument("--config", metavar="PATH", help="JSON file with defaults for any flag")

    sim = sub.add_parser("simulate", help="Monte Carlo protocol runs")
    sim.add_argument("--p", type=float, help="responder's honest winning probability")
    sim.add_argument("--eta", type=float, help="protocol security parameter")
    sim.add_argument("--cheat", choices=CHEAT_CHOICES)
    sim.add_argument("--delta", type=float, help="tilt for --cheat alice-delta")
    sim.add_argument("--alphas", help="comma-separated uu,ud,du,dd amplitudes for alice-general")
    sim.add_argument("--dice", type=int, metavar="N", help="simulate the N-party ladder instead")
    sim.add_argument("--honest", action="store_true", help="all ladder parties play honestly")
    sim.add_argument("--honest-party", type=int, help="sole honest party; the rest collude")
    sim.add_argument("--case", type=int, choices=(1, 2),
                     help="ladder layout for --dice N >= 3: 1 the incumbent prepares, 2 the entrant prepares")
    sim.add_argument("--trials", type=int)
    sim.add_argument("--seed", type=int)
    add_common(sim)

    cheat = sub.add_parser("cheat", help="optimal cheating probabilities")
    cheat.add_argument("--p", type=float)
    cheat.add_argument("--eta", type=float)
    cheat.add_argument("--grid", type=int, help="delta grid points for the oracle")
    cheat.add_argument("--samples", type=int, help="random preparations for the oracle")
    cheat.add_argument("--ancilla-dim", type=int, choices=(1, 2))
    cheat.add_argument("--seed", type=int)
    add_common(cheat)

    solve = sub.add_parser("solve", help="fairness optimizations")
    solve.add_argument("target", choices=SOLVE_TARGETS)
    solve.add_argument("--bracket", help="lo,hi eta bracket of the solved stage: stage 2 (the coin) for balanced, stage 3 for dice3-*")
    add_common(solve)

    bound = sub.add_parser("bound-check", help="ladder bias composition bound")
    bound.add_argument("--dice", type=int, metavar="N")
    bound.add_argument("--party", type=int)
    bound.add_argument("--biases", help="comma-separated per-stage biases")
    add_common(bound)

    return parser


@functools.cache
def _command_parsers() -> dict[str, argparse.ArgumentParser]:
    """Each command's own parser by name, as ``build_parser`` built it."""
    (commands,) = build_parser()._get_positional_actions()
    return commands.choices


@functools.cache
def _action_table(command: argparse.ArgumentParser) -> tuple[dict, dict]:
    """What ``_walk``, ``_attach_list_values`` and ``_apply_config`` read of
    a command parser's actions, built once per process: the action of each
    option string (None where the walk leaves the flag to argparse, as for
    ``--help``), and by dest the actions whose defaults argparse starts a
    namespace from, positionals among them in order."""
    walkable = (argparse._StoreAction, argparse._StoreTrueAction)
    options = {s: a if type(a) in walkable else None for a in command._actions for s in a.option_strings}
    dests = {a.dest: a for a in command._actions if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS}
    return options, dests


def _parse(argv: list[str]) -> tuple[argparse.Namespace, argparse.ArgumentParser]:
    """``build_parser().parse_args(argv)``, and the parser of the command it
    names.

    A plain argv, a command name followed only by exact option strings, one
    value each that does not start with "-", and the command's positionals,
    is read by a walk over the command's action table (``_walk``), at a
    fifth to a half of argparse's cost. Every other argv goes through the
    full parser, which writes argparse's own help, usage line and message
    and exits as it always has: no argv, an unknown command, ``-h``, ``--``,
    abbreviations, ``--flag=value``, values that start with "-", missing or
    extra values, and values that fail their type or choices."""
    commands = _command_parsers()
    walked = _walk(commands[argv[0]], argv) if argv and argv[0] in commands else None
    args = walked or build_parser().parse_args(argv)  # a namespace is never false
    return args, commands[args.command]


def _walk(command: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse returns for a plain argv of ``command``
    (``_parse``), each value converted by its action's ``type`` and checked
    against its ``choices`` on top of the defaults; None for any other argv."""
    options, dests = _action_table(command)
    args = argparse.Namespace(command=argv[0], **{dest: action.default for dest, action in dests.items()})
    pending = [action for action in dests.values() if not action.option_strings]
    tokens = iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None:
            if token.startswith("-") or not pending:
                return None
            action, text = pending.pop(0), token
        elif action.nargs == 0:  # a store_true flag, whose const has no type or choices
            text = action.const
        elif (text := next(tokens, "-")).startswith("-"):  # a missing value reads as a flag
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        setattr(args, action.dest, value)
    return None if pending else args


#: hard defaults, filled in only after an optional config file was applied so
#: that config values beat defaults while explicit flags beat both
_DEFAULTS = {
    "format": "json",
    "cheat": "honest",
    "case": 1,
    "trials": 10_000,
    "seed": 0,
    "grid": 10_000,
    "samples": 2_000,
    "ancilla_dim": 1,
}


#: JSON types a config value may take, by the argparse ``type`` of its flag
_CONFIG_TYPES = {int: (int,), float: (int, float), None: (str,)}


def _check_config_value(key: str, action: argparse.Action, value) -> None:
    """Refuse a config value its flag could not have produced."""
    expected = (bool,) if action.nargs == 0 else _CONFIG_TYPES[action.type]
    # json.load builds no subclasses, so an exact type test keeps true/false from passing for a number
    if type(value) not in expected:
        names = "/".join(t.__name__ for t in expected)
        raise ParameterError(f"config key {key!r} must be {names}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ParameterError(f"config key {key!r} must be one of {list(action.choices)}, got {value!r}")


def _apply_config(args: argparse.Namespace, command: argparse.ArgumentParser) -> None:
    """Fill ``args`` from its ``--config`` file, where a flag left a value
    unset, then from ``_DEFAULTS``; ``command`` is the parser of
    ``args.command``, whose actions type-check the file's values. A key that
    could not take effect is refused: one naming a positional, which argv
    always sets, or a flag that another key already named in its other
    spelling (``honest-party`` and ``honest_party``)."""
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as handle:
            try:
                overrides = json.load(handle)
            except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
                raise ParameterError(f"config file {args.config!r} is not valid UTF-8 JSON: {exc}")
        if not isinstance(overrides, dict):
            raise ParameterError("config file must hold a JSON object")
        actions = _action_table(command)[1]
        keys = {}  # attr -> the key that named it
        for key, value in overrides.items():
            attr = key.replace("-", "_")
            if attr == "config":
                raise ParameterError("a config file cannot name another config file")
            if attr not in actions:
                raise ParameterError(f"unknown config key {key!r}")
            if not actions[attr].option_strings:
                raise ParameterError(f"config key {key!r} names a positional argument, which only the command line sets")
            if attr in keys:
                raise ParameterError(f"config keys {keys[attr]!r} and {key!r} name the same flag")
            keys[attr] = key
            _check_config_value(key, actions[attr], value)
            if getattr(args, attr) is None or getattr(args, attr) is False:
                setattr(args, attr, value)
    if args.command == "simulate":
        _refuse_ignored_flags(args)  # before the defaults, which would hide an unset --case
    for attr, value in _DEFAULTS.items():
        if getattr(args, attr, None) is None and hasattr(args, attr):
            setattr(args, attr, value)
    _checks.check_seed(getattr(args, "seed", 0))


def _refuse_ignored_flags(args: argparse.Namespace) -> None:
    """Refuse simulate settings, from flags or a config file, that the
    chosen run would not use."""
    if args.dice is None:
        for name in ("honest", "honest_party", "case"):
            if getattr(args, name) not in (None, False):
                raise ParameterError(f"--{name.replace('_', '-')} applies only to a --dice ladder")
    else:
        for name in ("p", "eta", "cheat"):
            if getattr(args, name) is not None:
                raise ParameterError(f"--{name} applies only to a single flip, not a --dice ladder")
        if args.honest and args.honest_party is not None:
            raise ParameterError("--honest and --honest-party are mutually exclusive")
        if args.dice == 2 and args.case is not None:
            raise ParameterError("--case has no effect with --dice 2: both layouts are the same balanced coin")
    if args.delta is not None and args.cheat != "alice-delta":
        raise ParameterError("--delta applies only to --cheat alice-delta")
    if args.alphas is not None and args.cheat != "alice-general":
        raise ParameterError("--alphas applies only to --cheat alice-general")


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ParameterError(f"--{name.replace('_', '-')} is required (flag or config file)")


def _base_report(inputs: dict) -> dict:
    return {
        "version": f"qdice {__version__}",
        "inputs": inputs,
        "analytic": None,
        "monte_carlo": None,
        "bounds": None,
    }


def _cheat_spec(args: argparse.Namespace) -> CheatSpec:
    if args.cheat == "honest":
        return Honest()
    if args.cheat == "bob-claim-win":
        return BobClaimWin()
    if args.cheat == "alice-delta":
        if args.delta is None:
            raise ParameterError("--cheat alice-delta requires --delta")
        return AliceDelta(args.delta)
    if args.alphas is None:
        raise ParameterError("--cheat alice-general requires --alphas uu,ud,du,dd")
    return AliceGeneral(_parse_complex_list(args.alphas))


def _cmd_simulate_flip(args: argparse.Namespace) -> dict:
    if args.p is None or args.eta is None:
        raise ParameterError("simulate needs --p and --eta (or --dice N)")
    params = ProtocolParams(args.p, args.eta)
    cheat = _cheat_spec(args)
    stats = run_trials(params, cheat, args.trials, args.seed)
    report = _base_report(
        {
            "command": "simulate",
            "p": params.p,
            "eta": params.eta,
            "cheat": cheat.name,
            "delta": getattr(cheat, "delta", None),
            "alphas": args.alphas,
            "trials": args.trials,
            "seed": args.seed,
        }
    )
    report["analytic"] = {
        "honest_alice": honest_win_prob(params),
        "honest_bob": params.p,
        "cheater_win": adversary.cheater_win_prob(params, cheat),
    }
    report["monte_carlo"] = stats.to_dict()
    return report


def _cmd_simulate_dice(args: argparse.Namespace) -> dict:
    n = args.dice
    spec = dicer.LadderSpec.fair(n, case=args.case)
    coalition = None if args.honest_party is None else dicer.Coalition(honest_party=args.honest_party)
    report_obj = dicer.simulate_dice(spec, args.trials, args.seed, coalition=coalition)
    report = _base_report(
        {
            "command": "simulate",
            "dice": n,
            "case": args.case if n > 2 else None,
            "honest_party": args.honest_party,
            "trials": args.trials,
            "seed": args.seed,
        }
    )
    analytic: dict = {"honest_probs": [float(f) for f in dicer.honest_dice_probs(n)]}
    if coalition is not None:
        analytic["expected_honest_losing"] = dicer.expected_coalition_losing(spec, coalition)
    report["analytic"] = analytic
    report["monte_carlo"] = report_obj.to_dict()
    return report


def _cmd_cheat(args: argparse.Namespace) -> dict:
    _require(args, "p", "eta")
    params = ProtocolParams(args.p, args.eta)
    closed = adversary.alice_optimal_value(params)
    oracle = adversary.brute_force_alice(
        params,
        grid_points=args.grid,
        ancilla_dim=args.ancilla_dim,
        random_samples=args.samples,
        seed=args.seed,
    )
    report = _base_report(
        {
            "command": "cheat",
            "p": params.p,
            "eta": params.eta,
            "grid": args.grid,
            "samples": args.samples,
            "ancilla_dim": args.ancilla_dim,
            "seed": args.seed,
        }
    )
    report["analytic"] = {
        "honest_alice": honest_win_prob(params),
        "honest_bob": params.p,
        "alice_optimal": closed.value,
        "alice_delta_star": closed.optimizer,
        "alice_brute_force": oracle.value,
        "bob_optimal": adversary.bob_optimal_value(params).value,
    }
    return report


def _cmd_solve(args: argparse.Namespace) -> dict:
    bracket = None
    if args.bracket:
        parts = _parse_float_list(args.bracket)
        if len(parts) != 2:
            raise ParameterError("--bracket expects lo,hi")
        bracket = (parts[0], parts[1])
    report = _base_report({"command": "solve", "target": args.target, "bracket": list(bracket) if bracket else None})
    if args.target == "balanced":
        ladder = dicer.solve_balanced(bracket)
        # each player's optimal cheat wins what the other, playing honestly, loses at worst
        bob_optimal, alice_optimal = ladder.worst_case_losing
        analytic = {"alice_optimal": alice_optimal, "bob_optimal": bob_optimal}
    else:
        ladder = dicer.optimize_three_sided(1 if args.target.endswith("case1") else 2, bracket=bracket)
        analytic = {"worst_case": max(ladder.worst_case_losing), "per_party_losing": list(ladder.worst_case_losing)}
        report["bounds"] = {"epsilon": ladder.epsilon, "bound": ladder.bound, "holds": ladder.bound_holds}
    last = ladder.stages[-1]
    analytic.update(eta_star=last.stage.params.eta, bias=ladder.epsilon, residual=last.residual)
    report["analytic"] = analytic
    return report


def _cmd_bound_check(args: argparse.Namespace) -> dict:
    _require(args, "dice", "party", "biases")
    biases = _parse_float_list(args.biases)
    check = dicer.bias_bound_check(args.party, args.dice, biases)
    report = _base_report(
        {
            "command": "bound-check",
            "dice": args.dice,
            "party": args.party,
            "biases": list(biases),
        }
    )
    report["analytic"] = {"worst_case_losing": check.worst_case_losing}
    report["bounds"] = {"epsilon": check.epsilon, "bound": check.bound, "holds": check.holds}
    return report


#: the one rounding rule of report floats, in JSON and CSV alike: 7 significant digits
_SIGNIFICANT = ".7g"


def _rounded(value: float) -> float:
    """``value`` at ``_SIGNIFICANT`` digits (nan and infinities pass through unchanged)."""
    return float(f"{value:{_SIGNIFICANT}}")


def _render_csv(report: dict) -> str:
    import csv

    mc = report.get("monte_carlo")
    if not mc:
        raise ParameterError("csv output is only available for reports with a Monte Carlo section")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["outcome", "count", "frequency", "standard_error"])
    # party numbers in numeric order; the flip's outcomes read abort, alice, bob
    for key in sorted(mc["counts"], key=lambda key: int(key) if key.isdigit() else key):
        writer.writerow(
            [key, mc["counts"][key], _rounded(mc["frequencies"][key]), _rounded(mc["standard_errors"][key])]
        )
    return buffer.getvalue()


#: how ``json`` spells the non-finite floats that ``float.__repr__`` writes
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
#: the types ``_write_json`` writes by their own branch; any other leaf, a
#: subclass such as ``np.float64`` or an enum, takes its base type's branch
_JSON_TYPES = frozenset((float, str, dict, list, int, bool, type(None)))


def _write_json(node, indent: str, out: list[str]) -> None:
    """Append ``node`` as indented JSON to ``out``, one chunk at a time;
    ``indent`` is the newline and spaces that precede its closing bracket."""
    kind = type(node)
    if kind not in _JSON_TYPES:
        kind = next((base for base in (float, str, dict, list, int) if isinstance(node, base)), None)
    if kind is float:
        text = f"{node:{_SIGNIFICANT}}"
        # a text with a point and no exponent is already the repr of the float it reads
        if "." not in text or "e" in text:
            text = float.__repr__(float(text))
            text = _NON_FINITE.get(text, text)
        out.append(text)
    elif kind is str:
        out.append(_encode_str(node))
    elif kind is dict:
        if not node:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{" + inner
        for key in sorted(node):
            out.append(separator + _encode_str(key) + ": ")
            _write_json(node[key], inner, out)
            separator = "," + inner
        out.append(indent + "}")
    elif kind is list:
        if not node:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[" + inner
        for item in node:
            out.append(separator)
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(indent + "]")
    elif kind is int:
        out.append(int.__repr__(node))
    elif kind is bool:
        out.append("true" if node else "false")
    elif node is None:
        out.append("null")
    else:
        raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


def _render_json(report: dict) -> str:
    out: list[str] = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit(report: dict, args: argparse.Namespace) -> None:
    text = _render_csv(report) if args.format == "csv" else _render_json(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``), write its
    report and return the exit code: 0, or 1, 2, 3 with a one-line message
    on stderr. Argparse refusals (code 2), ``--help`` and ``--version``
    (code 0) raise ``SystemExit`` instead. It may be called any number of
    times in one process; every call reuses the parsers ``build_parser``
    built and their action tables, and a plain argv is read by a walk over
    its command's table, never by argparse (``_parse``)."""
    args, command = _parse(_attach_list_values(sys.argv[1:] if argv is None else argv))
    try:
        _apply_config(args, command)
        if args.command == "simulate":
            report = _cmd_simulate_flip(args) if args.dice is None else _cmd_simulate_dice(args)
        elif args.command == "cheat":
            report = _cmd_cheat(args)
        elif args.command == "solve":
            report = _cmd_solve(args)
        else:
            report = _cmd_bound_check(args)
        _emit(report, args)
    except BracketError as exc:
        print(f"qdice: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except QdiceError as exc:
        print(f"qdice: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"qdice: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
