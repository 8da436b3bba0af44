"""Command-line integration tests: reports, schemas, exit codes."""
from __future__ import annotations

import contextlib
import doctest
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import ETA_FAIR, SQRT_HALF, three_sigma
from qdice.cli import (
    _DEFAULTS,
    CHEAT_CHOICES,
    EXIT_IO,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    SOLVE_TARGETS,
    _attach_list_values,
    _command_parsers,
    _parse,
    _render_json,
    build_parser,
    main,
)
from qdice.qsim import Spin
from test_golden import GOLDEN, _path, render

SCHEMA_KEYS = {"version", "inputs", "analytic", "monte_carlo", "bounds"}


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv: str) -> dict:
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    report = json.loads(out)
    assert set(report) == SCHEMA_KEYS
    assert report["version"].startswith("qdice ")
    return report


def _assert_probabilities_in_range(node) -> None:
    if isinstance(node, dict):
        for value in node.values():
            _assert_probabilities_in_range(value)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        assert -1e-9 <= node


def test_simulate_bob_claim_win(capsys):
    report = run_json(
        capsys,
        "simulate", "--p", "0.5", "--eta", "0.2071068", "--cheat", "bob-claim-win",
        "--trials", "20000", "--seed", "7",
    )
    frequency = report["monte_carlo"]["frequencies"]["bob"]
    assert abs(frequency - SQRT_HALF) <= three_sigma(SQRT_HALF, 20000)
    assert report["analytic"]["cheater_win"] == pytest.approx(0.5 + 0.2071068)


def test_simulate_reports_show_trial_zero_transcripts(capsys):
    flip = run_json(capsys, "simulate", "--p", "0.5", "--eta", "0.2071068", "--trials", "50", "--seed", "9")
    events = flip["monte_carlo"]["first_transcript"]
    assert events[0] == {"kind": "prepare", "actor": "alice", "detail": "honest"}
    assert events[-1]["kind"] == "declare"
    dice = run_json(capsys, "simulate", "--dice", "4", "--honest", "--trials", "50", "--seed", "9")
    stages = dice["monte_carlo"]["first_transcript"]
    assert [stage["entrant"] for stage in stages] == [2, 3, 4]
    assert all(stage["transcript"][-1]["kind"] == "declare" for stage in stages)
    _, table = run_cli(capsys, "simulate", "--p", "0.5", "--eta", "0.2071068", "--trials", "50",
                       "--seed", "9", "--format", "csv")
    assert "prepare" not in table and len(table.splitlines()) == 4


def test_simulate_honest_dice(capsys):
    report = run_json(
        capsys, "simulate", "--dice", "3", "--honest", "--trials", "9000", "--seed", "1"
    )
    for party in ("1", "2", "3"):
        assert abs(report["monte_carlo"]["frequencies"][party] - 1 / 3) <= three_sigma(1 / 3, 9000)
    assert report["monte_carlo"]["stage_aborts"] == 0


def test_simulate_coalition_dice(capsys):
    report = run_json(
        capsys,
        "simulate", "--dice", "3", "--honest-party", "1", "--case", "1",
        "--trials", "9000", "--seed", "5",
    )
    expected = report["analytic"]["expected_honest_losing"]
    losing = 1.0 - report["monte_carlo"]["frequencies"]["1"]
    assert abs(losing - expected) <= three_sigma(expected, 9000)


def test_every_ladder_takes_case_and_honest_party(tmp_path, capsys):
    report = run_json(capsys, "simulate", "--dice", "4", "--honest-party", "2", "--case", "2",
                      "--trials", "2000", "--seed", "3")
    assert report["inputs"]["case"] == 2
    assert report["analytic"]["expected_honest_losing"] == pytest.approx(0.75 + 0.1740, abs=1e-4)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"case": 1}))
    report = run_json(capsys, "simulate", "--dice", "4", "--honest", "--trials", "50", "--config", str(config))
    assert report["inputs"]["case"] == 1
    # both layouts of a two-party ladder are the same balanced coin
    report = run_json(capsys, "simulate", "--dice", "2", "--honest-party", "1", "--trials", "50")
    assert report["inputs"]["case"] is None


def test_cheat_report_values(capsys):
    # reports round to 7 significant digits, so compare at 1e-6
    report = run_json(capsys, "cheat", "--p", "0.5", "--eta", str(ETA_FAIR))
    analytic = report["analytic"]
    assert analytic["alice_optimal"] == pytest.approx(SQRT_HALF, abs=1e-6)
    assert analytic["alice_brute_force"] == pytest.approx(SQRT_HALF, abs=1e-6)
    assert analytic["bob_optimal"] == pytest.approx(SQRT_HALF, abs=1e-6)
    assert analytic["honest_alice"] == 0.5


def test_cheat_report_imbalanced_point(capsys):
    # value frozen from the standalone dense-grid oracle
    report = run_json(capsys, "cheat", "--p", "0.3333333", "--eta", "0.1465")
    analytic = report["analytic"]
    assert analytic["alice_optimal"] == pytest.approx(0.8473428, abs=1e-6)
    assert analytic["alice_brute_force"] == pytest.approx(analytic["alice_optimal"], abs=1e-6)
    assert analytic["bob_optimal"] == pytest.approx(0.3333333 + 0.1465, abs=1e-6)


def test_cheat_degenerate_eta_zero(capsys):
    report = run_json(capsys, "cheat", "--p", "0.5", "--eta", "0")
    assert report["analytic"]["alice_optimal"] == pytest.approx(1.0)
    assert report["analytic"]["bob_optimal"] == pytest.approx(0.5)


def test_solve_targets(capsys):
    balanced = run_json(capsys, "solve", "balanced")
    assert balanced["analytic"]["eta_star"] == pytest.approx(0.207107, abs=1e-6)
    case1 = run_json(capsys, "solve", "dice3-case1")
    assert case1["analytic"]["bias"] == pytest.approx(0.181, abs=1e-3)
    assert case1["analytic"]["worst_case"] == pytest.approx(0.848, abs=1e-3)
    case2 = run_json(capsys, "solve", "dice3-case2")
    assert case2["analytic"]["bias"] == pytest.approx(0.199, abs=1e-3)


def test_bound_check(capsys):
    report = run_json(
        capsys, "bound-check", "--dice", "3", "--party", "1", "--biases", "0.2071068,0.1462013"
    )
    assert report["bounds"]["holds"] is True
    assert report["analytic"]["worst_case_losing"] == pytest.approx(0.8476, abs=1e-3)
    _assert_probabilities_in_range(report["analytic"])


def test_csv_output(tmp_path, capsys):
    code, out = run_cli(
        capsys, "simulate", "--p", "0.5", "--eta", "0.2", "--trials", "2000", "--format", "csv"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "outcome,count,frequency,standard_error"
    assert len(lines) == 4  # alice, bob, abort
    # a config file can choose the format too
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "csv"}))
    code, from_config = run_cli(
        capsys, "simulate", "--p", "0.5", "--eta", "0.2", "--trials", "2000", "--config", str(config)
    )
    assert code == EXIT_OK
    assert from_config == out


def test_dice_csv_rows_follow_party_order(capsys):
    code, out = run_cli(capsys, "simulate", "--dice", "12", "--trials", "2000", "--format", "csv")
    assert code == EXIT_OK
    rows = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
    assert rows == [str(party) for party in range(1, 13)]


def test_csv_requires_monte_carlo_section(capsys):
    code, _ = run_cli(capsys, "cheat", "--p", "0.5", "--eta", "0.2", "--format", "csv")
    assert code == EXIT_VALIDATION


def test_validation_exit_code(capsys):
    code, _ = run_cli(capsys, "simulate", "--p", "1.5", "--eta", "0.0")
    assert code == EXIT_VALIDATION
    code, _ = run_cli(capsys, "simulate", "--p", "0.5", "--eta", "0.2", "--cheat", "alice-delta")
    assert code == EXIT_VALIDATION  # missing --delta
    code, _ = run_cli(capsys, "simulate", "--p", "0.5", "--eta", "0.2", "--seed", "-1")
    assert code == EXIT_VALIDATION  # seed must be unsigned 64-bit


@pytest.mark.parametrize(
    "argv, config",
    [
        (["bound-check", "--dice", "3", "--party", "1", "--biases", "0.1,nan"], None),
        (["bound-check", "--dice", "3", "--party", "1", "--biases", "0.1,inf"], None),
        (["simulate", "--p", "0.5", "--eta", "0.2", "--cheat", "alice-general", "--alphas", "1,0,0"], None),
        (["simulate", "--p", "0.5", "--eta", "0.2", "--cheat", "alice-general", "--alphas", "nan,0,0,0"], None),
        (["simulate", "--p", "0.5", "--eta", "0.2"], {"trials": "100"}),
        (["simulate", "--p", "0.5", "--eta", "0.2"], {"honest": 1}),
        (["simulate", "--p", "0.5", "--eta", "0.2"], {"cheat": "alice"}),
        (["simulate", "--p", "0.5", "--eta", "0.2"], {"command": "cheat"}),
        (["cheat", "--p", "0.5", "--eta", "0.2", "--samples", "-1"], None),
        (["simulate", "--p", "0.5", "--eta", "0.2", "--honest-party", "1"], None),
        (["simulate", "--dice", "2", "--case", "2"], None),
        (["simulate", "--p", "0.5", "--eta", "0.2", "--honest"], None),
        (["simulate", "--p", "0.5", "--eta", "0.2", "--case", "2"], None),
        (["simulate", "--p", "0.5", "--eta", "0.2"], {"case": 1}),
        (["simulate", "--p", "0.5", "--eta", "0.2", "--delta", "0.3"], None),
        (["simulate", "--p", "0.5", "--eta", "0.2", "--cheat", "alice-delta", "--delta", "0.3",
          "--alphas", "1,0,0,0"], None),
        (["simulate", "--dice", "257"], None),
        (["simulate", "--dice", "2"], {"case": 2}),
        (["simulate", "--p", "0.5", "--eta", "0.2"], {"config": "nowhere.json"}),
        (["simulate", "--dice", "0"], None),
        (["simulate", "--dice", "3", "--p", "0.9", "--cheat", "bob-claim-win"], None),
        (["simulate", "--dice", "3"], {"eta": 0.1}),
        (["bound-check", "--dice", "3", "--party", "1", "--biases", "-0.1,0.1"], None),
        (["solve", "balanced", "--bracket", "-0.1,0.5"], None),
        pytest.param(["simulate", "--p", "0.5", "--eta", "0.2"], b'{"trials": 5,', id="config-not-json"),
        pytest.param(["simulate", "--p", "0.5", "--eta", "0.2"], b'{"seed": "\xff"}', id="config-not-utf8"),
        pytest.param(["simulate", "--p", "0.5", "--eta", "0.2"], b"[" * 100_000, id="config-too-deep"),
        (["cheat", "--p", "0.5", "--eta", "0.2", "--grid", "100000000000", "--samples", "1"], None),
        (["cheat", "--p", "0.5", "--eta", "0.2", "--samples", "100000000000"], None),
        (["bound-check", "--dice", "257", "--party", "1", "--biases", "0.1"], None),
        (["simulate", "--p", "0.5", "--eta", "0.2", "--trials", "100000001"], None),
        (["simulate", "--dice", "3", "--trials", "100000001"], None),
        (["simulate", "--p", "0.5", "--eta", "0.2"], {"trials": 100_000_001}),
        (["simulate", "--dice", "3"], {"trials": 100_000_001}),
        (["simulate", "--p", "0.5", "--eta", "0.1", "--cheat", "alice-general", "--alphas", "1e200,0,0,0"], None),
        # config keys that could not take effect: a positional, which argv always sets, and one flag twice
        pytest.param(["solve", "dice3-case1"], {"target": "balanced"}, id="config-names-a-positional"),
        pytest.param(["simulate", "--dice", "3"], {"honest-party": 2, "honest_party": 3},
                     id="config-names-a-flag-in-both-spellings"),
    ],
)
def test_invalid_input_exits_2_with_one_line(tmp_path, capsys, argv, config):
    if config is not None:
        # bytes are written as they are, anything else as JSON
        path = tmp_path / "config.json"
        path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        argv = argv + ["--config", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_negative_leading_list_value_is_a_value(capsys):
    argv = ["simulate", "--p", "0.5", "--eta", "0.2", "--cheat", "alice-general", "--trials", "50"]
    separate = run_json(capsys, *argv, "--alphas", "-0.5,0.5,0.5,0.5")
    attached = run_json(capsys, *argv, "--alphas=-0.5,0.5,0.5,0.5")
    assert separate == attached
    assert separate["inputs"]["alphas"] == "-0.5,0.5,0.5,0.5"


#: argv ending in a list flag whose value starts with a minus sign, the flag, and that value
_NEGATIVE_LIST_ARGV = [
    (["simulate", "--p", "0.5", "--eta", "0.2", "--cheat", "alice-general", "--trials", "50"], "--alphas",
     "-0.5,0.5,0.5,0.5"),
    (["bound-check", "--dice", "3", "--party", "1"], "--biases", "-0.1,0.2"),
    (["solve", "dice3-case1"], "--bracket", "-0.1,0.2"),
]


@pytest.mark.parametrize("argv, flag, value", _NEGATIVE_LIST_ARGV, ids=[flag for _, flag, _ in _NEGATIVE_LIST_ARGV])
def test_an_abbreviated_list_flag_takes_a_negative_value(argv, flag, value):
    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(argv), out.getvalue(), err.getvalue()

    full = outcome(argv + [flag, value])
    assert full[0] == (EXIT_OK if flag == "--alphas" else EXIT_VALIDATION)
    # argparse reads a unique prefix of an option as that option
    for abbreviation in (flag[:-1], flag[:3]):
        assert outcome(argv + [abbreviation, value]) == full


@pytest.mark.parametrize("argv", [
    ["simulate", "--p", "0.5", "--eta", "0.2", "--d", "-0.5"],  # --delta or --dice
    ["simulate", "--p", "0.5", "--eta", "0.2", "--cheat", "alice-general", "--alphaz", "-0.5,0.5,0.5,0.5"],
    ["cheat", "--p", "0.5", "--eta", "0.2", "--alpha", "-0.5,0.5,0.5,0.5"],
])
def test_an_ambiguous_or_unknown_prefix_is_refused(argv):
    code, out, err = _exit_of(main, argv)
    assert code == 2 and out == "" and err.startswith("usage: qdice")


def test_solver_exit_code(capsys):
    code, _ = run_cli(capsys, "solve", "balanced", "--bracket", "0.3,0.31")
    assert code == EXIT_SOLVER


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"p": 0.5, "eta": 0.2071068, "trials": 2000, "seed": 3}))
    report = run_json(capsys, "simulate", "--config", str(config))
    assert report["inputs"]["p"] == 0.5
    assert report["inputs"]["trials"] == 2000


def test_flags_override_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"p": 0.5, "eta": 0.2, "trials": 2000}))
    report = run_json(capsys, "simulate", "--config", str(config), "--p", "0.25")
    assert report["inputs"]["p"] == 0.25
    # an explicit zero is a flag too, not a missing value
    report = run_json(capsys, "simulate", "--config", str(config), "--eta", "0")
    assert report["inputs"]["eta"] == 0.0


def test_output_file_and_determinism(tmp_path, capsys):
    argv = [
        "simulate", "--p", "0.5", "--eta", "0.2071068", "--cheat", "bob-claim-win",
        "--trials", "5000", "--seed", "42",
    ]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(first)]) == EXIT_OK
    assert main(argv + ["--out", str(second)]) == EXIT_OK
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_unwritable_output_path(capsys):
    code = main(
        ["solve", "balanced", "--out", "/nonexistent-dir/report.json"]
    )
    capsys.readouterr()
    assert code == 1


# -- the README library example ------------------------------------------------


def test_readme_library_example_runs_as_written():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False, optionflags=doctest.ELLIPSIS, verbose=False)
    assert result.attempted > 0 and result.failed == 0


# -- one parser per process: nothing carries over from one call to the next ------


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


#: argv whose parse by the command's own parser must match the full parser's
PARITY_ARGV = [
    *GOLDEN.values(),
    [], ["-h"], ["--version"], ["--vers"], ["bogus"],
    ["simulate", "extra"], ["simulate", "--version"], ["-h", "simulate"], ["simulate", "-h"],
    ["cheat", "--grid", "x"], ["solve", "--", "balanced"], ["simulate", "--", "x"], ["solve"],
    ["--anc", "2"], ["--tri", "20"], ["--flag=value"],
    ["cheat", "--p", "0.5", "--eta", "0.1", "--anc", "2"], ["simulate", "--tri", "20"],
    ["simulate", "--flag=value"], ["simulate", "--he"], ["simulate", "--=x"], ["solve", "--", "--=x"],
    ["solve", "dice3-case1", "--bracket", "-0.1,0.2"],
    ["bound-check", "--dice", "3", "--party", "1", "--biases", "-0.1,0.2", "--format", "csv"],
]


def _exit_of(call, argv):
    """(exit code, stdout, stderr) of a call that argparse ends with SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as ended:
        call(argv)
    return ended.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=lambda argv: " ".join(argv) or "<none>")
def test_dispatched_parse_matches_the_full_parser(argv):
    argv = _attach_list_values(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = vars(build_parser().parse_args(argv))
    except SystemExit:
        assert _exit_of(main, argv) == _exit_of(build_parser().parse_args, argv)
    else:
        args, command = _parse(argv)
        assert vars(args) == expected
        assert command is _command_parsers()[expected["command"]]


#: values that are not plain, or not valid for their flag: negative, empty, non-numeric, out of choice, flag-like
_ODD_VALUES = ["-0.5", "-1", "", "x", "7", "0.5", "-0.1,0.2", "csv", "balanced", "-h", "--", "--p"]


@st.composite
def _command_argv(draw) -> list[str]:
    """An argv of one command, made of its own actions: mostly plain tokens,
    and at a drawn rate an odd one, an abbreviated or ``=`` form, a missing,
    odd or stray value."""
    name = draw(st.sampled_from(sorted(_command_parsers())))
    actions = _command_parsers()[name]._actions
    odd = st.sampled_from([False] * draw(st.integers(1, 12)) + [True])

    def value(action) -> str:
        if draw(odd):
            return draw(st.sampled_from(_ODD_VALUES))
        if action.choices:
            return str(draw(st.sampled_from(action.choices)))
        return {int: "3", float: "0.5"}.get(action.type, "0.1,0.2")

    argv = [name]
    for _ in range(draw(st.integers(0, 6))):
        action = draw(st.sampled_from(actions))
        if not action.option_strings:
            argv.append(value(action))
            continue
        option = draw(st.sampled_from(action.option_strings))
        if option.startswith("--") and draw(odd):
            option = option[: draw(st.integers(3, len(option)))]
        if draw(odd):
            forms = [[option], [option, value(action)], [f"{option}={value(action)}"], [value(action)]]
            argv += draw(st.sampled_from(forms))
        else:
            argv += [option] if action.nargs == 0 else [option, value(action)]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_command_argv())
@example(argv=["solve", "--bracket", "0.1,0.2", "balanced", "--format", "csv"])
@example(argv=["simulate", "--honest", "--honest", "--dice", "3", "--dice", "4"])
@example(argv=["solve", "balanced", "dice3-case1"])
@example(argv=["simulate", "--case", "3"])
@example(argv=["simulate", "--out", "-h"])
@example(argv=["cheat", "--p", "-0.5", "--eta", "-1"])
def test_the_table_walk_matches_the_full_parser(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = build_parser().parse_args(argv)
    except SystemExit:
        assert _exit_of(_parse, argv) == _exit_of(build_parser().parse_args, argv)
    else:
        args, command = _parse(argv)
        assert vars(args) == vars(expected)
        assert command is _command_parsers()[expected.command]


def _benchmark_style_argv() -> list[list[str]]:
    """Argv shaped like the in-process cli calls of the benchmark's
    cli-reports workload, valid and refused, with seeded random numbers."""
    rng = np.random.default_rng(39)
    argv = [["solve", target] for target in SOLVE_TARGETS] + [
        ["simulate", "--p", "0.5", "--eta", "0.2071", "--trials", "200", "--seed", "3"],
        ["simulate", "--p", repr(1 / 3), "--eta", "0.1465", "--cheat", "bob-claim-win", "--trials", "200",
         "--seed", "3"],
        ["simulate", "--dice", "3", "--honest", "--trials", "100", "--seed", "3"],
        ["simulate", "--p", "0.5", "--eta", "0.2", "--cheat", "alice-general", "--alphas", "1,0,0"],
        ["simulate", "--p", "0.5", "--eta", "0.2", "--config", "bad-config.json"],
        ["simulate", "--p", "1.5", "--eta", "0.1"],
        ["bound-check", "--dice", "3", "--party", "1", "--biases", "0.1,nan"],
        ["solve", "balanced", "--bracket", "0.3,0.4"],
    ]
    for _ in range(20):
        n = int(rng.integers(2, 17))
        party = int(rng.integers(1, n + 1))
        biases = rng.uniform(0.0, 0.5 / n, n - max(party, 2) + 1)
        argv.append(["bound-check", "--dice", str(n), "--party", str(party),
                     "--biases", ",".join(repr(float(b)) for b in biases)])
        p, eta = (float(x) for x in rng.uniform(0.0, 0.5, 2))
        argv.append(["cheat", "--p", repr(p), "--eta", repr(eta), "--grid", "1000", "--samples", "100",
                     "--ancilla-dim", "2", "--seed", str(int(rng.integers(1000)))])
    return argv


def test_plain_argv_take_the_table_walk(monkeypatch):
    """A walk that declined every argv would still pass the parity tests, so
    plain argv must never reach argparse."""
    def refuse(argv=None, namespace=None):
        raise AssertionError(f"argparse parsed {argv}")

    monkeypatch.setattr(build_parser(), "parse_args", refuse)
    for argv in [*GOLDEN.values(), *_benchmark_style_argv()]:
        args, command = _parse(_attach_list_values(argv))
        assert command is _command_parsers()[argv[0]] and args.command == argv[0]


def test_config_values_do_not_outlive_their_run(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cheat": "bob-claim-win", "trials": 2000, "seed": 3}))
    report = run_json(capsys, "simulate", "--p", "0.5", "--eta", "0.2", "--config", str(config))
    assert report["inputs"]["cheat"] == "bob-claim-win"
    report = run_json(capsys, "simulate", "--p", "0.5", "--eta", "0.2")
    assert {key: report["inputs"][key] for key in ("cheat", "trials", "seed")} == {
        key: _DEFAULTS[key] for key in ("cheat", "trials", "seed")
    }


def test_ladder_flags_do_not_outlive_their_run(capsys):
    run_json(capsys, "simulate", "--dice", "3", "--honest", "--trials", "50")
    run_json(capsys, "simulate", "--p", "0.5", "--eta", "0.2", "--trials", "50")


def test_a_refused_argv_leaves_the_next_report_unchanged(capsys):
    with pytest.raises(SystemExit) as refusal:
        main(["simulate", "--trials", "many"])
    assert refusal.value.code == 2
    capsys.readouterr()
    assert render(GOLDEN["bound-check"]).encode() == _path("bound-check").read_bytes()


# -- fuzzed argv and config files ------------------------------------------------

#: valid runs the fuzz mutates: (subcommand words, flag -> value)
_FUZZ_BASES = [
    (["simulate"], {"p": 0.5, "eta": 0.2, "cheat": "alice-delta", "delta": 0.17, "seed": 1}),
    (["simulate"], {"p": 0.3, "eta": 0.15, "cheat": "alice-general", "alphas": "0.5,0.5,0.5,-0.5"}),
    (["simulate"], {"p": 0.6, "eta": 0.1, "cheat": "bob-claim-win"}),
    (["simulate"], {"dice": 4, "honest-party": 2, "case": 2, "seed": 3}),
    (["simulate"], {"dice": 3, "honest": True}),
    (["cheat"], {"p": 0.3, "eta": 0.2, "grid": 1000, "samples": 20, "ancilla-dim": 2}),
    (["solve", "dice3-case1"], {"bracket": "0.1,0.2"}),
    (["solve", "balanced"], {}),
    (["bound-check"], {"dice": 3, "party": 1, "biases": "0.1,0.05"}),
]
#: replacement values, by the type of the value they replace
_FUZZ_VALUES = {
    float: st.floats(-0.5, 1.5) | st.integers(-1, 2) | st.sampled_from([float("nan"), float("inf"), -1e308, 1e200]),
    int: st.integers(-2, 9) | st.sampled_from([255, 257, 10**9, 2**64]),
    str: st.text("-,.0123456789ejx", max_size=12) | st.sampled_from(CHEAT_CHOICES + SOLVE_TARGETS + ("1e200,0,0,0",)),
    bool: st.booleans(),
}
_FUZZ_TYPES = {name: type(value) for _, flags in _FUZZ_BASES for name, value in flags.items()}
_ANY_JSON = st.none() | st.booleans() | st.text(max_size=3) | st.lists(st.integers(), max_size=2)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_argv_and_config_exit_cleanly(tmp_path_factory, data):
    words, base = data.draw(st.sampled_from(_FUZZ_BASES))
    flags = dict(base)
    if data.draw(st.sampled_from([True, False, False])):  # a flag this kind of run may not take
        name = data.draw(st.sampled_from(sorted(_FUZZ_TYPES)))
        flags[name] = data.draw(_FUZZ_VALUES[_FUZZ_TYPES[name]])
    argv, config = list(words), {}
    if words[0] == "simulate":  # a few trials, never the slow default of 10^4
        flags["trials"] = data.draw(st.integers(-1, 30))
    for name, value in flags.items():
        move = data.draw(st.sampled_from(["keep"] * 9 + ["drop", "replace", "retype"]))
        if move == "drop" and name != "trials":
            continue
        if move == "replace":
            value = data.draw(_FUZZ_VALUES[type(value)]) if name != "trials" else value
        if move == "retype" or data.draw(st.booleans()):
            config[name] = data.draw(_ANY_JSON) if move == "retype" else value
        elif value is True:
            argv.append(f"--{name}")
        elif value is not False:
            argv += data.draw(st.sampled_from([[f"--{name}", str(value)], [f"--{name}={value}"]]))
    if data.draw(st.sampled_from([True] + [False] * 7)):
        config[data.draw(st.sampled_from(["format", "colour", "config", "target", "command"]))] = "csv"
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_text(json.dumps(config))
    missing = data.draw(st.sampled_from([True] + [False] * 9))
    argv += ["--config", str(path.with_name("missing.json") if missing else path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv itself
            code = exc.code
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_SOLVER) or (missing and code == EXIT_IO), (argv, config)
    assert "Traceback" not in err.getvalue()


def _round_floats(node):
    """Reference rounding: every finite float of a report tree at 7
    significant digits, in a separate pass, as reports were once rendered."""
    if isinstance(node, dict):
        return {key: _round_floats(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_round_floats(value) for value in node]
    if isinstance(node, float) and math.isfinite(node):
        return float(f"{node:.7g}")
    return node


_ODD_TEXT = st.sampled_from(['"\\/\b\f\n\r\t\x00\x1f\x7f', "é☃ \U0001f600", ""])
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
                       1e22, 123456789.0, 0.1 + 0.2])
    | st.text(max_size=6)
    | _ODD_TEXT
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4) | _ODD_TEXT, children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(tree=_JSON_TREES)
@example(tree={"": [], "e": {}, "nan": [math.nan, math.inf, -math.inf], "zero": -0.0, "sub": 5e-324,
               "int": 10**30, "s": '"\\\n\x00é\U0001f600', "lit": [True, False, None, [{}]]})
# floats whose 7-digit text has no point or has an exponent, which are written as their repr, and ones whose
# text is already the repr of the float it reads
@example(tree=[1234567.0, 9999999.5, 1e7, 12345678.0, 1e-4, 9.9999995e-5, 1e16, -0.0, 0.1 + 0.2])
# subclass leaves take their base type's branch
@example(tree={"np": [np.float64(0.1 + 0.2), np.float64(1e7), np.float64(-0.0)], "bool": True, "enum": [Spin.DOWN]})
def test_json_reports_are_the_indented_dump_of_the_rounded_tree(tree):
    assert _render_json(tree) == json.dumps(_round_floats(tree), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", ["solve-dice3-case1", "bound-check", "simulate-alice-general-csv"])
def test_out_file_holds_the_golden_bytes(tmp_path, capsys, name):
    out = tmp_path / "report"
    assert main(GOLDEN[name] + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == _path(name).read_bytes()
