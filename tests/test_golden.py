"""Golden CLI reports: ``cli.main`` output compared byte for byte with
reports rendered once and committed under ``tests/golden/``.

Regenerate them only for an intended report change, with
``PYTHONPATH=src python tests/test_golden.py``.
"""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

from qdice import dicer
from qdice.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).parent / "golden"

FLIP = ["simulate", "--p", "0.5", "--eta", "0.2071068", "--trials", "20000", "--seed", "7"]

GOLDEN = {
    "cheat-fair": ["cheat", "--p", "0.5", "--eta", "0.2071068"],
    "cheat-third-ancilla1": ["cheat", "--p", "0.3333333", "--eta", "0.1465", "--grid", "2000",
                             "--samples", "500", "--seed", "3"],
    "cheat-third-ancilla2": ["cheat", "--p", "0.3333333", "--eta", "0.1465", "--ancilla-dim", "2",
                             "--samples", "500", "--seed", "3"],
    "cheat-edge-ancilla2": ["cheat", "--p", "0.2", "--eta", "0.8", "--ancilla-dim", "2"],
    "simulate-honest": FLIP,
    "simulate-alice-delta": FLIP + ["--cheat", "alice-delta", "--delta", "0.1715729"],
    "simulate-alice-general": FLIP + ["--cheat", "alice-general", "--alphas", "0.5,0.7j,0.5,-0.1"],
    "simulate-alice-general-csv": FLIP + ["--cheat", "alice-general", "--alphas", "0,0.6,0.8,0",
                                          "--format", "csv"],
    "simulate-bob-claim-win": FLIP + ["--cheat", "bob-claim-win"],
    "simulate-dice3-case1": ["simulate", "--dice", "3", "--honest-party", "1", "--case", "1",
                             "--trials", "9000", "--seed", "5"],
    "simulate-dice3-case2": ["simulate", "--dice", "3", "--honest-party", "3", "--case", "2",
                             "--trials", "9000", "--seed", "5"],
    "simulate-dice5-case2": ["simulate", "--dice", "5", "--honest-party", "2", "--case", "2"],
    "simulate-dice8-honest": ["simulate", "--dice", "8", "--honest"],
    "simulate-dice8-case1-party6": ["simulate", "--dice", "8", "--honest-party", "6", "--case", "1",
                                    "--trials", "3000", "--seed", "11"],
    "solve-balanced": ["solve", "balanced"],
    "solve-dice3-case1": ["solve", "dice3-case1"],
    "solve-dice3-case2": ["solve", "dice3-case2"],
    "bound-check": ["bound-check", "--dice", "5", "--party", "1", "--biases", "0.2,0.1,0.05,0.15"],
}


def _path(name: str) -> Path:
    return GOLDEN_DIR / (name + (".csv" if name.endswith("-csv") else ".json"))


def render(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_report_matches_golden(name):
    assert render(GOLDEN[name]).encode() == _path(name).read_bytes()


@pytest.mark.parametrize("name", ["solve-balanced", "solve-dice3-case1", "solve-dice3-case2"])
def test_a_repeated_solve_writes_its_golden_bytes(name):
    dicer._solved_fair_stages.cache_clear()  # the first run solves, the second reads the cache
    for _ in range(2):
        assert render(GOLDEN[name]).encode() == _path(name).read_bytes()
    assert dicer._solved_fair_stages.cache_info().hits == 1


#: solve argv, and a fair solve that takes arguments equal to the argv's but of numpy types
NUMPY_TWINS = [
    (["solve", "balanced"], lambda: dicer.LadderSpec.fair(2, np.int64(1))),
    (["solve", "balanced", "--bracket", "0.1,0.4"], lambda: dicer.solve_balanced((np.float64(0.1), np.float64(0.4)))),
    (["solve", "dice3-case1"], lambda: dicer.optimize_three_sided(np.int64(1), None)),
    (["solve", "dice3-case2", "--bracket", "0.15,0.25"],
     lambda: dicer.optimize_three_sided(np.int64(2), (np.float64(0.15), np.float64(0.25)))),
]


@pytest.mark.parametrize("argv, twin", NUMPY_TWINS)
def test_equal_solve_arguments_of_other_types_share_one_solve(argv, twin):
    # either call may fill the cache; the report, and the twin's value down to its types (repr), stay the same
    reports, twins = [], []
    for twin_first in (True, False):
        dicer._solved_fair_stages.cache_clear()
        if twin_first:
            twins.append(repr(twin()))
        reports.append(render(argv))
        if not twin_first:
            twins.append(repr(twin()))
        assert dicer._solved_fair_stages.cache_info().currsize == 1
    assert reports[0] == reports[1]
    assert twins[0] == twins[1]
    assert "np." not in twins[0]


def test_every_golden_is_checked_in_process_and_through_the_installed_script():
    files = {path.name for path in GOLDEN_DIR.iterdir()}
    assert files == {_path(name).name for name in GOLDEN}, "a golden file without a GOLDEN entry, or one missing"
    workflow = (Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    compared = set(re.findall(r'\bcmp (?:-|"[^"]*") "\$golden/([^"]+)"', workflow))
    assert files <= compared, f"goldens the installed script's cmp lines miss: {sorted(files - compared)}"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN.items():
        _path(name).write_bytes(render(argv).encode())
