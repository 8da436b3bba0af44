"""Fresh-interpreter runs of the CLI: the analytic commands never execute
numpy, and the commands that need it load it on first use with reports
byte-identical to the golden ones. Importing qdice loads no module it uses
only on some paths (``fractions``, ``csv``) or not at all (``dataclasses``
and ``inspect``), nor does a ``solve`` or ``--version`` run.

The rest of the suite imports numpy before qdice, so only these subprocess
runs take the lazy path.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdice
from test_golden import GOLDEN, _path

#: Runs ``cli.main`` on argv in a fresh interpreter and fails (exit 1) when
#: numpy was executed before it, or when it was executed by a command that
#: must not need it (argv[1] == "analytic").
RUN_CLI = """
import sys

def numpy_executed():
    return sorted(name for name in sys.modules if name.startswith("numpy."))

from qdice.cli import main
if numpy_executed():
    sys.exit(f"numpy executed by importing qdice: {numpy_executed()[:3]}")
try:
    status = main(sys.argv[2:])
except SystemExit as exc:  # --version exits from argparse
    status = exc.code
if sys.argv[1] == "analytic" and numpy_executed():
    sys.exit(f"numpy executed by {sys.argv[2:]}: {numpy_executed()[:3]}")
sys.exit(status)
"""

ANALYTIC = [
    ["solve", "balanced"],
    ["solve", "dice3-case1"],
    ["solve", "dice3-case2"],
    ["bound-check", "--dice", "5", "--party", "1", "--biases", "0.2,0.1,0.05,0.15"],
    ["--version"],
]

#: Modules that importing qdice and qdice.cli, and a ``solve`` or
#: ``--version`` run, must leave unloaded.
UNLOADED = ("dataclasses", "inspect", "fractions", "csv")

#: Imports qdice and qdice.cli in a fresh interpreter, then runs ``cli.main``
#: on argv when one is given, and fails (exit 1) naming each module of
#: ``UNLOADED`` that either step loaded.
RUN_LEAN = f"""
import sys

def loaded():
    return [name for name in {UNLOADED!r} if name in sys.modules]

import qdice, qdice.cli
if loaded():
    sys.exit(f"loaded by importing qdice: {{loaded()}}")
if len(sys.argv) > 1:
    try:
        qdice.cli.main(sys.argv[1:])
    except SystemExit:  # --version exits from argparse
        pass
    if loaded():
        sys.exit(f"loaded by {{sys.argv[1:]}}: {{loaded()}}")
"""

#: Eight threads make their first numpy access through qdice at once; prints
#: how many finished and the errors they raised.
RACE = """
import sys, threading
from qdice import Honest, ProtocolParams, run_trials

start, errors, finished = threading.Barrier(8), [], []

def first_use():
    start.wait()
    try:
        run_trials(ProtocolParams(0.5, 0.2), Honest(), 100, 1)
        finished.append(1)
    except Exception as exc:
        errors.append(repr(exc))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_use) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
print(len(finished), errors)
"""


def _run_fresh(code: str, args: list[str], tmp_path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(qdice.__file__).resolve().parent.parent))
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )


@pytest.mark.parametrize("argv", ANALYTIC, ids=lambda argv: " ".join(argv[:2]))
def test_analytic_commands_never_execute_numpy(argv, tmp_path):
    done = _run_fresh(RUN_CLI, ["analytic", *argv], tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout


@pytest.mark.parametrize("argv", [[], *ANALYTIC[:3], ["--version"]], ids=lambda argv: " ".join(argv) or "import")
def test_import_and_solve_load_no_dataclasses_inspect_fractions_or_csv(argv, tmp_path):
    done = _run_fresh(RUN_LEAN, argv, tmp_path)
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.parametrize("name", ["simulate-alice-general", "simulate-dice3-case2", "cheat-third-ancilla2"])
def test_numpy_commands_match_golden_when_numpy_loads_through_qdice(name, tmp_path):
    done = _run_fresh(RUN_CLI, ["sampling", *GOLDEN[name]], tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == _path(name).read_bytes()


def test_threads_racing_to_load_numpy_all_wait_for_one_load(tmp_path):
    done = _run_fresh(RACE, [], tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode() == "8 []\n"
