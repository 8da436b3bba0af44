"""``tools/code_lines.py``, the code-line count that CI prints for ``src/``:
lines holding a token, without docstrings, string statements, comments and
blank lines, and every line of a token or call that spans lines."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"

#: 14 code lines: the import, the class and def lines, the if line, the
#: assignment, the four lines of the call, the three of the assigned string
#: and the two of the call on a string. A string statement starts a block,
#: or follows a dedent or a statement; a comment after it does not make it
#: code.
FIXTURE = '''"""The module docstring,
over two lines."""
import os  # a comment on a code line

# a comment alone


class Thing:
    """The class docstring."""  # a comment after a docstring

    def path(self, flag):
        """The function docstring."""
        if flag:
            "a string statement inside a block"
        "a string statement after a dedent"
        separator = os.sep
        "a string statement after a statement"
        return os.path.join(
            "a",  # a comment inside the call
            "b",
        )


TEXT = """a multi-line
string assigned
to a name"""
"""a multi-line string
that starts a statement""".upper()
'''


def _run(*paths: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *map(str, paths)], capture_output=True, text=True, timeout=60)


def test_only_lines_holding_code_count(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    done = _run(tmp_path / "fixture.py")
    assert (done.returncode, done.stdout, done.stderr) == (0, "14\n", "")


def test_a_directory_counts_every_python_file_under_it(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "sub" / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    done = _run(tmp_path / "pkg")
    assert (done.returncode, done.stdout) == (0, "15\n")


def test_a_missing_path_exits_2(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    done = _run(tmp_path / "fixture.py", tmp_path / "missing")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "no such file or directory" in done.stderr and "missing" in done.stderr


def test_no_path_counts_src():
    done = _run()
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == _run(ROOT / "src").stdout
    assert int(done.stdout) > 0


def test_the_per_module_counts_sum_to_the_total():
    modules = sorted((ROOT / "src" / "qdice").glob("*.py"))
    per_module = [int(_run(module).stdout) for module in modules]
    assert sum(per_module) == int(_run(*modules).stdout) == int(_run(ROOT / "src" / "qdice").stdout)
