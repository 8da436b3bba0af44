#!/usr/bin/env python3
"""Count the code lines of Python sources.

    python3 tools/code_lines.py [PATH ...]

Prints one number: the lines that hold a token, summed over every ``*.py``
file under the given files and directories (default: ``src/`` beside this
script's directory). Blank lines, comments and docstrings do not count; a
docstring here is any statement that is a string alone. A token that spans
lines, as a multi-line string or call does not, counts every line it covers.
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

#: tokens that hold no code, or only mark where lines and blocks begin and end
_LAYOUT = frozenset((tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                     tokenize.ENCODING, tokenize.ENDMARKER))
#: tokens that end the statement before a docstring, or begin its block
_STATEMENT_START = frozenset((tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT))


def code_lines(path: Path) -> int:
    """The code lines of one Python file."""
    with tokenize.open(path) as handle:
        tokens = [t for t in tokenize.generate_tokens(handle.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, token, after in zip([None, *tokens], tokens, [*tokens[1:], None]):
        if token.type in _LAYOUT:
            continue
        alone = (before is None or before.type in _STATEMENT_START) and after.type == tokenize.NEWLINE
        if token.type == tokenize.STRING and alone:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path(__file__).resolve().parent.parent / "src"]
    missing = [str(root) for root in roots if not root.exists()]
    if missing:
        print(f"code_lines: no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    files = [file for root in roots for file in ([root] if root.is_file() else sorted(root.rglob("*.py")))]
    print(sum(code_lines(file) for file in files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
