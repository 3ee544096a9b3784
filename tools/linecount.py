"""Count the lines of the library: physical, and without blanks, comments and docstrings.

Usage (from the repository root):

    python3 tools/linecount.py [DIR]

DIR defaults to ``src/pldbounds``.  Every ``*.py`` file below it is read
with the standard ``tokenize`` module.  A docstring is a string that stands
alone as a statement; a line counts as code when some token on it is
neither a comment nor part of such a string.  Prints one line per file and
a total line: physical lines, then code lines.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

#: Tokens that carry no code by themselves.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def count(path: Path) -> tuple[int, int]:
    """Physical lines of ``path`` and its lines without blanks, comments and docstrings."""
    with path.open("rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    code: set[int] = set()
    previous = tokenize.NEWLINE
    for i, token in enumerate(tokens):
        if token.type in _LAYOUT:
            if token.type not in (tokenize.COMMENT, tokenize.NL):
                previous = token.type
            continue
        following = next((t.type for t in tokens[i + 1 :] if t.type != tokenize.COMMENT), None)
        docstring = (
            token.type == tokenize.STRING
            and previous in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING)
            and following in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if not docstring:
            code.update(range(token.start[0], token.end[0] + 1))
        previous = token.type
    physical = len(path.read_bytes().splitlines())
    return physical, len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/pldbounds")
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"no Python files under {root}", file=sys.stderr)
        return 2
    totals = [0, 0]
    for path in files:
        physical, code = count(path)
        totals[0] += physical
        totals[1] += code
        print(f"{physical:6d} {code:6d}  {path}")
    print(f"{totals[0]:6d} {totals[1]:6d}  total (physical, without blanks, comments and docstrings)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
