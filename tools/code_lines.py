"""Count the code lines of each ``src/dealias`` module and their sum.

    python3 tools/code_lines.py [DIRECTORY]

A code line is a line that holds a token other than a comment, a line
break, an indent or dedent, or a string that stands alone as a statement
(a docstring). A token that spans lines counts on each of them. The
directory defaults to the package next to this script.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dealias"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file at ``path``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the logical line so far
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type not in NOT_CODE:
                statement.append(tok)
            elif tok.type == tokenize.NEWLINE:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6,d}  {path.name}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
