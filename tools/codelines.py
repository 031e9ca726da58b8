"""Code lines of Python source: the lines that hold a token other than a
comment, a docstring or layout.

    python tools/codelines.py [PATH ...]

Each PATH is a .py file or a directory searched for .py files; the default
paths are src, tests and tools. Prints one line per path, "PATH N", with N
summed over its files. Layout is the tokens that only shape the text:
line ends, indents, dedents and the end marker. A docstring is a logical
line that is nothing but string literals, as a docstring statement is. A
token spanning several lines (a multi-line string) counts on each line it
spans. Comparing two revisions means running this on a checkout of each.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.COMMENT}


def code_lines(source: str) -> int:
    """The number of lines of source that hold a code token."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            if tok.type == tokenize.NEWLINE and statement:
                if not all(t.type == tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def count_path(path: Path) -> int:
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return sum(code_lines(f.read_text(encoding="utf-8")) for f in files)


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:]) or ["src", "tests", "tools"]
    for name in paths:
        print(f"{name} {count_path(Path(name))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
