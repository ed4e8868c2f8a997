"""Count the code lines of every *.py file in a directory.

A code line holds a token that is not a comment or part of a docstring;
blank lines do not count.  Each file's plain line count, as wc -l gives
it, is printed next to its code lines.
Usage: python3 .github/code_lines.py DIR
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines of text that hold code, docstrings excluded."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef,
                             ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(directory: str) -> None:
    total = plain_total = 0
    print("  code  lines")
    for path in sorted(Path(directory).glob("*.py")):
        text = path.read_text()
        count, plain = code_lines(text), text.count("\n")
        total, plain_total = total + count, plain_total + plain
        print(f"{count:6d} {plain:6d} {path}")
    print(f"{total:6d} {plain_total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1])
