"""Print every statement of DIR's *.py files that no test executed.

Runs pytest in this process, with PYTEST_ARGS, under a line tracer that
follows only frames of files in DIR, helper threads included.  A statement
is any line where an ast statement starts, except docstrings and `global`
statements, which execute no line of their own.  Code that runs in a
subprocess or a forked child is never seen, so it is listed too.  Report
only: the exit status is pytest's.
Usage: python3 .github/unrun_lines.py DIR [PYTEST_ARGS...]
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

from code_lines import docstrings


def statements(text: str) -> set:
    """Line numbers where a statement that executes a line starts."""
    tree = ast.parse(text)
    docs = {id(doc) for doc in docstrings(tree)}
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, ast.Global)
            and id(node) not in docs}


def main(directory: str, pytest_args: list) -> int:
    files = {str(p.resolve()): p for p in sorted(Path(directory).glob("*.py"))}
    seen = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename in seen:
            seen[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name, path in files.items():
        text = path.read_text()
        source = text.splitlines()
        for n in sorted(statements(text) - seen[name]):
            print(f"{path}:{n}: {source[n - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__.splitlines()[-1], file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2:]))
