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


def statements(text: str) -> set:
    """Line numbers where a statement that executes a line starts."""
    tree = ast.parse(text)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, ast.Global)
            and id(node) not in docstrings}


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
    sys.exit(main(sys.argv[1], sys.argv[2:]))
