"""Print the statements of ``src/semismi`` that no test executes.

Usage, from the root of a checkout:

    python tools/untested_lines.py [PYTEST ARGUMENT ...]

Runs pytest in this process with the given arguments, which select
tests as on pytest's own command line, under a line tracer installed
with ``sys.settrace`` and ``threading.settrace`` and restricted to the
files of ``src/semismi``.  Then it prints ``<file>:<line>: <source>``
for each statement that no test executed, and one count per module.
``def`` and ``class`` statements, imports and docstrings are left out:
they run when a module is imported, not when a test calls into it.  A
statement counts as executed when any of its own lines (the header of a
compound statement) that the compiler gives code was traced, so lines
without code, such as ``try:`` or a bare ``else:``, are never listed.
Exits with pytest's exit code.

The statements that Tier-1 leaves untested, without its three slowest
acceptance tests:

    python tools/untested_lines.py -q -k "not criterion_05 and not criterion_06 and not criterion_10"
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "semismi"

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_LEFT_OUT = (*_DEFINITIONS, ast.Import, ast.ImportFrom)


def _code_lines(code) -> set[int]:
    """The lines that ``code`` and the code objects nested in it can execute."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _docstrings(tree: ast.Module) -> set[int]:
    """The first line of each module, class and function docstring."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITIONS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    found.add(first.lineno)
    return found


def statements(path: Path) -> dict[int, set[int]]:
    """Each statement's first line, mapped to its own lines that have code."""
    source = path.read_text()
    tree = ast.parse(source)
    has_code = _code_lines(compile(source, str(path), "exec"))
    skip = _docstrings(tree)
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _LEFT_OUT):
            continue
        if node.lineno in skip:
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        own = set(range(node.lineno, last + 1)) & has_code
        if own:
            found[node.lineno] = own
    return found


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    executed = {name: set() for name in files}

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        if frame.f_code.co_filename in executed:
            return trace_lines(frame, event, arg)
        return None

    sys.path.insert(0, str(SRC))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    counts = []
    for name, path in files.items():
        lines = path.read_text().splitlines()
        missed = 0
        for first, own in sorted(statements(path).items()):
            if not own & executed[name]:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
        counts.append(f"{path.relative_to(ROOT)}: {missed} untested statements")
    print(*counts, sep="\n")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
