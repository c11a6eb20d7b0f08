"""List every statement of `src/eahc` that the tier-1 tests never run.

Usage, from the root of a checkout:

    python tests/unrun_statements.py [PYTEST_ARGS ...]

It runs pytest in this process under a `sys.settrace` line tracer that
records the lines executed in `src/eahc`, with criterion 7 (the long
round-trip suite) deselected; extra arguments go to pytest.  A statement
is unrun when none of its lines that carry bytecode was executed; for a
compound statement only its header counts (the `if` test, the `for`
target and iterable, and so on), since its body is made of statements
of its own.  A statement that carries no bytecode, such as a docstring,
is skipped.  The script prints `path:line: source` per unrun statement,
then the count and pytest's exit status.  Tracing slows the suite, so a
wall-clock gate may fail under it.  Its name keeps pytest from
collecting it.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eahc"
DESELECT = "tests/test_acceptance.py::test_criterion_07_round_trip_suite"


def _code_lines(code: CodeType) -> set[int]:
    """Every line that carries bytecode in `code` and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def _statements(tree: ast.AST) -> list[tuple[ast.stmt, range]]:
    """(statement, lines that count) for every statement, in line order."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:  # a compound statement's header
            found.append((node, range(node.lineno, body[0].lineno)))
        else:
            found.append((node, range(node.lineno, node.end_lineno + 1)))
    return sorted(found, key=lambda item: (item[0].lineno, item[0].col_offset))


def main(args: list[str]) -> None:
    executed: set[tuple[str, int]] = set()
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            executed.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    if any(name == "eahc" or name.startswith("eahc.") for name in sys.modules):
        raise SystemExit("eahc is already imported: its module lines would be missed")
    os.chdir(ROOT)  # pytest reads its settings, `src` on the path, from here
    sys.settrace(trace)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--deselect", DESELECT, *args]
        )
    finally:
        sys.settrace(None)

    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        carried = _code_lines(compile(source, str(path), "exec"))
        ran = {line for name, line in executed if name == str(path)}
        for node, span in _statements(ast.parse(source)):
            counted = carried.intersection(span)
            if counted and not counted & ran:
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    print(f"{unrun} unrun statements; pytest exit status {int(status)}")


if __name__ == "__main__":
    main(sys.argv[1:])
