#!/usr/bin/env python3
"""List the statements of ``src/freqskip`` that a pytest run never executes.

Runs pytest in this process under a ``sys.settrace`` hook that records line
events only in frames whose code lives under ``src/freqskip``, then prints
each statement whose line never ran as ``file:line source``, followed by a
count.  A statement is an ``ast`` statement node that the compiler emits
code for, so docstrings and comments are never listed; a statement that
spans several lines is listed at its first line.

No coverage package is needed.  Only this process is traced: the forked
``--jobs`` pool workers and the tests that start a subprocess run untraced,
so the lines only they execute are listed as never run.

Usage: PYTHONPATH=src python scripts/untested_lines.py [pytest args]
(with no arguments, the whole suite under ``tests/``).  The exit status is
pytest's.
"""

import ast
import os
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "freqskip") + os.sep


def _code_lines(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _statements(path: str) -> dict[int, tuple[range, str]]:
    """First line -> (header lines, source text) of each statement the
    compiler emits code for; a decorated definition's header runs from its
    first decorator to its ``def`` or ``class`` line."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    emitted = _code_lines(compile(source, path, "exec"))
    text = source.splitlines()
    found = {}
    for node in ast.walk(ast.parse(source, path)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        header = range(first, node.lineno + 1)
        if emitted.intersection(header):
            found[first] = (header, text[first - 1].strip())
    return found


def main(argv: list[str]) -> int:
    ran: dict[str, set[int]] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE):
            return None
        ran.setdefault(filename, set())
        return trace_lines

    sys.settrace(trace_calls)
    try:
        code = pytest.main(argv or [os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)

    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        seen = ran.get(path, set())
        for line, (header, source) in sorted(_statements(path).items()):
            if seen.isdisjoint(header):
                print(f"{os.path.relpath(path, ROOT)}:{line} {source}")
                missed += 1
    print(f"{missed} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
