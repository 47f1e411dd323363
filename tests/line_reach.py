"""Line-reach probe: a pytest plugin that reports each statement in a
function body of the ``stormrisk`` package that no test ran.

Run by hand, not as a tier-1 test (its name keeps it out of
collection)::

    PYTHONPATH=src:tests python -m pytest -q -p line_reach tests

It traces, with ``sys.settrace`` and ``threading.settrace``, only the
frames of the package's own files, so tests run in a subprocess reach
nothing.  A statement counts as reached when any line it spans outside
its nested statements ran; the report lists each other statement as
``file:line: source``, then their count.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import threading
from collections import defaultdict
from pathlib import Path

_PACKAGE = Path(importlib.util.find_spec("stormrisk").submodule_search_locations[0]).resolve()
# The lines run in each file seen, None for a file outside the package.
_hits: dict[str, set[int] | None] = {}


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    lines = _hits.get(filename, False)
    if lines is False:
        inside = Path(filename).resolve().parent == _PACKAGE
        lines = _hits.setdefault(filename, set() if inside else None)
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _own_lines(stmt: ast.stmt) -> set[int]:
    """The lines of ``stmt`` that are not those of a statement nested in it."""
    nested = [
        child
        for field in ("body", "orelse", "finalbody", "handlers")
        for child in getattr(stmt, field, [])
    ]
    start = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", []))])
    end = min((c.lineno for c in nested), default=stmt.end_lineno + 1) - 1
    return set(range(start, max(start, end) + 1))


def _body_statements(tree: ast.Module):
    """Each statement in a function body, at any depth, except docstrings,
    bare ``try`` headers and declarations, which run no line of their own."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = func.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        todo = list(body)
        while todo:
            stmt = todo.pop()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield stmt  # its own body is visited as a function of its own
                continue
            for field in ("body", "orelse", "finalbody", "handlers"):
                todo += getattr(stmt, field, [])
            if not isinstance(stmt, (ast.Try, ast.Global, ast.Nonlocal)):
                yield stmt


def _unreached() -> list[str]:
    hits: defaultdict[Path, set[int]] = defaultdict(set)
    for filename, lines in _hits.items():
        if lines is not None:
            hits[Path(filename).resolve()] |= lines
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        hit = hits[path]
        for stmt in _body_statements(ast.parse(source)):
            if not _own_lines(stmt) & hit:
                found.append((path.name, stmt.lineno, lines[stmt.lineno - 1].strip()))
    return [f"{name}:{lineno}: {text}" for name, lineno, text in sorted(found)]


def pytest_configure(config):
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    unreached = _unreached()
    terminalreporter.section("line_reach")
    for line in unreached:
        terminalreporter.write_line(line)
    terminalreporter.write_line(f"line_reach: {len(unreached)} unreached")
