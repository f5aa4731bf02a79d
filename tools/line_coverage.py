"""Statement lines of `src/monopart` that no test executes.

Runs pytest in this process with a `sys.settrace` / `threading.settrace`
hook that records the lines run by frames of `src/monopart` files only,
then prints, per module, the statement lines (found with `ast`,
docstrings excluded) that never ran.  A compound statement counts as run
when a line of its header ran (decorators included); a simple statement
when any of its lines did.

Usage, from the repository root (extra arguments go to pytest):

    python tools/line_coverage.py [tests/test_bipartite.py ...]

Limits:

- Tests that run the program in a subprocess (the CLI tests started with
  `python -m monopart`) are not traced; lines only they reach are listed.
- A test that installs its own trace function for a while (the opcode
  and re-routing spies) hides the lines run meanwhile; the hook is put
  back after every test.
- `test_red_adjacency_takes_under_a_byte_per_edge` is deselected: its
  `tracemalloc` bound counts the hook's own allocations.

A full run of `tests/` takes about eight minutes on a 2-core VM, five
times the untraced run; it is a diagnostic, not part of the test suite.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "monopart"
DESELECT = "tests/test_threecolour.py::test_red_adjacency_takes_under_a_byte_per_edge"

_prefix = str(PACKAGE) + "/"
_hits: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_prefix):
        return None
    _hits.setdefault(name, set()).add(frame.f_lineno)
    return _local


class _Rehook:
    """Puts the hook back after each test, in case the test replaced it."""

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        yield
        sys.settrace(_global)


def _is_docstring(node, parent) -> bool:
    body = getattr(parent, "body", None)
    return (
        isinstance(body, list) and body and body[0] is node
        and isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statement_spans(source: str):
    """(first line, last line) of each statement's header, in line order."""
    tree = ast.parse(source)
    spans = []
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            if _is_docstring(node, parent):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
            spans.append((first, max(first, last)))
    return sorted(spans)


def report() -> None:
    """Prints the unexecuted statement lines of each module."""
    for path in sorted(PACKAGE.glob("*.py")):
        ran = _hits.get(str(path), set())
        missed = [
            first for first, last in statement_spans(path.read_text())
            if not any(line in ran for line in range(first, last + 1))
        ]
        print(f"{path.relative_to(ROOT)}: {len(missed)} unexecuted", end="")
        print(": " + ", ".join(map(str, missed)) if missed else "")


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    args = ["-q", "-p", "no:cacheprovider", f"--deselect={DESELECT}"] + (argv or ["tests"])
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(args, plugins=[_Rehook()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report()
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
