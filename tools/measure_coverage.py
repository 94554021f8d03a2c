"""Measure line coverage of ``src/repro`` without coverage.py.

CI runs the real thing (``coverage run -m pytest tests`` + ``coverage
report --fail-under=N``); this script exists because the offline
development environment has no coverage wheel, yet the CI threshold must
be *measured*, not aspirational.  It approximates coverage.py's line
metric with the stdlib:

* executable lines per module come from the compiled code objects
  (``co_lines`` over the full nesting), the same source of truth
  coverage.py uses;
* executed lines are collected by a ``sys.settrace`` hook that keeps
  per-frame tracing enabled only for files under ``src/repro``, and the
  same hook records every code object it sees called.

Usage::

    PYTHONPATH=src python tools/measure_coverage.py [--missed]
        [--check tools/never_called.txt] [pytest-args...]

The pytest arguments default to ``tests benchmarks -q``.  The script prints
per-package and total percentages; use the total (minus a small
tooling-drift margin) as the CI ``fail_under`` threshold.

``--missed`` also lists every function that is never entered, then the
missed lines of every function that is.  A function here is an outermost
code object: a module-level function or a method, at any class nesting.
Nested functions, lambdas and comprehensions count as lines of the function
that holds them.  ``--check FILE`` fails (exit 1) when a never-entered
function is not listed in FILE, the committed list of functions that stay
uncalled, one ``path::qualname  # reason`` per line.

Only the pytest process is traced: code that runs in a child process (for
example ``Communicator.Send``, reached only from ``tests/test_lazy_numpy.py``'s
subprocess) is reported as never called.  Grep every listed name before
deleting it.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PREFIX = str(SRC / "repro")
DEFAULT_PYTEST_ARGS = ["tests", "benchmarks", "-q", "-p", "no:cacheprovider"]


def _code_lines(code) -> set:
    """Every line of ``code`` and of the code objects nested in it."""
    lines = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        lines.update(line for _, _, line in obj.co_lines() if line is not None)
        stack.extend(const for const in obj.co_consts if inspect.iscode(const))
    return lines


def _compile(path: Path):
    try:
        return compile(path.read_text(), str(path), "exec")
    except SyntaxError:
        return None


def executable_lines(path: Path) -> set:
    code = _compile(path)
    return _code_lines(code) if code is not None else set()


def outermost_functions(code, prefix: str = ""):
    """``(qualname, code)`` of every function or method defined in ``code``
    outside any function body (class bodies are walked, function bodies not)."""
    for const in code.co_consts:
        if not inspect.iscode(const) or const.co_name.startswith("<"):
            continue  # lambdas, comprehensions, generator expressions
        qualname = f"{prefix}{const.co_name}"
        if const.co_flags & inspect.CO_NEWLOCALS:
            yield qualname, const
        else:  # a class body
            yield from outermost_functions(const, f"{qualname}.")


def _key(code) -> tuple:
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _ranges(lines) -> str:
    spans, start, prev = [], None, None
    for line in sorted(lines):
        if start is None:
            start = prev = line
        elif line == prev + 1:
            prev = line
        else:
            spans.append((start, prev))
            start = prev = line
    if start is not None:
        spans.append((start, prev))
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def read_never_called(path: Path) -> dict:
    """``{"path::qualname": reason}`` from a never-called list (``#`` starts
    the reason; lines that start with ``#`` are comments)."""
    entries = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition("#")
        entries[name.strip()] = reason.strip()
    return entries


def report_missed(executed: dict, called: set, listed: dict = None) -> int:
    """Print never-entered functions and the missed lines of the others;
    with ``listed``, return the number of never-entered functions it lacks."""
    never, partial = [], []
    for path in sorted((SRC / "repro").rglob("*.py")):
        code = _compile(path)
        if code is None:
            continue
        hits = executed.get(str(path), set())
        rel = path.relative_to(SRC).as_posix()
        for qualname, func in outermost_functions(code):
            lines = _code_lines(func)
            missed = lines - hits
            if _key(func) not in called:
                never.append((f"{rel}::{qualname}", len(lines)))
            elif missed:
                partial.append((f"{rel}::{qualname}", missed))
    print(f"\nnever entered: {len(never)} functions, {sum(n for _, n in never)} lines")
    for name, nlines in never:
        print(f"  {name}  ({nlines} lines)")
    print(f"\nentered, with missed lines: {len(partial)} functions")
    for name, missed in partial:
        print(f"  {name}  {_ranges(missed)}")
    if listed is None:
        return 0
    never_names = {name for name, _ in never}
    unlisted = sorted(never_names - set(listed))
    stale = sorted(set(listed) - never_names)
    for name in stale:
        print(f"note: listed but entered now, drop it from the list: {name}")
    for name in unlisted:
        print(f"NEW never-called function (test it, delete it, or list it): {name}")
    return len(unlisted)


def main(argv: list) -> int:
    argv = list(argv)
    missed = "--missed" in argv
    if missed:
        argv.remove("--missed")
    listed = None
    if "--check" in argv:
        at = argv.index("--check")
        listed = read_never_called(Path(argv[at + 1]))
        del argv[at : at + 2]
        missed = True

    executed: dict = {}
    called: set = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PREFIX):
            return None
        called.add(_key(code))
        lines = executed.setdefault(code.co_filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    import pytest

    sys.settrace(tracer)
    try:
        exit_code = pytest.main(argv or DEFAULT_PYTEST_ARGS)
    finally:
        sys.settrace(None)
    if exit_code != 0:
        print(f"pytest failed with {exit_code}; coverage numbers are meaningless")
        return int(exit_code)

    total_exec, total_hit = 0, 0
    per_package: dict = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        stmts = executable_lines(path)
        hits = executed.get(str(path), set()) & stmts
        package = path.relative_to(SRC / "repro").parts[0]
        acc = per_package.setdefault(package, [0, 0])
        acc[0] += len(stmts)
        acc[1] += len(hits)
        total_exec += len(stmts)
        total_hit += len(hits)
    print()
    for package, (stmts, hits) in sorted(per_package.items()):
        pct = 100.0 * hits / stmts if stmts else 100.0
        print(f"{package:20s} {hits:6d}/{stmts:<6d} {pct:6.1f}%")
    pct = 100.0 * total_hit / total_exec if total_exec else 100.0
    print(f"{'TOTAL':20s} {total_hit:6d}/{total_exec:<6d} {pct:6.1f}%")
    if missed:
        return 1 if report_missed(executed, called, listed) else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
