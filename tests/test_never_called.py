"""``tools/never_called.txt`` names real functions, each with a reason.

The list is the ratchet of ``tools/measure_coverage.py --missed --check``:
every function of ``src/repro`` that no test or benchmark enters is listed
there with the reason it stays.  This test is the cheap, static half of the
check (the traced half needs the whole suite under ``sys.settrace``): each
entry must still name an outermost function or method of its module, as the
tool's own walk over the compiled module sees them.
"""

from __future__ import annotations

from tests.helpers import REPO, load_tool

LIST = REPO / "tools" / "never_called.txt"


def test_every_listed_function_exists_and_has_a_reason():
    coverage = load_tool("measure_coverage")
    lines = [
        line for line in LIST.read_text().splitlines() if line.strip() and line[0] != "#"
    ]
    entries = coverage.read_never_called(LIST)
    assert list(entries) == sorted(entries) and len(entries) == len(lines), "sorted, unique"
    functions: dict = {}
    for name, reason in entries.items():
        path, _, qualname = name.partition("::")
        assert reason, f"{name}: give the reason it stays"
        source = REPO / "src" / path
        assert source.is_file(), f"{name}: no module {path}"
        if path not in functions:
            code = compile(source.read_text(), str(source), "exec")
            functions[path] = {q for q, _ in coverage.outermost_functions(code)}
        assert qualname in functions[path], f"{name}: no such function; drop the entry"


def test_the_walk_sees_methods_but_not_nested_functions_or_lambdas():
    code = compile(
        "def top():\n"
        "    def inner():\n"
        "        pass\n"
        "class A:\n"
        "    def m(self):\n"
        "        return [x for x in ()]\n"
        "    class B:\n"
        "        async def n(self):\n"
        "            pass\n"
        "key = lambda x: x\n",
        "<walk>",
        "exec",
    )
    names = [q for q, _ in load_tool("measure_coverage").outermost_functions(code)]
    assert sorted(names) == ["A.B.n", "A.m", "top"]
