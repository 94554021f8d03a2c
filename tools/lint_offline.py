"""Offline approximation of the CI lint gate (ruff's F-rule family).

The execution environment this repository is developed in has no network
access and no ruff wheel, while CI runs the real ``ruff check``.  This
script approximates the high-signal pyflakes-family rules with the stdlib
``ast`` module so the tree can be swept before pushing:

* F401 — imports never referenced in the module (``__all__``-aware,
  ``TYPE_CHECKING``-block aware, re-export-by-``as``-aware);
* F841 — local variables assigned once and never read (simple names only,
  underscore-prefixed dummies excluded, augmented/annotated/unpacking
  targets excluded — mirroring ruff's default scoping);
* E9 — files that do not compile;
* W001 — (cross-file, not a ruff rule) an attribute *stored* under one of
  :data:`STORE_ROOTS` that no file of :data:`LOAD_ROOTS` ever loads and
  that appears in no string constant (``getattr``, a ``describe()`` key):
  a counter with a writer and no reader, paid for on every message;
* W002 — (not a ruff rule) ``import numpy`` / ``from numpy import ...``
  outside every function of a module under :data:`NUMPY_ROOT`: numpy is
  13.7 MB of resident memory (numpy 2.4, CPython 3.11, x86-64 Linux) that
  every importer of the module pays, whether or not it ever handles an
  array.  Import it inside the function
  that builds one, and test ``sys.modules.get("numpy")`` before an
  ``isinstance(x, np.ndarray)``;
* W003 — (not a ruff rule) ``x.up`` / ``x.latency`` / ``x.bandwidth`` /
  ``x.loss_rate = ...`` with ``x`` not ``self``, in a function that never
  calls ``.changed(``: an out-of-band link change nobody announced with
  :meth:`repro.simnet.network.Network.changed`, so a sleeping active probe
  keeps folding ticks under the old parameters and a fluid plan keeps its
  committed rounds.  (perfbench is frozen and not swept; its
  ``kernel_timers`` has no probes and no fluid flows.)
* W004 — (not a ruff rule) under :data:`CHARGE_ROOTS`, a ``yield
  <x>.timeout(...)`` statement whose block's previous yielding statement
  yields a ``recv`` / ``recv_exact`` / ``read`` call: a read's cost run as a
  timer of its own after the read completes, two loop entries where the
  stack's rule (``abstraction/drivers.py``) has one — pass it as the read's
  ``charge`` instead, the delay of its one completion.  Likewise one whose
  block's next yielding statement yields a ``send`` / ``sendall`` /
  ``write`` call: a write's cost run as a timer of its own before the send
  — post the send that much later instead (``call_later(cost, sock.send,
  data, done)``).

Usage: ``python tools/lint_offline.py [paths...]`` (defaults to
``src tests benchmarks examples tools``; the tree rules W001, W002 and W004
run on the default sweep only).  Exits non-zero on findings.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: the layers on the per-message path, where a store costs every message,
#: the observers that ride it (monitoring, the flight recorder), and the
#: personalities, middleware and framework that drive it
STORE_ROOTS = tuple(
    f"src/repro/{layer}"
    for layer in (
        "simnet", "arbitration", "abstraction", "madeleine", "methods", "monitoring", "telemetry",
        "personalities", "middleware", "core",
    )
)
#: everywhere a reader could live
LOAD_ROOTS = ("src", "tests", "benchmarks", "examples", "tools", "perfbench")
#: the library: numpy is imported inside functions only (W002)
NUMPY_ROOT = "src/repro"
#: link state every parameter cache listens for through Network.changed
#: (W003); ``up`` also stands for a host's
LINK_PARAMETERS = ("up", "latency", "bandwidth", "loss_rate")
#: the layers above VLink, whose reads may charge time (W004)
CHARGE_ROOTS = ("src/repro/middleware", "src/repro/personalities")
#: the read calls a charge must ride (W004)
READ_CALLS = ("recv", "recv_exact", "read")
#: the write calls a charge must delay (W004)
WRITE_CALLS = ("send", "sendall", "write")


def _names_loaded(tree: ast.AST) -> set:
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                loaded.add(root.id)
    return loaded


def _annotation_string_names(tree: ast.AST) -> set:
    """Names referenced inside *quoted* annotations (ruff parses those)."""
    out = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    expr = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                out |= _names_loaded(expr)
    return out


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    try:
                        return set(ast.literal_eval(node.value))
                    except ValueError:
                        return set()
    return set()


def check_unused_imports(path: Path, tree: ast.Module, source: str) -> list:
    findings = []
    exported = _exported(tree)
    loaded = _names_loaded(tree) | _annotation_string_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            explicit_reexport = alias.asname is not None and alias.asname == alias.name
            if bound in exported or explicit_reexport:
                continue
            if bound not in loaded:
                findings.append((path, node.lineno, f"F401 unused import {bound!r}"))
    return findings


class _FunctionVisitor(ast.NodeVisitor):
    def __init__(self, path: Path, findings: list):
        self.path = path
        self.findings = findings

    def visit_FunctionDef(self, node):  # noqa: N802 - ast API
        self._check(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check(self, fn) -> None:
        # ruff's F841 default scope: simple `name = ...` statements only —
        # no unpacking, no loop/with targets, no augmented assignments.
        assigned = {}
        read = set()
        has_nested_scope = False
        for node in ast.walk(fn):
            if node is fn:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                has_nested_scope = True
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, node.lineno)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                root = node
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name):
                    read.add(root.id)
        if has_nested_scope:
            # closures may read anything; mirroring ruff's conservatism
            return
        for name, lineno in assigned.items():
            if name.startswith("_") or name in read:
                continue
            self.findings.append(
                (self.path, lineno, f"F841 local variable {name!r} assigned but never used")
            )


def _own_nodes(fn):
    """The nodes of ``fn``'s body that are not inside a nested function."""
    for child in ast.iter_child_nodes(fn):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield child
        yield from _own_nodes(child)


def _stored_attributes(node):
    """``(attribute node)`` targets of an assignment statement, unpacked."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Attribute):
            yield target


def check_unannounced_link_changes(path: Path, tree: ast.AST) -> list:
    """W003: a store to :data:`LINK_PARAMETERS` on anything but ``self`` in
    a function that never calls ``.changed(``."""
    findings = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(_own_nodes(fn))
        stores = [
            target
            for node in own
            for target in _stored_attributes(node)
            if target.attr in LINK_PARAMETERS
            and not (isinstance(target.value, ast.Name) and target.value.id == "self")
        ]
        if not stores or any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "changed"
            for node in own
        ):
            continue
        for target in stores:
            findings.append(
                (path, target.lineno,
                 f"W003 store to .{target.attr} with no .changed() call: "
                 "the link's probes and fluid plans never hear of it")
            )
    return findings


def check_file(path: Path) -> list:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, f"E9 syntax error: {exc.msg}")]
    findings = check_unused_imports(path, tree, source)
    findings.extend(check_unannounced_link_changes(path, tree))
    _FunctionVisitor(path, findings).visit(tree)
    lines = source.splitlines()
    return [
        (p, lineno, message)
        for p, lineno, message in findings
        if lineno < 1 or lineno > len(lines) or "# noqa" not in lines[lineno - 1]
    ]


def _python_files(roots, base: Path) -> list:
    return [path for root in roots for path in sorted((base / root).rglob("*.py"))]


def check_write_only_attributes(base: Path = REPO) -> list:
    """W001 over the tree at ``base``: ``x.name = ...`` / ``x.name += ...``
    under :data:`STORE_ROOTS` with no ``x.name`` load and no ``"name"``
    string constant anywhere in :data:`LOAD_ROOTS` (``__slots__`` entries
    declare a slot, they do not read it)."""
    read = set()
    for path in _python_files(LOAD_ROOTS, base):
        tree = ast.parse(path.read_text(), filename=str(path))
        slots = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
            ):
                slots.update(id(sub) for sub in ast.walk(node.value))
        read.update(
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in slots
        )
    findings = []
    for path in _python_files(STORE_ROOTS, base):
        seen = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and node.attr not in read
                and node.attr not in seen
            ):
                seen.add(node.attr)
                findings.append(
                    (path.relative_to(base), node.lineno,
                     f"W001 attribute {node.attr!r} is stored but never loaded")
                )
    return sorted(findings)


def _outside_functions(node: ast.AST):
    """The nodes below ``node`` that run when the module is imported."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _outside_functions(child)


def check_module_level_numpy(base: Path = REPO) -> list:
    """W002 over the tree at ``base``: a numpy import under
    :data:`NUMPY_ROOT` that is not inside a function."""
    findings = []
    for path in _python_files((NUMPY_ROOT,), base):
        for node in _outside_functions(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                findings.append(
                    (path.relative_to(base), node.lineno,
                     "W002 module-level numpy import: import it where an array is handled")
                )
    return sorted(findings)


def _yielded_call(stmt) -> "str | None":
    """``name`` when ``stmt`` is ``[target =] yield [from] <x>.name(...)``."""
    if not isinstance(stmt, (ast.Expr, ast.Assign, ast.AnnAssign, ast.AugAssign)):
        return None
    value = stmt.value
    if (
        isinstance(value, (ast.Yield, ast.YieldFrom))
        and isinstance(value.value, ast.Call)
        and isinstance(value.value.func, ast.Attribute)
    ):
        return value.value.func.attr
    return None


def check_read_charge_timeouts(base: Path = REPO) -> list:
    """W004 over the tree at ``base``: in a statement block under
    :data:`CHARGE_ROOTS`, a ``yield <x>.timeout(...)`` whose previous
    yielding statement yields one of :data:`READ_CALLS`, or whose next one
    yields one of :data:`WRITE_CALLS` (statements that do not yield may sit
    between them)."""
    findings = []
    for path in _python_files(CHARGE_ROOTS, base):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)
                if not isinstance(block, list):
                    continue
                previous = None  # the last yielding statement's call, "" when not a call
                previous_line = None
                for stmt in block:
                    name = _yielded_call(stmt)
                    if name is None:
                        if not any(isinstance(sub, (ast.Yield, ast.YieldFrom))
                                   for sub in _own_nodes(stmt)):
                            continue
                        name = ""
                    if name == "timeout" and previous in READ_CALLS:
                        findings.append(
                            (path.relative_to(base), stmt.lineno,
                             "W004 read charge run as a timer after the read: "
                             "pass it as the read's charge")
                        )
                    if name in WRITE_CALLS and previous == "timeout":
                        findings.append(
                            (path.relative_to(base), previous_line,
                             "W004 write charge run as a timer before the send: "
                             "post the send that much later")
                        )
                    previous, previous_line = name, stmt.lineno
    return sorted(findings)


def main(argv: list) -> int:
    roots = [Path(p) for p in (argv or ["src", "tests", "benchmarks", "examples", "tools"])]
    findings = []
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            findings.extend(check_file(path))
    if not argv:
        findings.extend(check_write_only_attributes())
        findings.extend(check_module_level_numpy())
        findings.extend(check_read_charge_timeouts())
    for path, lineno, message in findings:
        print(f"{path}:{lineno}: {message}")
    print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
