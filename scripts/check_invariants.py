#!/usr/bin/env python
"""Repo-specific invariant lint, enforced in CI alongside ruff/mypy.

Walks the source tree's ASTs and checks invariants a generic linter cannot
know about:

* **Determinism in ``scenarios/``** — the campaign generators must be fully
  seed-driven so ground truth is reproducible: no ``time.time()`` /
  ``time.time_ns()``, no ``datetime.now()`` / ``utcnow()`` / ``today()``, and
  no module-level ``random.*`` calls (seeded ``random.Random`` instances are
  fine).
* **Durability (repo-wide)** — every ``os.replace`` must be preceded by an
  ``os.fsync`` in the same function, otherwise a crash can publish a
  checkpoint or segment manifest whose bytes never hit the disk.  The rule
  started in ``streaming/`` (checkpoints) and now covers the whole tree
  because ``storage/segment/`` publishes manifests and sealed segment
  directories with the same write-temp → fsync → replace idiom.
* **No mutable default arguments** (repo-wide) — a ``def f(x=[])`` style
  default is shared across calls and has produced real state-bleed bugs in
  exactly the kind of long-lived service this repo builds.
* **Import boundaries** (repo-wide) — nothing under ``src/repro/`` imports
  ``sqlite3`` or anything from ``tests``: the sqlite store, the row-dict
  executor and the DFS matcher are reference implementations that live with
  the tests and must not drift back.  And nothing outside ``repro/tbql/``
  imports ``repro.tbql.compiler``: storage, streaming, intel and core reach
  data queries only through ``PreparedQuery``.  Likewise only ``storage/``
  imports ``repro.storage.segment`` or ``repro.storage.relational.executor``:
  the rest of the product reaches a store through ``AuditStore``.
* **No per-row compilation in ``storage/``** — no ``re.compile`` or
  ``like_tokens`` call inside an ``evaluate`` or ``matches`` method: a LIKE
  is compiled once per distinct pattern, never per row or graph node.
* **One ingest path in ``storage/``** — no class but ``AuditStore`` defines
  ``load_trace``, ``load_entities`` or ``load_events``: a backend takes rows
  through ``append_batch`` only, and a whole-trace load is a stream with one
  batch.
* **One write step in ``src/``** — no ``Table.insert`` or
  ``Table.insert_many`` call outside ``storage/relational/table.py``: rows
  enter a table through ``Table.append_columns``, which validates each column
  once and extends each array and index once per batch.  ``insert_many(...)``
  is flagged with any arguments, ``insert(...)`` with exactly one (a row);
  ``list.insert(i, x)`` and the indexes' ``insert(value, position)`` take two.

Exit status: 0 when clean, 1 with one ``file:line: message`` per violation
otherwise.  Run as ``python scripts/check_invariants.py`` from the repo root.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Wall-clock calls forbidden in determinism-critical paths.
_WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Module-level ``random.*`` uses the shared global RNG; scenario code must
#: thread a seeded ``random.Random`` instance instead.
_GLOBAL_RANDOM_MODULE = "random"
_ALLOWED_RANDOM_ATTRS = {"Random", "SystemRandom"}

#: Module -> (directory under ``src/repro/`` that may import it, or ``None``
#: for nowhere in the product; why).
_IMPORT_BOUNDARIES: dict[str, tuple[str | None, str]] = {
    "sqlite3": (None, "test oracles stay under tests/, out of the product"),
    "tests": (None, "test oracles stay under tests/, out of the product"),
    "repro.tbql.compiler": (
        "tbql/",
        "only repro.tbql compiles patterns; everything else goes through PreparedQuery",
    ),
    "repro.storage.segment": (
        "storage/",
        "only repro.storage opens segments; everything else goes through AuditStore",
    ),
    "repro.storage.relational.executor": (
        "storage/",
        "only repro.storage plans data queries; everything else goes through AuditStore",
    ),
}

_MUTABLE_DEFAULT_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)

#: Methods the storage engines call once per row or node.
_PER_ROW_METHODS = {"evaluate", "matches"}

#: Whole-trace loaders only ``AuditStore`` may define under ``storage/``.
_LOAD_METHODS = {"load_trace", "load_entities", "load_events"}
_LOADING_CLASS = "AuditStore"

#: The one module that may call ``Table.insert`` / ``Table.insert_many``.
_WRITE_STEP_MODULE = "storage/relational/table.py"


def _dotted(node: ast.AST) -> tuple[str, ...]:
    """The dotted-name path of an attribute/name expression (best effort)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


class Violation:
    def __init__(self, path: Path, line: int, message: str) -> None:
        self.path = path
        self.line = line
        self.message = message

    def render(self) -> str:
        return f"{self.path.relative_to(REPO_ROOT)}:{self.line}: {self.message}"


def check_determinism(path: Path, tree: ast.Module) -> list[Violation]:
    """No wall-clock or global-RNG calls in seed-driven scenario code."""
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if len(dotted) >= 2 and dotted[-2:] in _WALL_CLOCK_CALLS:
            violations.append(
                Violation(
                    path,
                    node.lineno,
                    f"wall-clock call {'.'.join(dotted)}() in a determinism-critical "
                    "path; derive times from the seed instead",
                )
            )
        if (
            len(dotted) == 2
            and dotted[0] == _GLOBAL_RANDOM_MODULE
            and dotted[1] not in _ALLOWED_RANDOM_ATTRS
        ):
            violations.append(
                Violation(
                    path,
                    node.lineno,
                    f"global-RNG call {'.'.join(dotted)}() in a determinism-critical "
                    "path; use a seeded random.Random instance",
                )
            )
    return violations


def check_fsync_before_replace(path: Path, tree: ast.Module) -> list[Violation]:
    """Every ``os.replace`` must follow an ``os.fsync`` in the same function.

    The atomic-publish idiom shared by the streaming persistence layer
    (checkpoints, alert journals) and the segmented store (column files,
    segment directories, the manifest) is write-temp → fsync →
    ``os.replace``; a replace without a preceding fsync can publish a file
    whose contents are still in the page cache when the machine dies.
    """
    violations: list[Violation] = []
    functions = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for function in functions:
        calls = [node for node in ast.walk(function) if isinstance(node, ast.Call)]
        fsync_lines = [
            call.lineno for call in calls if _dotted(call.func)[-1:] == ("fsync",)
        ]
        for call in calls:
            if _dotted(call.func)[-2:] != ("os", "replace"):
                continue
            if not any(line < call.lineno for line in fsync_lines):
                violations.append(
                    Violation(
                        path,
                        call.lineno,
                        "os.replace without a preceding os.fsync in "
                        f"{function.name}(); a crash may publish unsynced bytes",
                    )
                )
    return violations


def check_mutable_defaults(path: Path, tree: ast.Module) -> list[Violation]:
    """No list/dict/set literals (or comprehensions) as parameter defaults."""
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            if isinstance(default, _MUTABLE_DEFAULT_NODES):
                name = getattr(node, "name", "<lambda>")
                violations.append(
                    Violation(
                        path,
                        default.lineno,
                        f"mutable default argument in {name}(); use None and "
                        "construct inside the body",
                    )
                )
    return violations


def check_import_boundaries(path: Path, tree: ast.Module, relative: str = "") -> list[Violation]:
    """No import that crosses a boundary in ``_IMPORT_BOUNDARIES``.

    ``relative`` is the file's posix path under ``src/repro/``.
    """
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # ``from repro.tbql import compiler`` names the module in the alias.
            modules = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for bounded, (allowed_in, reason) in _IMPORT_BOUNDARIES.items():
            if allowed_in is not None and relative.startswith(allowed_in):
                continue
            crossing = [m for m in modules if m == bounded or m.startswith(bounded + ".")]
            if crossing:
                violations.append(
                    Violation(path, node.lineno, f"import of {crossing[0]!r}: {reason}")
                )
    return violations


def check_no_per_row_compile(path: Path, tree: ast.Module) -> list[Violation]:
    """No ``re.compile`` or ``like_tokens`` call inside an ``evaluate`` or
    ``matches`` method: those run once per row or graph node.

    A call through a helper method of the same class (``self._regex()``)
    counts as a call inside.
    """

    def compiles(function: ast.AST) -> list[ast.Call]:
        return [
            node
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and (
                _dotted(node.func)[-2:] == ("re", "compile")
                or _dotted(node.func)[-1:] == ("like_tokens",)
            )
        ]

    violations: list[Violation] = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.ClassDef)):
            continue
        methods = {
            node.name: node
            for node in scope.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for name in _PER_ROW_METHODS & set(methods):
            calls = compiles(methods[name])
            for node in ast.walk(methods[name]):
                dotted = _dotted(node.func) if isinstance(node, ast.Call) else ()
                if len(dotted) == 2 and dotted[0] == "self" and dotted[1] in methods:
                    calls += [node] if compiles(methods[dotted[1]]) else []
            for call in calls:
                violations.append(
                    Violation(
                        path,
                        call.lineno,
                        f"{'.'.join(_dotted(call.func))}() inside {name}(), which runs "
                        "per row; compile once (expression.like_regex caches a LIKE)",
                    )
                )
    return violations


def check_one_ingest_path(path: Path, tree: ast.Module) -> list[Violation]:
    """No class but ``AuditStore`` defines a whole-trace loader."""
    violations: list[Violation] = []
    for scope in ast.walk(tree):
        if not isinstance(scope, ast.ClassDef) or scope.name == _LOADING_CLASS:
            continue
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node.name in _LOAD_METHODS
            ):
                violations.append(
                    Violation(
                        path,
                        node.lineno,
                        f"{scope.name}.{node.name}() is a second ingest path; a backend "
                        f"takes rows through append_batch, loads go through {_LOADING_CLASS}",
                    )
                )
    return violations


def check_one_write_path(path: Path, tree: ast.Module) -> list[Violation]:
    """No row-at-a-time ``Table`` write: a ``.insert_many(...)`` call, or an
    ``.insert(row)`` call with one argument."""
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        method = node.func.attr
        arguments = len(node.args) + len(node.keywords)
        if method == "insert_many" or (method == "insert" and arguments == 1):
            violations.append(
                Violation(
                    path,
                    node.lineno,
                    f".{method}() writes a table row by row; hand the batch's columns "
                    "to Table.append_columns",
                )
            )
    return violations


def run() -> int:
    violations: list[Violation] = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        relative = path.relative_to(SRC_ROOT).as_posix()
        if relative.startswith("scenarios/"):
            violations.extend(check_determinism(path, tree))
        if relative.startswith("storage/"):
            violations.extend(check_no_per_row_compile(path, tree))
            violations.extend(check_one_ingest_path(path, tree))
        if relative != _WRITE_STEP_MODULE:
            violations.extend(check_one_write_path(path, tree))
        violations.extend(check_fsync_before_replace(path, tree))
        violations.extend(check_mutable_defaults(path, tree))
        violations.extend(check_import_boundaries(path, tree, relative))
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"{len(violations)} invariant violation(s)", file=sys.stderr)
        return 1
    print("invariants OK")
    return 0


if __name__ == "__main__":
    sys.exit(run())
