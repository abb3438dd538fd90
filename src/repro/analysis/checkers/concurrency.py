"""CC01/CC02 — lock discipline and executor capture safety.

Both rules consume the mutation summaries computed by
:mod:`repro.analysis.effects`; see that module for what counts as a
mutation, how aliases are tracked, and the ``guarded-by``/``holds`` pragma
conventions.

**CC01** enforces declared lock discipline on every class in ``src/repro``:

* a field named in a ``GUARDED_BY`` manifest (or by an inline
  ``# repro: guarded-by(<lock>)`` pragma) may only be mutated inside a
  ``with self.<lock>:`` block — constructors (``__init__`` and friends)
  excepted, since no second thread can hold a reference yet;
* a guard naming an unknown field, a guard routed through an attribute
  that is not a lock, and a guard on a field nothing ever mutates are all
  findings themselves — stale declarations are how disciplines rot;
* every lock field (``self.X = threading.Lock()/RLock()/...``) must appear
  as a guard in the manifest: a lock that guards nothing declared is a
  lock nobody can audit.

**CC02** polices the executor boundary (``engine/executors/``): task
callables cross process boundaries, so the bit-identity guarantee assumes
they are self-contained.  Mutating a
module global from inside a function, or mutating closed-over state from a
nested function or lambda, is a finding.  The one sanctioned pattern is
registration — functions named ``register_*``/``unregister_*`` exist to
mutate their module registry and are carved out.
"""

from __future__ import annotations

import ast
from typing import ClassVar, List, Set, Tuple

from ..base import CheckContext, Checker, Finding
from ..effects import (
    MANIFEST_NAME,
    MUTATOR_METHODS,
    ClassSummary,
    module_summaries,
    root_name,
)

#: Methods allowed to mutate guarded fields without the lock: object
#: construction is single-threaded by definition.
CONSTRUCTOR_METHODS = frozenset({"__init__", "__new__", "__post_init__"})

#: Function-name prefixes sanctioned to mutate module registries (CC02).
REGISTRATION_PREFIXES = ("register", "unregister", "_register", "_unregister")


class LockDisciplineChecker(Checker):
    """Guarded fields mutate only under their declared lock."""

    rule: ClassVar[str] = "CC01"
    title: ClassVar[str] = (
        "GUARDED_BY fields mutate only under 'with self.<lock>:'"
    )
    description: ClassVar[str] = (
        "every mutation of a declared-guarded field must be lexically inside "
        "its lock's with-block (or in a method pragma'd '# repro: "
        "holds(<lock>)'); stale guards, unknown fields, non-lock guards, and "
        "undeclared lock fields are findings too"
    )
    scope: ClassVar[Tuple[str, ...]] = ("repro/",)

    def run(self, tree: ast.AST, context: CheckContext) -> List[Finding]:
        self.findings = []
        self._context = context
        for summary in module_summaries(tree, context):
            self._check_class(summary)
        return self.findings

    def _report_at(self, line: int, col: int, message: str) -> None:
        assert self._context is not None
        self.findings.append(
            Finding(
                rule=self.rule,
                path=self._context.path,
                line=line,
                col=col,
                message=message,
                snippet=self._context.snippet(line),
            )
        )

    def _check_class(self, summary: ClassSummary) -> None:
        if summary.manifest_error:
            self._report_at(
                summary.manifest_line or summary.line,
                1,
                f"{summary.name}: {summary.manifest_error}",
            )
        for pragma_line in summary.dangling_guard_pragmas:
            self._report_at(
                pragma_line,
                1,
                f"{summary.name}: guarded-by pragma attaches to no "
                "self.<field> assignment on this or the next line",
            )
        for field_name, lock in sorted(summary.guarded_by.items()):
            anchor = summary.guard_lines.get(field_name, summary.line)
            if field_name not in summary.fields:
                self._report_at(
                    anchor,
                    1,
                    f"{summary.name}: {MANIFEST_NAME} guards unknown field "
                    f"{field_name!r} (never assigned on self)",
                )
                continue
            if lock not in summary.lock_fields:
                self._report_at(
                    anchor,
                    1,
                    f"{summary.name}: guard for {field_name!r} names "
                    f"{lock!r}, which is not a lock field "
                    "(no self.{lock} = threading.Lock()/RLock()/... found)",
                )
                continue
            mutations = [
                m
                for m in summary.mutations_of(field_name)
                if m.method not in CONSTRUCTOR_METHODS
            ]
            if not mutations:
                self._report_at(
                    anchor,
                    1,
                    f"{summary.name}: {field_name!r} is declared guarded by "
                    f"{lock!r} but never mutated outside a constructor — "
                    "stale guard; remove it or keep the mutation",
                )
                continue
            for mutation in mutations:
                if lock in mutation.locks:
                    continue
                via = f" via alias {mutation.via!r}" if mutation.via else ""
                self._report_at(
                    mutation.line,
                    mutation.col,
                    f"{summary.name}.{mutation.method}: mutates guarded "
                    f"field {field_name!r}{via} outside 'with self.{lock}:'",
                )
        undeclared = summary.lock_fields - set(summary.guarded_by.values())
        for lock in sorted(undeclared):
            mutations = summary.mutations_of(lock)
            anchor = mutations[0].line if mutations else summary.line
            self._report_at(
                anchor,
                1,
                f"{summary.name}: lock field {lock!r} guards nothing declared"
                f" — add a {MANIFEST_NAME} entry or guarded-by pragma for "
                "each field it protects",
            )


def _bound_names(node: ast.AST) -> Set[str]:
    """Names bound in one function's own scope (nested defs excluded)."""
    bound: Set[str] = set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        for arg in (
            args.posonlyargs + args.args + args.kwonlyargs
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            bound.add(arg.arg)
    for statement in _own_statements(node):
        for sub in ast.walk(statement):
            if isinstance(sub, ast.Name) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                bound.add(sub.id)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(sub.name)
            elif isinstance(sub, ast.ClassDef):
                bound.add(sub.name)
            elif isinstance(sub, ast.ExceptHandler) and sub.name:
                bound.add(sub.name)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                for alias in sub.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
    return bound


def _own_statements(node: ast.AST) -> List[ast.stmt]:
    """The function's statements with nested def/lambda bodies cut out."""
    if isinstance(node, ast.Lambda):
        return [ast.Expr(value=node.body)]
    own: List[ast.stmt] = []
    stack = list(getattr(node, "body", []))
    while stack:
        statement = stack.pop(0)
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own.append(statement)
        for field_, value in ast.iter_fields(statement):
            if field_ in ("body", "orelse", "finalbody", "handlers"):
                for child in value:
                    if isinstance(child, ast.ExceptHandler):
                        stack.extend(child.body)
                    elif isinstance(child, ast.stmt):
                        stack.append(child)
    return own


def _walk_without_nested(statements: List[ast.stmt]):
    """Expressions of the statements, skipping nested def/lambda subtrees."""
    for statement in statements:
        stack: List[ast.AST] = [statement]
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))


class ExecutorCaptureChecker(Checker):
    """Executor task code must not mutate globals or captured state."""

    rule: ClassVar[str] = "CC02"
    title: ClassVar[str] = (
        "executor code mutates no module globals or closed-over state"
    )
    description: ClassVar[str] = (
        "callables crossing the executor boundary must be self-contained; "
        "the only sanctioned global mutation is registry insertion inside "
        "register_*/unregister_* functions"
    )
    scope: ClassVar[Tuple[str, ...]] = ("repro/engine/executors/",)

    def run(self, tree: ast.AST, context: CheckContext) -> List[Finding]:
        self.findings = []
        self._context = context
        module_globals: Set[str] = set()
        for statement in getattr(tree, "body", []):
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for sub in ast.walk(statement):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    module_globals.add(sub.id)
        for func in self._top_level_functions(getattr(tree, "body", [])):
            self._check_function(func, module_globals, set())
        return self.findings

    def _top_level_functions(self, body):
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield statement
            elif isinstance(statement, ast.ClassDef):
                yield from self._top_level_functions(statement.body)

    # ------------------------------------------------------------------
    def _check_function(
        self,
        node,
        module_globals: Set[str],
        enclosing_bound: Set[str],
    ) -> None:
        name = getattr(node, "name", "<lambda>")
        carve_out = name.startswith(REGISTRATION_PREFIXES)
        local = _bound_names(node)
        declared_global: Set[str] = set()
        declared_nonlocal: Set[str] = set()
        own = _own_statements(node)
        for sub in _walk_without_nested(own):
            if isinstance(sub, ast.Global):
                declared_global.update(sub.names)
            elif isinstance(sub, ast.Nonlocal):
                declared_nonlocal.update(sub.names)

        def classify(root: str, node_, what: str) -> None:
            if root in local and root not in declared_global and (
                root not in declared_nonlocal
            ):
                return
            if root in declared_nonlocal or (
                root in enclosing_bound and root not in module_globals
            ):
                self.report(
                    node_,
                    f"{name}: {what} closed-over name {root!r} — task "
                    "callables must not mutate captured state",
                )
                return
            if root in declared_global or root in module_globals:
                if carve_out:
                    return
                self.report(
                    node_,
                    f"{name}: {what} module global {root!r} — only "
                    "register_*/unregister_* functions may mutate registries",
                )

        for sub in _walk_without_nested(own):
            targets: List[ast.AST] = []
            if isinstance(sub, ast.Assign):
                targets = list(sub.targets)
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                targets = [sub.target]
            elif isinstance(sub, ast.Delete):
                targets = list(sub.targets)
            for target in targets:
                for element in _flatten_targets(target):
                    if isinstance(element, ast.Name):
                        if element.id in declared_global or (
                            element.id in declared_nonlocal
                        ):
                            classify(element.id, sub, "rebinds")
                    else:
                        root = root_name(element)
                        if root is not None and root.id != "self":
                            classify(root.id, sub, "mutates")
            if isinstance(sub, ast.Call) and isinstance(
                sub.func, ast.Attribute
            ) and sub.func.attr in MUTATOR_METHODS:
                root = root_name(sub.func.value)
                if root is not None and root.id != "self":
                    classify(root.id, sub, f"calls .{sub.func.attr}() on")

        nested_bound = enclosing_bound | local
        for nested in _immediate_nested(node):
            self._check_function(nested, module_globals, nested_bound)


def _immediate_nested(node: ast.AST) -> List[ast.AST]:
    """Function/lambda nodes one scope below ``node`` (deeper ones excluded)."""
    found: List[ast.AST] = []
    stack = list(getattr(node, "body", []))
    if isinstance(node, ast.Lambda):
        stack = [node.body]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.stmt) and not isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            stack.extend(ast.iter_child_nodes(current))
            continue
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            found.append(current)
            continue
        stack.extend(ast.iter_child_nodes(current))
    return found


def _flatten_targets(target: ast.AST) -> List[ast.AST]:
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[ast.AST] = []
        for element in target.elts:
            out.extend(_flatten_targets(element))
        return out
    if isinstance(target, ast.Starred):
        return _flatten_targets(target.value)
    return [target]


__all__ = [
    "CONSTRUCTOR_METHODS",
    "ExecutorCaptureChecker",
    "LockDisciplineChecker",
    "REGISTRATION_PREFIXES",
]
