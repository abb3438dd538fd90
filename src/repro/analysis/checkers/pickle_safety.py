"""PK01 — pickle-safety: task envelopes must survive process boundaries.

Everything the engine ships to a worker — tasks, results, failure
envelopes, reports — crosses a pickle boundary on the ``process`` backend.
Pickle resolves classes by module-level name and serialises instance
state, so an envelope class defined inside a function, or one whose
instances hold a lambda, generator, or open file handle, works on the
``serial`` backend and then fails (or silently diverges) the moment a
solve runs with ``jobs > 1``.

The rule applies to classes whose names end in one of the envelope suffixes
(``Task``, ``Batch``, ``Result``, ``Verdict``, ``Outcome``, ``Failure``,
``Report``, ``Request``, ``Stats``, ``Spec``, ``Component``) and flags:

* a definition nested inside a function (pickle cannot import it),
* a dataclass field whose *default* is a lambda (each instance then carries
  an unpicklable callable; ``field(default_factory=...)`` stays class-side
  and is fine),
* ``self.x = lambda/generator/open(...)`` in any method.
"""

from __future__ import annotations

import ast
from typing import ClassVar, List, Tuple

from ..base import CheckContext, Checker

#: Class-name suffixes that mark executor-crossing envelope types.
ENVELOPE_SUFFIXES: Tuple[str, ...] = (
    "Task",
    "Batch",
    "Result",
    "Verdict",
    "Outcome",
    "Failure",
    "Report",
    "Request",
    "Stats",
    "Spec",
    "Component",
)


def is_envelope_name(name: str) -> bool:
    """Whether a class name marks an executor-crossing envelope."""
    return name.endswith(ENVELOPE_SUFFIXES)


class PickleSafetyChecker(Checker):
    """Flag envelope classes that cannot cross a pickle boundary."""

    rule: ClassVar[str] = "PK01"
    title: ClassVar[str] = (
        "task/result envelopes are module-level with picklable state only"
    )
    description: ClassVar[str] = (
        "envelope classes cross process boundaries; pickle "
        "needs module-level names and lambda/generator/handle-free state"
    )
    scope: ClassVar[Tuple[str, ...]] = ("repro/",)

    def run(self, tree: ast.AST, context: CheckContext) -> list:
        self._function_depth = 0
        return super().run(tree, context)

    # ------------------------------------------------------------------
    # nesting bookkeeping
    # ------------------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # the envelope checks
    # ------------------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not is_envelope_name(node.name):
            self.generic_visit(node)
            return
        if self._function_depth > 0:
            self.report(
                node,
                f"envelope class {node.name!r} is defined inside a function; "
                "pickle resolves classes by module-level name — move it to "
                "module scope",
            )
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and statement.value is not None:
                self._check_field_default(node.name, statement)
        for method in node.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_method_state(node.name, method)
        self.generic_visit(node)

    def _check_field_default(self, class_name: str, statement: ast.AnnAssign) -> None:
        value = statement.value
        if isinstance(value, ast.Lambda):
            self.report(
                value,
                f"field default of {class_name!r} is a lambda; every "
                "instance then carries an unpicklable callable — use "
                "field(default_factory=...) or a named function",
            )
        elif isinstance(value, ast.Call):
            if isinstance(value.func, ast.Name) and value.func.id == "field":
                for keyword in value.keywords:
                    if keyword.arg == "default" and isinstance(
                        keyword.value, ast.Lambda
                    ):
                        self.report(
                            keyword.value,
                            f"field default of {class_name!r} is a lambda; "
                            "use field(default_factory=...) instead",
                        )
            elif isinstance(value.func, ast.Name) and value.func.id == "open":
                self.report(
                    value,
                    f"field default of {class_name!r} is an open file "
                    "handle; handles cannot cross a pickle boundary",
                )

    def _check_method_state(self, class_name: str, method: ast.FunctionDef) -> None:
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            stored: List[ast.expr] = [
                target
                for target in node.targets
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ]
            if not stored:
                continue
            value = node.value
            if isinstance(value, ast.Lambda):
                kind = "a lambda"
            elif isinstance(value, ast.GeneratorExp):
                kind = "a generator"
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "open"
            ):
                kind = "an open file handle"
            else:
                continue
            attrs = ", ".join(
                f"self.{t.attr}" for t in stored  # type: ignore[union-attr]
            )
            self.report(
                value,
                f"{class_name!r} stores {kind} on {attrs}; instances must "
                "stay picklable to cross executor boundaries",
            )
