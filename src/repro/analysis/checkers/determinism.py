"""DT01 — determinism: solver output must not depend on iteration accidents.

The engine guarantees bit-identical output for every ``jobs`` value, and
``spawn``-started pool workers are separate processes with their *own*
``PYTHONHASHSEED`` — so any result ordering that leaks from set/dict hash
order, ``hash()``/``id()`` values, or ambient randomness silently breaks
the guarantee for string-labelled graphs.  This
rule flags, in solver-path modules:

* iteration over an unordered set that feeds an ordered result — a ``for``
  loop, list/dict/generator comprehension, or ``list()`` / ``tuple()`` /
  ``enumerate()`` conversion over a set literal, set comprehension,
  ``set(...)`` / ``frozenset(...)`` call, set algebra, or a local name
  only ever assigned such expressions (wrap in ``sorted(...)`` instead);
* ``hash()`` or ``id()`` inside a sort key;
* module-level ``random.*`` calls (seed a local ``random.Random`` instead);
* unordered sets passed to the ``Graph`` constructor, which freezes hash
  order into vertex insertion order (the order component enumeration uses).
"""

from __future__ import annotations

import ast
from typing import ClassVar, Dict, List, Set, Tuple

from ..base import CheckContext, Checker
from .common import build_parent_map, call_name, is_set_expression

#: Consumers whose value is independent of the iteration order of their
#: argument, so a set (or a generator over one) fed to them is sound.
ORDER_INSENSITIVE_CALLS = {
    "sorted",
    "sum",
    "min",
    "max",
    "any",
    "all",
    "len",
    "set",
    "frozenset",
}

#: Graph-building callables whose *insertion order* is observable downstream
#: (component enumeration follows it).
ORDER_SENSITIVE_SINKS = {"Graph"}


class DeterminismChecker(Checker):
    """Flag hash-order, ``hash()``/``id()``, and randomness leaks."""

    rule: ClassVar[str] = "DT01"
    title: ClassVar[str] = (
        "no unordered-set iteration, hash()/id() sort keys, or ambient "
        "randomness in solver paths"
    )
    description: ClassVar[str] = (
        "solver output must be bit-identical across processes; set hash "
        "order differs per process for string keys"
    )
    scope: ClassVar[Tuple[str, ...]] = (
        "repro/lhcds/",
        "repro/densest/",
        "repro/flow/",
        "repro/engine/",
        "repro/baselines/",
        "repro/cliques/",
        "repro/cores/",
        "repro/graph/",
        "repro/patterns/",
        "repro/instances.py",
        "repro/kernels/",
        "repro/server/",
    )

    def run(self, tree: ast.AST, context: CheckContext) -> list:
        self._parents: Dict[ast.AST, ast.AST] = build_parent_map(tree)
        self._set_names: Dict[ast.AST, Set[str]] = {}
        self._scope_of: Dict[ast.AST, ast.AST] = {}
        self._collect_set_names(tree)
        return super().run(tree, context)

    # ------------------------------------------------------------------
    # set-valued local names
    # ------------------------------------------------------------------
    def _collect_set_names(self, tree: ast.AST) -> None:
        """Track names that are only ever assigned set expressions, per scope."""
        scopes: List[ast.AST] = [tree] + [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            assigned: Dict[str, bool] = {}
            for node in self._scope_walk(scope):
                self._scope_of[node] = scope
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        is_set = is_set_expression(node.value)
                        assigned[target.id] = assigned.get(target.id, True) and is_set
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    target = node.target
                    if isinstance(target, ast.Name):
                        # Conservative: any other assignment form untracks.
                        value = getattr(node, "value", None)
                        is_set = value is not None and is_set_expression(value)
                        assigned[target.id] = assigned.get(target.id, True) and is_set
                elif isinstance(node, (ast.For, ast.comprehension)):
                    target = node.target
                    if isinstance(target, ast.Name):
                        assigned[target.id] = False
            self._set_names[scope] = {name for name, ok in assigned.items() if ok}

    def _scope_walk(self, scope: ast.AST):
        """Walk a scope without descending into nested function scopes."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _names_for(self, node: ast.AST) -> Set[str]:
        return self._set_names.get(self._scope_of.get(node, None), set())

    def _is_set(self, node: ast.AST) -> bool:
        return is_set_expression(node, self._names_for(node))

    # ------------------------------------------------------------------
    # visitors
    # ------------------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if self._is_set(node.iter):
            self.report(
                node.iter,
                "for-loop over an unordered set; iteration order is hash "
                "order and differs across processes — wrap in sorted(...) "
                "or iterate an ordered source",
            )
        self.generic_visit(node)

    def _check_comprehension(self, node) -> None:
        for generator in node.generators:
            if self._is_set(generator.iter):
                if isinstance(node, ast.GeneratorExp):
                    parent = self._parents.get(node)
                    if (
                        isinstance(parent, ast.Call)
                        and call_name(parent) in ORDER_INSENSITIVE_CALLS
                    ):
                        continue
                self.report(
                    generator.iter,
                    "comprehension over an unordered set builds an ordered "
                    "result from hash order — wrap the source in sorted(...)",
                )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # A set built from a set stays unordered: no order is fixed here.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name in {"list", "tuple", "enumerate"} and node.args:
            if self._is_set(node.args[0]):
                self.report(
                    node,
                    f"{name}() over an unordered set fixes hash order into "
                    "an ordered result — use sorted(...) instead",
                )
        if name in {"sorted", "sort", "min", "max"}:
            for keyword in node.keywords:
                if keyword.arg == "key" and self._key_uses_identity(keyword.value):
                    self.report(
                        keyword.value,
                        "sort key depends on hash()/id(), which vary across "
                        "processes — key on the value's own content",
                    )
        if (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "random"
        ):
            self.report(
                node,
                "module-level random.* call in a solver path; use an "
                "explicitly seeded random.Random instance",
            )
        if isinstance(node.func, ast.Name) and node.func.id in ORDER_SENSITIVE_SINKS:
            for arg in list(node.args) + [k.value for k in node.keywords]:
                if self._is_set(arg):
                    self.report(
                        arg,
                        "unordered set passed to a graph constructor freezes "
                        "hash order into vertex insertion order (component "
                        "enumeration follows it) — pass an ordered iterable",
                    )
        self.generic_visit(node)

    @staticmethod
    def _key_uses_identity(key: ast.AST) -> bool:
        for sub in ast.walk(key):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in {"hash", "id"}
            ):
                return True
        return False
