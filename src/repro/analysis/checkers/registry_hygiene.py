"""RG01 — registry hygiene: registered components declare themselves.

Solvers, kernels, patterns, and the lint checkers themselves are resolved
by name through registries; the CLI, the docs, and the permission to skip
work (``exact``, ``internal_prune``, ...) all read the registered
metadata.  A registration with a missing description or an undeclared
capability is a latent scheduling bug — the engine would guess.  The rule
flags:

* ``register_solver(SolverSpec(...))`` calls whose spec literal lacks a
  non-empty ``description`` or does not declare ``exact=`` explicitly
  (whole-component skipping is only sound for exact solvers, so the
  capability must be stated, not defaulted);
* subclasses of ``Pattern`` / ``Checker`` / ``KernelBackend`` without a
  docstring or without their registry metadata (``name``/``size``,
  ``rule``/``title``, ``name``/``description`` respectively).
"""

from __future__ import annotations

import ast
from typing import ClassVar, Dict, Optional, Tuple

from ..base import Checker

#: Required class attributes per registrable base class.
REGISTRABLE_BASES: Dict[str, Tuple[str, ...]] = {
    "Pattern": ("name", "size"),
    "Checker": ("rule", "title"),
    "KernelBackend": ("name", "description"),
}


class RegistryHygieneChecker(Checker):
    """Flag registrations with missing metadata or docstrings."""

    rule: ClassVar[str] = "RG01"
    title: ClassVar[str] = (
        "registered solvers/kernels/patterns/checkers declare capabilities "
        "and docstrings"
    )
    description: ClassVar[str] = (
        "registries drive scheduling and docs; undeclared metadata means "
        "the engine guesses"
    )
    scope: ClassVar[Tuple[str, ...]] = ("repro/",)

    # ------------------------------------------------------------------
    # solver registrations
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "register_solver":
            spec = node.args[0] if node.args else None
            if (
                isinstance(spec, ast.Call)
                and isinstance(spec.func, ast.Name)
                and spec.func.id == "SolverSpec"
            ):
                self._check_solver_spec(spec)
        self.generic_visit(node)

    def _check_solver_spec(self, spec: ast.Call) -> None:
        keywords = {k.arg: k.value for k in spec.keywords if k.arg}
        description = keywords.get("description")
        if description is None or (
            isinstance(description, ast.Constant)
            and not str(description.value).strip()
        ):
            self.report(
                spec,
                "registered SolverSpec without a non-empty description; the "
                "CLI's `solvers` listing and the docs read it",
            )
        if "exact" not in keywords:
            self.report(
                spec,
                "registered SolverSpec does not declare exact=; "
                "whole-component skipping is only sound for exact solvers, "
                "so state the capability explicitly",
            )

    # ------------------------------------------------------------------
    # registrable subclasses
    # ------------------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        base = self._registrable_base(node)
        if base is not None:
            if ast.get_docstring(node) is None:
                self.report(
                    node,
                    f"{base} subclass {node.name!r} has no docstring; "
                    "registered components are self-describing",
                )
            declared = self._declared_attributes(node)
            for attribute in REGISTRABLE_BASES[base]:
                if attribute not in declared:
                    self.report(
                        node,
                        f"{base} subclass {node.name!r} does not declare "
                        f"{attribute!r}; the registry and its consumers "
                        "read it",
                    )
        self.generic_visit(node)

    @staticmethod
    def _registrable_base(node: ast.ClassDef) -> Optional[str]:
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else ""
            )
            if name in REGISTRABLE_BASES:
                return name
        return None

    @staticmethod
    def _declared_attributes(node: ast.ClassDef) -> set:
        declared = set()
        for statement in node.body:
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        declared.add(target.id)
            elif isinstance(statement, ast.AnnAssign):
                if isinstance(statement.target, ast.Name) and statement.value is not None:
                    declared.add(statement.target.id)
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                declared.add(statement.name)
                # `self.name = ...` in a method declares the attribute too
                # (CliquePattern derives its name from h at construction).
                for sub in ast.walk(statement):
                    if isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                declared.add(target.attr)
        return declared
