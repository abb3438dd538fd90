"""Checker protocol and registry: every lint rule behind one interface.

A checker is an :class:`ast.NodeVisitor` subclass that inspects one parsed
module and reports :class:`Finding` objects.  The :class:`Checker` base adds
the metadata the runner needs — a stable rule id, a one-line title, and a
path scope — and the registry mirrors the solver/kernel registries:
checkers register once at import time and every consumer (the CLI, the
``repro-lhcds lint`` subcommand, the fixture tests) resolves them by rule id.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, List, Optional, Tuple

from ..errors import ReproError


class AnalysisError(ReproError):
    """A misconfigured checker or an unusable analysis input."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: The stripped source line, used for human output and for the
    #: line-content part of baseline fingerprints (so renumbering a file
    #: does not invalidate its grandfathered findings).
    snippet: str = ""
    #: Empty for an active finding, else ``"pragma"`` or ``"baseline"``.
    suppression: str = ""
    #: The pragma's mandatory reason (empty for baseline suppressions).
    reason: str = ""

    @property
    def suppressed(self) -> bool:
        """Whether the finding is silenced by a pragma or the baseline."""
        return bool(self.suppression)

    def suppress(self, how: str, reason: str = "") -> "Finding":
        """Return a suppressed copy of the finding."""
        return replace(self, suppression=how, reason=reason)

    def location(self) -> str:
        """Return the clickable ``path:line:col`` prefix."""
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class CheckContext:
    """Everything a checker may consult besides the AST itself."""

    #: Forward-slash path of the module, as given to the runner.
    path: str
    #: Raw source lines (1-indexed access via :meth:`snippet`).
    lines: List[str] = field(default_factory=list)

    def snippet(self, lineno: int) -> str:
        """Return the stripped source line at ``lineno`` ('' out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Checker(ast.NodeVisitor):
    """One lint rule (see module docstring for the contract).

    Subclasses set ``rule`` (stable id like ``"EX01"``), ``title`` (one
    line, shown in ``--list-rules`` and the README rules table), and
    ``scope`` (path fragments the rule applies to; empty = every module).
    They implement :meth:`run` — usually by visiting the tree and calling
    :meth:`report` — and findings are collected by the runner.
    """

    rule: ClassVar[str] = ""
    title: ClassVar[str] = ""
    description: ClassVar[str] = ""
    #: Path fragments (forward-slash) the rule applies to.  A module is in
    #: scope when any fragment occurs in its normalised path.  Empty means
    #: the rule applies everywhere.
    scope: ClassVar[Tuple[str, ...]] = ()
    #: Path fragments that opt a module *out* even when ``scope`` matches.
    scope_exclude: ClassVar[Tuple[str, ...]] = ()

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self._context: Optional[CheckContext] = None

    # ------------------------------------------------------------------
    # scope
    # ------------------------------------------------------------------
    @classmethod
    def applies_to(cls, path: str) -> bool:
        """Whether the rule polices the module at ``path``."""
        posix = path.replace("\\", "/")
        if any(fragment in posix for fragment in cls.scope_exclude):
            return False
        if not cls.scope:
            return True
        return any(fragment in posix for fragment in cls.scope)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, tree: ast.AST, context: CheckContext) -> List[Finding]:
        """Inspect one module and return its findings."""
        self.findings = []
        self._context = context
        self.visit(tree)
        return self.findings

    def report(self, node: ast.AST, message: str) -> None:
        """Record one finding anchored at ``node``."""
        assert self._context is not None
        line = getattr(node, "lineno", 1)
        self.findings.append(
            Finding(
                rule=self.rule,
                path=self._context.path,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                snippet=self._context.snippet(line),
            )
        )


_REGISTRY: Dict[str, type] = {}


def register_checker(checker_class: type) -> None:
    """Add a checker class to the registry (rule ids are unique)."""
    rule = getattr(checker_class, "rule", "")
    if not rule:
        raise AnalysisError("checker classes must define a non-empty rule id")
    if not getattr(checker_class, "title", ""):
        raise AnalysisError(f"checker {rule!r} must define a one-line title")
    if rule in _REGISTRY:
        raise AnalysisError(f"checker {rule!r} is already registered")
    _REGISTRY[rule] = checker_class


def unregister_checker(rule: str) -> None:
    """Remove a checker from the registry (used by tests and plugins)."""
    if rule not in _REGISTRY:
        raise AnalysisError(f"checker {rule!r} is not registered")
    del _REGISTRY[rule]


def get_checker(rule: str) -> type:
    """Look a checker class up by rule id."""
    key = rule.strip().upper()
    if key not in _REGISTRY:
        raise AnalysisError(
            f"unknown rule {rule!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[key]


def available_checkers() -> List[str]:
    """Rule ids of every registered checker, sorted."""
    return sorted(_REGISTRY)
