"""Solver protocol and registry: every solve path behind one interface.

A solver is a callable that takes one :class:`PreparedComponent` (the output
of the shared preprocessing) plus the component-scoped request and returns an
:class:`~repro.lhcds.ippv.LhCDSResult`.  The :class:`SolverSpec` wrapper adds
the metadata the runtime needs to validate requests and schedule work:

* ``fixed_h`` — solvers bound to one pattern size (LDSflow is edges-only,
  LTDS is triangles-only);
* ``requires_k`` — Greedy has no "all subgraphs" mode;
* ``exact`` — exact top-k semantics make whole-component upper-bound
  skipping sound (an approximate solver like Greedy must see every
  component);
* ``internal_prune`` — IPPV runs Algorithm 3 itself, so the engine's
  preprocessing skips the duplicate pruning pass.

New solvers register with :func:`register_solver`; the CLI, the experiment
drivers, and the examples all resolve solvers by name through this registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..baselines.greedy_topk import greedy_topk_cds
from ..baselines.ldsflow import lds_flow
from ..baselines.ltds import ltds
from ..errors import EngineError
from ..lhcds.exact import exact_top_k_lhcds
from ..lhcds.ippv import IPPV, DenseSubgraph, IPPVConfig, LhCDSResult, StageTimings
from ..lhcds.verify import VerificationStats
from .request import PreparedComponent, SolveRequest

SolveFn = Callable[[PreparedComponent, SolveRequest], LhCDSResult]


@dataclass(frozen=True)
class SolverSpec:
    """A registered solver: the solve callable plus scheduling metadata."""

    name: str
    description: str
    solve: SolveFn
    #: Exact top-k semantics (enables sound whole-component skipping).
    exact: bool = True
    #: Required pattern size, or None when any pattern is accepted.
    fixed_h: Optional[int] = None
    #: Whether the solver needs a finite k.
    requires_k: bool = False
    #: Whether the solver runs Algorithm 3 pruning itself.
    internal_prune: bool = False

    def validate(self, request: SolveRequest) -> None:
        """Raise :class:`EngineError` when the request does not fit."""
        if self.fixed_h is not None and request.h != self.fixed_h:
            raise EngineError(
                f"solver {self.name!r} only supports h = {self.fixed_h} "
                f"(got pattern {request.pattern.name!r} with h = {request.h})"
            )
        if self.requires_k and request.k is None:
            raise EngineError(f"solver {self.name!r} needs an explicit k")


_REGISTRY: Dict[str, SolverSpec] = {}


def register_solver(spec: SolverSpec) -> None:
    """Add a solver to the registry (names are unique)."""
    if spec.name in _REGISTRY:
        raise EngineError(f"solver {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec


def unregister_solver(name: str) -> None:
    """Remove a solver from the registry (used by tests and plugins)."""
    if name not in _REGISTRY:
        raise EngineError(f"solver {name!r} is not registered")
    del _REGISTRY[name]


def get_solver(name: str) -> SolverSpec:
    """Look a solver up by name."""
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise EngineError(
            f"unknown solver {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[key]


def available_solvers() -> List[str]:
    """Names of every registered solver, sorted."""
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# built-in solvers
# ----------------------------------------------------------------------
def _solve_ippv(component: PreparedComponent, request: SolveRequest) -> LhCDSResult:
    config = IPPVConfig(
        iterations=request.iterations,
        verification=request.verification,
        prune=request.prune,
        kernel=request.kernel,
    )
    solver = IPPV(
        component.subgraph,
        request.pattern,
        config,
        instances=component.instances,
        bounds=component.bounds,
    )
    return solver.run(request.k)


def _solve_exact(component: PreparedComponent, request: SolveRequest) -> LhCDSResult:
    start = time.perf_counter()
    pairs = exact_top_k_lhcds(
        component.subgraph, component.instances, request.k, kernel=request.kernel
    )
    subgraphs = [
        DenseSubgraph(
            vertices=frozenset(vertices),
            density=density,
            pattern_name=request.pattern.name,
            h=request.h,
        )
        for vertices, density in pairs
    ]
    timings = StageTimings()
    timings.total = time.perf_counter() - start
    return LhCDSResult(
        subgraphs=subgraphs,
        timings=timings,
        verification=VerificationStats(),
        candidates_examined=len(subgraphs),
    )


def _solve_greedy(component: PreparedComponent, request: SolveRequest) -> LhCDSResult:
    assert request.k is not None  # enforced by SolverSpec.validate
    return greedy_topk_cds(
        component.subgraph,
        request.h,
        request.k,
        instances=component.instances,
        kernel=request.kernel,
    )


def _solve_ldsflow(component: PreparedComponent, request: SolveRequest) -> LhCDSResult:
    return lds_flow(
        component.subgraph, request.k, instances=component.instances, kernel=request.kernel
    )


def _solve_ltds(component: PreparedComponent, request: SolveRequest) -> LhCDSResult:
    return ltds(
        component.subgraph, request.k, instances=component.instances, kernel=request.kernel
    )


register_solver(
    SolverSpec(
        name="ippv",
        description="iterative propose-prune-and-verify (the paper's Algorithm 6/7)",
        solve=_solve_ippv,
        exact=True,
        internal_prune=True,
    )
)
register_solver(
    SolverSpec(
        name="exact",
        description="diminishingly-dense decomposition (LhCDScvx-style reference)",
        solve=_solve_exact,
        exact=True,
    )
)
register_solver(
    SolverSpec(
        name="greedy",
        description="greedy top-k peeling without the locally-densest guarantee",
        solve=_solve_greedy,
        exact=False,
        requires_k=True,
    )
)
register_solver(
    SolverSpec(
        name="ldsflow",
        description="LDSflow baseline (Qin et al. 2015), edges only (h = 2)",
        solve=_solve_ldsflow,
        exact=True,
        fixed_h=2,
    )
)
register_solver(
    SolverSpec(
        name="ltds",
        description="LTDS baseline (Samusevich et al. 2016), triangles only (h = 3)",
        solve=_solve_ltds,
        exact=True,
        fixed_h=3,
    )
)
