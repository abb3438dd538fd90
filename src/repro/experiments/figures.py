"""Reproduction drivers: one function per table / figure of the evaluation.

Every driver returns an :class:`~repro.experiments.harness.ExperimentResult`
whose rows mirror the series the paper plots or tabulates.  The benchmark
suite (``benchmarks/``) invokes these same drivers, so ``pytest benchmarks/
--benchmark-only`` regenerates the full evaluation.

Absolute running times are not expected to match the paper (the substrate is
pure Python on synthetic stand-in graphs); the *shape* of every comparison —
which variant wins, how times scale with k, h, density, and T — is what each
driver reproduces.  See EXPERIMENTS.md for the paper-vs-measured summary.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..cliques.kclist import count_cliques
from ..datasets.examples import political_books_graph
from ..datasets.registry import dataset_statistics, get_spec, load_dataset
from ..datasets.synthetic import sample_edges
from ..engine import SolveReport, solve
from ..graph.graph import Graph
from ..graph.metrics import average_clustering_coefficient, edge_density, subgraph_diameter
from ..patterns.base import Pattern
from ..patterns.registry import four_vertex_patterns
from .harness import ExperimentResult, measure, speedup

#: Datasets small enough for the quick experiment sweeps.
SMALL_DATASETS = ("HA", "GQ", "PC", "CM")
MEDIUM_DATASETS = ("HA", "GQ", "PP", "PC", "WB", "CM", "EP", "EN")


def _run_ippv(
    graph: Graph,
    pattern: Pattern | int,
    k: Optional[int],
    *,
    verification: str = "fast",
    iterations: int = 20,
) -> SolveReport:
    return solve(
        graph=graph,
        pattern=pattern,
        k=k,
        solver="ippv",
        verification=verification,
        iterations=iterations,
    )


def _run_baseline(
    graph: Graph,
    solver: str,
    h: int,
    k: Optional[int],
) -> SolveReport:
    return solve(graph=graph, pattern=h, k=k, solver=solver)


# ----------------------------------------------------------------------
# Table 2 — dataset statistics
# ----------------------------------------------------------------------
def table2_dataset_statistics(datasets: Sequence[str] = MEDIUM_DATASETS) -> ExperimentResult:
    """|V|, |E|, |Psi_3|, |Psi_5| for every (stand-in) dataset."""
    rows = []
    for abbr in datasets:
        spec = get_spec(abbr)
        stats = dataset_statistics(abbr)
        rows.append(
            [spec.name, abbr, stats["|V|"], stats["|E|"], stats["|Psi3|"], stats["|Psi5|"]]
        )
    return ExperimentResult(
        experiment="Table 2: dataset statistics",
        headers=["name", "abbr", "|V|", "|E|", "|Psi3|", "|Psi5|"],
        rows=rows,
    )


# ----------------------------------------------------------------------
# Figure 9 — fast vs basic verification across h and k
# ----------------------------------------------------------------------
def figure9_verification_comparison(
    datasets: Sequence[str] = SMALL_DATASETS,
    h_values: Sequence[int] = (3, 4, 5),
    k_values: Sequence[int] = (5, 10, 15, 20),
) -> ExperimentResult:
    """Running time of IPPV with the basic vs the fast verifier."""
    rows = []
    for abbr in datasets:
        graph = load_dataset(abbr)
        for h in h_values:
            for k in k_values:
                fast = measure(lambda: _run_ippv(graph, h, k, verification="fast"))
                basic = measure(lambda: _run_ippv(graph, h, k, verification="basic"))
                rows.append(
                    [
                        abbr,
                        h,
                        k,
                        round(fast.seconds, 4),
                        round(basic.seconds, 4),
                        round(speedup(basic.seconds, fast.seconds), 2),
                        len(fast.result.subgraphs),
                    ]
                )
    return ExperimentResult(
        experiment="Figure 9: VerifyLhCDS fast vs basic",
        headers=["dataset", "h", "k", "fast (s)", "basic (s)", "speedup", "found"],
        rows=rows,
        notes="Expected shape: fast <= basic on every row, gap widening with k and h.",
    )


# ----------------------------------------------------------------------
# Figure 10 — per-stage breakdown
# ----------------------------------------------------------------------
def figure10_stage_breakdown(
    datasets: Sequence[str] = SMALL_DATASETS, h: int = 3, k: int = 20
) -> ExperimentResult:
    """Time spent in SEQ-kClist++ / decomposition / prune / verification."""
    rows = []
    for abbr in datasets:
        graph = load_dataset(abbr)
        for verification in ("fast", "basic"):
            result = _run_ippv(graph, h, k, verification=verification)
            t = result.timings
            rows.append(
                [
                    abbr,
                    verification,
                    round(t.seq_kclist, 4),
                    round(t.decomposition, 4),
                    round(t.prune, 4),
                    round(t.verification, 4),
                    round(t.total, 4),
                ]
            )
    return ExperimentResult(
        experiment="Figure 10: IPPV stage breakdown (h=3, k=20)",
        headers=["dataset", "verify", "seq_kclist", "decomp", "prune", "verification", "total"],
        rows=rows,
        notes="Expected shape: verification dominates for 'basic'; shrinks sharply for 'fast'.",
    )


# ----------------------------------------------------------------------
# Figure 11 — running time vs graph density (edge sampling)
# ----------------------------------------------------------------------
def figure11_density_scaling(
    datasets: Sequence[str] = ("AM", "EN", "EP", "DB"),
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    h: int = 3,
    k: int = 5,
) -> ExperimentResult:
    """Running time on edge-sampled graphs of increasing density."""
    rows = []
    for abbr in datasets:
        base = load_dataset(abbr)
        for fraction in fractions:
            graph = sample_edges(base, fraction, seed=5) if fraction < 1.0 else base
            cliques = count_cliques(graph, h)
            m = measure(lambda: _run_ippv(graph, h, k))
            rows.append([abbr, fraction, graph.num_edges, cliques, round(m.seconds, 4)])
    return ExperimentResult(
        experiment="Figure 11: running time vs density (h=3, k=5)",
        headers=["dataset", "edge fraction", "|E|", "|Psi3|", "time (s)"],
        rows=rows,
        notes="Expected shape: time grows with the retained edge fraction / clique count.",
    )


# ----------------------------------------------------------------------
# Figure 12 — IPPV (h=2) vs LDSflow
# ----------------------------------------------------------------------
def figure12_ldsflow_comparison(
    datasets: Sequence[str] = MEDIUM_DATASETS, k: int = 5
) -> ExperimentResult:
    """IPPV with h=2 against the LDSflow baseline."""
    rows = []
    for abbr in datasets:
        graph = load_dataset(abbr)
        ippv_m = measure(lambda: _run_ippv(graph, 2, k))
        lds_m = measure(lambda: _run_baseline(graph, "ldsflow", 2, k))
        rows.append(
            [
                abbr,
                round(ippv_m.seconds, 4),
                round(lds_m.seconds, 4),
                round(speedup(lds_m.seconds, ippv_m.seconds), 2),
                len(ippv_m.result.subgraphs),
                len(lds_m.result.subgraphs),
            ]
        )
    return ExperimentResult(
        experiment="Figure 12: IPPV (h=2) vs LDSflow (k=5)",
        headers=["dataset", "IPPV (s)", "LDSflow (s)", "speedup", "IPPV found", "LDSflow found"],
        rows=rows,
        notes="Expected shape: IPPV faster than LDSflow on every dataset.",
    )


# ----------------------------------------------------------------------
# Table 3 — IPPV (h=3) vs LTDS
# ----------------------------------------------------------------------
def table3_ltds_comparison(
    datasets: Sequence[str] = MEDIUM_DATASETS, k: int = 5
) -> ExperimentResult:
    """IPPV with h=3 against the LTDS baseline, with speed-ups."""
    rows = []
    for abbr in datasets:
        graph = load_dataset(abbr)
        ippv_m = measure(lambda: _run_ippv(graph, 3, k))
        ltds_m = measure(lambda: _run_baseline(graph, "ltds", 3, k))
        rows.append(
            [
                get_spec(abbr).name,
                round(ippv_m.seconds, 4),
                round(ltds_m.seconds, 4),
                round(speedup(ltds_m.seconds, ippv_m.seconds), 2),
            ]
        )
    return ExperimentResult(
        experiment="Table 3: IPPV (h=3) vs LTDS (k=5)",
        headers=["dataset", "IPPV (s)", "LTDS (s)", "speedup"],
        rows=rows,
        notes="Expected shape: speedup > 1 on every dataset.",
    )


# ----------------------------------------------------------------------
# Table 4 — edge density and diameter of the detected LhCDSes
# ----------------------------------------------------------------------
def table4_quality_metrics(
    datasets: Sequence[str] = ("PC", "HA", "CM", "GQ"),
    h_values: Sequence[int] = (2, 3, 5),
    k: int = 5,
) -> ExperimentResult:
    """Average edge density and diameter of the top-k LhCDSes per h."""
    rows = []
    for abbr in datasets:
        graph = load_dataset(abbr)
        for h in h_values:
            result = _run_ippv(graph, h, k)
            subgraphs = result.subgraphs
            if not subgraphs:
                rows.append([abbr, h, 0, "-", "-"])
                continue
            densities = [edge_density(graph, s.vertices) for s in subgraphs]
            diameters = [subgraph_diameter(graph, s.vertices) for s in subgraphs]
            rows.append(
                [
                    abbr,
                    h,
                    len(subgraphs),
                    round(sum(densities) / len(densities), 3),
                    round(sum(diameters) / len(diameters), 2),
                ]
            )
    return ExperimentResult(
        experiment="Table 4: average edge density / diameter of top-5 LhCDSes",
        headers=["dataset", "h", "found", "avg edge density", "avg diameter"],
        rows=rows,
        notes="Expected shape: edge density rises with h; diameters stay <= 2 for h >= 3.",
    )


# ----------------------------------------------------------------------
# Table 5 — clustering coefficient of the detected LhCDSes
# ----------------------------------------------------------------------
def table5_clustering_coefficient(
    datasets: Sequence[str] = ("PC", "HA", "CM", "GQ"),
    h_values: Sequence[int] = (2, 3, 5),
    k: int = 5,
) -> ExperimentResult:
    """Average clustering coefficient of the detected LhCDSes per h."""
    rows = []
    for abbr in datasets:
        graph = load_dataset(abbr)
        for h in h_values:
            result = _run_ippv(graph, h, k)
            if not result.subgraphs:
                rows.append([abbr, h, "-"])
                continue
            values = [
                average_clustering_coefficient(graph, s.vertices) for s in result.subgraphs
            ]
            rows.append([abbr, h, round(sum(values) / len(values), 3)])
    return ExperimentResult(
        experiment="Table 5: average clustering coefficient of LhCDSes",
        headers=["dataset", "h", "avg clustering coefficient"],
        rows=rows,
        notes="Expected shape: clustering coefficient increases with h (closer to cliques).",
    )


# ----------------------------------------------------------------------
# Figure 13 — case study on the political-books network
# ----------------------------------------------------------------------
def figure13_case_study(h_values: Sequence[int] = (2, 3, 4, 5)) -> ExperimentResult:
    """Top-2 LhCDS composition on the labelled co-purchase graph, varying h."""
    graph, labels = political_books_graph()
    rows = []
    for h in h_values:
        result = _run_ippv(graph, h, 2)
        for rank, subgraph in enumerate(result.subgraphs, start=1):
            categories = sorted({labels[v] for v in subgraph.vertices})
            rows.append(
                [
                    h,
                    rank,
                    len(subgraph.vertices),
                    float(subgraph.density),
                    round(edge_density(graph, subgraph.vertices), 3),
                    "/".join(categories),
                ]
            )
    return ExperimentResult(
        experiment="Figure 13: LhCDS case study on the political-books network",
        headers=["h", "rank", "size", "h-clique density", "edge density", "categories"],
        rows=rows,
        notes=(
            "Expected shape: larger h yields subgraphs closer to cliques, and the top-2 "
            "LhCDSes cover both the liberal and the conservative dense cores."
        ),
    )


# ----------------------------------------------------------------------
# Figure 14 — IPPV vs Greedy subgraph statistics
# ----------------------------------------------------------------------
def figure14_greedy_comparison(
    datasets: Sequence[str] = ("CM", "PC"),
    h_values: Sequence[int] = (3, 5),
    k: int = 5,
) -> ExperimentResult:
    """Size and h-clique density of subgraphs found by IPPV vs Greedy."""
    rows = []
    for abbr in datasets:
        graph = load_dataset(abbr)
        for h in h_values:
            ippv_result = _run_ippv(graph, h, k)
            greedy_result = _run_baseline(graph, "greedy", h, k)
            for rank, s in enumerate(ippv_result.subgraphs, start=1):
                rows.append([abbr, h, "IPPV", rank, len(s.vertices), float(s.density)])
            for rank, s in enumerate(greedy_result.subgraphs, start=1):
                rows.append([abbr, h, "Greedy", rank, len(s.vertices), float(s.density)])
    return ExperimentResult(
        experiment="Figure 14: subgraph size / h-clique density, IPPV vs Greedy",
        headers=["dataset", "h", "algorithm", "rank", "size", "h-clique density"],
        rows=rows,
        notes=(
            "Expected shape: the top-1 subgraphs coincide; beyond that Greedy may return "
            "regions adjacent to earlier outputs with no locally-densest guarantee."
        ),
    )


# ----------------------------------------------------------------------
# Figure 15 — memory usage
# ----------------------------------------------------------------------
def figure15_memory_usage(
    datasets: Sequence[str] = SMALL_DATASETS, h: int = 3, k: int = 5
) -> ExperimentResult:
    """Peak traced memory of IPPV vs the LTDS baseline."""
    rows = []
    for abbr in datasets:
        graph = load_dataset(abbr)
        ippv_m = measure(lambda: _run_ippv(graph, h, k), track_memory=True)
        ltds_m = measure(lambda: _run_baseline(graph, "ltds", 3, k), track_memory=True)
        rows.append(
            [abbr, round(ippv_m.peak_kib, 1), round(ltds_m.peak_kib, 1)]
        )
    return ExperimentResult(
        experiment="Figure 15: peak memory (KiB), IPPV vs LTDS (h=3, k=5)",
        headers=["dataset", "IPPV peak KiB", "LTDS peak KiB"],
        rows=rows,
        notes="Expected shape: IPPV's pruning keeps its peak at or below the baseline's.",
    )


# ----------------------------------------------------------------------
# Figure 16 — effect of the number of Frank–Wolfe iterations T
# ----------------------------------------------------------------------
def figure16_iteration_sweep(
    datasets: Sequence[str] = ("EP", "HA", "CM", "PP"),
    t_values: Sequence[int] = (5, 10, 15, 20, 40, 60, 80, 100),
    h: int = 3,
    k: int = 5,
) -> ExperimentResult:
    """Total running time as a function of the iteration count T."""
    rows = []
    for abbr in datasets:
        graph = load_dataset(abbr)
        for t in t_values:
            m = measure(lambda: _run_ippv(graph, h, k, iterations=t))
            rows.append([abbr, t, round(m.seconds, 4), len(m.result.subgraphs)])
    return ExperimentResult(
        experiment="Figure 16: running time vs iteration count T (h=3, k=5)",
        headers=["dataset", "T", "time (s)", "found"],
        rows=rows,
        notes=(
            "Expected shape: too few iterations cost extra verification/refinement work, "
            "too many cost proposal time; a moderate T (15-20) is near the optimum."
        ),
    )


# ----------------------------------------------------------------------
# Figure 17 — Lhx PDS case study for the six 4-vertex patterns
# ----------------------------------------------------------------------
def figure17_pattern_case_study(k: int = 2) -> ExperimentResult:
    """Top-k locally pattern-densest subgraphs for each 4-vertex pattern."""
    graph, labels = political_books_graph()
    rows = []
    for name, pattern in four_vertex_patterns().items():
        result = _run_ippv(graph, pattern, k)
        for rank, subgraph in enumerate(result.subgraphs, start=1):
            categories = sorted({labels[v] for v in subgraph.vertices})
            rows.append(
                [
                    name,
                    rank,
                    len(subgraph.vertices),
                    float(subgraph.density),
                    "/".join(categories),
                ]
            )
        if not result.subgraphs:
            rows.append([name, "-", 0, 0.0, "-"])
    return ExperimentResult(
        experiment="Figure 17: L4xPDS case study (six 4-vertex patterns)",
        headers=["pattern", "rank", "size", "pattern density", "categories"],
        rows=rows,
        notes="Expected shape: different patterns highlight differently sized/positioned cores.",
    )


ALL_EXPERIMENTS = {
    "table2": table2_dataset_statistics,
    "figure9": figure9_verification_comparison,
    "figure10": figure10_stage_breakdown,
    "figure11": figure11_density_scaling,
    "figure12": figure12_ldsflow_comparison,
    "table3": table3_ltds_comparison,
    "table4": table4_quality_metrics,
    "table5": table5_clustering_coefficient,
    "figure13": figure13_case_study,
    "figure14": figure14_greedy_comparison,
    "figure15": figure15_memory_usage,
    "figure16": figure16_iteration_sweep,
    "figure17": figure17_pattern_case_study,
}


def run_experiment(name: str) -> ExperimentResult:
    """Run one experiment by its short name (see ``ALL_EXPERIMENTS``)."""
    from ..errors import ReproError

    key = name.strip().lower()
    if key not in ALL_EXPERIMENTS:
        raise ReproError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(ALL_EXPERIMENTS))}"
        )
    return ALL_EXPERIMENTS[key]()
