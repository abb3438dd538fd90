"""Repository benchmark: certified LhCDS solves, a streaming service mix, jobs=2.

Run one workload from the repository root::

    python3 perfbench/run.py --workload cold-ba --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` wraps the program's public functions in spans and reports the
per-layer metrics.  Either way every answer is checked, a table of every
metric (with units and sample counts) goes to stdout, and the last line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cold-ba", "serve-stream", "components-jobs2")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop, to normalise readings across machines."""
    tick = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - tick


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def pin_environment() -> List[str]:
    """Drop every ``REPRO_*`` variable, so none can change what is measured."""
    dropped = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in dropped:
        del os.environ[key]
    return dropped


def end_to_end(outcome) -> Tuple[Dict[str, Any], List[Tuple]]:
    """The gated metrics, plus every reported row as (name, value, unit, n)."""
    from spans import summarise

    metrics = {
        "setup_s": (statistics.median(outcome.setup_s), "s", len(outcome.setup_s)),
        "solve_s.p50": (outcome.solve_p50, "s", outcome.samples),
        "throughput_rps": (outcome.throughput_rps, "1/s", outcome.samples),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB", 1),
    }
    rows = [(name, value, unit, n) for name, (value, unit, n) in metrics.items()]
    for stream, samples in sorted(outcome.latencies.items()):
        for stat, value in summarise(samples).items():
            if stat != "n" and f"{stream}_s.{stat}" not in metrics:
                rows.append((f"{stream}_s.{stat}", value, "s", len(samples)))
    rows.append(("failed_frac", len(outcome.failures) / outcome.attempted, "ratio",
                 outcome.attempted))
    gated = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    return gated, rows


def per_layer(workload: str, outcome) -> Tuple[Dict[str, Any], List[Tuple]]:
    """Per-layer metrics from the traced half, each per end-to-end operation."""
    from spans import END, NAME, RID, START, adopt_orphans, enclosed_gap, layer_times, unattributed
    from tracing import LAYERS

    spans = adopt_orphans(outcome.spans, outcome.main_pid, "engine.executors.run")
    ops = outcome.traced_ops
    per_op = 1 / len(ops)
    layers = layer_times(spans)
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        entry = layers.get(layer, {"busy": 0.0, "self": 0.0, "calls": 0})
        metrics[f"{layer}.busy_s"] = (entry["busy"] * per_op, "s")
        metrics[f"{layer}.self_s"] = (entry["self"] * per_op, "s")
        metrics[f"{layer}.calls"] = (entry["calls"] * per_op, "count")

    rids = {op[0] for op in ops} if workload == "serve-stream" else None
    counts: Dict[str, float] = {}
    for rid, values in outcome.counters.items():
        if rids is None or rid in rids:
            for key, value in values.items():
                counts[key] = counts.get(key, 0) + value

    def ratio(numerator: str, denominator: float) -> float:
        return counts.get(numerator, 0) / denominator if denominator else 0.0

    for key in ("engine.executors.tasks", "engine.runtime.early_stopped",
                "lhcds.ippv.candidates", "lhcds.ippv.exact_splits", "lhcds.ippv.refinements",
                "lhcds.stable_groups.groups", "cliques.enumerate.instances"):
        metrics[key] = (counts.get(key, 0) * per_op, "count")
    fetches = layers.get("engine.cache.fetch", {}).get("calls", 0)
    metrics["engine.cache.hit_ratio"] = (ratio("engine.cache.hits", fetches), "ratio")
    metrics["engine.incremental.reuse_ratio"] = (
        ratio("engine.incremental.components_reused",
              counts.get("engine.incremental.components_total", 0)), "ratio")
    metrics["lhcds.prune.keep_ratio"] = (
        ratio("lhcds.prune.groups_kept", counts.get("lhcds.prune.groups_in", 0)), "ratio")
    metrics["lhcds.verify.accept_ratio"] = (
        ratio("lhcds.ippv.reported", counts.get("lhcds.ippv.candidates", 0)), "ratio")

    services = ("server.service.solve", "server.service.apply_delta",
                "server.service.solve_incremental")
    engines = ("engine.runtime", "engine.incremental.solve", "engine.incremental.apply_delta")
    metrics["server.lock_wait_s"] = (enclosed_gap(spans, services, engines) * per_op, "s")
    service_time = {s[RID]: s[END] - s[START] for s in spans if s[NAME] in services}
    overhead = sum(end - start - service_time[rid] for rid, start, end in ops
                   if rid in service_time)
    metrics["server.http_overhead_s"] = (overhead * per_op, "s")
    uncovered = unattributed(ops, spans)
    metrics["unattributed_s"] = (uncovered * per_op, "s")
    untraced_p50, traced_p50 = outcome.overhead
    metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50, "ratio")

    rows = [(name, value, unit, len(ops)) for name, (value, unit) in metrics.items()]
    self_total = sum(layers[layer]["self"] for layer in layers)
    op_total = sum(end - start for _, start, end in ops)
    rows.append(("check.span_self_plus_unattributed_s",
                 (self_total + uncovered) * per_op, "s", len(ops)))
    rows.append(("check.end_to_end_s", op_total * per_op, "s", len(ops)))
    gated = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return gated, rows


def reap_children() -> None:
    """Wait for every process the run started through ``multiprocessing``.

    Worker pools are joined where they are used.  This also stops the
    resource tracker, which a spawn or forkserver pool starts (the engine's
    pools use the platform's default start method) and which would
    otherwise outlive the run.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    dropped = pin_environment()
    # A runner that starts this in the background may leave SIGINT ignored,
    # and an ignored signal stays ignored in every child.  The servers are
    # stopped with SIGINT, so handle it here: a handled signal reverts to
    # the default in a child at exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path[:0] = [SRC, HERE]
    import repro  # noqa: F401 - fail here, before any work, if the package is broken
    import workloads

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    scratch_root = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(scratch_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    ctx = argparse.Namespace(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                             root=ROOT, tmp=tmp)
    calibration = calibrate()
    try:
        if args.workload == "serve-stream":
            outcome = workloads.serve_stream(ctx)
        elif args.workload == "components-jobs2":
            outcome = workloads.components_jobs2(ctx)
        else:
            outcome = workloads.cold(ctx, args.workload)
    finally:
        reap_children()
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(scratch_root):
            os.rmdir(scratch_root)

    if args.trace:
        metrics, rows = per_layer(args.workload, outcome)
    else:
        metrics, rows = end_to_end(outcome)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()} "
          f"commit={git_commit()} calibration_s={calibration:.4f} "
          f"dropped_env={','.join(dropped) or '-'}")
    width = max(len(row[0]) for row in rows)
    for name, value, unit, n in rows:
        print(f"{name:<{width}}  {value:>14.6g} {unit:<6} n={n}")
    for failure in outcome.failures[:20]:
        print(f"# FAILED: {failure}")
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
