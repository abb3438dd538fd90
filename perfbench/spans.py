"""Timing arithmetic shared by the benchmark: percentiles and span trees.

Pure functions over plain tuples, so the self-tests exercise them on
synthetic data without importing the program under test.

A span is ``(name, start, end, span_id, parent_id, request_id, pid)`` with
times from ``time.perf_counter()`` (the system-wide monotonic clock on
Linux, so spans recorded in a forked worker or in the server process line up
with the benchmark's own clock).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int, Optional[int], Optional[str], int]
NAME, START, END, SID, PARENT, RID, PID = range(7)

#: Percentiles considered for a timing's tail, highest first.
TAIL_LADDER = (99, 95, 90, 75)
#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(ordered: Sequence[float], percentile: float) -> float:
    """The nearest-rank percentile of an ascending sample."""
    rank = max(1, math.ceil(len(ordered) * percentile / 100))
    return ordered[rank - 1]


def tail_percentile(count: int) -> Optional[int]:
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples beyond it.

    With the nearest-rank definition the ``p``-th percentile is sample number
    ``ceil(n * p / 100)``, so ``n - ceil(n * p / 100)`` samples lie beyond it.
    """
    for percentile in TAIL_LADDER:
        if count - math.ceil(count * percentile / 100) >= MIN_BEYOND:
            return percentile
    return None


def summarise(samples: Sequence[float]) -> Dict[str, float]:
    """Median plus the tail percentile the sample size supports, with the count."""
    ordered = sorted(samples)
    summary: Dict[str, float] = {"n": len(ordered)}
    if not ordered:
        return summary
    summary["p50"] = statistics.median(ordered)
    percentile = tail_percentile(len(ordered))
    if percentile is not None:
        summary[f"p{percentile}"] = nearest_rank(ordered, percentile)
    return summary


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def clip(start: float, end: float, lo: float, hi: float) -> Tuple[float, float]:
    return max(start, lo), min(end, hi)


def adopt_orphans(spans: List[Span], main_pid: int, adopter: str) -> List[Span]:
    """Give worker-process root spans the ``adopter`` span that encloses them.

    A forked worker cannot know the parent's span id, so its root spans
    arrive without a parent; each is attached to the innermost ``adopter``
    span of the main process whose interval contains its start.
    """
    hosts = sorted(
        (s for s in spans if s[NAME] == adopter and s[PID] == main_pid),
        key=lambda s: s[END] - s[START],
    )
    adopted: List[Span] = []
    for span in spans:
        if span[PID] != main_pid and span[PARENT] is None:
            for host in hosts:
                if host[START] <= span[START] <= host[END]:
                    span = span[:PARENT] + (host[SID],) + span[PARENT + 1:]
                    break
        adopted.append(span)
    return adopted


def layer_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``busy`` (outermost spans only), ``self`` and ``calls``.

    A span's self time is its duration minus the part of it that its child
    spans cover (children may overlap one another, e.g. two worker
    processes).  ``busy`` sums the durations of spans with no ancestor of the
    same name, so a recursive layer is not counted twice.
    """
    by_id = {s[SID]: s for s in spans}
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None and span[PARENT] in by_id:
            children[span[PARENT]].append(span)
    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"busy": 0.0, "self": 0.0, "calls": 0}
    )
    for span in spans:
        name, start, end = span[NAME], span[START], span[END]
        covered = union_length(
            clip(c[START], c[END], start, end) for c in children.get(span[SID], ())
        )
        entry = layers[name]
        entry["calls"] += 1
        entry["self"] += (end - start) - covered
        ancestor = by_id.get(span[PARENT]) if span[PARENT] is not None else None
        nested = False
        while ancestor is not None:
            if ancestor[NAME] == name:
                nested = True
                break
            ancestor = by_id.get(ancestor[PARENT]) if ancestor[PARENT] is not None else None
        if not nested:
            entry["busy"] += end - start
    return dict(layers)


def unattributed(
    ops: Sequence[Tuple[str, float, float]], spans: Sequence[Span]
) -> float:
    """Seconds of the end-to-end operations that no root span covers.

    ``ops`` are ``(request_id, start, end)`` as the caller measured them; a
    root span is one without a parent, matched to an operation by request id.
    """
    roots: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is None and span[RID] is not None:
            roots[span[RID]].append((span[START], span[END]))
    total = 0.0
    for rid, start, end in ops:
        covered = union_length(clip(s, e, start, end) for s, e in roots.get(rid, ()))
        total += (end - start) - covered
    return total


def enclosed_gap(
    spans: Sequence[Span], outer_names: Iterable[str], inner_names: Iterable[str]
) -> float:
    """Sum over ``outer`` spans of their duration minus their ``inner`` descendants.

    Used for the service's lock wait: a service span minus the engine span
    it runs.
    """
    outer_names, inner_names = set(outer_names), set(inner_names)
    by_id = {s[SID]: s for s in spans}
    inner_of: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[NAME] not in inner_names:
            continue
        ancestor = by_id.get(span[PARENT]) if span[PARENT] is not None else None
        while ancestor is not None and ancestor[NAME] not in outer_names:
            ancestor = by_id.get(ancestor[PARENT]) if ancestor[PARENT] is not None else None
        if ancestor is not None:
            inner_of[ancestor[SID]].append((span[START], span[END]))
    total = 0.0
    for span in spans:
        if span[NAME] in outer_names:
            total += (span[END] - span[START]) - union_length(inner_of.get(span[SID], ()))
    return total
