"""The three workloads.  Each returns a :class:`Outcome` for ``run.py`` to report.

Every workload runs the same shape: set up ``SETUP_REPEATS`` times (the
median is ``setup_s``), measure back-to-back operations for the window, then
check every answer outside the window.  With tracing on, the window is split
into an untraced half and a traced half over the same inputs, which gives
``trace.overhead_ratio`` and lets the traced answers be compared with the
untraced ones.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import multiprocessing.util
import os
import random
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from inputs import (
    COLD_QUERY,
    JOBS2_POOL_SIZE,
    POOL_SIZE,
    cold_graph,
    jobs2_graph,
    seeded_order,
    stream_graphs,
)
from repro.datasets.synthetic import planted_communities_graph
import repro.engine as engine
from repro.graph.components import connected_components
from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph
from tracing import REQUEST_ID_HEADER, Recorder, install

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
#: Fewest solves of each input in an untraced in-process window, so that
#: each input's median is taken over repeats.
MIN_PASSES = 3
#: Parameters of the serve-stream traffic (both graphs are solved with them).
STREAM_H, STREAM_K = 3, 5
JOBS2_H, JOBS2_K = 3, 8
SERVER_BOOT_SECONDS = 60


@dataclass
class Outcome:
    """What a workload measured and checked."""

    #: Untraced operation latencies per stream (``solve``, ``query``, ``update``).
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    setup_s: List[float] = field(default_factory=list)
    #: The untraced window's operations as ``(input index, start, end)``.
    window: List[Tuple[int, float, float]] = field(default_factory=list)
    #: The gated timings and the number of operations they were taken from:
    #: in-process, the median over the inputs of each input's median solve
    #: time, and inputs per second of that; on ``serve-stream``, the median
    #: read latency and requests completed per second.
    solve_p50: float = 0.0
    throughput_rps: float = 0.0
    samples: int = 0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Traced run only: spans, counters, the traced operations as
    #: ``(request id, start, end)``, and the traced/untraced p50 pair.
    spans: List[tuple] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    traced_ops: List[Tuple[str, float, float]] = field(default_factory=list)
    overhead: Tuple[float, float] = (0.0, 0.0)
    main_pid: int = 0

    def check(self, ok: bool, message: str) -> None:
        """Count one operation as attempted, and as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def topk_rows(subgraphs) -> List[Tuple[str, List[Any]]]:
    """An answer as comparable rows: (exact density string, sorted vertices)."""
    return [(str(s.density), sorted(s.vertices)) for s in subgraphs]


def json_rows(payload: Dict[str, Any]) -> List[Tuple[str, List[Any]]]:
    """The same rows from a service reply."""
    return [(row["density"], sorted(row["vertices"])) for row in payload["subgraphs"]]


def vm_mb(pid: int, key: str = "VmHWM", table: str = "status") -> float:
    """A memory figure of a live process from ``/proc/<pid>/<table>``, in MB;
    by default its peak resident set size."""
    with open(f"/proc/{pid}/{table}", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {key} in /proc/{pid}/{table}")


class WorkerPeaks:
    """The peak memory each forked worker held on its own.

    A forked child's ``VmHWM`` also counts the resident pages it still
    shares with its parent, so it is not used as is.  As each
    ``multiprocessing`` child started after this object exists exits, it
    writes its start time and its own share to a file in ``directory``:
    its private pages (``Private_Clean`` + ``Private_Dirty``, pages it
    copied on write or allocated) plus how far its resident set had fallen
    from its peak (memory it freed before exiting).  The program is not
    touched: the hooks are ``multiprocessing``'s after-fork and exit
    finalizers.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        multiprocessing.util.register_after_fork(self, WorkerPeaks._in_worker)

    def _in_worker(self) -> None:
        forked = time.perf_counter()

        def report() -> None:
            pid = os.getpid()
            private = (vm_mb(pid, "Private_Clean", "smaps_rollup")
                       + vm_mb(pid, "Private_Dirty", "smaps_rollup"))
            freed = vm_mb(pid) - vm_mb(pid, "VmRSS")
            with open(os.path.join(self.directory, f"{pid}.json"), "w",
                      encoding="utf-8") as handle:
                json.dump([forked, private + freed], handle)

        multiprocessing.util.Finalize(None, report, exitpriority=0)

    def largest(self, window: List[Tuple[int, float, float]]) -> float:
        """The most memory the workers of one operation in ``window`` added together."""
        records = []
        for entry in os.listdir(self.directory):
            with open(os.path.join(self.directory, entry), encoding="utf-8") as handle:
                records.append(json.load(handle))
        if not any(start <= forked <= end for forked, _ in records for _, start, end in window):
            raise RuntimeError("no worker process reported its memory")
        return max(
            sum(own for forked, own in records if start <= forked <= end)
            for _, start, end in window
        )


def load_refs(workload: str) -> Dict[str, Any]:
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as handle:
        refs = json.load(handle)[workload]
    if (refs["h"], refs["k"]) != COLD_QUERY[workload]:
        raise SystemExit(f"refs.json holds h, k = {refs['h']}, {refs['k']} for {workload}")
    return refs


def warm_up_graph() -> Graph:
    """A small graph solved once per set-up, so lazy imports are not timed."""
    graph, _ = planted_communities_graph([8, 6], p_in=0.9, p_out=0.05, seed=0, background=12)
    return graph


def timed_window(
    seconds: float, count: int, op, passes: int = 1
) -> List[Tuple[int, float, float]]:
    """Call ``op(input, position)`` over inputs ``0..count-1`` cyclically until
    ``seconds`` pass and every input was done at least ``passes`` times;
    ``position`` numbers the calls.

    The full passes keep a slow run's figures over the same inputs and
    repeats as a fast run's, instead of over whichever its window reached.
    Returns ``(input index, start, end)`` per completed operation.
    """
    done = []
    deadline = time.perf_counter() + seconds
    position = 0
    while position < count * passes or time.perf_counter() < deadline:
        tick = time.perf_counter()
        op(position % count, position)
        done.append((position % count, tick, time.perf_counter()))
        position += 1
    return done


def overhead_pair(untraced, traced) -> Tuple[float, float]:
    """Median untraced and traced time of each input's first operation."""

    def first_times(done) -> List[float]:
        first: Dict[int, float] = {}
        for index, start, end in done:
            first.setdefault(index, end - start)
        return list(first.values())

    return median(first_times(untraced)), median(first_times(traced))


# ----------------------------------------------------------------------
# in-process solves: cold-ba, components-jobs2
# ----------------------------------------------------------------------
def _solve_window(
    ctx, outcome: Outcome, graphs: List[Graph], options: Dict[str, Any]
) -> List[Tuple[int, List, Optional[str]]]:
    """The timed window over ``graphs``.

    Returns ``(input, top-k rows, problem)`` per solve, where ``problem``
    names anything wrong that the caller's reference check cannot see: a
    solve that ran another kernel or used a cache, or a traced answer that
    differs from the untraced answer for the same input.
    """
    answers: List[Tuple[int, List, Optional[str]]] = []

    def op(index: int, position: int) -> None:
        report = engine.solve(graph=graphs[index], **options)
        problem = None
        if report.kernel != "stdlib" or report.preprocessing.cache_state != "off":
            problem = (f"solve ran kernel {report.kernel!r}, "
                       f"cache {report.preprocessing.cache_state!r}")
        answers.append((index, topk_rows(report.subgraphs), problem))

    if not ctx.trace:
        done = outcome.window = timed_window(ctx.seconds, len(graphs), op, MIN_PASSES)
        outcome.latencies["solve"] = [end - start for _, start, end in done]
        times: Dict[int, List[float]] = {}
        for index, start, end in done:
            times.setdefault(index, []).append(end - start)
        per_input = [median(values) for values in times.values()]
        outcome.solve_p50 = median(per_input)
        outcome.throughput_rps = len(per_input) / sum(per_input)
        outcome.samples = len(done)
        return answers

    untraced = outcome.window = timed_window(ctx.seconds / 2, len(graphs), op)
    untraced_rows = {index: rows for index, rows, _ in answers}
    recorder = Recorder(worker_dir=ctx.tmp)
    install(recorder)

    def traced_op(index: int, position: int) -> None:
        recorder.request_id = f"op{position}"
        try:
            op(index, position)
        finally:
            recorder.request_id = None

    split = len(answers)
    traced = timed_window(ctx.seconds / 2, len(graphs), traced_op)
    recorder.stop()
    recorder.collect_workers()
    outcome.spans = recorder.spans
    outcome.counters = dict(recorder.counters)
    outcome.main_pid = recorder.pid
    outcome.traced_ops = [(f"op{n}", start, end) for n, (_, start, end) in enumerate(traced)]
    outcome.overhead = overhead_pair(untraced, traced)
    for position in range(split, len(answers)):
        index, rows, problem = answers[position]
        if problem is None and rows != untraced_rows[index]:
            answers[position] = (index, rows, "traced top-k differs from untraced")
    return answers


def cold(ctx, workload: str) -> Outcome:
    """One certified serial solve after another over the seeded pool order."""
    h, k = COLD_QUERY[workload]
    refs = load_refs(workload)["graphs"]
    order = seeded_order(ctx.seed, POOL_SIZE)
    outcome = Outcome()
    for _ in range(SETUP_REPEATS):
        tick = time.perf_counter()
        graphs = [cold_graph(workload, index) for index in order]
        for index, graph in zip(order, graphs):
            if graph.content_key() != refs[index]["content_key"]:
                raise SystemExit(
                    f"refs.json is stale for {workload} pool graph {index}; "
                    "regenerate it with: python3 perfbench/make_refs.py"
                )
        engine.solve(graph=warm_up_graph(), pattern=h, k=k)
        outcome.setup_s.append(time.perf_counter() - tick)

    options = {"pattern": h, "k": k, "solver": "ippv"}
    for position, rows, problem in _solve_window(ctx, outcome, graphs, options):
        index = order[position]
        expected = [(row["density"], row["vertices"]) for row in refs[index]["topk"]]
        outcome.check(problem is None and rows == expected,
                      f"pool graph {index}: {problem or 'top-k differs from the exact solver'}")
    outcome.peak_rss_mb = vm_mb(os.getpid())
    return outcome


def components_jobs2(ctx) -> Outcome:
    """``solve(jobs=2)`` on multi-component graphs, checked against serial solves."""
    outcome = Outcome()
    options = {"pattern": JOBS2_H, "k": JOBS2_K, "solver": "ippv", "jobs": 2}
    for _ in range(SETUP_REPEATS):
        tick = time.perf_counter()
        graphs = [jobs2_graph(index) for index in seeded_order(ctx.seed, JOBS2_POOL_SIZE)]
        engine.solve(graph=warm_up_graph(), **options)
        outcome.setup_s.append(time.perf_counter() - tick)

    peaks = WorkerPeaks(os.path.join(ctx.tmp, "worker-peaks"))
    answers = _solve_window(ctx, outcome, graphs, options)
    serial = [
        topk_rows(engine.solve(graph=graph, pattern=JOBS2_H, k=JOBS2_K).subgraphs)
        for graph in graphs
    ]
    for index, rows, problem in answers:
        outcome.check(problem is None and rows == serial[index],
                      f"graph {index}: {problem or 'jobs=2 top-k differs from serial'}")
    outcome.peak_rss_mb = vm_mb(os.getpid()) + peaks.largest(outcome.window)
    return outcome


# ----------------------------------------------------------------------
# serve-stream
# ----------------------------------------------------------------------
class Server:
    """A server subprocess on an ephemeral port with a private cache directory."""

    def __init__(self, ctx, traced: bool, tag: str) -> None:
        self.cache_dir = os.path.join(ctx.tmp, f"cache-{tag}")
        self.log_path = os.path.join(ctx.tmp, f"server-{tag}.log")
        self.spans_path = os.path.join(ctx.tmp, f"spans-{tag}.json") if traced else None
        env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"))
        if traced:
            command = [sys.executable, os.path.join(HERE, "launcher.py"),
                       "--cache-dir", self.cache_dir, "--spans", self.spans_path]
        else:
            command = [sys.executable, "-m", "repro.server", "--port", "0",
                       "--cache-dir", self.cache_dir]
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, cwd=ctx.root, env=env, stdout=self._log, stderr=self._log
        )
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + SERVER_BOOT_SECONDS
        marker = "server on http://"
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            with open(self.log_path, encoding="utf-8") as handle:
                for line in handle:
                    if marker in line:
                        address = line.split(marker, 1)[1].split()[0]
                        return int(address.rsplit(":", 1)[1])
            time.sleep(0.02)
        self.stop()
        with open(self.log_path, encoding="utf-8") as handle:
            raise RuntimeError(f"server did not start:\n{handle.read()}")

    def stop(self) -> None:
        """Interrupt the server (it dumps its spans, if traced) and wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


class Client:
    """One persistent HTTP/1.1 connection (one closed-loop user).

    ``log`` keeps ``(request id, start, end)`` of every request, as the
    client saw it.
    """

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.log: List[Tuple[str, float, float]] = []

    def post(self, path: str, body: Dict[str, Any], rid: str) -> Tuple[int, Dict[str, Any]]:
        payload = json.dumps(body).encode("utf-8")
        tick = time.perf_counter()
        self.connection.request(
            "POST", path, body=payload,
            headers={"Content-Type": "application/json", REQUEST_ID_HEADER: rid},
        )
        response = self.connection.getresponse()
        reply = json.loads(response.read())
        self.log.append((rid, tick, time.perf_counter()))
        return response.status, reply

    def close(self) -> None:
        self.connection.close()


class DeltaSource:
    """Seeded deltas that each swap one edge inside one component.

    A mirror of the edited graph tracks the current edge set, so every
    delta is valid: it removes an existing edge and adds a missing one, with
    all four endpoints in the same (non-trivial) component.
    """

    def __init__(self, graph: Graph, seed: int) -> None:
        self.mirror = graph.copy()
        self.rng = random.Random(seed)
        self.components = [sorted(c) for c in connected_components(graph) if len(c) >= 8]

    def next(self) -> Dict[str, Any]:
        component = self.rng.choice(self.components)
        edges = [(u, v) for u in component for v in self.mirror.neighbors(u) if u < v]
        removed = self.rng.choice(edges)
        while True:
            u, v = sorted(self.rng.sample(component, 2))
            if not self.mirror.has_edge(u, v):
                break
        delta = GraphDelta(add_edges=((u, v),), remove_edges=(removed,))
        self.mirror.apply_delta(delta)
        return delta.to_json_dict()


READ_BODY = {"graph": "static", "h": STREAM_H, "k": STREAM_K}
SESSION_BODY = {"h": STREAM_H, "k": STREAM_K}


@dataclass
class Stream:
    """One booted server with its graphs registered and every route warmed."""

    server: Server
    reader: Client
    writer: Client
    source: DeltaSource
    #: Per write: the delta, whether the server accepted it, and the status
    #: and body of the session solve that followed (``None`` if refused).
    writes: List[Tuple[Dict[str, Any], bool, Optional[Tuple[int, Any]]]] = field(
        default_factory=list
    )
    reads: List[Tuple[int, Any]] = field(default_factory=list)

    def write(self, rid: str) -> None:
        delta = self.source.next()
        status, body = self.writer.post("/v1/graphs/edited/deltas", delta, rid + "d")
        if status != 200:
            self.writes.append((delta, False, (status, body)))
            return
        reply = self.writer.post("/v1/graphs/edited/solve", SESSION_BODY, rid + "s")
        self.writes.append((delta, True, reply))

    def read(self, rid: str) -> None:
        self.reads.append(self.reader.post("/v1/solve", READ_BODY, rid))

    def close(self) -> None:
        self.reader.close()
        self.writer.close()
        self.server.stop()


def boot_stream(ctx, edited: Graph, static: Graph, traced: bool, tag: str) -> Stream:
    """Boot a server, register both graphs, and send one request per graph and route."""
    server = Server(ctx, traced, tag)
    stream = Stream(server, Client(server.port), Client(server.port),
                    DeltaSource(edited, ctx.seed))
    try:
        for name, graph in (("edited", edited), ("static", static)):
            body = {"name": name, "edges": [list(e) for e in graph.edges()],
                    "vertices": graph.vertices()}
            status, reply = stream.writer.post("/v1/graphs", body, f"register-{name}")
            if status != 201:
                raise RuntimeError(f"registering {name} failed: {reply}")
        stream.read("warm-read")
        stream.writer.post("/v1/graphs/edited/solve", SESSION_BODY, "warm-session")
        stream.write("warm-write")
    except BaseException:
        stream.close()
        raise
    return stream


def closed_loop(stream: Stream, seconds: float, prefix: str):
    """A reader and a writer thread with no think time, until ``seconds`` pass.

    Returns the timed reads and writes as ``(request id, start, end)`` and
    the wall time from the start until the last request completed.
    """
    reads: List[Tuple[str, float, float]] = []
    writes: List[Tuple[str, float, float]] = []
    errors: List[BaseException] = []
    deadline = time.perf_counter() + seconds

    def loop(action, timed) -> None:
        try:
            n = 0
            while time.perf_counter() < deadline:
                rid = f"{prefix}{n}"
                tick = time.perf_counter()
                action(rid)
                timed.append((rid, tick, time.perf_counter()))
                n += 1
        except BaseException as exc:  # re-raised after join
            errors.append(exc)

    started = time.perf_counter()
    threads = [
        threading.Thread(target=loop, args=(lambda rid: stream.read(rid + "r"), reads)),
        threading.Thread(target=loop, args=(lambda rid: stream.write(rid + "w"), writes)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return reads, writes, max(end for _, _, end in reads + writes) - started


def _replay(job) -> List[List]:
    """Cold-solve the edited graph after each listed write (runs in a worker)."""
    edges, vertices, deltas, checked = job
    graph = Graph(edges=[tuple(e) for e in edges], vertices=vertices)
    wanted = set(checked)
    rows = []
    for position, (delta, accepted) in enumerate(deltas[: max(checked) + 1]):
        if accepted:
            graph.apply_delta(GraphDelta.from_json_dict(delta))
        if position in wanted:
            report = engine.solve(graph=graph, pattern=STREAM_H, k=STREAM_K)
            rows.append(topk_rows(report.subgraphs))
    return rows


def check_stream(outcome: Outcome, stream: Stream, edited: Graph, static_rows) -> None:
    """Reads must equal a cold solve of the static graph; each write's session
    answer must equal a cold solve of the edited graph after that write."""
    for status, body in stream.reads:
        outcome.check(status == 200 and json_rows(body["data"]) == static_rows,
                      f"read answered {status}: {str(body)[:200]}")
    answered = []
    for position, (_, accepted, (status, body)) in enumerate(stream.writes):
        if accepted and status == 200:
            answered.append(position)
        else:
            outcome.check(False, f"write {position} answered {status}: {str(body)[:200]}")
    if not answered:
        return
    # Replaying costs one cold solve per write; two workers halve the wait.
    # Forked workers, not spawned: a spawn pool starts multiprocessing's
    # resource tracker, which outlives the run.  Forking is safe here: the
    # loop's threads have been joined, so this process runs one thread.
    edges = [list(e) for e in edited.edges()]
    deltas = [(delta, accepted) for delta, accepted, _ in stream.writes]
    halves = [answered[: len(answered) // 2], answered[len(answered) // 2:]]
    jobs = [(edges, edited.vertices(), deltas, half) for half in halves if half]
    with ProcessPoolExecutor(max_workers=len(jobs),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        expected = [rows for chunk in pool.map(_replay, jobs) for rows in chunk]
    for position, rows in zip(answered, expected):
        body = stream.writes[position][2][1]
        outcome.check(json_rows(body["data"]) == rows,
                      f"write {position}: session answer differs from a cold solve")


def serve_stream(ctx) -> Outcome:
    """Writer edits beside reader solves through the HTTP service."""
    outcome = Outcome()
    edited, static = stream_graphs(ctx.seed)
    stream: Optional[Stream] = None
    for repeat in range(SETUP_REPEATS):
        if stream is not None:
            stream.close()
        tick = time.perf_counter()
        stream = boot_stream(ctx, edited, static, traced=False, tag=f"setup{repeat}")
        outcome.setup_s.append(time.perf_counter() - tick)

    window = ctx.seconds / 2 if ctx.trace else ctx.seconds
    try:
        reads, writes, elapsed = closed_loop(stream, window, "u")
        outcome.peak_rss_mb = vm_mb(stream.server.process.pid)
    finally:
        stream.close()
    outcome.latencies["query"] = [end - start for _, start, end in reads]
    outcome.latencies["update"] = [end - start for _, start, end in writes]
    outcome.solve_p50 = median(outcome.latencies["query"])
    outcome.throughput_rps = (len(reads) + 2 * len(writes)) / elapsed
    outcome.samples = len(reads)
    static_rows = topk_rows(engine.solve(graph=static, pattern=STREAM_H, k=STREAM_K).subgraphs)
    check_stream(outcome, stream, edited, static_rows)
    if not ctx.trace:
        return outcome

    traced = boot_stream(ctx, edited, static, traced=True, tag="traced")
    try:
        traced_reads, _, _ = closed_loop(traced, window, "t")
    finally:
        traced.close()
    check_stream(outcome, traced, edited, static_rows)
    with open(traced.server.spans_path, encoding="utf-8") as handle:
        dump = json.load(handle)
    # Only the window's requests: registration and warm-up are set-up.
    outcome.traced_ops = [
        op for op in traced.reader.log + traced.writer.log if op[0].startswith("t")
    ]
    window_rids = {op[0] for op in outcome.traced_ops}
    outcome.spans = [tuple(span) for span in dump["spans"] if span[5] in window_rids]
    outcome.counters = dump["counters"]
    outcome.main_pid = dump["pid"]
    outcome.overhead = (
        median(outcome.latencies["query"]),
        median([end - start for _, start, end in traced_reads]),
    )
    return outcome
