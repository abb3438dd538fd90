"""Tests for the warm preprocessed-index cache: content keys, the artifact
round-trip, invalidation (any content change misses, any label-preserving
reload hits), corruption fallback, the LRU size cap + ledger, the
cache-aware preprocess front door, and the ``repro-lhcds cache`` CLI.

The acceptance criterion mirrored from the engine matrix: a cache-hit
solve must be bit-identical (result *and* stats) to a cold in-process solve
for every solver x jobs x kernel combination."""

from __future__ import annotations

import json
import os
import pickle

import pytest

from helpers import multi_component_graph, signature

from repro.cli import main as cli_main
from repro.engine import (
    PreprocessCache,
    SolveRequest,
    cache_for,
    cache_key,
    preprocess,
    resolve_cache_dir,
    solve,
)
from repro.engine.cache import (
    ARTIFACT_SCHEMA,
    STATE_HIT,
    STATE_HIT_MEMORY,
    STATE_MISS,
    STATE_OFF,
)
from repro.errors import EngineError
from repro.graph.graph import Graph, complete_graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.instances import InstanceSet
from repro.kernels import available_kernels
from repro.patterns.clique import CliquePattern, TrianglePattern
from repro.patterns.registry import get_pattern


def _graph_pair():
    """The same graph content built in two different insertion orders."""
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]
    forward = Graph(edges=edges)
    backward = Graph(edges=[(v, u) for u, v in reversed(edges)])
    return forward, backward


def _stats_signature(stats):
    """Every stats field that must be bit-identical between cold and hit."""
    return {
        key: value
        for key, value in stats.as_dict().items()
        if not key.endswith("_seconds") and not key.startswith("cache_")
    }


def _component_signature(components):
    """The content of prepared components, independent of object identity."""
    return [
        (
            comp.index,
            sorted(map(str, comp.subgraph.vertices())),
            sorted(map(str, (tuple(map(str, i)) for i in comp.instances.instances))),
            comp.lower_bound,
            comp.upper_bound,
            None if comp.bounds is None else sorted(
                (str(v), comp.bounds.lower[v]) for v in comp.bounds.lower
            ),
        )
        for comp in components
    ]


class TestContentKeys:
    def test_insertion_order_irrelevant(self):
        forward, backward = _graph_pair()
        assert forward.content_key() == backward.content_key()

    def test_edge_list_round_trip_hits(self, tmp_path):
        graph = multi_component_graph()
        path = tmp_path / "graph.txt"
        write_edge_list(graph, str(path))
        reloaded = read_edge_list(str(path))
        assert graph.content_key() == reloaded.content_key()

    def test_one_edge_changes_key(self):
        graph = complete_graph(5)
        mutated = graph.copy()
        mutated.remove_edge(0, 1)
        assert graph.content_key() != mutated.content_key()

    def test_one_vertex_changes_key(self):
        graph = complete_graph(5)
        grown = graph.copy()
        grown.add_vertex(99)
        assert graph.content_key() != grown.content_key()

    def test_label_types_distinguished(self):
        assert Graph(edges=[(1, 2)]).content_key() != Graph(edges=[("1", "2")]).content_key()

    def test_instances_digest_order_independent(self):
        a = InstanceSet.from_instances(3, [(0, 1, 2), (1, 2, 3)])
        b = InstanceSet.from_instances(3, [(3, 2, 1), (2, 0, 1)])
        assert a.content_digest() == b.content_digest()
        c = InstanceSet.from_instances(3, [(0, 1, 2), (1, 2, 4)])
        assert a.content_digest() != c.content_digest()

    def test_instances_digest_survives_pickling(self):
        original = CliquePattern(3).instances(complete_graph(6))
        clone = pickle.loads(pickle.dumps(original))
        assert clone.content_digest() == original.content_digest()
        assert clone == original


class TestCacheKey:
    def test_pattern_size_changes_key(self):
        graph = complete_graph(5)
        k3 = cache_key(graph, CliquePattern(3), bounds_stage=True, prune_stage=False)
        k4 = cache_key(graph, CliquePattern(4), bounds_stage=True, prune_stage=False)
        assert k3 != k4

    def test_pattern_identity_changes_key(self):
        graph = complete_graph(5)
        clique = cache_key(graph, CliquePattern(3), bounds_stage=True, prune_stage=False)
        triangle = cache_key(graph, TrianglePattern(), bounds_stage=True, prune_stage=False)
        diamond = cache_key(
            graph, get_pattern("2-triangle"), bounds_stage=True, prune_stage=False
        )
        assert len({clique, triangle, diamond}) == 3

    def test_stage_flags_change_key(self):
        graph = complete_graph(5)
        pattern = CliquePattern(3)
        keys = {
            cache_key(graph, pattern, bounds_stage=b, prune_stage=p)
            for b in (False, True)
            for p in (False, True)
        }
        assert len(keys) == 4

    def test_graph_mutation_changes_key_reload_does_not(self, tmp_path):
        graph = multi_component_graph()
        pattern = CliquePattern(3)
        base = cache_key(graph, pattern, bounds_stage=True, prune_stage=False)
        mutated = graph.copy()
        mutated.add_edge(0, 400)
        assert cache_key(mutated, pattern, bounds_stage=True, prune_stage=False) != base
        path = tmp_path / "graph.txt"
        write_edge_list(graph, str(path))
        reloaded = read_edge_list(str(path))
        assert cache_key(reloaded, pattern, bounds_stage=True, prune_stage=False) == base


class TestPreprocessFrontDoor:
    def test_miss_then_memory_hit_then_disk_hit(self, tmp_path):
        root = str(tmp_path / "cache")
        graph = multi_component_graph()
        request = SolveRequest(graph=graph, pattern=3, k=3, cache_dir=root)

        cold_components, cold_stats = preprocess(request)
        assert cold_stats.cache_state == STATE_MISS
        assert cold_stats.cache_key

        warm_components, warm_stats = preprocess(request)
        assert warm_stats.cache_state == STATE_HIT_MEMORY

        cache_for(root)._memory.clear()
        disk_components, disk_stats = preprocess(request)
        assert disk_stats.cache_state == STATE_HIT

        assert (
            _component_signature(cold_components)
            == _component_signature(warm_components)
            == _component_signature(disk_components)
        )
        assert (
            _stats_signature(cold_stats)
            == _stats_signature(warm_stats)
            == _stats_signature(disk_stats)
        )
        counters = cache_for(root).counters()
        assert counters["stores"] == 1
        assert counters["hits"] == 2
        assert counters["misses"] == 1

    def test_no_cache_dir_means_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        _, stats = preprocess(SolveRequest(graph=complete_graph(4), pattern=3, k=1))
        assert stats.cache_state == STATE_OFF
        assert stats.cache_key == ""

    def test_env_variable_enables_cache(self, tmp_path, monkeypatch):
        root = str(tmp_path / "envcache")
        monkeypatch.setenv("REPRO_CACHE", root)
        assert resolve_cache_dir(None) == root
        request = SolveRequest(graph=complete_graph(5), pattern=3, k=1)
        _, stats = preprocess(request)
        assert stats.cache_state == STATE_MISS
        _, stats = preprocess(request)
        assert stats.cache_state in (STATE_HIT, STATE_HIT_MEMORY)

    def test_explicit_dir_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "ignored"))
        explicit = str(tmp_path / "explicit")
        assert resolve_cache_dir(explicit) == explicit


class TestBitIdentityColdVsWarm:
    """The acceptance gate: warm solves match cold solves exactly."""

    @pytest.mark.parametrize(
        "solver,h",
        [("ippv", 3), ("exact", 3), ("greedy", 3), ("ldsflow", 2), ("ltds", 3)],
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matrix_cache_hit_identical_to_cold(self, tmp_path, solver, h, jobs):
        root = str(tmp_path / "cache")
        graph = multi_component_graph()
        options = dict(pattern=h, k=4, solver=solver, jobs=jobs)
        cold = solve(graph=graph, cache_dir=None, **options)
        miss = solve(graph=graph, cache_dir=root, **options)
        hit = solve(graph=graph, cache_dir=root, **options)
        assert miss.preprocessing.cache_state == STATE_MISS
        assert hit.preprocessing.cache_state in (STATE_HIT, STATE_HIT_MEMORY)
        for warm in (miss, hit):
            assert signature(warm) == signature(cold)
            assert warm.verification == cold.verification
            assert warm.candidates_examined == cold.candidates_examined
            assert warm.refinements == cold.refinements
            assert warm.exact_splits == cold.exact_splits
            assert _stats_signature(warm.preprocessing) == _stats_signature(
                cold.preprocessing
            )
        assert hit.executor == ("process" if jobs > 1 else "serial")
        assert hit.fallback_reason is None

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_process_backend_and_kernels_identical(self, tmp_path, kernel):
        root = str(tmp_path / "cache")
        graph = multi_component_graph()
        options = dict(pattern=3, k=4, solver="ippv", kernel=kernel)
        cold = solve(graph=graph, jobs=1, **options)
        solve(graph=graph, cache_dir=root, jobs=1, **options)
        hit = solve(graph=graph, cache_dir=root, jobs=2, **options)
        assert hit.preprocessing.cache_state in (STATE_HIT, STATE_HIT_MEMORY)
        assert signature(hit) == signature(cold)
        assert hit.verification == cold.verification
        assert hit.kernel == kernel
        assert hit.executor == "process"

    def test_disk_hit_across_cache_instances_identical(self, tmp_path):
        """A fresh process would load from disk: simulate with a new cache."""
        root = str(tmp_path / "cache")
        graph = multi_component_graph()
        cold = solve(graph=graph, pattern=3, k=4, solver="exact")
        solve(graph=graph, pattern=3, k=4, solver="exact", cache_dir=root)
        cache_for(root)._memory.clear()
        warm = solve(graph=graph, pattern=3, k=4, solver="exact", cache_dir=root)
        assert warm.preprocessing.cache_state == STATE_HIT
        assert signature(warm) == signature(cold)


class TestCorruptionFallsBackCold:
    def _prime(self, root):
        graph = multi_component_graph()
        request = SolveRequest(graph=graph, pattern=3, k=3, cache_dir=root)
        _, stats = preprocess(request)
        assert stats.cache_state == STATE_MISS
        cache = cache_for(root)
        cache._memory.clear()
        return request, cache, stats.cache_key

    def test_corrupted_artifact_recovers(self, tmp_path):
        root = str(tmp_path / "cache")
        request, cache, key = self._prime(root)
        path = cache._artifact_path(key)
        with open(path, "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xde\xad\xbe\xef")
        _, stats = preprocess(request)
        assert stats.cache_state == STATE_MISS  # fell back cold, re-stored
        cache._memory.clear()
        _, stats = preprocess(request)
        assert stats.cache_state == STATE_HIT

    def test_truncated_artifact_recovers(self, tmp_path):
        root = str(tmp_path / "cache")
        request, cache, key = self._prime(root)
        path = cache._artifact_path(key)
        with open(path, "r+b") as handle:
            handle.truncate(32)
        _, stats = preprocess(request)
        assert stats.cache_state == STATE_MISS

    def test_schema_mismatch_recovers(self, tmp_path):
        root = str(tmp_path / "cache")
        request, cache, key = self._prime(root)
        stale = {"schema": "repro-cache/0", "key": key, "components": [], "stats": None}
        payload = pickle.dumps(stale)
        with open(cache._artifact_path(key), "wb") as handle:
            handle.write(payload)
        # Keep the ledger checksum honest so only the schema check trips.
        import hashlib

        index = cache._read_index()
        index["entries"][key]["sha256"] = hashlib.sha256(payload).hexdigest()
        index["entries"][key]["size_bytes"] = len(payload)
        cache._write_index(index)
        _, stats = preprocess(request)
        assert stats.cache_state == STATE_MISS

    def test_missing_artifact_file_recovers(self, tmp_path):
        root = str(tmp_path / "cache")
        request, cache, key = self._prime(root)
        os.unlink(cache._artifact_path(key))
        _, stats = preprocess(request)
        assert stats.cache_state == STATE_MISS

    def test_corrupt_ledger_recovers(self, tmp_path):
        root = str(tmp_path / "cache")
        request, cache, _key = self._prime(root)
        with open(cache._index_path(), "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        _, stats = preprocess(request)
        assert stats.cache_state == STATE_MISS
        _, stats = preprocess(request)
        assert stats.cache_state in (STATE_HIT, STATE_HIT_MEMORY)


class TestLedgerAndEviction:
    def _artifact(self, graph):
        request = SolveRequest(graph=graph, pattern=3, k=1)
        from repro.engine import cold_preprocess

        return cold_preprocess(request)

    def test_ledger_records_file_sha_and_sizes(self, tmp_path):
        root = str(tmp_path / "cache")
        graph = complete_graph(6)
        request = SolveRequest(graph=graph, pattern=3, k=1, cache_dir=root)
        preprocess(request)
        entries = cache_for(root).entries()
        assert len(entries) == 1
        entry = entries[0]
        path = os.path.join(root, entry["file"])
        assert os.path.isfile(path)
        import hashlib

        with open(path, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == entry["sha256"]
        assert entry["size_bytes"] == os.path.getsize(path)
        assert entry["meta"]["pattern"] == "3-clique"

    def test_lru_eviction_keeps_newest(self, tmp_path):
        root = str(tmp_path / "cache")
        graphs = [complete_graph(n) for n in (6, 7, 8)]
        artifacts = [self._artifact(g) for g in graphs]
        probe = PreprocessCache(root, max_bytes=1, memory_entries=0)
        for n, (components, stats) in zip((6, 7, 8), artifacts):
            probe.store(f"probe-{n}", components, stats)
        # A 1-byte cap evicts everything except the entry just written.
        assert [e["key"] for e in probe.entries()] == ["probe-8"]
        cap = 0
        for n, (components, stats) in zip((6, 7, 8), artifacts):
            single = PreprocessCache(
                str(tmp_path / f"size-{n}"), max_bytes=10**9, memory_entries=0
            )
            single.store(f"k{n}", components, stats)
            cap += single.entries()[0]["size_bytes"]
        # Cap big enough for two artifacts but not three.
        two_of_three = cap - 1
        cache = PreprocessCache(
            str(tmp_path / "lru"), max_bytes=two_of_three, memory_entries=0
        )
        for n, (components, stats) in zip((6, 7, 8), artifacts):
            cache.store(f"k{n}", components, stats)
        remaining = {e["key"] for e in cache.entries()}
        assert "k8" in remaining  # newest always survives
        assert "k6" not in remaining  # least recently used went first
        assert cache.counters()["evictions"] >= 1

    def test_clear_resets_everything(self, tmp_path):
        root = str(tmp_path / "cache")
        request = SolveRequest(
            graph=complete_graph(6), pattern=3, k=1, cache_dir=root
        )
        preprocess(request)
        cache = cache_for(root)
        assert cache.entries()
        removed = cache.clear()
        assert removed == 1
        assert cache.entries() == []
        assert cache.counters() == {"hits": 0, "misses": 0, "stores": 0, "evictions": 0}
        _, stats = preprocess(request)
        assert stats.cache_state == STATE_MISS

    def test_bad_max_bytes_rejected(self, tmp_path, monkeypatch):
        with pytest.raises(EngineError, match="max_bytes"):
            PreprocessCache(str(tmp_path), max_bytes=0)
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "not-a-number")
        with pytest.raises(EngineError, match="REPRO_CACHE_MAX_BYTES"):
            PreprocessCache(str(tmp_path / "env"))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "-3")
        with pytest.raises(EngineError, match="REPRO_CACHE_MAX_BYTES"):
            PreprocessCache(str(tmp_path / "env2"))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
        assert PreprocessCache(str(tmp_path / "env3")).max_bytes == 4096


class TestCacheCLI:
    def test_requires_a_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cli_main(["cache", "stats"]) == 1
        assert "no cache directory" in capsys.readouterr().err

    def test_ls_stats_clear_round_trip(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        assert cli_main(["topk", "--dataset", "HA", "--k", "2", "--cache-dir", root]) == 0
        capsys.readouterr()

        assert cli_main(["cache", "ls", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "3-clique" in out

        assert cli_main(["cache", "stats", "--cache-dir", root, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["num_entries"] == 1
        assert summary["counters"]["stores"] == 1

        assert cli_main(["cache", "clear", "--cache-dir", root]) == 0
        assert "cleared 1 entry" in capsys.readouterr().out
        assert cli_main(["cache", "ls", "--cache-dir", root]) == 0
        assert "empty" in capsys.readouterr().out

    def test_ls_json_schema(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        cli_main(["topk", "--dataset", "HA", "--k", "2", "--cache-dir", root])
        capsys.readouterr()
        assert cli_main(["cache", "ls", "--cache-dir", root, "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 1
        assert {"key", "file", "sha256", "size_bytes", "hits"} <= set(entries[0])

    def test_env_var_selects_directory(self, tmp_path, capsys, monkeypatch):
        root = str(tmp_path / "envcache")
        monkeypatch.setenv("REPRO_CACHE", root)
        assert cli_main(["topk", "--dataset", "HA", "--k", "2"]) == 0
        capsys.readouterr()
        assert cli_main(["cache", "stats", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["num_entries"] == 1

    def test_topk_reports_cache_line(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        cli_main(["topk", "--dataset", "HA", "--k", "2", "--cache-dir", root])
        assert "# cache: miss" in capsys.readouterr().out
        cli_main(["topk", "--dataset", "HA", "--k", "2", "--cache-dir", root])
        assert "# cache: hit" in capsys.readouterr().out

    def test_artifact_schema_constant_pinned(self):
        # The on-disk schema is a compatibility contract; bump deliberately.
        assert ARTIFACT_SCHEMA == "repro-cache/2"


class TestDeltaPoisoningRegression:
    """A delta applied to a shared graph object must never let a later solve
    hit a pre-delta artifact: the memoised content key is invalidated by
    every structural mutation, so the cache key moves with the content."""

    def test_apply_delta_changes_cache_key(self):
        from repro.graph import GraphDelta

        graph = multi_component_graph()
        pattern = CliquePattern(3)
        before = cache_key(graph, pattern, bounds_stage=True, prune_stage=False)
        graph.content_key()  # populate the memo
        graph.apply_delta(GraphDelta(remove_vertices=(0,)))
        after = cache_key(graph, pattern, bounds_stage=True, prune_stage=False)
        assert after != before
        # And the post-delta key equals a fresh graph of the same content.
        rebuilt = multi_component_graph()
        rebuilt.remove_vertex(0)
        assert after == cache_key(
            rebuilt, pattern, bounds_stage=True, prune_stage=False
        )

    def test_post_delta_preprocess_is_not_a_hit(self, tmp_path):
        from repro.graph import GraphDelta

        root = str(tmp_path / "cache")
        graph = multi_component_graph()
        request = SolveRequest(graph=graph, pattern=3, k=2, cache_dir=root)
        _, cold_stats = preprocess(request)
        assert cold_stats.cache_state == STATE_MISS
        _, warm_stats = preprocess(request)
        assert warm_stats.cache_state == STATE_HIT_MEMORY

        graph.apply_delta(GraphDelta(remove_vertices=(0,)))
        _, after_stats = preprocess(request)
        assert after_stats.cache_state == STATE_MISS
        assert after_stats.cache_key != cold_stats.cache_key
        assert after_stats.num_vertices == graph.num_vertices


class TestCrossProcessLedgerLock:
    """The ``fcntl.flock`` guard around ledger read-modify-write sections.

    flock locks are per open-file-description, so two *distinct*
    ``PreprocessCache`` instances on one root contend for real even inside
    a single process — which is exactly how the tests exercise the
    replica-sharing scenario without spawning processes.
    """

    def _artifact(self):
        request = SolveRequest(graph=complete_graph(6), pattern=3, k=1)
        from repro.engine import cold_preprocess

        return cold_preprocess(request)

    def test_lock_file_created_and_guard_reentrant(self, tmp_path):
        from repro.engine.cache import LOCKFILE_NAME
        import repro.engine.cache as cache_module

        if cache_module.fcntl is None:  # pragma: no cover - POSIX-only CI
            pytest.skip("fcntl unavailable on this platform")
        root = str(tmp_path / "cache")
        cache = PreprocessCache(root, memory_entries=0)
        components, stats = self._artifact()
        with cache._ledger_guard():
            with cache._ledger_guard():  # reentrant: depth counter, no deadlock
                cache.store("k", components, stats)
        assert os.path.isfile(os.path.join(root, LOCKFILE_NAME))
        assert cache._flock_depth == 0
        assert cache._flock_handle is None

    def test_concurrent_replicas_keep_ledger_consistent(self, tmp_path):
        import threading

        root = str(tmp_path / "cache")
        components, stats = self._artifact()
        # Two independent instances = two ledger writers, like two server
        # replicas sharing one cache directory.
        replicas = [
            PreprocessCache(root, memory_entries=0) for _ in range(2)
        ]
        errors = []
        n_threads, n_keys = 4, 6

        def worker(worker_id):
            try:
                replica = replicas[worker_id % len(replicas)]
                for i in range(n_keys):
                    key = f"w{worker_id}-k{i}"
                    replica.store(key, components, stats)
                    assert replica.fetch(key) is not None
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        ledger = replicas[0]
        counters = ledger.counters()
        # Every store and every hit made it into the ledger: no lost
        # read-modify-write, no torn index.json.
        assert counters["stores"] == n_threads * n_keys
        assert counters["hits"] == n_threads * n_keys
        assert counters["misses"] == 0
        assert len(ledger.entries()) == n_threads * n_keys

    def test_without_fcntl_guard_is_noop(self, tmp_path, monkeypatch):
        import repro.engine.cache as cache_module
        from repro.engine.cache import LOCKFILE_NAME

        monkeypatch.setattr(cache_module, "fcntl", None)
        root = str(tmp_path / "cache")
        cache = PreprocessCache(root, memory_entries=2)
        components, stats = self._artifact()
        cache.store("k", components, stats)
        fetched = cache.fetch("k")
        assert fetched is not None
        assert fetched[2] == STATE_HIT_MEMORY
        assert cache.counters()["stores"] == 1
        # Single-process behaviour is untouched; no lock file appears.
        assert not os.path.exists(os.path.join(root, LOCKFILE_NAME))
