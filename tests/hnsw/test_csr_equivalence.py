"""Equivalence of the table beam and the per-hop beam.

:mod:`repro.hnsw.search` holds two engines over the same
``LayeredGraph.adjacency``: the distance-table pair (small L2 graphs) and
the per-hop pair (every metric, any size).  They promise *bit-identical*
results and *exactly equal* distance-evaluation counts — the counters
drive every simulated latency in ``benchmarks/results/``, so even an
off-by-one would silently change the paper's reproduced numbers.  These
tests run the per-hop pair directly as the oracle, fuzz randomized graphs
across metrics, beam widths, and graph mutations (including disconnected
nodes), and assert exact equality, never approximate closeness.
``tests/integration/test_golden_traversal.py`` pins both engines to
checked-in digests as well.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hnsw.distance import DistanceKernel, Metric
from repro.hnsw.graph import LayeredGraph, VisitedPool
from repro.hnsw.index import HnswIndex
from repro.hnsw.params import HnswParams
from repro.hnsw.search import (TABLE_NODES_MAX, greedy_descent,
                               greedy_descent_table, search_layer,
                               search_layer_table, table_mode)

METRICS = ["l2", "ip", "cosine"]
EF_VALUES = [1, 2, 7, 33]


def build_index(metric: str, count: int, dim: int = 6, m: int = 4,
                seed: int = 11) -> HnswIndex:
    rng = np.random.default_rng(seed)
    index = HnswIndex(dim, HnswParams(m=m, ef_construction=24,
                                      metric=metric, seed=seed))
    index.add((rng.standard_normal((count, dim)) * 4).astype(np.float32))
    return index


def disconnect(index: HnswIndex, node: int) -> None:
    """Strip every edge touching ``node`` (simulates a pruned island)."""
    graph = index.graph
    for level in range(len(graph.adjacency[node])):
        graph.adjacency[node][level] = []
    for other in range(len(graph)):
        if other == node:
            continue
        for level, neighbors in enumerate(graph.adjacency[other]):
            graph.adjacency[other][level] = [
                n for n in neighbors if n != node]


def per_hop_run(index: HnswIndex, queries: np.ndarray, k: int,
                ef: int) -> tuple[list, int]:
    """The per-hop pair called directly, whatever the index would pick."""
    graph, kernel = index.graph, index.kernel
    kernel.reset_counter()
    results = []
    for query in queries:
        entry = graph.entry_point
        entry_dist = kernel.one(query, graph.vector(entry))
        entry, entry_dist = greedy_descent(graph, kernel, query, entry,
                                           entry_dist, graph.max_level, 0)
        results.append(search_layer(graph, kernel, query,
                                    [(entry_dist, entry)], max(ef, k), 0))
    return results, kernel.reset_counter()


def table_run(index: HnswIndex, queries: np.ndarray, k: int,
              ef: int) -> tuple[list, int]:
    """The table pair called directly (L2 only, any graph size)."""
    graph, kernel = index.graph, index.kernel
    kernel.reset_counter()
    results = []
    for query in queries:
        table = kernel.l2_table(query, graph.vectors).tolist()
        entry = graph.entry_point
        entry_dist = kernel.one(query, graph.vector(entry))
        entry, entry_dist = greedy_descent_table(
            graph, kernel, table, entry, entry_dist, graph.max_level, 0)
        results.append(search_layer_table(
            graph, kernel, table, [(entry_dist, entry)], max(ef, k), 0))
    return results, kernel.reset_counter()


class TestEngineEquivalence:
    """Single-query and batch index searches versus the per-hop pair."""

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("ef", EF_VALUES)
    def test_results_and_counts_match(self, metric, ef):
        index = build_index(metric, count=90)
        rng = np.random.default_rng(23)
        queries = (rng.standard_normal((12, 6)) * 4).astype(np.float32)
        expected, expected_evals = per_hop_run(index, queries, 3, ef)

        single = [index.search_candidates(query, 3, ef)
                  for query in queries]
        single_evals = index.kernel.reset_counter()
        assert single == expected
        assert single_evals == expected_evals

        batch = index.search_candidates_batch(queries, 3, ef)
        batch_evals = index.kernel.reset_counter()
        assert batch == expected
        assert batch_evals == expected_evals

    @pytest.mark.parametrize("metric", METRICS)
    def test_on_demand_engine_matches(self, metric):
        """The table pair (L2) and the index's own choice both match the
        per-hop pair."""
        index = build_index(metric, count=70)
        rng = np.random.default_rng(5)
        queries = (rng.standard_normal((8, 6)) * 4).astype(np.float32)
        expected, expected_evals = per_hop_run(index, queries, 2, 17)
        got = index.search_candidates_batch(queries, 2, 17)
        got_evals = index.kernel.reset_counter()
        assert got == expected
        assert got_evals == expected_evals
        if metric == "l2":
            assert table_run(index, queries, 2, 17) == (expected,
                                                        expected_evals)

    def test_large_graph_runs_per_hop_and_matches_table(self):
        index = build_index("l2", count=TABLE_NODES_MAX + 60, dim=2, m=3)
        assert not table_mode(index.graph, index.kernel)
        rng = np.random.default_rng(9)
        queries = (rng.standard_normal((6, 2)) * 4).astype(np.float32)
        expected, expected_evals = table_run(index, queries, 3, 12)
        got = index.search_candidates_batch(queries, 3, 12)
        assert got == expected
        assert index.kernel.reset_counter() == expected_evals

    def test_disconnected_nodes(self):
        index = build_index("l2", count=60)
        disconnect(index, 13)
        disconnect(index, 47)
        rng = np.random.default_rng(3)
        queries = (rng.standard_normal((10, 6)) * 4).astype(np.float32)
        for ef in EF_VALUES:
            expected, expected_evals = per_hop_run(index, queries, 2, ef)
            got = index.search_candidates_batch(queries, 2, ef)
            got_evals = index.kernel.reset_counter()
            assert got == expected
            assert got_evals == expected_evals

    def test_single_node_graph(self):
        index = build_index("l2", count=1)
        query = np.ones(6, dtype=np.float32)
        expected, expected_evals = per_hop_run(index, query[None], 1, 4)
        got = [index.search_candidates(query, 1, 4)]
        assert got == expected
        assert index.kernel.reset_counter() == expected_evals

    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_fuzz_equivalence(self, data):
        metric = data.draw(st.sampled_from(METRICS))
        count = data.draw(st.integers(min_value=1, max_value=80))
        m = data.draw(st.integers(min_value=2, max_value=8))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 16))
        ef = data.draw(st.sampled_from(EF_VALUES))
        k = data.draw(st.integers(min_value=1, max_value=5))
        index = build_index(metric, count=count, m=m, seed=seed)
        if count > 4 and data.draw(st.booleans()):
            disconnect(index, data.draw(
                st.integers(min_value=0, max_value=count - 1)))
        rng = np.random.default_rng(seed + 1)
        queries = (rng.standard_normal((5, 6)) * 4).astype(np.float32)
        expected, expected_evals = per_hop_run(index, queries, k, ef)
        single = [index.search_candidates(query, k, ef)
                  for query in queries]
        single_evals = index.kernel.reset_counter()
        batch = index.search_candidates_batch(queries, k, ef)
        batch_evals = index.kernel.reset_counter()
        assert single == expected
        assert batch == expected
        assert single_evals == expected_evals
        assert batch_evals == expected_evals
        if metric == "l2":
            assert table_run(index, queries, k, ef) == (expected,
                                                        expected_evals)


class TestSearchSeesLiveAdjacency:
    @pytest.mark.parametrize("metric", METRICS)
    def test_edges_added_after_a_search_are_followed(self, metric):
        """Searches read ``graph.adjacency`` itself: no snapshot to go
        stale, so no invalidation step after a direct mutation."""
        index = build_index(metric, count=50)
        isolated = 50
        index.add_one(np.full(6, 40.0, dtype=np.float32), forced_level=0)
        disconnect(index, isolated)
        query = np.full(6, 40.0, dtype=np.float32)
        before = index.search_candidates(query, 1, 8)
        assert isolated not in [node for _, node in before]

        for node in range(isolated):
            index.graph.adjacency[node][0].append(isolated)
        after = index.search_candidates(query, 1, 8)
        assert after[0][1] == isolated
        assert index.search_candidates_batch(query[None], 1, 8) == [after]


class TestTableMode:
    def test_gating(self):
        graph = build_index("l2", count=10).graph
        assert table_mode(graph, DistanceKernel(6, Metric.L2))
        assert not table_mode(graph, DistanceKernel(6, Metric.COSINE))
        assert not table_mode(graph,
                              DistanceKernel(6, Metric.INNER_PRODUCT))
        big = LayeredGraph(1)
        big.bulk_load(np.zeros((TABLE_NODES_MAX + 1, 1), dtype=np.float32),
                      [[[]] for _ in range(TABLE_NODES_MAX + 1)])
        assert not table_mode(big, DistanceKernel(1, Metric.L2))


class TestVisitedPool:
    def test_epochs_isolate_traversals(self):
        pool = VisitedPool(4)
        tags, epoch = pool.acquire()
        tags[2] = epoch
        assert tags[2] == epoch
        fresh_tags, fresh_epoch = pool.acquire()
        assert fresh_tags is tags
        assert fresh_epoch != epoch
        assert all(tag != fresh_epoch for tag in tags)

    def test_empty_graph_pool(self):
        pool = VisitedPool(0)
        tags, epoch = pool.acquire()
        assert len(tags) == 1
        assert epoch == 1

    def test_graph_pool_tracks_node_count(self):
        graph = LayeredGraph(2)
        for row in range(5):
            graph.add_node(np.full(2, row, dtype=np.float32), 0)
        tags, _ = graph.visited.acquire()
        assert len(tags) >= 5
        graph.bulk_load(np.zeros((9, 2), dtype=np.float32),
                        [[[]] for _ in range(9)])
        tags, epoch = graph.visited.acquire()
        assert len(tags) == 9
        assert epoch == 1

    def test_pickled_index_searches_the_same(self):
        import pickle

        index = build_index("l2", count=10)
        query = np.ones(6, dtype=np.float32)
        index.search_candidates(query, 1, 4)
        restored = pickle.loads(pickle.dumps(index))
        assert restored.search_candidates(query, 1, 4) == \
            index.search_candidates(query, 1, 4)
