"""HNSW construction: level sampling, neighbour selection, insertion.

Implements Algorithms 1, 3 and 4 of Malkov & Yashunin.  The heuristic
neighbour selector (Algorithm 4) is what gives HNSW graphs their navigable
small-world property: a candidate is kept only if it is closer to the query
than to every already-selected neighbour, which spreads edges across
directions instead of clustering them.

Two implementations of the hot loops coexist:

* the **reference** path — the straightforward per-candidate loops, kept
  as the equivalence oracle and as the fallback for non-L2 metrics;
* the **vectorized** path (default, ``VECTORIZED_CONSTRUCTION``) — the
  same arithmetic restructured around whole-array NumPy calls: inserts
  run on a precomputed distance table (:func:`search_layer_table`), and
  the selector batches candidate-vs-selected distances into einsum
  columns over one gathered candidate matrix instead of one
  ``kernel.many`` call per examined candidate.

Both paths produce bit-identical graphs and identical evaluation counts:
the einsum column ``|c - s|²`` equals the reference row ``|s - c|²``
exactly (float negation is exact), and the lazy heap pops candidates in
the same unique ``(distance, node)`` order the full sort would.
"""

from __future__ import annotations

import heapq
import math
import random

import numpy as np

from repro.hnsw.distance import DistanceKernel, Metric
from repro.hnsw.graph import LayeredGraph
from repro.hnsw.params import HnswParams
from repro.hnsw.search import (greedy_descent, greedy_descent_table,
                               search_layer, search_layer_table, table_mode)

__all__ = ["sample_level", "select_neighbors_heuristic", "insert"]

#: Module switch for the vectorized construction path.  Flipped off by
#: equivalence tests and benchmarks to run the reference loops instead.
VECTORIZED_CONSTRUCTION = True


def sample_level(rng: random.Random, params: HnswParams) -> int:
    """Draw a node level from the exponential distribution.

    ``floor(-ln(U) * level_mult)`` with ``U ~ Uniform(0, 1]``, capped at
    ``params.max_level`` when that is set (the meta-HNSW caps at 2).
    """
    uniform = rng.random()
    # rng.random() is in [0, 1); shift away from 0 to avoid log(0).
    level = int(-math.log(1.0 - uniform) * params.effective_level_mult)
    if params.max_level is not None:
        level = min(level, params.max_level)
    return level


def select_neighbors_heuristic(
        graph: LayeredGraph, kernel: DistanceKernel,
        candidates: list[tuple[float, int]], m: int, level: int,
        params: HnswParams, query: np.ndarray | None = None) -> list[int]:
    """Algorithm 4: pick up to ``m`` diverse neighbours from candidates.

    ``candidates`` are ``(distance_to_query, node)`` pairs.  A candidate is
    accepted when it is closer to the query than to any already-accepted
    neighbour; optionally, pruned candidates backfill remaining slots
    (``keep_pruned_connections``).

    ``query`` is the vector the candidate distances were measured against;
    ``extend_candidates`` scores discovered extensions against it, as
    Algorithm 4 specifies.  When ``None`` (legacy callers), extensions
    fall back to the closest candidate's vector as an approximation.
    """
    if m <= 0:
        return []
    if not candidates:
        return []
    if VECTORIZED_CONSTRUCTION and kernel.metric is Metric.L2:
        return _select_vectorized(graph, kernel, candidates, m, level,
                                  params, query)
    return _select_reference(graph, kernel, candidates, m, level, params,
                             query)


def _extension_candidates(graph: LayeredGraph,
                          candidates: list[tuple[float, int]],
                          level: int) -> list[int]:
    """Neighbours-of-candidates not already candidates, in discovery order.

    The resulting *set* is independent of the order ``candidates`` is
    walked in, and downstream consumers re-sort by distance, so callers
    may pass candidates in any order.
    """
    seen = {node for _, node in candidates}
    extensions: list[int] = []
    for _, node in candidates:
        for neighbor in graph.neighbors(node, level):
            if neighbor not in seen:
                seen.add(neighbor)
                extensions.append(neighbor)
    return extensions


def _extension_base(graph: LayeredGraph,
                    candidates: list[tuple[float, int]],
                    query: np.ndarray | None) -> np.ndarray:
    """The vector extension distances are measured against."""
    if query is not None:
        return query
    # Legacy fallback: distance to the closest candidate's vector,
    # matching hnswlib's practical variant.
    return graph.vector(min(candidates)[1])


def _select_reference(
        graph: LayeredGraph, kernel: DistanceKernel,
        candidates: list[tuple[float, int]], m: int, level: int,
        params: HnswParams, query: np.ndarray | None) -> list[int]:
    """Per-candidate loop implementation — the equivalence oracle."""
    ordered = sorted(candidates)
    if params.extend_candidates:
        extensions = _extension_candidates(graph, ordered, level)
        if extensions:
            base = _extension_base(graph, ordered, query)
            dists = kernel.many(base, graph.vectors[extensions])
            ordered = sorted(
                ordered + list(zip(dists.tolist(), extensions)))

    selected: list[int] = []
    pruned: list[tuple[float, int]] = []
    for dist, node in ordered:
        if len(selected) >= m:
            break
        closer_to_selected = False
        if selected:
            to_selected = kernel.many(
                graph.vector(node), graph.vectors[selected])
            closer_to_selected = bool(np.any(to_selected < dist))
        if closer_to_selected:
            pruned.append((dist, node))
        else:
            selected.append(node)
    if params.keep_pruned_connections:
        for _, node in pruned:
            if len(selected) >= m:
                break
            selected.append(node)
    return selected


def _select_vectorized(
        graph: LayeredGraph, kernel: DistanceKernel,
        candidates: list[tuple[float, int]], m: int, level: int,
        params: HnswParams, query: np.ndarray | None) -> list[int]:
    """Batched Algorithm 4 — bit-identical to :func:`_select_reference`.

    One gather builds the candidate matrix; each *accepted* neighbour
    contributes a single einsum column of distances to every candidate,
    OR-ed into an occlusion mask.  By the time a candidate is examined
    the mask answers "closer to any already-selected neighbour?" — the
    reference's per-candidate ``kernel.many`` row — without per-candidate
    NumPy dispatch.  The examination order comes from a lazy heap: pops
    of unique ``(distance, node)`` tuples reproduce the full sort.
    """
    entries = list(candidates)
    if params.extend_candidates:
        extensions = _extension_candidates(graph, entries, level)
        if extensions:
            base = _extension_base(graph, entries, query)
            dists = kernel.many(base, graph.vectors[extensions])
            entries.extend(zip(dists.tolist(), extensions))

    nodes = [node for _, node in entries]
    cand_vectors = graph.vectors[nodes]
    # float64 so the mask comparisons upcast exactly like the reference's
    # ``float32 row < Python float`` comparisons do.
    cand_dists = np.array([dist for dist, _ in entries], dtype=np.float64)
    position = {node: i for i, node in enumerate(nodes)}
    occluded = np.zeros(len(entries), dtype=bool)

    heap = entries
    heapq.heapify(heap)
    selected: list[int] = []
    pruned: list[tuple[float, int]] = []
    while heap and len(selected) < m:
        dist, node = heapq.heappop(heap)
        if selected:
            # The reference evaluates this candidate against every
            # selected neighbour; the columns below already did the
            # arithmetic, so only the count is credited here.
            kernel.num_evaluations += len(selected)
            if occluded[position[node]]:
                pruned.append((dist, node))
                continue
        selected.append(node)
        diff = cand_vectors - cand_vectors[position[node]]
        column = np.einsum("ij,ij->i", diff, diff)
        occluded |= column < cand_dists
    if params.keep_pruned_connections:
        for _, node in pruned:
            if len(selected) >= m:
                break
            selected.append(node)
    return selected


def _prune_node(graph: LayeredGraph, kernel: DistanceKernel, node: int,
                level: int, params: HnswParams) -> None:
    """Shrink ``node``'s neighbour list at ``level`` back to its bound."""
    bound = params.max_degree(level)
    neighbor_ids = graph.neighbors(node, level)
    if len(neighbor_ids) <= bound:
        return
    node_vector = graph.vector(node)
    dists = kernel.many(node_vector, graph.vectors[neighbor_ids])
    candidates = list(zip(dists.tolist(), neighbor_ids))
    kept = select_neighbors_heuristic(
        graph, kernel, candidates, bound, level, params, query=node_vector)
    graph.set_neighbors(node, level, kept)


def insert(graph: LayeredGraph, kernel: DistanceKernel, vector: np.ndarray,
           params: HnswParams, rng: random.Random,
           forced_level: int | None = None) -> int:
    """Algorithm 1: insert ``vector`` into ``graph`` and return its id.

    ``forced_level`` overrides level sampling; d-HNSW's meta index uses it
    to build an exact three-layer hierarchy.
    """
    level = (forced_level if forced_level is not None
             else sample_level(rng, params))
    if graph.entry_point is None:
        return graph.add_node(vector, level)

    query = np.asarray(vector, dtype=np.float32).reshape(-1)
    entry = graph.entry_point
    top_level = graph.max_level
    entry_dist = kernel.one(query, graph.vector(entry))

    # Small L2 graphs take the distance-table fast path: one uncounted
    # einsum evaluates the query against every existing node up front
    # (the new node is added after, so it never appears as its own
    # neighbour), and the traversal credits evaluations as it visits.
    table: list[float] | None = None
    if VECTORIZED_CONSTRUCTION and table_mode(graph, kernel):
        table = kernel.l2_table(query, graph.vectors).tolist()

    # Phase 1: zoom in through layers above the new node's level.
    if top_level > level:
        if table is not None:
            entry, entry_dist = greedy_descent_table(
                graph, kernel, table, entry, entry_dist, top_level, level)
        else:
            entry, entry_dist = greedy_descent(
                graph, kernel, query, entry, entry_dist, top_level, level)

    node = graph.add_node(query, level)

    # Phase 2: beam-search each layer from min(level, old top) down to 0,
    # wiring bidirectional edges as we go.
    seeds = [(entry_dist, entry)]
    for current_level in range(min(level, top_level), -1, -1):
        if table is not None:
            candidates = search_layer_table(
                graph, kernel, table, seeds, params.ef_construction,
                current_level)
        else:
            candidates = search_layer(
                graph, kernel, query, seeds, params.ef_construction,
                current_level)
        neighbors = select_neighbors_heuristic(
            graph, kernel, candidates, params.m, current_level, params,
            query=query)
        graph.set_neighbors(node, current_level, neighbors)
        for neighbor in neighbors:
            graph.add_edge(neighbor, node, current_level)
            _prune_node(graph, kernel, neighbor, current_level, params)
        seeds = candidates
    return node
