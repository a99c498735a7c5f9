"""Layer traversal primitives shared by HNSW construction and querying.

Two routines from Malkov & Yashunin, each in two engines that run
straight on ``LayeredGraph.adjacency``:

* :func:`greedy_descent` — the zoom-in phase: at each upper layer, hop to
  the closest neighbour until no improvement (``ef = 1``).
* :func:`search_layer` — the beam search (Algorithm 2): maintain ``ef``
  best candidates, expand the closest unexpanded one, vectorizing the
  per-hop distance computations.

The **per-hop** pair (:func:`greedy_descent`, :func:`search_layer`)
validates the query once and batches each hop's distance evaluations
through :meth:`DistanceKernel.many_prechecked`.  It serves every metric
and any graph size.

The **table** pair (:func:`greedy_descent_table`,
:func:`search_layer_table`) is the small-graph fast path that dominates
d-HNSW, where every sub-HNSW and the meta-HNSW hold a few hundred nodes.
One *uncounted* einsum (:meth:`DistanceKernel.l2_table`) evaluates the
query against the whole graph up front; the hop loop then runs on plain
Python floats with no per-hop NumPy dispatch at all.  Evaluations are
credited to the kernel exactly as the traversal visits nodes, so counters
match the per-hop arithmetic, and the einsum table rows are bit-identical
to the per-hop row subsets (the last-axis reduction is row-independent),
so results match too.  The dot-product metrics go through BLAS
matrix-vector products whose result is not guaranteed stable across
corpus shapes, so they always use the per-hop pair; :func:`table_mode` is
the one predicate that picks the engine, for builds and searches alike.

Both pairs mark visits in the graph's epoch-tagged
:class:`~repro.hnsw.graph.VisitedPool` and break heap ties on
``(distance, node)`` tuples, so they return bit-identical results and
perform exactly the same number of kernel evaluations
(``tests/hnsw/test_csr_equivalence.py``,
``tests/integration/test_golden_traversal.py``).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.hnsw.distance import DistanceKernel, Metric
from repro.hnsw.graph import LayeredGraph

__all__ = ["TABLE_NODES_MAX", "table_mode", "greedy_descent",
           "greedy_descent_table", "search_layer", "search_layer_table",
           "knn_from_candidates"]

#: Largest graph served by the distance-table engine.  A table costs one
#: ``O(num_nodes * dim)`` einsum plus a ``tolist`` regardless of how much
#: of the graph the beam actually visits; beyond a couple thousand nodes
#: a beam with typical ``ef`` visits a small fraction of the graph and
#: the per-hop engine's on-demand gathers win.  d-HNSW sub-clusters and
#: the meta-HNSW (a few hundred nodes each) sit far below the cutoff.
TABLE_NODES_MAX = 2048


def table_mode(graph: LayeredGraph, kernel: DistanceKernel) -> bool:
    """Whether the distance-table pair serves ``graph``."""
    return kernel.metric is Metric.L2 and len(graph) <= TABLE_NODES_MAX


def greedy_descent(graph: LayeredGraph, kernel: DistanceKernel,
                   query: np.ndarray, entry: int, entry_dist: float,
                   from_level: int, to_level: int) -> tuple[int, float]:
    """Greedy walk from ``from_level`` down to (but not into) ``to_level``.

    Evaluates distances to *all* neighbours of the current node per hop
    (no visited filter).  Returns the closest node found and its
    distance; that node seeds the beam search on ``to_level``.
    """
    query = kernel.check(query)
    current, current_dist = entry, entry_dist
    adjacency = graph.adjacency
    vectors = graph.vectors
    many = kernel.many_prechecked
    for level in range(from_level, to_level, -1):
        improved = True
        while improved:
            improved = False
            neighbor_ids = adjacency[current][level]
            if not neighbor_ids:
                continue
            dists = many(query, vectors[neighbor_ids]).tolist()
            # First minimum, as ``np.argmin`` would pick; float32 values
            # compare the same as the Python floats they convert to.
            best_dist = min(dists)
            if best_dist < current_dist:
                current = neighbor_ids[dists.index(best_dist)]
                current_dist = best_dist
                improved = True
    return current, current_dist


def search_layer(graph: LayeredGraph, kernel: DistanceKernel,
                 query: np.ndarray, entries: list[tuple[float, int]],
                 ef: int, level: int) -> list[tuple[float, int]]:
    """Beam search at one layer (Algorithm 2 of the HNSW paper).

    Parameters
    ----------
    entries:
        Seed ``(distance, node)`` pairs; distances must already be computed.
    ef:
        Beam width — the size of the dynamic candidate list.

    Returns
    -------
    Up to ``ef`` ``(distance, node)`` pairs, sorted ascending by distance.
    """
    if ef < 1:
        raise ValueError(f"ef must be >= 1, got {ef}")
    query = kernel.check(query)
    tags, epoch = graph.visited.acquire()
    for _, node in entries:
        tags[node] = epoch
    # Min-heap of frontier candidates to expand.
    candidates = list(entries)
    heapq.heapify(candidates)
    # Max-heap (negated) of the current best ef results.
    results = [(-dist, node) for dist, node in entries]
    heapq.heapify(results)
    while len(results) > ef:
        heapq.heappop(results)

    adjacency = graph.adjacency
    vectors = graph.vectors
    many = kernel.many_prechecked
    push = heapq.heappush
    pop = heapq.heappop
    pushpop = heapq.heappushpop
    num_results = len(results)
    # ``worst`` tracks ``-results[0][0]`` incrementally: results only
    # changes inside the accept branch, which refreshes it.
    worst = -results[0][0]
    while candidates:
        dist, node = pop(candidates)
        if dist > worst and num_results >= ef:
            break
        unvisited = []
        mark = unvisited.append
        for neighbor in adjacency[node][level]:
            if tags[neighbor] != epoch:
                tags[neighbor] = epoch
                mark(neighbor)
        if not unvisited:
            continue
        dists = many(query, vectors[unvisited])
        for neighbor, neighbor_dist in zip(unvisited, dists.tolist()):
            if num_results < ef or neighbor_dist < worst:
                push(candidates, (neighbor_dist, neighbor))
                # push-then-pop-max fused into one sift; heap elements
                # are unique, totally ordered tuples, so every
                # observable (the root and the final content) matches a
                # separate push + pop.
                if num_results >= ef:
                    pushpop(results, (-neighbor_dist, neighbor))
                else:
                    push(results, (-neighbor_dist, neighbor))
                    num_results += 1
                worst = -results[0][0]
    output = [(-negated, node) for negated, node in results]
    output.sort()
    return output


def greedy_descent_table(graph: LayeredGraph, kernel: DistanceKernel,
                         table: list[float], entry: int, entry_dist: float,
                         from_level: int, to_level: int) -> tuple[int, float]:
    """Table-engine twin of :func:`greedy_descent`.

    ``table`` holds the query's distance to every node (Python floats from
    :meth:`DistanceKernel.l2_table`).  The per-hop engine evaluates *all*
    neighbours of the current node per hop — revisits included — so the
    same count is credited here per hop; the first-minimum tie-break of
    ``np.argmin`` is preserved by the strict ``<`` scan.
    """
    current, current_dist = entry, entry_dist
    adjacency = graph.adjacency
    evaluations = 0
    for level in range(from_level, to_level, -1):
        improved = True
        while improved:
            improved = False
            neighbor_ids = adjacency[current][level]
            if not neighbor_ids:
                continue
            evaluations += len(neighbor_ids)
            best = neighbor_ids[0]
            best_dist = table[best]
            for neighbor in neighbor_ids:
                neighbor_dist = table[neighbor]
                if neighbor_dist < best_dist:
                    best = neighbor
                    best_dist = neighbor_dist
            if best_dist < current_dist:
                current = best
                current_dist = best_dist
                improved = True
    kernel.num_evaluations += evaluations
    return current, current_dist


def search_layer_table(graph: LayeredGraph, kernel: DistanceKernel,
                       table: list[float], entries: list[tuple[float, int]],
                       ef: int, level: int) -> list[tuple[float, int]]:
    """Table-engine twin of :func:`search_layer`.

    The mark / evaluate / push phases of a hop fuse into one pure-Python
    loop: a node's distance is a list lookup, so no per-hop NumPy call
    remains.  One evaluation is credited per newly visited neighbour —
    exactly the rows the per-hop engine hands to the kernel — including
    neighbours that fail the beam test; dead pops and the termination pop
    credit nothing, matching the per-hop accounting.
    """
    if ef < 1:
        raise ValueError(f"ef must be >= 1, got {ef}")
    tags, epoch = graph.visited.acquire()
    for _, node in entries:
        tags[node] = epoch
    candidates = list(entries)
    heapq.heapify(candidates)
    results = [(-dist, node) for dist, node in entries]
    heapq.heapify(results)
    while len(results) > ef:
        heapq.heappop(results)

    adjacency = graph.adjacency
    push = heapq.heappush
    pop = heapq.heappop
    pushpop = heapq.heappushpop
    num_results = len(results)
    evaluations = 0
    # ``worst`` tracks ``-results[0][0]`` incrementally: results only
    # changes inside the accept branches, each of which refreshes it.
    worst = -results[0][0]
    # Filling phase: the beam has fewer than ``ef`` members, so the
    # early-termination test cannot fire and every new neighbour is
    # accepted unconditionally.
    while candidates and num_results < ef:
        dist, node = pop(candidates)
        for neighbor in adjacency[node][level]:
            if tags[neighbor] != epoch:
                tags[neighbor] = epoch
                evaluations += 1
                neighbor_dist = table[neighbor]
                if num_results < ef or neighbor_dist < worst:
                    push(candidates, (neighbor_dist, neighbor))
                    # Fused push + pop-max (see search_layer): identical
                    # observables on a heap of unique ordered tuples.
                    if num_results >= ef:
                        pushpop(results, (-neighbor_dist, neighbor))
                    else:
                        push(results, (-neighbor_dist, neighbor))
                        num_results += 1
                    worst = -results[0][0]
    # Steady phase: the beam is full (``num_results == ef`` for good),
    # so the fill checks drop out of the per-neighbour work entirely.
    while candidates:
        dist, node = pop(candidates)
        if dist > worst:
            break
        for neighbor in adjacency[node][level]:
            if tags[neighbor] != epoch:
                tags[neighbor] = epoch
                evaluations += 1
                neighbor_dist = table[neighbor]
                if neighbor_dist < worst:
                    push(candidates, (neighbor_dist, neighbor))
                    pushpop(results, (-neighbor_dist, neighbor))
                    worst = -results[0][0]
    kernel.num_evaluations += evaluations
    output = [(-negated, node) for negated, node in results]
    output.sort()
    return output


def knn_from_candidates(candidates: list[tuple[float, int]],
                        k: int) -> list[tuple[float, int]]:
    """The ``k`` closest ``(distance, node)`` pairs, ascending.

    ``heapq.nsmallest`` is O(n log k) rather than the O(n log n) full
    sort, which matters when the beam is much wider than ``k`` (the
    Fig. 6 top-1 sweeps run ef up to 48 with k=1), and returns exactly
    what ``sorted(candidates)[:k]`` would.
    """
    if k <= 0:
        return []
    return heapq.nsmallest(k, candidates)
