"""The public HNSW index facade.

:class:`HnswIndex` is a complete, standalone HNSW implementation — it is
both a building block of d-HNSW (meta-HNSW and every sub-HNSW are instances
of it) and a usable ANN index in its own right.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.errors import DimensionMismatchError, EmptyIndexError
from repro.hnsw.build import insert
from repro.hnsw.distance import DistanceKernel, Metric
from repro.hnsw.graph import LayeredGraph
from repro.hnsw.params import HnswParams
from repro.hnsw.search import (greedy_descent, greedy_descent_table,
                               knn_from_candidates, search_layer,
                               search_layer_table, table_mode)

__all__ = ["HnswIndex"]


def _effective_ef(k: int, ef: int | None) -> int:
    """Beam width: ``ef`` (default ``2 * k``), never below ``k``."""
    return max(ef if ef is not None else 2 * k, k)


class HnswIndex:
    """Hierarchical Navigable Small World index over float32 vectors.

    Node ids are dense ints in insertion order.  An optional per-node
    *label* maps internal ids to caller-defined ids (d-HNSW labels
    sub-HNSW nodes with their global dataset ids).

    Examples
    --------
    >>> index = HnswIndex(dim=4, params=HnswParams(m=8, seed=7))
    >>> _ = index.add(np.eye(4, dtype=np.float32))
    >>> labels, dists = index.search(np.array([1, 0, 0, 0]), k=1)
    >>> int(labels[0])
    0
    """

    def __init__(self, dim: int,
                 params: HnswParams | None = None) -> None:
        self.params = params if params is not None else HnswParams()
        self.kernel = DistanceKernel(dim, self.params.metric)
        self.graph = LayeredGraph(dim)
        self.labels: list[int] = []
        self._rng = random.Random(self.params.seed)

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return self.graph.dim

    @property
    def metric(self) -> Metric:
        """Distance metric in use."""
        return self.params.metric

    def __len__(self) -> int:
        return len(self.graph)

    def label_of(self, node: int) -> int:
        """External label of an internal node id."""
        return self.labels[node]

    # ------------------------------------------------------------------
    def add_one(self, vector: np.ndarray, label: int | None = None,
                forced_level: int | None = None) -> int:
        """Insert one vector; returns its internal node id."""
        node = insert(self.graph, self.kernel, vector, self.params,
                      self._rng, forced_level=forced_level)
        self.labels.append(label if label is not None else node)
        return node

    def add(self, vectors: np.ndarray,
            labels: Sequence[int] | None = None) -> list[int]:
        """Insert a batch of vectors (rows); returns internal node ids."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if labels is not None and len(labels) != vectors.shape[0]:
            raise ValueError(
                f"got {vectors.shape[0]} vectors but {len(labels)} labels")
        ids = []
        for row_index, vector in enumerate(vectors):
            label = labels[row_index] if labels is not None else None
            ids.append(self.add_one(vector, label=label))
        return ids

    # ------------------------------------------------------------------
    def search(self, query: np.ndarray, k: int,
               ef: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` approximate nearest neighbours of ``query``.

        Returns ``(labels, distances)`` arrays, ascending by distance.
        ``ef`` defaults to ``max(k, 2 * k)`` capped below by ``k``.
        """
        candidates = self.search_candidates(query, k, ef)
        top = knn_from_candidates(candidates, k)
        labels = np.array([self.labels[node] for _, node in top],
                          dtype=np.int64)
        dists = np.array([dist for dist, _ in top], dtype=np.float32)
        return labels, dists

    def search_candidates(self, query: np.ndarray, k: int,
                          ef: int | None = None) -> list[tuple[float, int]]:
        """Raw beam-search candidates as ``(distance, internal id)``.

        d-HNSW merges candidates across several sub-HNSWs before taking
        the global top-k, so the unclipped list is part of the API.
        Small L2 graphs run on the distance-table beam, everything else
        on the per-hop beam (:func:`~repro.hnsw.search.table_mode`); both
        return bit-identical results and evaluation counts.
        """
        self._check_searchable(k)
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        graph = self.graph
        entry_dist = self.kernel.one(query, graph.vector(graph.entry_point))
        table = (self.kernel.l2_table(query, graph.vectors).tolist()
                 if table_mode(graph, self.kernel) else None)
        return self._beam(query, table, entry_dist, _effective_ef(k, ef))

    def search_candidates_batch(self, queries: np.ndarray, k: int,
                                ef: int | None = None
                                ) -> list[list[tuple[float, int]]]:
        """:meth:`search_candidates` for a whole batch of queries.

        Small L2 graphs (every d-HNSW sub-cluster and the meta-HNSW) get
        the whole batch's distance tables from one chunked einsum
        (:meth:`DistanceKernel.l2_table`); per-query results and total
        evaluation counts are identical to the sequential path.
        """
        self._check_searchable(k)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if queries.shape[1] != self.kernel.dim:
            raise DimensionMismatchError(self.kernel.dim, queries.shape[1])
        graph = self.graph
        if not table_mode(graph, self.kernel):
            return [self.search_candidates(query, k, ef)
                    for query in queries]
        effective_ef = _effective_ef(k, ef)
        entry_vector = graph.vector(graph.entry_point)
        tables = self.kernel.l2_table(queries, graph.vectors)
        # The matrix was validated above, so per-query seeding can use
        # the check-free kernel entry point (same arithmetic + counting).
        seed_one = self.kernel.one_prechecked
        return [self._beam(query, table_row.tolist(),
                           seed_one(query, entry_vector), effective_ef)
                for query, table_row in zip(queries, tables)]

    def _check_searchable(self, k: int) -> None:
        if len(self.graph) == 0:
            raise EmptyIndexError("search on empty index")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")

    def _beam(self, query: np.ndarray, table: list[float] | None,
              entry_dist: float, ef: int) -> list[tuple[float, int]]:
        """Descend from the entry point, then beam-search layer 0 — on
        the table pair when ``table`` is given, else the per-hop pair."""
        graph, kernel = self.graph, self.kernel
        entry = graph.entry_point
        if table is not None:
            if graph.max_level > 0:
                entry, entry_dist = greedy_descent_table(
                    graph, kernel, table, entry, entry_dist,
                    graph.max_level, 0)
            return search_layer_table(graph, kernel, table,
                                      [(entry_dist, entry)], ef, 0)
        if graph.max_level > 0:
            entry, entry_dist = greedy_descent(
                graph, kernel, query, entry, entry_dist, graph.max_level, 0)
        return search_layer(graph, kernel, query, [(entry_dist, entry)],
                            ef, 0)

    def materialize(self) -> bool:
        """Privatize vector storage aliasing remote region memory.

        Idempotent; returns True if anything was copied (see
        :meth:`LayeredGraph.materialize`).
        """
        return self.graph.materialize()

    # ------------------------------------------------------------------
    def layer_sizes(self) -> list[int]:
        """Number of nodes participating in each layer, bottom-up."""
        sizes = [0] * (self.graph.max_level + 1)
        for layers in self.graph.adjacency:
            for level in range(len(layers)):
                sizes[level] += 1
        return sizes

    def reset_compute_counter(self) -> int:
        """Zero the distance-evaluation counter; returns the old value."""
        return self.kernel.reset_counter()

    @property
    def compute_count(self) -> int:
        """Distance evaluations since the last reset."""
        return self.kernel.num_evaluations
