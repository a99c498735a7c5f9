"""Wall-clock microbenchmark of the two beam engines in ``repro.hnsw.search``.

Unlike everything under ``benchmarks/test_*`` — which reports *simulated*
microseconds from the RDMA cost model — this harness measures how fast the
simulator itself runs: real queries/second of the distance-table beam
(``greedy_descent_table`` + ``search_layer_table``, what every small L2
graph is served by) versus the per-hop beam (``greedy_descent`` +
``search_layer``, what large and non-L2 graphs are served by), both
measured in the same process on the same build.  Three sections:

* ``meta_routing``      — meta-HNSW routing (consulted per query),
* ``single_cluster``    — beam search inside one cached sub-HNSW,
* ``end_to_end_batch``  — ``DHnswClient.search_batch`` over the full
  SIFT-like deployment (the acceptance scenario: 20k vectors, batch 256,
  efSearch 32).

The first two call the two pairs directly on the graph.  End to end, the
per-hop side swaps the engine predicate ``repro.hnsw.index.table_mode``
for one that always answers False, for the duration of its runs only.

Every section also asserts the equivalence contract: identical results and
identical ``DistanceKernel.num_evaluations`` between the two engines; any
drift exits non-zero, so CI runs double as a regression gate.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_search.py           # full
    PYTHONPATH=src python benchmarks/perf/bench_search.py --quick   # CI

Writes ``benchmarks/perf/BENCH_search.json`` (override with ``--output``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import time

import numpy as np

from repro.cluster import Deployment
from repro.core import DHnswClient, DHnswConfig
from repro.datasets import sift_like
from repro.hnsw import index as index_module
from repro.hnsw.search import (greedy_descent, greedy_descent_table,
                               knn_from_candidates, search_layer,
                               search_layer_table)

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "BENCH_search.json"

#: The acceptance scenario (full) and a CI-sized shrink (quick).
SCALES = {
    "full": dict(num_vectors=20000, num_queries=256, num_clusters=100,
                 batch_size=256, reps=7),
    "quick": dict(num_vectors=2000, num_queries=64, num_clusters=20,
                  batch_size=64, reps=3),
}


def best_of(reps: int, fn):
    """Minimum wall time of ``reps`` calls; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"EQUIVALENCE DRIFT: {what}")


def table_beam(index, queries, ef: int) -> list:
    """Layer-0 candidates of every query from the table pair."""
    graph, kernel = index.graph, index.kernel
    tables = kernel.l2_table(queries, graph.vectors)
    entry_vector = graph.vector(graph.entry_point)
    outputs = []
    for query, row in zip(queries, tables):
        table = row.tolist()
        entry, entry_dist = greedy_descent_table(
            graph, kernel, table, graph.entry_point,
            kernel.one(query, entry_vector), graph.max_level, 0)
        outputs.append(search_layer_table(graph, kernel, table,
                                          [(entry_dist, entry)], ef, 0))
    return outputs


def per_hop_beam(index, queries, ef: int) -> list:
    """Layer-0 candidates of every query from the per-hop pair."""
    graph, kernel = index.graph, index.kernel
    entry_vector = graph.vector(graph.entry_point)
    outputs = []
    for query in queries:
        entry, entry_dist = greedy_descent(
            graph, kernel, query, graph.entry_point,
            kernel.one(query, entry_vector), graph.max_level, 0)
        outputs.append(search_layer(graph, kernel, query,
                                    [(entry_dist, entry)], ef, 0))
    return outputs


def compare_pairs(index, queries, ef: int, reps: int, what: str):
    """Best-of wall time of both pairs on one graph, gated on equality.

    Returns ``(table_seconds, per_hop_seconds, table_output)``.
    """
    timings, outputs, evals = {}, {}, {}
    for name, beam in (("table", table_beam), ("per_hop", per_hop_beam)):
        beam(index, queries, ef)  # warm caches / allocator
        index.reset_compute_counter()
        timings[name], outputs[name] = best_of(
            reps, lambda beam=beam: beam(index, queries, ef))
        evals[name] = index.reset_compute_counter()
    check(outputs["table"] == outputs["per_hop"], f"{what} candidates differ")
    check(evals["table"] == evals["per_hop"],
          f"{what} evaluation counts differ")
    return timings["table"], timings["per_hop"], outputs["table"]


def qps_fields(num_queries: int, table_time: float,
               per_hop_time: float) -> dict:
    return {
        "queries": num_queries,
        "per_hop_qps": round(num_queries / per_hop_time, 1),
        "table_qps": round(num_queries / table_time, 1),
        "speedup": round(per_hop_time / table_time, 2),
    }


def bench_meta_routing(deployment, queries, config, reps: int) -> dict:
    """Meta-HNSW routing, table pair vs per-hop pair."""
    meta = deployment.meta
    nprobe = min(config.nprobe, meta.num_partitions)
    ef = max(config.ef_meta, nprobe)
    table_time, per_hop_time, candidates = compare_pairs(
        meta.index, queries, ef, reps, "meta routing")
    labels = meta.index.labels
    routes = [[int(labels[node])
               for _, node in knn_from_candidates(found, nprobe)]
              for found in candidates]
    check(routes == meta.route_batch(queries, config.nprobe, config.ef_meta),
          "meta routing decisions differ from MetaHnsw.route_batch")
    return qps_fields(len(queries), table_time, per_hop_time)


def bench_single_cluster(client, queries, reps: int) -> dict:
    """Beam search inside one cached sub-HNSW (k=10, efSearch=32)."""
    cached = [entry for entry in
              (client.cache.peek(cid)
               for cid in range(client.metadata.num_clusters))
              if entry is not None]
    index = max(cached, key=lambda e: len(e.index)).index
    table_time, per_hop_time, candidates = compare_pairs(
        index, queries, 32, reps, "single-cluster")
    check(candidates == index.search_candidates_batch(queries, 10, 32),
          "single-cluster candidates differ from search_candidates_batch")
    return {"cluster_nodes": len(index),
            **qps_fields(len(queries), table_time, per_hop_time)}


@contextlib.contextmanager
def per_hop_everywhere():
    """Serve every graph with the per-hop pair while the block runs."""
    original = index_module.table_mode
    index_module.table_mode = lambda graph, kernel: False
    try:
        yield
    finally:
        index_module.table_mode = original


def bench_end_to_end(deployment, queries, reps: int) -> tuple[dict, DHnswClient]:
    """Full ``search_batch`` against the deployment, both engines."""

    def make_client(name: str) -> DHnswClient:
        return DHnswClient(deployment.layout, deployment.meta,
                           deployment.config,
                           cost_model=deployment.cost_model,
                           name=f"perf-{name}")

    def run(client):
        return client.search_batch(queries, k=10, ef_search=32)

    def run_per_hop(client):
        with per_hop_everywhere():
            return run(client)

    per_hop_client = make_client("per-hop")
    table_client = make_client("table")
    run_per_hop(per_hop_client)  # warm the cluster caches + decode memos
    run(table_client)
    # Interleave the engines' repetitions so background machine load
    # hits both the same way instead of skewing one side's minimum.
    per_hop_time = table_time = float("inf")
    per_hop_batch = table_batch = None
    for _ in range(reps):
        start = time.perf_counter()
        per_hop_batch = run_per_hop(per_hop_client)
        per_hop_time = min(per_hop_time, time.perf_counter() - start)
        start = time.perf_counter()
        table_batch = run(table_client)
        table_time = min(table_time, time.perf_counter() - start)

    check(all(np.array_equal(a.ids, b.ids)
              and np.array_equal(a.distances, b.distances)
              for a, b in zip(per_hop_batch.results, table_batch.results)),
          "end-to-end results differ")
    # The simulated latency buckets are pure functions of the evaluation
    # counters and the (identical) RDMA traffic, so equality here proves
    # the engine choice leaves every simulated number unchanged.
    check(per_hop_batch.breakdown.meta_hnsw_us
          == table_batch.breakdown.meta_hnsw_us,
          "simulated meta-HNSW latency differs")
    check(per_hop_batch.breakdown.sub_hnsw_us
          == table_batch.breakdown.sub_hnsw_us,
          "simulated sub-HNSW latency differs")
    section = {
        "k": 10,
        "ef_search": 32,
        "per_hop_seconds": round(per_hop_time, 4),
        "table_seconds": round(table_time, 4),
        **qps_fields(len(queries), table_time, per_hop_time),
    }
    return section, table_client


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (small build, fewer reps)")
    parser.add_argument("--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    mode = "quick" if args.quick else "full"
    scale = SCALES[mode]

    build_start = time.perf_counter()
    dataset = sift_like(num_vectors=scale["num_vectors"],
                        num_queries=scale["num_queries"],
                        num_clusters=scale["num_clusters"],
                        gt_k=10, seed=42)
    config = DHnswConfig(nprobe=4, ef_meta=32, cache_fraction=0.10,
                         batch_size=scale["batch_size"],
                         overflow_capacity_records=64, seed=42)
    deployment = Deployment(dataset.vectors, config,
                            simulate_link_contention=False)
    build_seconds = time.perf_counter() - build_start
    queries = dataset.queries[:scale["batch_size"]]
    reps = scale["reps"]

    end_to_end, warm_client = bench_end_to_end(deployment, queries, reps)
    report = {
        "benchmark": "table beam vs per-hop beam",
        "mode": mode,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "dataset": {
            "kind": "sift_like",
            "num_vectors": scale["num_vectors"],
            "dim": dataset.vectors.shape[1],
            "num_clusters": scale["num_clusters"],
            "batch_size": scale["batch_size"],
            "nprobe": config.nprobe,
            "seed": 42,
        },
        "build_seconds": round(build_seconds, 1),
        "reps_best_of": reps,
        "sections": {
            "end_to_end_batch": end_to_end,
            "meta_routing": bench_meta_routing(deployment, queries, config,
                                               reps),
            "single_cluster": bench_single_cluster(warm_client, queries,
                                                   reps),
        },
    }

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["sections"], indent=2))
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
