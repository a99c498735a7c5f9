"""Golden digests of every traversal observable.

Each scenario below runs a fixed, seeded workload through the public
search and build surfaces and reduces what it observes — result ids,
distances, distance-evaluation counts, and for the deployment scenario
the simulated ``LatencyBreakdown`` and ``RdmaStats`` — to sha256 digests.
``tests/fixtures/golden_traversal.json`` pins those digests, so any
change to the beam kernels, the engine choice, the build or the serving
path that moves a single bit of an answer or a single evaluation fails
here, whatever oracle the rest of the suite compares against.

Scenarios:

* ``l2_table`` — small L2 graph, batch and single-query search (the
  distance-table engine);
* ``l2_per_hop`` — an L2 graph above ``TABLE_NODES_MAX`` nodes, which
  sends both its later inserts and every search to the per-hop engine;
* ``ip`` / ``cosine`` — dot-product metrics (always per-hop);
* ``adjacency_l2`` / ``adjacency_cosine`` / ``adjacency_l2_per_hop`` —
  the graphs the builds above produced;
* ``deployment`` — two ``search_batch`` calls on a fresh small d-HNSW
  deployment (meta routing, cluster loads, cache hits).

Regenerate the fixture (only for a change that is *meant* to alter
traversal observables) with::

    PYTHONPATH=src python tests/integration/test_golden_traversal.py
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.cluster import Deployment
from repro.core import DHnswConfig
from repro.datasets.synthetic import make_clustered
from repro.hnsw import HnswIndex, HnswParams
from repro.rdma import CostModel

FIXTURE = (pathlib.Path(__file__).resolve().parents[1] / "fixtures"
           / "golden_traversal.json")

#: (k, ef) pairs every index scenario searches with.
SEARCHES = [(1, 1), (3, 8), (10, 32)]


def _canon(value):
    """A JSON-able, bit-exact canonical form (floats as hex)."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return [data.dtype.str, list(data.shape),
                hashlib.sha256(data.tobytes()).hexdigest()]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {str(key): _canon(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    return value


def digest(value) -> str:
    """sha256 of the canonical JSON form of ``value``."""
    text = json.dumps(_canon(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def build(metric: str, count: int, dim: int, m: int,
          seed: int) -> HnswIndex:
    rng = np.random.default_rng(seed)
    index = HnswIndex(dim, HnswParams(m=m, ef_construction=24,
                                      metric=metric, seed=seed))
    index.add((rng.standard_normal((count, dim)) * 3).astype(np.float32),
              labels=[1000 + row for row in range(count)])
    return index


#: scenario name -> build arguments of its index.
INDEXES = {
    "l2_table": ("l2", 400, 16, 8, 3),
    "l2_per_hop": ("l2", 2100, 4, 4, 5),
    "ip": ("ip", 300, 8, 6, 7),
    "cosine": ("cosine", 300, 8, 6, 9),
}


def search_observables(name: str) -> dict[str, str]:
    """Digests of batch + single-query search on one scenario index."""
    metric, count, dim, m, seed = INDEXES[name]
    index = build(metric, count, dim, m, seed)
    rng = np.random.default_rng(seed + 100)
    queries = (rng.standard_normal((24, dim)) * 3).astype(np.float32)
    if metric == "cosine":
        queries[0] = 0.0
    ids, distances, evals = [], [], []
    index.reset_compute_counter()
    for k, ef in SEARCHES:
        batch = index.search_candidates_batch(queries, k, ef)
        evals.append(index.reset_compute_counter())
        singles = [index.search_candidates(query, k, ef)
                   for query in queries[:6]]
        evals.append(index.reset_compute_counter())
        for candidates in batch + singles:
            ids.append([node for _, node in candidates])
            distances.append([dist for dist, _ in candidates])
        labels, dists = index.search(queries[1], k, ef)
        evals.append(index.reset_compute_counter())
        ids.append(labels)
        distances.append(dists)
    return {"ids": digest(ids), "distances": digest(distances),
            "evals": digest(evals)}


def adjacency_observables(name: str) -> dict[str, str]:
    """Digests of a built graph: edges, hierarchy, vectors, labels."""
    index = build(*INDEXES[name])
    graph = index.graph
    return {"adjacency": digest([graph.adjacency, graph.entry_point,
                                 graph.max_level]),
            "vectors": digest(graph.vectors),
            "labels": digest(index.labels)}


def deployment_observables() -> dict[str, str]:
    """Digests of two batches through a fresh small deployment."""
    rng = np.random.default_rng(21)
    corpus = make_clustered(900, 16, num_clusters=8, cluster_std=0.07,
                            rng=rng)
    queries = make_clustered(48, 16, num_clusters=8, cluster_std=0.07,
                             rng=rng)
    config = DHnswConfig(num_representatives=8, nprobe=3, ef_meta=16,
                         cache_fraction=0.3, batch_size=32,
                         overflow_capacity_records=8, seed=21)
    client = Deployment(corpus, config, cost_model=CostModel()).client()
    ids, distances, latency, rdma, evals = [], [], [], [], []
    for batch in (queries[:32], queries[16:]):
        result = client.search_batch(batch, k=10, ef_search=24)
        ids.append([res.ids for res in result.results])
        distances.append([res.distances for res in result.results])
        latency.append(dataclasses.asdict(result.breakdown))
        rdma.append(dataclasses.asdict(result.rdma))
        evals.append([result.sub_evals, result.clusters_fetched,
                      result.cache_hits, result.waves])
    return {"ids": digest(ids), "distances": digest(distances),
            "latency": digest(latency), "rdma": digest(rdma),
            "evals": digest(evals)}


SCENARIOS = {
    "l2_table": functools.partial(search_observables, "l2_table"),
    "l2_per_hop": functools.partial(search_observables, "l2_per_hop"),
    "ip": functools.partial(search_observables, "ip"),
    "cosine": functools.partial(search_observables, "cosine"),
    "adjacency_l2": functools.partial(adjacency_observables, "l2_table"),
    "adjacency_cosine": functools.partial(adjacency_observables, "cosine"),
    "adjacency_l2_per_hop": functools.partial(adjacency_observables,
                                              "l2_per_hop"),
    "deployment": deployment_observables,
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_matches_golden_digest(scenario):
    golden = json.loads(FIXTURE.read_text())
    assert SCENARIOS[scenario]() == golden[scenario]


def test_fixture_covers_every_scenario():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(SCENARIOS)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {name: run() for name, run in sorted(SCENARIOS.items())},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
