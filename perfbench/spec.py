"""The benchmark's contract as data: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``) and ``perfbench/selftest.py``
checks that the committed file still matches it.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 12

WORKLOADS = [
    ("warm_batch",
     "256-query batches, 6k corpus, cache holding all 26 clusters: compute "
     "(meta route, CSR beam, distance table) does the work while fetch, "
     "decode and queue stay idle"),
    ("door_miss",
     "open-loop single queries through the front door with a 10% cache (3 "
     "of 26 clusters): queue, plan, fetch, decode and cache do the work "
     "that big warm batches bypass"),
    ("churn_rw",
     "two writers and a reader interleaved on a 4k corpus with 32-record "
     "overflow: FAA inserts, shadow rebuilds, cache invalidation and "
     "save/restart do the work"),
]

# (name, unit, better, bound).  Every metric is reported on every
# workload and is never 0.  Percentiles are on the simulated clock only.
END_TO_END = [
    ("qps_wall_ref", "1/s", "higher", 0.24),
    ("sim_us_per_query", "us", "lower", 0.10),
    ("sim_ms_p50", "ms", "lower", 0.10),
    ("sim_ms_p99", "ms", "lower", 0.15),
    ("recall_at_10", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
]

# Printed by every run they apply to, but not compared between commits:
# a compared metric must exist and be non-zero on every workload, and
# restart_s spread 23-25% between runs (see README.md).
NOT_COMPARED = [
    ("restart_s", "s", "lower"),
    ("slo_qps_sim", "1/s", "higher"),
    ("ingest_wall", "vectors/s", "higher"),
    ("sim_us_per_insert", "us", "lower"),
    ("fail_ratio", "ratio", "lower"),
]

# (name, unit, better).  Traced run only; a layer that is not on a
# workload's path reports 0 there.
PER_LAYER = [
    ("queue.wait_sim_us_p50", "us", "lower"),
    ("queue.wait_sim_us_p99", "us", "lower"),
    ("queue.occupancy", "count", "higher"),
    ("queue.shed", "count", "lower"),
    ("queue.self_wall_us_per_req", "us", "lower"),
    ("queue.slo_qps_sim", "1/s", "higher"),
    ("route.wall_us_per_query", "us", "lower"),
    ("route.sim_us_per_query", "us", "lower"),
    ("route.evals_per_query", "count", "lower"),
    ("plan.wall_us_per_batch", "us", "lower"),
    ("plan.waves_per_batch", "count", "lower"),
    ("plan.dedup_ratio", "ratio", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.misses_per_query", "count", "lower"),
    ("cache.evictions_per_query", "count", "lower"),
    ("fetch.wall_us_per_query", "us", "lower"),
    ("fetch.sim_us_per_query", "us", "lower"),
    ("fetch.round_trips_per_query", "count", "lower"),
    ("fetch.kb_read_per_query", "KB", "lower"),
    ("fetch.doorbells_per_batch", "count", "lower"),
    ("decode.wall_us_per_cluster", "us", "lower"),
    ("decode.sim_us_per_query", "us", "lower"),
    ("decode.clusters_per_query", "count", "lower"),
    ("compute.wall_us_per_query", "us", "lower"),
    ("compute.sim_us_per_query", "us", "lower"),
    ("compute.evals_per_query", "count", "lower"),
    ("compute.wall_ns_per_eval", "ns", "lower"),
    ("merge.wall_us_per_query", "us", "lower"),
    ("write.wall_us_per_insert", "us", "lower"),
    ("write.sim_us_per_insert", "us", "lower"),
    ("write.atomics_per_insert", "count", "lower"),
    ("write.kb_written_per_insert", "KB", "lower"),
    ("rebuild.count", "count", "lower"),
    ("rebuild.wall_ms_each", "ms", "lower"),
    ("rebuild.sim_us_each", "us", "lower"),
    ("rebuild.kb_written_each", "KB", "lower"),
    ("rebuild.yielded", "count", "lower"),
    ("reclaim.kb", "KB", "higher"),
    ("read.stale_retries", "count", "lower"),
    ("build.partition_s", "s", "lower"),
    ("build.meta_s", "s", "lower"),
    ("build.sub_hnsw_s", "s", "lower"),
    ("build.select_s", "s", "lower"),
    ("build.serialize_s", "s", "lower"),
    ("build.write_s", "s", "lower"),
    ("persist.save_s", "s", "lower"),
    ("persist.load_s", "s", "lower"),
    ("persist.first_answer_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

WORKLOAD_NAMES = [name for name, _ in WORKLOADS]
UNITS = {name: unit for name, unit, *_ in END_TO_END + NOT_COMPARED
         + PER_LAYER}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document, in its fixed key order."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }
