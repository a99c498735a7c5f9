"""The per-layer ledger: span lists reduced to the per-layer metrics.

Also holds the traced-run validity checks that need the spans: per
request, the layers' simulated self times plus the root's unattributed
remainder must add up to ``breakdown.total_us``, and each layer must
agree with the engine's own stage trace where both cover the same calls.
"""

from __future__ import annotations

import math

from measure import TooFewSamples, percentile
from tracer import COUNTERS, self_costs

_AT = {name: index for index, name in enumerate(COUNTERS)}

#: Engine trace stages and the benchmark layer covering the same calls.
ENGINE_STAGES = ("route", "plan", "fetch", "decode", "compute", "merge")

#: Simulated µs are float sums taken in different orders; equal up to this.
SIM_TOLERANCE = 1e-9


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=SIM_TOLERANCE, abs_tol=1e-6)


class Layers:
    """Self-cost sums per layer over the spans of one phase."""

    def __init__(self, spans, own) -> None:
        self.wall: dict[str, float] = {}
        self.sim: dict[str, float] = {}
        self.counters: dict[str, list[int]] = {}
        self.calls: dict[str, int] = {}
        for span in spans:
            wall, sim, counters = own[span.index]
            layer = span.layer
            self.wall[layer] = self.wall.get(layer, 0.0) + wall
            self.sim[layer] = self.sim.get(layer, 0.0) + sim
            total = self.counters.setdefault(layer, [0] * len(COUNTERS))
            for i, value in enumerate(counters):
                total[i] += value
            self.calls[span.name] = self.calls.get(span.name, 0) + 1

    def counter(self, layer: str, name: str) -> int:
        return self.counters.get(layer, [0] * len(COUNTERS))[_AT[name]]


def ledger(spans, extra: dict) -> dict[str, float]:
    """Per-layer metric values from the traced spans.

    ``extra`` supplies the values that do not come from spans
    (``queue.slo_qps_sim``, ``reclaim.kb``, ``trace.overhead_ratio``) and
    ``cycles``, the number of traced cycles the counts are divided by.
    """
    own = self_costs(spans)
    run = [s for s in spans if s.phase == "run"]
    layers = Layers(run, own)
    searches = [s for s in run if s.name == "search_batch"]
    queries = sum(s.attrs["queries"] for s in searches)
    batches = len(searches)
    out: dict[str, float] = {}

    # queue (front door)
    doors = [s for s in run if s.name == "door.run"]
    waits = [w for s in doors for w in s.attrs["waits"]]
    offered = sum(s.attrs["offered"] for s in doors)
    for label, q in (("p50", 0.50), ("p99", 0.99)):
        try:
            out[f"queue.wait_sim_us_{label}"] = (percentile(waits, q)[0]
                                                 if waits else 0.0)
        except TooFewSamples:
            out[f"queue.wait_sim_us_{label}"] = 0.0
    out["queue.occupancy"] = _ratio(
        sum(s.attrs["occupancy"] for s in doors), len(doors))
    out["queue.shed"] = _ratio(sum(s.attrs["shed"] for s in doors),
                               len(doors))
    out["queue.self_wall_us_per_req"] = _ratio(
        layers.wall.get("queue", 0.0) * 1e6, offered)
    out["queue.slo_qps_sim"] = float(extra.get("queue.slo_qps_sim", 0.0))

    # route / plan
    charges = [s for s in run if s.name == "charge_compute"]
    route_evals = sum(s.attrs["evals"] for s in charges
                      if s.layer == "route")
    out["route.wall_us_per_query"] = _ratio(
        layers.wall.get("route", 0.0) * 1e6, queries)
    out["route.sim_us_per_query"] = _ratio(layers.sim.get("route", 0.0),
                                           queries)
    out["route.evals_per_query"] = _ratio(route_evals, queries)
    plans = [s for s in run if s.name == "plan"]
    out["plan.wall_us_per_batch"] = _ratio(
        layers.wall.get("plan", 0.0) * 1e6, batches)
    out["plan.waves_per_batch"] = _ratio(
        sum(s.attrs["waves"] for s in plans), batches)
    out["plan.dedup_ratio"] = _ratio(sum(s.attrs["pruned"] for s in plans),
                                     sum(s.attrs["requests"] for s in plans))

    # cache: counter deltas over whole requests
    hits = misses = evictions = 0
    for span in searches:
        delta = span.counter_delta()
        hits += delta[_AT["cache_hits"]]
        misses += delta[_AT["cache_misses"]]
        evictions += delta[_AT["cache_evictions"]]
    out["cache.hit_ratio"] = _ratio(hits, hits + misses)
    out["cache.misses_per_query"] = _ratio(misses, queries)
    out["cache.evictions_per_query"] = _ratio(evictions, queries)

    # fetch / decode / compute / merge
    out["fetch.wall_us_per_query"] = _ratio(
        layers.wall.get("fetch", 0.0) * 1e6, queries)
    out["fetch.sim_us_per_query"] = _ratio(layers.sim.get("fetch", 0.0),
                                           queries)
    out["fetch.round_trips_per_query"] = _ratio(
        layers.counter("fetch", "round_trips"), queries)
    out["fetch.kb_read_per_query"] = _ratio(
        layers.counter("fetch", "bytes_read") / 1024.0, queries)
    out["fetch.doorbells_per_batch"] = _ratio(
        layers.counter("fetch", "doorbell_batches"), batches)
    decoded = layers.calls.get("decode_extent", 0)
    out["decode.wall_us_per_cluster"] = _ratio(
        layers.wall.get("decode", 0.0) * 1e6, decoded)
    out["decode.sim_us_per_query"] = _ratio(layers.sim.get("decode", 0.0),
                                            queries)
    out["decode.clusters_per_query"] = _ratio(decoded, queries)
    compute_evals = sum(s.attrs["evals"] for s in charges
                        if s.layer == "compute")
    compute_wall = layers.wall.get("compute", 0.0)
    out["compute.wall_us_per_query"] = _ratio(compute_wall * 1e6, queries)
    out["compute.sim_us_per_query"] = _ratio(layers.sim.get("compute", 0.0),
                                             queries)
    out["compute.evals_per_query"] = _ratio(compute_evals, queries)
    out["compute.wall_ns_per_eval"] = _ratio(compute_wall * 1e9,
                                             compute_evals)
    out["merge.wall_us_per_query"] = _ratio(
        layers.wall.get("merge", 0.0) * 1e6, queries)

    # write / rebuild / reclaim / stale reads
    inserts = sum(s.attrs.get("inserts", 0) for s in run
                  if s.name == "insert_batch")
    out["write.wall_us_per_insert"] = _ratio(
        layers.wall.get("write", 0.0) * 1e6, inserts)
    out["write.sim_us_per_insert"] = _ratio(layers.sim.get("write", 0.0),
                                            inserts)
    out["write.atomics_per_insert"] = _ratio(
        layers.counter("write", "atomic_ops"), inserts)
    out["write.kb_written_per_insert"] = _ratio(
        layers.counter("write", "bytes_written") / 1024.0, inserts)
    rebuilds = [s for s in run if s.name == "rebuild_group"]
    led = [s for s in rebuilds if s.attrs["led"]]
    cycles = extra["cycles"]
    out["rebuild.count"] = len(led) / cycles
    out["rebuild.wall_ms_each"] = _ratio(sum(s.wall for s in led) * 1e3,
                                         len(led))
    out["rebuild.sim_us_each"] = _ratio(sum(s.sim for s in led), len(led))
    out["rebuild.kb_written_each"] = _ratio(
        sum(s.counter_delta()[_AT["bytes_written"]] for s in led) / 1024.0,
        len(led))
    out["rebuild.yielded"] = (len(rebuilds) - len(led)) / cycles
    out["reclaim.kb"] = float(extra.get("reclaim.kb", 0.0))
    out["read.stale_retries"] = (
        layers.calls.get("search_once", 0) - batches) / cycles

    # build (setup phase)
    setup = [s for s in spans if s.phase == "setup"]
    built = Layers(setup, own)
    for metric, layer in (("partition_s", "build.partition"),
                          ("meta_s", "build.meta"),
                          ("sub_hnsw_s", "build.sub_hnsw"),
                          ("select_s", "build.select"),
                          ("serialize_s", "build.serialize"),
                          ("write_s", "build.write")):
        out[f"build.{metric}"] = _ratio(built.wall.get(layer, 0.0),
                                        built.calls.get("build", 0))

    # persist: saves and loads wherever they happen (churn_rw saves and
    # reloads inside its cycle); first answers in the restart phase
    for metric, name in (("save_s", "save_deployment"),
                         ("load_s", "load_deployment")):
        chosen = [s.wall for s in spans if s.name == name]
        out[f"persist.{metric}"] = _ratio(sum(chosen), len(chosen))
    first = [s.wall for s in spans
             if s.phase == "restart" and s.name == "search_batch"]
    out["persist.first_answer_ms"] = _ratio(sum(first) * 1e3, len(first))

    out["trace.overhead_ratio"] = float(extra.get("trace.overhead_ratio",
                                                  0.0))
    return out


def check_attribution(spans) -> list[str]:
    """Problems with the simulated-time attribution of each request."""
    own = self_costs(spans)
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    problems: list[str] = []
    for root in spans:
        if root.name != "search_batch" or root.phase != "run":
            continue
        per_layer: dict[str, float] = {}
        pending = [root]
        while pending:
            span = pending.pop()
            per_layer[span.layer] = (per_layer.get(span.layer, 0.0)
                                     + own[span.index][1])
            pending.extend(children.get(span.index, ()))
        total = root.attrs["total_us"]
        if not _close(sum(per_layer.values()), total):
            problems.append(
                f"request {root.request}: layer self times sum to "
                f"{sum(per_layer.values())!r} us, breakdown.total_us is "
                f"{total!r}")
        if not _close(root.sim, total):
            problems.append(
                f"request {root.request}: root span covers {root.sim!r} "
                f"simulated us, breakdown.total_us is {total!r}")
        stages = root.attrs["stages"]
        for stage in ENGINE_STAGES:
            mine = per_layer.get(stage, 0.0)
            theirs = stages.get(stage, 0.0)
            if not _close(mine, theirs):
                problems.append(
                    f"request {root.request}: layer {stage} has {mine!r} "
                    f"simulated us, the engine's {stage} stage {theirs!r}")
    return problems
