"""Span tracing from outside the program, for the per-layer ledger.

:class:`Tracer` wraps public entry points of each layer by patching class
and module attributes (``install``) and puts them back (``uninstall``).
Each call becomes a span with its name, layer, parent, request id, wall
and SimClock start/end, and deltas of ``RdmaStats``, the cluster-cache
counters and ``MutationStats`` taken at the same boundaries.  The
wrappers only read clocks and counters, so traced runs must give the
same answers and simulated numbers as untraced ones; the workloads check
that.  Spans stay in memory until :meth:`Tracer.dump`.

A layer's self time is its span's time minus the time its direct child
spans cover (:func:`self_costs`).
"""

from __future__ import annotations

import functools
import gzip
import json
import time

#: Counter fields captured at span boundaries (RdmaStats, then cache,
#: then MutationStats).
RDMA_FIELDS = ("round_trips", "read_ops", "write_ops", "atomic_ops",
               "doorbell_batches", "bytes_read", "bytes_written")
COUNTERS = RDMA_FIELDS + ("cache_hits", "cache_misses", "cache_evictions",
                          "reclaimed_bytes")
_ZERO = (0,) * len(COUNTERS)

#: Span names that start a new request id.
ROOTS = {"search_batch", "door.run", "insert_batch", "delete", "build",
         "save_deployment", "load_deployment"}


class Span:
    __slots__ = ("index", "name", "layer", "parent", "request", "phase",
                 "wall0", "wall1", "sim0", "sim1", "c0", "c1", "attrs")

    def to_json(self) -> dict:
        return {"i": self.index, "name": self.name, "layer": self.layer,
                "parent": self.parent, "request": self.request,
                "phase": self.phase, "wall": [self.wall0, self.wall1],
                "sim": [self.sim0, self.sim1],
                "counters": dict(zip(COUNTERS, self.counter_delta())),
                "attrs": self.attrs}

    @property
    def wall(self) -> float:
        return self.wall1 - self.wall0

    @property
    def sim(self) -> float:
        return (self.sim1 - self.sim0) if self.sim0 is not None else 0.0

    def counter_delta(self) -> tuple:
        if self.c0 is None:
            return _ZERO
        return tuple(b - a for a, b in zip(self.c0, self.c1))


# -- locating the clock and counters a call charges against ---------------
def _host_probe(host):
    node = host.node
    return node.clock, node.stats, host.cache, host.mutation.stats


def _from_host(args):
    return _host_probe(args[0].host)


def _from_client(args):
    return _host_probe(args[0])


def _from_node(args):
    node = args[0]
    return node.clock, node.stats, None, None


def _from_door(args):
    return _host_probe(args[0].client)


def _nowhere(args):
    return None


def _read(probe) -> tuple:
    _, stats, cache, mutation = probe
    values = [getattr(stats, field) for field in RDMA_FIELDS]
    if cache is not None:
        values.extend(cache.counters())
    else:
        values.extend((0, 0, 0))
    values.append(mutation.reclaimed_bytes if mutation is not None else 0)
    return tuple(values)


# -- result hooks: facts a span records about its call --------------------
def _on_search(span, args, result):
    span.attrs.update(
        queries=len(result.results), sub_evals=result.sub_evals,
        total_us=result.breakdown.total_us,
        stages={stage.name: stage.sim_us for stage in result.trace.report()})


def _on_plan(span, args, result):
    span.attrs.update(waves=len(result.waves),
                      requests=sum(len(ids) for ids in args[1]),
                      pruned=result.duplicate_requests_pruned)


def _on_charge(span, args, result):
    span.attrs["evals"] = args[1]


def _on_door(span, args, result):
    span.attrs.update(
        offered=result.offered, shed=result.offered - result.served,
        occupancy=result.mean_occupancy,
        waits=[o.queue_delay_us for o in result.outcomes
               if o.status.answered])


def _on_insert(span, args, result):
    span.attrs["inserts"] = len(result)


def _on_rebuild(span, args, result):
    span.attrs["led"] = bool(result)


def _inherit(default: str):
    """Layer of a charge: its caller's layer, or ``default`` when the
    caller is the request root (the engine's lump compute/decode charge)."""
    def choose(parent):
        if parent is None or parent.layer == "search":
            return default
        return parent.layer
    return choose


class Tracer:
    """Records spans around the wrapped entry points while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[Span] = []
        self._requests = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------
    def _wrap(self, owner, attr: str, name: str, layer, probe,
              on_result=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer, probe(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span, probe(args))
            if on_result is not None:
                on_result(span, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _open(self, name, layer, probe) -> Span:
        span = Span()
        parent = self._stack[-1] if self._stack else None
        span.index = len(self.spans)
        span.name = name
        span.layer = layer(parent) if callable(layer) else layer
        span.parent = parent.index if parent is not None else None
        if parent is None or name in ROOTS:
            self._requests += 1
            span.request = self._requests
        else:
            span.request = parent.request
        span.phase = self.phase
        span.attrs = {}
        span.sim0 = probe[0].now_us if probe is not None else None
        span.c0 = _read(probe) if probe is not None else None
        self.spans.append(span)
        self._stack.append(span)
        span.wall0 = time.perf_counter()
        return span

    def _close(self, span, probe) -> None:
        span.wall1 = time.perf_counter()
        if probe is not None:
            span.sim1 = probe[0].now_us
            span.c1 = _read(probe)
        else:
            span.sim1 = None
        self._stack.pop()

    def install(self) -> None:
        """Patch every traced entry point (idempotent)."""
        if self._patches:
            return
        from repro import persist
        from repro.core import engine as builder_module
        from repro.core.client import DHnswClient
        from repro.core.engine import DHnswBuilder
        from repro.frontdoor.door import FrontDoor
        from repro.hnsw import build as hnsw_build
        from repro.mutation.writer import MutationEngine
        from repro.rdma.compute_node import ComputeNode
        from repro.serving.decoder import Decoder
        from repro.serving.engine import ServingEngine
        from repro.serving.executor import WaveExecutor
        from repro.serving.fetcher import Fetcher
        from repro.serving.merger import Merger
        from repro.serving.planner import Planner

        wrap = self._wrap
        # serving
        wrap(DHnswClient, "search_batch", "search_batch", "search",
             _from_client, _on_search)
        wrap(ServingEngine, "_search_batch_once", "search_once", "search",
             _from_host)
        wrap(Planner, "route", "route", "route", _from_host)
        wrap(Planner, "plan", "plan", "plan", _from_host, _on_plan)
        for attr in ("load_wave", "load_hit_wave", "validate_cached"):
            wrap(Fetcher, attr, attr, "fetch", _from_host)
        wrap(Decoder, "decode_extent", "decode_extent", "decode", _from_host)
        wrap(WaveExecutor, "run_wave_compute", "run_wave_compute", "compute",
             _from_host)
        wrap(ComputeNode, "charge_compute", "charge_compute",
             _inherit("compute"), _from_node, _on_charge)
        wrap(ComputeNode, "charge_time", "charge_time", _inherit("decode"),
             _from_node)
        wrap(Merger, "finalize", "finalize", "merge", _from_host)
        # front door
        wrap(FrontDoor, "run", "door.run", "queue", _from_door, _on_door)
        # mutation
        wrap(MutationEngine, "insert_batch", "insert_batch", "write",
             _from_host, _on_insert)
        wrap(MutationEngine, "delete", "delete", "write", _from_host)
        wrap(MutationEngine, "rebuild_group", "rebuild_group", "rebuild",
             _from_host, _on_rebuild)
        # build
        wrap(DHnswBuilder, "build", "build", "build", _nowhere)
        wrap(DHnswBuilder, "_build_meta", "build_meta", "build.meta",
             _nowhere)
        wrap(DHnswBuilder, "_write_layout", "write_layout", "build.write",
             _nowhere)
        for attr in ("sample_representatives", "assign_partitions"):
            wrap(builder_module, attr, attr, "build.partition", _nowhere)
        wrap(builder_module, "build_sub_hnsws", "build_sub_hnsws",
             "build.sub_hnsw", _nowhere)
        wrap(builder_module, "serialize_cluster", "serialize_cluster",
             "build.serialize", _nowhere)
        wrap(hnsw_build, "select_neighbors_heuristic",
             "select_neighbors_heuristic", "build.select", _nowhere)
        # persistence
        wrap(persist, "save_deployment", "save_deployment", "persist.save",
             _nowhere)
        wrap(persist, "load_deployment", "load_deployment", "persist.load",
             _nowhere)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


def self_costs(spans: list[Span]) -> dict[int, tuple[float, float, tuple]]:
    """Self wall, self sim and self counter deltas of every span.

    Child spans of one thread nest strictly, so subtracting each direct
    child's duration from its parent leaves the parent's own share.
    """
    own = {span.index: [span.wall, span.sim, list(span.counter_delta())]
           for span in spans}
    for span in spans:
        if span.parent is None or span.parent not in own:
            continue
        entry = own[span.parent]
        entry[0] -= span.wall
        entry[1] -= span.sim
        entry[2] = [a - b for a, b in zip(entry[2], span.counter_delta())]
    return {index: (wall, sim, tuple(counters))
            for index, (wall, sim, counters) in own.items()}
