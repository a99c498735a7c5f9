"""The three benchmark workloads: set-up, one repeatable cycle, checks.

Each workload builds its inputs from the seed alone, then exposes:

* ``setup()`` — data generation, build, clients and warm-up (timed by
  the runner, repeated for a median);
* ``cycle()`` — one fixed, deterministic sequence of operations whose
  wall time is recorded per operation.  Every cycle must do the same
  simulated work and give the same answers; the runner checks that by
  comparing each operation's signature across cycles;
* ``metrics()`` — end-to-end values from the recorded cycles;
* ``restarts()`` — wall times of load image → client → first answer.

Latency percentiles come from the simulated clock only.
"""

from __future__ import annotations

import dataclasses
import gc
import shutil

import numpy as np

from measure import ShortProbe, Stopwatch, digest, percentile

K = 10
EF = 32
#: ``door_miss`` offered rates (sim-qps); latency is reported at LATENCY_RATE.
RATES = (4000, 8000, 12000, 16000, 20000)
LATENCY_RATE = 8000
#: Each rate's requests are served as this many independent open-loop
#: runs (one fresh client each), so best-of works on shorter operations.
SEGMENTS = 4
#: The p99 limit ``slo_qps_sim`` holds the rates to.
SLO_P99_MS = 10.0
#: Restarts timed per run (best-of).
RESTARTS = 10
#: The corpus and its held-out query pool come from this fixed generator
#: seed, as a benchmark dataset such as SIFT1M is fixed; ``--seed`` draws
#: the traffic (which queries, arrival times, inserts and deletes).  A
#: per-seed corpus moved simulated time per query 8-12% between seeds.
CORPUS_SEED = 0
#: recall@10 floors: the values this benchmark's configuration reaches
#: at its introduction, less a small margin.
RECALL_FLOOR = {"warm_batch": 0.85, "door_miss": 0.85, "churn_rw": 0.80}

SCALES = {
    "full": {
        "warm_batch": dict(vectors=6000, partitions=26, gen_clusters=48,
                           pool=4096, batches=8, batch=256),
        "door_miss": dict(vectors=6000, partitions=26, gen_clusters=48,
                          pool=4096, requests=1200),
        "churn_rw": dict(vectors=4000, partitions=26, gen_clusters=48,
                         pool=4096,
                         steps=32, insert=16, read=32, reads=256,
                         delete_every=4, overflow=32),
    },
    "tiny": {
        "warm_batch": dict(vectors=1200, partitions=8, gen_clusters=12,
                           pool=2048, batches=4, batch=256),
        "door_miss": dict(vectors=1200, partitions=8, gen_clusters=12,
                          pool=2048, requests=1024),
        "churn_rw": dict(vectors=1200, partitions=8, gen_clusters=12,
                         pool=2048,
                         steps=32, insert=4, read=32, reads=64,
                         delete_every=4, overflow=16),
    },
}


class Checks:
    """Correctness checks of one run; every failure is kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


@dataclasses.dataclass
class Cycle:
    """One repetition: per-operation wall times, host probes, and the
    signatures that must repeat."""

    walls: list[float]
    probes: list[float]
    sigs: list
    extras: dict = dataclasses.field(default_factory=dict)


def search_sig(result) -> tuple:
    """Exact observables of one ``search_batch``: answers and sim numbers."""
    ids = np.concatenate([r.ids for r in result.results])
    dists = np.concatenate([r.distances for r in result.results])
    rdma = result.rdma
    return (digest(ids, dists), result.breakdown.total_us, result.sub_evals,
            result.cache_misses, result.clusters_fetched, rdma.round_trips,
            rdma.bytes_read, rdma.network_time_us)


def region_digest(layout) -> str:
    image = layout.memory_node.read(layout.rkey, layout.addr(0),
                                    layout.region.length)
    return digest(np.frombuffer(image, dtype=np.uint8))


def recall(result_ids, truth) -> float:
    hits = sum(len(set(map(int, got)) & set(map(int, want[:K])))
               for got, want in zip(result_ids, truth))
    return hits / (K * len(truth))


def throughput(name: str, work: int, times, ops=None) -> dict:
    """``name_wall`` (best-of) and ``name_wall_median`` for ``work`` units
    over the operations ``ops`` (all by default)."""
    return {f"{name}_wall": work / times.best_sum(ops),
            f"{name}_wall_median": work / times.median_sum(ops)}


def ms_percentiles(samples_us) -> dict:
    p50, count = percentile(samples_us, 0.50)
    p99, _ = percentile(samples_us, 0.99)
    return {"sim_ms_p50": p50 / 1e3, "sim_ms_p99": p99 / 1e3,
            "samples": count}


class Workload:
    name = ""

    def __init__(self, scale: str, seed: int, checks: Checks,
                 workdir) -> None:
        self.p = SCALES[scale][self.name]
        self.seed = seed
        self.checks = checks
        self.workdir = workdir
        self.operations = 0
        self.setup_digests: list[str] = []
        self.inputs = ""
        self.probe = ShortProbe()

    def config(self, **overrides):
        from repro.core import DHnswConfig
        return DHnswConfig(num_representatives=self.p["partitions"],
                           search_workers=1, build_workers=0, **overrides)

    def dataset(self, num_queries: int):
        """The fixed corpus with ``num_queries`` pool queries drawn by the
        seed, and the seeded generator for the rest of the traffic."""
        from repro.datasets import sift_like
        full = sift_like(num_vectors=self.p["vectors"],
                         num_queries=self.p["pool"],
                         num_clusters=self.p["gen_clusters"], gt_k=K,
                         seed=CORPUS_SEED)
        rng = np.random.default_rng(self.seed)
        rows = rng.choice(self.p["pool"], num_queries, replace=False)
        return dataclasses.replace(full, queries=full.queries[rows],
                                   ground_truth=full.ground_truth[rows]), rng

    def check_setups(self) -> None:
        self.checks.check(len(set(self.setup_digests)) == 1,
                          f"{self.name}: repeated builds of one seed gave "
                          f"different regions {self.setup_digests}")

    def restart_from(self, image, query, expected):
        """Time load image → client → first answer, RESTARTS times;
        returns (walls, probes)."""
        from repro import persist
        from repro.core.client import DHnswClient

        def restart():
            meta, layout, config = persist.load_deployment(image)
            client = DHnswClient(layout, meta, config, name="restart")
            return client, client.search_batch(query, K, ef_search=EF)

        watch = Stopwatch(self.probe)
        for _ in range(RESTARTS):
            client, first = watch.time(restart)
            client.close()
            gc.collect()
            self.checks.check(search_sig(first)[0] == expected,
                              f"{self.name}: restarted client answered "
                              f"differently from the live one")
        return watch.done()

    def layer_extras(self, cycles) -> dict:
        return {}

    def close(self) -> None:
        """Drop the live deployment, if any, and its clients."""
        if getattr(self, "deployment", None) is not None:
            for client in self.deployment.clients:
                client.close()
            self.deployment = None
            gc.collect()


class WarmBatch(Workload):
    """Closed loop of 256-query batches over a cache holding every cluster."""

    name = "warm_batch"

    def setup(self) -> None:
        from repro.cluster import Deployment
        self.close()
        p = self.p
        data, _ = self.dataset(p["batches"] * p["batch"])
        self.data = data
        self.inputs = digest(data.vectors, data.queries)
        self.deployment = Deployment(data.vectors,
                                     self.config(cache_fraction=1.0),
                                     simulate_link_contention=False)
        self.client = self.deployment.client()
        self.batches = [data.queries[i * p["batch"]:(i + 1) * p["batch"]]
                        for i in range(p["batches"])]
        for queries in self.batches:  # warm-up: fill the cache
            self.client.search_batch(queries, K, ef_search=EF)
        self.setup_digests.append(region_digest(self.deployment.layout))

    def cycle(self) -> Cycle:
        watch = Stopwatch(self.probe)
        sigs, results = [], []
        for queries in self.batches:
            result = watch.time(self.client.search_batch, queries, K,
                                ef_search=EF)
            sigs.append(search_sig(result))
            results.append(result)
            self.operations += len(queries)
        return Cycle(*watch.done(), sigs, {"results": results})

    def metrics(self, times, cycles) -> dict:
        results = cycles[0].extras["results"]
        queries = sum(len(r.results) for r in results)
        samples = [r.breakdown.total_us for r in results
                   for _ in r.results]
        ids = [q.ids for r in results for q in r.results]
        value = recall(ids, self.data.ground_truth)
        self.checks.check(value >= RECALL_FLOOR[self.name],
                          f"warm_batch recall@10 {value:.4f} is below the "
                          f"floor {RECALL_FLOOR[self.name]}")
        return {
            **throughput("qps", queries, times),
            "sim_us_per_query": sum(r.breakdown.total_us
                                    for r in results) / queries,
            **ms_percentiles(samples),
            "recall_at_10": value,
        }

    def restarts(self) -> tuple[list[float], list[float]]:
        from repro import persist
        image = self.workdir / "image"
        persist.save_deployment(image, self.deployment.layout,
                                self.deployment.meta, self.deployment.config)
        query = self.batches[0][:1]
        expected = search_sig(self.client.search_batch(query, K,
                                                       ef_search=EF))[0]
        return self.restart_from(image, query, expected)


class DoorMiss(Workload):
    """Open-loop single-query requests through the front door."""

    name = "door_miss"

    def setup(self) -> None:
        from repro.cluster import Deployment
        from repro.core.config import FrontDoorConfig
        from repro.frontdoor import make_requests, poisson_arrivals
        self.close()
        p = self.p
        data, rng = self.dataset(p["requests"])
        self.data = data
        self.deployment = Deployment(data.vectors,
                                     self.config(cache_fraction=0.10),
                                     simulate_link_contention=False)
        slo_us = FrontDoorConfig().slo_us
        per = p["requests"] // SEGMENTS
        self.streams = {
            rate: [make_requests(poisson_arrivals(rate, per, rng),
                                 data.queries[i * per:(i + 1) * per], k=K,
                                 slo_us=slo_us, rng=rng, ef_search=EF,
                                 first_request_id=i * per)
                   for i in range(SEGMENTS)]
            for rate in RATES}
        arrivals = np.array([r.arrival_us for rate in RATES
                             for stream in self.streams[rate]
                             for r in stream])
        self.inputs = digest(data.vectors, data.queries, arrivals)
        self.setup_digests.append(region_digest(self.deployment.layout))

    def run_door(self, rate: int, watch: Stopwatch | None = None) -> list:
        """The rate's open-loop runs, each on a fresh client; ``watch``
        times each run as one operation.  Returns their reports."""
        from repro.core.config import FrontDoorConfig
        from repro.frontdoor import FrontDoor
        reports = []
        for stream in self.streams[rate]:
            client = self.deployment.make_client(self.deployment.scheme,
                                                 name="door")
            door = FrontDoor(client, FrontDoorConfig())
            if watch is None:
                reports.append(door.run(stream))
            else:
                reports.append(watch.time(door.run, stream))
            client.close()
            gc.collect()  # peak RSS must not depend on collector timing
        return reports

    def cycle(self) -> Cycle:
        watch = Stopwatch(self.probe)
        reports = self.run_door(LATENCY_RATE, watch)
        sigs = []
        for report in reports:
            answered = [o for o in report.outcomes if o.ids is not None]
            sigs.append((report.schedule_signature(),
                         tuple(o.latency_us for o in report.outcomes),
                         digest(*[o.ids for o in answered],
                                *[o.distances for o in answered])))
            self.operations += report.offered
        return Cycle(*watch.done(), sigs, {"reports": reports})

    def metrics(self, times, cycles) -> dict:
        reports = cycles[0].extras["reports"]
        outcomes = [o for report in reports for o in report.outcomes]
        answered = [o for o in outcomes if o.status.answered]
        samples = [o.latency_us for o in outcomes]
        value = recall([o.ids for o in outcomes], self.data.ground_truth)
        self.checks.check(len(answered) == len(outcomes),
                          f"door_miss shed {len(outcomes) - len(answered)}"
                          f" of {len(outcomes)} requests at "
                          f"{LATENCY_RATE} sim-qps")
        self.checks.check(value >= RECALL_FLOOR[self.name],
                          f"door_miss recall@10 {value:.4f} is below the "
                          f"floor {RECALL_FLOOR[self.name]}")
        self.check_bit_identity(outcomes)
        sweep = self.sweep(reports)
        self.slo_qps_sim = max([rate for rate, (p99, shed) in sweep.items()
                                if p99 <= SLO_P99_MS and shed == 0],
                               default=0.0)
        return {
            **throughput("qps", len(answered), times),
            "sim_us_per_query": sum(w.service_us for report in reports
                                    for w in report.waves) / len(answered),
            **ms_percentiles(samples),
            "recall_at_10": value,
            "slo_qps_sim": self.slo_qps_sim,
            "sweep_p99_ms": {rate: p99 for rate, (p99, _) in sweep.items()},
        }

    def sweep(self, at_latency_rate) -> dict:
        """Simulated p99 (ms) and sheds at each offered rate."""
        out = {}
        for rate in RATES:
            reports = (at_latency_rate if rate == LATENCY_RATE
                       else self.run_door(rate))
            outcomes = [o for report in reports for o in report.outcomes]
            p99, _ = percentile([o.latency_us for o in outcomes], 0.99)
            out[rate] = (p99 / 1e3, sum(not o.status.answered
                                        for o in outcomes))
        return out

    def check_bit_identity(self, outcomes) -> None:
        """Door answers must equal one direct ``search_batch`` (bit for
        bit) — the front door's contract."""
        oracle = self.deployment.make_client(self.deployment.scheme,
                                             name="oracle")
        queries = np.stack([o.request.query for o in outcomes])
        direct = oracle.search_batch(queries, K, ef_search=EF)
        oracle.close()
        gc.collect()
        wrong = sum(
            1 for outcome, want in zip(outcomes, direct.results)
            if outcome.ids is None
            or not np.array_equal(outcome.ids, want.ids)
            or not np.array_equal(outcome.distances, want.distances))
        self.checks.check(wrong == 0,
                          f"door_miss: {wrong} answers differ from a direct "
                          f"search_batch of the same queries")

    def layer_extras(self, cycles) -> dict:
        return {"queue.slo_qps_sim": self.slo_qps_sim}

    def restarts(self) -> tuple[list[float], list[float]]:
        from repro import persist
        image = self.workdir / "image"
        persist.save_deployment(image, self.deployment.layout,
                                self.deployment.meta, self.deployment.config)
        query = self.data.queries[:1]
        oracle = self.deployment.make_client(self.deployment.scheme,
                                             name="oracle")
        expected = search_sig(oracle.search_batch(query, K,
                                                  ef_search=EF))[0]
        oracle.close()
        return self.restart_from(image, query, expected)


class ChurnRw(Workload):
    """Two writers and one reader, round-robin in one thread, restarted
    from the saved post-build image every cycle."""

    name = "churn_rw"

    def setup(self) -> None:
        from repro import persist
        from repro.cluster import Deployment
        p = self.p
        inserts = p["steps"] * p["insert"]
        data, rng = self.dataset(p["reads"] + inserts)
        self.data = data
        self.reads = data.queries[:p["reads"]]
        self.new_vectors = data.queries[p["reads"]:]
        deletes = p["steps"] // p["delete_every"]
        self.delete_ids = [int(i) for i in rng.choice(p["vectors"], deletes,
                                                      replace=False)]
        self.inputs = digest(data.vectors, data.queries,
                             np.array(self.delete_ids))
        config = self.config(overflow_capacity_records=p["overflow"])
        deployment = Deployment(data.vectors, config,
                                simulate_link_contention=False)
        self.image = self.workdir / "image"
        shutil.rmtree(self.image, ignore_errors=True)
        persist.save_deployment(self.image, deployment.layout,
                                deployment.meta, config)
        self.setup_digests.append(region_digest(deployment.layout))
        for client in deployment.clients:
            client.close()
        del deployment
        gc.collect()

    def cycle(self) -> Cycle:
        from repro import persist
        from repro.core.client import DHnswClient
        p = self.p
        meta, layout, config = persist.load_deployment(self.image)
        writers = [DHnswClient(layout, meta, config, name=f"writer{i}")
                   for i in range(2)]
        reader = DHnswClient(layout, meta, config, name="reader")
        starts = [w.node.clock.now_us for w in writers]
        watch = Stopwatch(self.probe)
        sigs, kinds, results = [], [], []
        acked = deleted = 0
        base = p["vectors"]
        delete_iter = iter(self.delete_ids)
        for step in range(p["steps"]):
            writer = writers[step % 2]
            rows = slice(step * p["insert"], (step + 1) * p["insert"])
            ids = list(range(base + rows.start, base + rows.stop))
            reports = watch.time(writer.insert_batch,
                                 self.new_vectors[rows], ids)
            kinds.append("write")
            acked += len(reports)
            sigs.append(tuple((r.cluster_id, r.overflow_slot,
                               r.triggered_rebuild) for r in reports)
                        + (writer.node.clock.now_us,))
            if step % p["delete_every"] == p["delete_every"] - 1:
                gid = next(delete_iter)
                report = watch.time(writer.delete, self.data.vectors[gid],
                                    gid)
                kinds.append("write")
                deleted += 1
                sigs.append((report.cluster_id, report.overflow_slot,
                             writer.node.clock.now_us))
            first = (step * p["read"]) % p["reads"]
            queries = self.reads[first:first + p["read"]]
            result = watch.time(reader.search_batch, queries, K,
                                ef_search=EF)
            kinds.append("read")
            sigs.append(search_sig(result))
            results.append(result)
        self.operations += acked + deleted + sum(len(r.results)
                                                 for r in results)
        walls, probes = watch.done()
        extras = self.after_churn(layout, meta, config, reader)
        extras.update(
            results=results, kinds=kinds, acked=acked, deleted=deleted,
            writer_sim_us=sum(w.node.clock.now_us - s
                              for w, s in zip(writers, starts)),
            rebuilds=sum(w.mutation.stats.rebuilds_led for w in writers),
            reclaimed=sum(c.mutation.stats.reclaimed_bytes
                          for c in (*writers, reader)))
        # Cycle-level observables ride along with the per-op signatures.
        sigs.append((extras["final"], extras["fsck"], extras["rebuilds"],
                     extras["writer_sim_us"]))
        for client in (*writers, reader):
            client.close()
        return Cycle(walls, probes, sigs, extras)

    def after_churn(self, layout, meta, config, reader) -> dict:
        """Untimed end of a cycle: recall on the live set, fsck, live
        count, save → restart → identical answers, fsck again."""
        from repro import persist
        from repro.core.client import DHnswClient
        from repro.core.fsck import fsck
        from repro.datasets import exact_knn
        p = self.p
        base = p["vectors"]
        final = reader.search_batch(self.reads, K, ef_search=EF)
        final_sig = search_sig(final)[0]
        deleted = set(self.delete_ids)
        live_ids = np.array([i for i in range(base) if i not in deleted]
                            + list(range(base, base
                                         + len(self.new_vectors))))
        live = np.concatenate([self.data.vectors, self.new_vectors])[live_ids]
        truth = live_ids[exact_knn(live, self.reads, K)]
        value = recall([r.ids for r in final.results], truth)

        report = fsck(layout)
        self.checks.check(report.clean, "churn_rw: fsck after churn:\n"
                          + report.summary())
        counted = (report.base_vectors + report.live_overflow_records
                   - report.tombstones)
        expected = base + len(self.new_vectors) - len(self.delete_ids)
        self.checks.check(counted == expected,
                          f"churn_rw: live count {counted} (base + live "
                          f"overflow - tombstones) != {expected} (corpus + "
                          f"inserts - deletes)")

        churned = self.workdir / "churned"
        shutil.rmtree(churned, ignore_errors=True)
        persist.save_deployment(churned, layout, meta, config)
        meta2, layout2, config2 = persist.load_deployment(churned)
        restarted = DHnswClient(layout2, meta2, config2, name="restart")
        first = restarted.search_batch(self.reads[:1], K, ef_search=EF)
        again = restarted.search_batch(self.reads, K, ef_search=EF)
        restarted.close()
        self.checks.check(
            search_sig(first)[0] == search_sig(
                reader.search_batch(self.reads[:1], K, ef_search=EF))[0]
            and search_sig(again)[0] == final_sig,
            "churn_rw: the restarted client's answers differ from the "
            "live reader's")
        report2 = fsck(layout2)
        self.checks.check(report2.clean, "churn_rw: fsck after restart:\n"
                          + report2.summary())
        self.churned = churned
        self.churned_answer = search_sig(first)[0]
        return {"final": final_sig, "recall": value,
                "fsck": (report.base_vectors, report.live_overflow_records,
                         report.tombstones)}

    def metrics(self, times, cycles) -> dict:
        extras = cycles[0].extras
        kinds = extras["kinds"]
        reads = [i for i, kind in enumerate(kinds) if kind == "read"]
        writes = [i for i, kind in enumerate(kinds) if kind == "write"]
        results = extras["results"]
        queries = sum(len(r.results) for r in results)
        samples = [r.breakdown.total_us for r in results for _ in r.results]
        value = extras["recall"]
        self.checks.check(value >= RECALL_FLOOR[self.name],
                          f"churn_rw recall@10 {value:.4f} on the live set "
                          f"is below the floor {RECALL_FLOOR[self.name]}")
        return {
            **throughput("qps", queries, times, reads),
            **throughput("ingest", extras["acked"], times, writes),
            "sim_us_per_query": sum(r.breakdown.total_us
                                    for r in results) / queries,
            **ms_percentiles(samples),
            "sim_us_per_insert": extras["writer_sim_us"] / extras["acked"],
            "recall_at_10": value,
            "rebuilds_per_cycle": extras["rebuilds"],
        }

    def restarts(self) -> tuple[list[float], list[float]]:
        return self.restart_from(self.churned, self.reads[:1],
                                 self.churned_answer)

    def layer_extras(self, cycles) -> dict:
        return {"reclaim.kb": cycles[0].extras["reclaimed"] / 1024.0}


WORKLOADS = {cls.name: cls for cls in (WarmBatch, DoorMiss, ChurnRw)}
