"""d-HNSW benchmark: three workloads on two clocks, plus a traced ledger.

Run from the repository root::

    python3 perfbench/run.py                      # all workloads, seed 1
    python3 perfbench/run.py --workload door_miss --seed 3 --seconds 12
    python3 perfbench/run.py --workload churn_rw --trace 1   # layer ledger
    python3 perfbench/run.py --write-spec         # regenerate BENCHMARK.json

With ``--workload`` the run happens in this process (single-threaded:
``search_workers=1``, ``build_workers=0``).  Without it, each workload
runs in its own child process, one after another.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  Any failed
correctness check makes the exit code non-zero.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import spec
from measure import (OpTimes, host_block, host_factor, host_probe_ms,
                     peak_rss_mb)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 2
#: Timed cycles at least, whatever ``--seconds`` says.
MIN_CYCLES = 3

ROOT = pathlib.Path.cwd()
OUT = ROOT / "perfbench" / "out"


def bootstrap() -> None:
    """Import the program from ``src/`` of the checkout this runs in."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {source}/repro; "
                         f"run from the repository root")
    sys.path.insert(0, str(source))
    import repro
    if pathlib.Path(repro.__file__).resolve().parent != (
            source / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {source}")


class Record:
    """Cycles of one kind, with their per-operation times."""

    def __init__(self) -> None:
        self.cycles: list = []
        self.times = OpTimes()
        self.probes: list[float] = []

    def add(self, cycle) -> None:
        self.cycles.append(cycle)
        self.times.add_cycle(cycle.walls)
        self.probes.extend(cycle.probes)


def run_cycles(workload, seconds: float, record: Record, tracer=None,
               plain: Record | None = None) -> None:
    """Repeat the workload's cycle for about ``seconds`` wall seconds.

    With a tracer, cycles alternate untraced (into ``plain``) and traced
    (into ``record``) so both see the same host conditions.  Garbage is
    collected between cycles, outside the timed operations, so the peak
    RSS does not depend on how many cycles fit.
    """
    start = time.perf_counter()
    done = 0
    while True:
        traced = tracer is not None and done % 2 == 1
        if traced:
            tracer.phase = "run"
            tracer.install()
        try:
            cycle = workload.cycle()
        finally:
            if traced:
                tracer.uninstall()
        (record if tracer is None or traced else plain).add(cycle)
        gc.collect()
        done += 1
        elapsed = time.perf_counter() - start
        need = 2 * MIN_CYCLES if tracer is not None else MIN_CYCLES
        if done >= need and elapsed + elapsed / done > seconds:
            break


def same(a, b) -> bool:
    """Equal, with floats equal to 1e-9 relative.

    Simulated µs are deltas of ever-growing float accumulators (SimClock,
    RdmaStats), so a repeated operation's delta can differ in its last
    bits once the accumulator has grown; counts and answers compare
    exactly.
    """
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def check_repeats(checks, cycles, name: str) -> None:
    """Every cycle must repeat the first one's answers and sim numbers."""
    first = cycles[0].sigs
    for index, cycle in enumerate(cycles[1:], start=1):
        diff = [i for i, (a, b) in enumerate(zip(first, cycle.sigs))
                if not same(a, b)]
        checks.check(not diff and len(first) == len(cycle.sigs),
                     f"{name}: cycle {index} differs from cycle 0 at "
                     f"operations {diff[:8]} (answers or simulated numbers)")


def emit(label: str, values: dict, units: dict, better: dict) -> None:
    for name, value in values.items():
        print(f"  {label:<10} {name:<30} {value:>14.6g} {units[name]:<10} "
              f"({better[name]} is better)")


def run_one(args) -> int:
    bootstrap()
    from workloads import WORKLOADS, Checks

    checks = Checks()
    workdir = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    probe_start = host_probe_ms()
    workload = WORKLOADS[args.workload](args.scale, args.seed, checks,
                                        workdir)
    errors = 0
    e2e: dict = {}
    layers: dict = {}
    diagnostics: dict = {}
    try:
        if args.trace:
            layers, diagnostics = traced_run(workload, args, checks)
        else:
            e2e, diagnostics = untraced_run(workload, args, checks)
    except Exception:  # a crashed run reports, then fails
        traceback.print_exc()
        errors = 1
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    probe_end = host_probe_ms()

    failed = errors + len(checks.failures)
    attempted = max(1, workload.operations + checks.attempted + errors)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "inputs_sha256": workload.inputs,
        "host": host_block(),
        "host_probe_ms": {"start": probe_start, "end": probe_end},
        "diagnostics": diagnostics,
        "fail_ratio": failed / attempted,
        "failures": checks.failures}, default=str))
    units = spec.UNITS
    better = {name: b for name, _, b, *_ in
              spec.END_TO_END + spec.NOT_COMPARED + spec.PER_LAYER}
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"checks={checks.attempted} failed={failed}")
    compared = {name: e2e[name] for name, *_ in spec.END_TO_END
                if name in e2e}
    emit("e2e", compared, units, better)
    emit("printed", {name: value for name, value in e2e.items()
                     if name not in compared}, units, better)
    emit("layer", layers, units, better)
    emit("printed", {"fail_ratio": failed / attempted}, units, better)
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    shown = layers if args.trace else compared
    if failed:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in shown.items()}}))
    return 0


def untraced_run(workload, args, checks) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    workload.check_setups()
    record = Record()
    run_cycles(workload, args.seconds, record)
    check_repeats(checks, record.cycles, workload.name)
    values = workload.metrics(record.times, record.cycles)
    restarts, _ = workload.restarts()
    values["restart_s"] = min(restarts)
    # Throughput at the reference host speed (see measure.ShortProbe).
    factor = host_factor(record.probes)
    values["qps_wall_ref"] = values["qps_wall"] * factor
    e2e = {name: values[name] for name, *_ in spec.END_TO_END
           if name in values}
    e2e["peak_rss_mb"] = peak_rss_mb()
    e2e["setup_s"] = statistics.median(setups)
    for name, *_ in spec.NOT_COMPARED:
        if name in values:
            e2e[name] = values[name]
    missing = [name for name, *_ in spec.END_TO_END if name not in e2e]
    checks.check(not missing, f"metrics not produced: {missing}")
    diagnostics = {
        "cycles": record.times.cycles, "setups_s": setups,
        "restarts_s": restarts, "host_factor": factor,
        "probes_ms": [round(x, 3) for x in record.probes],
        "op_walls_s": record.times.samples,
        **{name: value for name, value in values.items()
           if name not in e2e}}
    return e2e, diagnostics


def traced_run(workload, args, checks) -> tuple[dict, dict]:
    from ledger import check_attribution, ledger
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    plain, traced = Record(), Record()
    run_cycles(workload, args.seconds, traced, tracer=tracer, plain=plain)
    # Tracing only observes: traced cycles repeat untraced ones exactly.
    check_repeats(checks, plain.cycles + traced.cycles, workload.name)
    problems = check_attribution(tracer.spans)
    checks.check(not problems, "\n".join(problems[:20]))
    values = workload.metrics(plain.times, plain.cycles)
    tracer.phase = "restart"
    tracer.install()
    try:
        workload.restarts()
    finally:
        tracer.uninstall()
    extra = workload.layer_extras(plain.cycles)
    extra["trace.overhead_ratio"] = (traced.times.best_sum()
                                     / plain.times.best_sum())
    extra["cycles"] = traced.times.cycles
    layers = ledger(tracer.spans, extra)
    OUT.mkdir(parents=True, exist_ok=True)
    dump = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl.gz"
    tracer.dump(dump)
    diagnostics = {"spans": len(tracer.spans), "span_file": str(dump),
                   "untraced_cycles": plain.times.cycles,
                   "traced_cycles": traced.times.cycles,
                   "untraced_values": values}
    return layers, diagnostics


def run_all(args) -> int:
    """Each workload in its own process; exit non-zero if any fails."""
    status = 0
    summary = {}
    for name in spec.WORKLOAD_NAMES:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(command, capture_output=True, text=True,
                              check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines else None
        status = status or done.returncode
    print(json.dumps({"correct": status == 0, "workloads": summary}))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's miniature inputs")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py")
    args = parser.parse_args()
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
