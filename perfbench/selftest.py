"""Self-test of the benchmark at tiny scale.

Run from the repository root (about three minutes on two CPUs)::

    python3 perfbench/selftest.py

Checks that:

* ``BENCHMARK.json`` equals what ``perfbench/spec.py`` generates;
* the nearest-rank percentile helper reports its sample count and
  refuses a percentile with fewer than 10 samples beyond it;
* every workload, traced and untraced, prints every metric of the spec
  with its unit and direction, and exits 0 with ``correct: true``;
* a different seed changes the inputs but not the set of metrics.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import spec
from measure import TooFewSamples, percentile

ROOT = pathlib.Path.cwd()
RUN = pathlib.Path(__file__).with_name("run.py")


def fail(what: str) -> None:
    raise SystemExit(f"SELFTEST FAILED: {what}")


def check_spec_file() -> None:
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    if committed != spec.benchmark_json():
        fail("BENCHMARK.json differs from perfbench/spec.py; run "
             "python3 perfbench/run.py --write-spec")
    for entry in committed["end_to_end"] + committed["per_layer"]:
        if not entry["unit"] or entry["better"] not in ("higher", "lower"):
            fail(f"metric {entry['name']} lacks a unit or direction")


def check_percentile() -> None:
    value, count = percentile(range(1, 1001), 0.99)
    if (value, count) != (990.0, 1000):
        fail(f"p99 of 1..1000 gave {(value, count)}, want (990.0, 1000)")
    value, count = percentile(range(1, 21), 0.50)
    if (value, count) != (10.0, 20):
        fail(f"p50 of 1..20 gave {(value, count)}, want (10.0, 20)")
    for values, q in ((range(999), 0.99), (range(15), 0.50), ([], 0.5)):
        try:
            percentile(values, q)
        except TooFewSamples:
            continue
        fail(f"p{q * 100:g} of {len(values)} samples was not refused")


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict, str]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--scale",
         "tiny"], capture_output=True, text=True, check=False, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} seed={seed} trace={trace} exited "
             f"{done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    details = next(json.loads(line) for line in lines
                   if line.startswith('{"workload"'))
    return result, details, done.stdout


def check_workloads() -> None:
    expected = {
        0: {name: unit for name, unit, *_ in spec.END_TO_END},
        1: {name: unit for name, unit, *_ in spec.PER_LAYER},
    }
    for workload in spec.WORKLOAD_NAMES:
        inputs = {}
        for seed in (1, 2):
            for trace in (0, 1):
                result, details, text = run(workload, seed, trace)
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    fail(f"{workload}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"]:
                    fail(f"{workload}: not correct: {result}")
                got = {name: entry["unit"]
                       for name, entry in result["metrics"].items()}
                if got != expected[trace]:
                    fail(f"{workload} trace={trace}: metrics "
                         f"{sorted(set(got) ^ set(expected[trace]))} "
                         f"missing, extra or with the wrong unit")
                for name, unit in got.items():
                    if not re.search(rf"\b{re.escape(name)}\s+\S+\s+"
                                     rf"{re.escape(unit)}\s+\((higher|lower)"
                                     rf" is better\)", text):
                        fail(f"{workload}: {name} not printed with its "
                             f"unit and direction")
                if trace == 0 and any(entry["value"] <= 0
                                      for entry in result["metrics"].values()):
                    fail(f"{workload}: an end-to-end metric is not "
                         f"positive: {result['metrics']}")
                inputs[seed] = details["inputs_sha256"]
        if inputs[1] == inputs[2]:
            fail(f"{workload}: seeds 1 and 2 generated the same inputs")
        print(f"selftest: {workload} ok")


def main() -> int:
    check_spec_file()
    check_percentile()
    check_workloads()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
