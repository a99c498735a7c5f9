"""Timing, percentile, digest and host helpers shared by the workloads.

Nothing here imports the program under test, so the host probe measures
the machine alone.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

#: A percentile is refused unless at least this many samples lie beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-quantile of ``values`` and the sample count.

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_BEYOND`
    samples lie above the chosen rank (a p99 needs 1,000 samples).
    """
    ordered = sorted(values)
    count = len(ordered)
    rank = max(1, math.ceil(q * count))
    if count - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {count} samples has {count - rank} beyond "
            f"it; need {MIN_BEYOND}")
    return float(ordered[rank - 1]), count


#: :class:`ShortProbe` time on an unloaded 2-CPU x86_64 reference host.
REF_PROBE_MS = 8.0


class ShortProbe:
    """A ~8 ms fixed Python + NumPy loop, run before every timed operation.

    Co-tenant load on a shared host slows the probe and the program alike
    (a NumPy hog on the sibling CPU slowed both about 1.7x and left their
    ratio within 5%; other co-tenant mixes track less well), so
    :func:`host_factor` of a run's probes rescales its throughput to the
    reference host.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.left = rng.standard_normal((256, 128)).astype(np.float32)
        self.right = rng.standard_normal((800, 128)).astype(np.float32)

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(15_000):
            total += i * i % 7
        for _ in range(2):
            np.einsum("ij,kj->ik", self.left, self.right)
        return (time.perf_counter() - start) * 1e3


class Stopwatch:
    """Wall time of each operation of one cycle, with a probe before each
    and one after the last."""

    def __init__(self, probe: ShortProbe) -> None:
        self.probe = probe
        self.walls: list[float] = []
        self.probes: list[float] = []

    def time(self, fn, *args, **kwargs):
        """Run ``fn`` as one timed operation; returns its result."""
        self.probes.append(self.probe())
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.walls.append(time.perf_counter() - start)
        return result

    def done(self) -> tuple[list[float], list[float]]:
        """The operations' wall seconds and the probes' milliseconds."""
        self.probes.append(self.probe())
        return self.walls, self.probes


def host_factor(probes_ms) -> float:
    """How much slower than the reference host this run's host was.

    The first quartile of the run's probes, over :data:`REF_PROBE_MS`: a
    low quantile, like the best-of it rescales, so a run that saw quiet
    moments is judged by them.  Over five runs each of ``door_miss`` and
    ``warm_batch`` on a drifting host it left the smallest spread of the
    estimators tried (first decile, median, per-operation and per-cycle
    rescaling).
    """
    return statistics.quantiles(probes_ms, n=4)[0] / REF_PROBE_MS


class OpTimes:
    """Seconds of each operation of a fixed cycle, per repetition."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = []

    def add_cycle(self, walls: list[float]) -> None:
        if self.samples and len(walls) != len(self.samples):
            raise ValueError(f"cycle has {len(walls)} operations, earlier "
                             f"cycles had {len(self.samples)}")
        if not self.samples:
            self.samples = [[] for _ in walls]
        for op, wall in zip(self.samples, walls):
            op.append(wall)

    @property
    def cycles(self) -> int:
        return len(self.samples[0]) if self.samples else 0

    def best_sum(self, ops=None) -> float:
        """Σ over operations of each one's fastest repetition."""
        return sum(min(self.samples[i]) for i in self._ops(ops))

    def median_sum(self, ops=None) -> float:
        """Σ over operations of each one's median repetition."""
        return sum(statistics.median(self.samples[i])
                   for i in self._ops(ops))

    def _ops(self, ops):
        return range(len(self.samples)) if ops is None else ops


def digest(*arrays) -> str:
    """sha256 over the raw bytes of NumPy arrays (or buffers)."""
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(memoryview(np.ascontiguousarray(array)).cast("B"))
    return sha.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Process high-water resident set size in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def host_block() -> dict:
    """What the run ran on; recorded, never compared between commits."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, AttributeError):
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
        "system": platform.platform(),
    }


def host_probe_ms() -> float:
    """Best of five timings of a fixed Python + NumPy loop, in ms.

    Self-contained (no program code), so a drift between the probe at the
    start and at the end of a run points at the host, not the program.
    """
    rng = np.random.default_rng(0)
    left = rng.standard_normal((256, 128)).astype(np.float32)
    right = rng.standard_normal((800, 128)).astype(np.float32)
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i % 7
        for _ in range(8):
            np.einsum("ij,kj->ik", left, right)
        best = min(best, time.perf_counter() - start)
    return best * 1e3
